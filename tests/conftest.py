"""Shared fixtures: model specs, one-stage runs and cached certified
continuation runs.

The expensive solves are session-scoped so the solver, diagnostics, and
acceptance modules reuse one run each.
"""

from __future__ import annotations

import math
import time
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
import pytest

from nlhet import (Grid, KernelSpec, ModulationSpec, ObstacleConfig,
                   ObstaclePair, PotentialSpec, Profile, ProblemSpec,
                   SolverConfig, reference_profile_eval)
from nlhet.discretize import reference_profile
from nlhet.solver import (ContinuationSchedule, StageRecord, _Core, _Stage,
                          _run_stage, continuation_run)

TWO_PI = 2 * math.pi


def cosine_potential():
    return PotentialSpec(zeta1=0.0, zeta2=TWO_PI)


def homogeneous_spec(s: float = 0.5, a: float = 1.0) -> ProblemSpec:
    return ProblemSpec(KernelSpec(s=s), cosine_potential(),
                       ModulationSpec(form="constant", base=a))


def footnote_modulation(eps: float = 0.5, dfr: float = 0.5,
                        shifted: bool = True) -> ModulationSpec:
    """a(x) = 2 + eps cos(dfr x) with its non-degeneracy data.

    ``shifted`` places the windows at the peaks -2pi/dfr and +2pi/dfr so the
    obstacle endpoints (b = m) straddle the transition region symmetrically.
    """
    period = TWO_PI / dfr
    m1 = -period if shifted else 0.0
    m2 = period if shifted else period
    return ModulationSpec(form="cosine", base=2.0, eps=eps, delta_freq=dfr,
                          m1=m1, m2=m2, omega=math.pi / (4 * dfr),
                          theta=math.pi / dfr, gamma=math.sqrt(2) * eps)


def modulated_spec(eps: float = 0.5, dfr: float = 0.5) -> ProblemSpec:
    return ProblemSpec(KernelSpec(s=0.5), cosine_potential(),
                       footnote_modulation(eps, dfr))


def reference_on(spec: ProblemSpec, grid: Grid) -> Profile:
    return Profile.from_function(
        grid, lambda x: reference_profile_eval(spec.reference, x),
        spec.reference.zeta1, spec.reference.zeta2)


def layer(x: np.ndarray, shift: float = 0.0) -> np.ndarray:
    return np.pi + 2 * np.arctan(x - shift)


class StageRun(NamedTuple):
    profile: Profile
    contact: List[Tuple[int, float, str]]
    trace: List[Tuple]
    record: StageRecord


def run_stage(Q0: Profile, spec: ProblemSpec, pair: Optional[ObstaclePair],
              eta: float, mu: float, solver_cfg: Optional[SolverConfig] = None,
              ref: Optional[Profile] = None) -> StageRun:
    """One (eta, mu) stage from Q0 through the solver's stage runner, on a
    fresh ``_Core``; ``pair`` None leaves the well clamp only."""
    grid = Q0.grid
    if ref is None:
        ref = reference_profile(spec, grid)
    stage = _Stage(_Core(spec, grid, ref), eta, mu, pair)
    trace: List[Tuple] = []
    q, contact, record = _run_stage(stage, Q0.values,
                                    solver_cfg or SolverConfig(), trace)
    return StageRun(Profile(grid, q, Q0.left_const, Q0.right_const), contact,
                    trace, record)


@pytest.fixture(scope="session")
def anchor_run():
    """Acceptance anchor: homogeneous cosine model, R = 200, h = 0.05."""
    spec = homogeneous_spec()
    grid = Grid(R=200.0, n=8001)
    ocfg = ObstacleConfig(b1=-4.0, b2=4.0)
    sched = ContinuationSchedule()
    t0 = time.perf_counter()
    result = continuation_run(spec, grid, ocfg, sched, SolverConfig())
    elapsed = time.perf_counter() - t0
    return {"spec": spec, "grid": grid, "ocfg": ocfg, "result": result,
            "elapsed": elapsed, "sched": sched}


@pytest.fixture(scope="session")
def modulated_run():
    """Certified modulated run: footnote modulation, wells {0, 2pi}."""
    spec = modulated_spec()
    grid = Grid(R=200.0, n=8001)
    m = spec.modulation
    ocfg = ObstacleConfig(b1=m.m1, b2=m.m2)
    result = continuation_run(spec, grid, ocfg, ContinuationSchedule(),
                              SolverConfig())
    return {"spec": spec, "grid": grid, "ocfg": ocfg, "result": result}


@pytest.fixture(scope="session")
def stickiness_run():
    """Long-window homogeneous run for the stickiness criterion (rho = 0.01
    cleanliness starts near x = 200, so the window must reach far past it).
    The collar width scales with the coarser grid (two nodes minimum)."""
    spec = homogeneous_spec()
    grid = Grid(R=500.0, n=10001)
    ocfg = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
    result = continuation_run(spec, grid, ocfg, ContinuationSchedule(),
                              SolverConfig())
    return {"spec": spec, "grid": grid, "ocfg": ocfg, "result": result}


@pytest.fixture(scope="session")
def tail_runs():
    """Homogeneous solves for s in {0.35, 0.45, 0.5} (tail-decay criterion).

    The window is twice the anchor's: the analytic tail closure freezes the
    exterior at the wells, and the induced decay bias in the outer-quarter
    fit region shrinks like R^(-2s)."""
    out = {}
    sched = ContinuationSchedule(eta_seq=(1e-1, 1e-2, 0.0),
                                 mu_seq=(1e-1, 2e-2, 0.0))
    for s in (0.35, 0.45, 0.5):
        spec = homogeneous_spec(s=s)
        grid = Grid(R=400.0, n=16001)
        ocfg = ObstacleConfig(b1=-4.0, b2=4.0)
        out[s] = {"spec": spec, "grid": grid,
                  "result": continuation_run(spec, grid, ocfg, sched,
                                             SolverConfig())}
    return out
