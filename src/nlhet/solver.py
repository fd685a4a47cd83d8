"""Constrained minimization and the double continuation eta -> 0, mu -> 0.

The minimizer is projected gradient descent with Armijo backtracking on the
feasible box (well sandwich intersected with the obstacle band on the
constrained region).  Energy decreases strictly on every accepted step; the
stationarity measure is ||Q - proj(Q - g)||_2 with g the discrete energy
gradient, so at free nodes the Euler-Lagrange residual is bounded by
grad_tol / h at convergence.

The continuation runs an outer loop over the penalty weights mu and an
inner loop over the viscosity weights eta (warm starts throughout), re-solves
with eta = 0 after the last positive eta of each mu stage, and finishes with
an unpenalized polish (mu = 0, well clamp only).  The far-field limit check
certifies the result: the deviation from each well on the outer quarter of
the window must stay below the limit tolerance and its running maximum must
shrink toward the window edge.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .discretize import (Grid, Profile, TailClosure, operator_field,
                         reference_profile, workspace_for)
from .energy import EnergyBreakdown
from .model import ProblemSpec, potential_eval_grad, verify_model
from .obstacles import (ObstacleConfig, ObstaclePair, build_envelopes,
                        faithful_barriers, project_admissible, solve_barrier)

__all__ = [
    "SolverConfig",
    "ContinuationSchedule",
    "SolveResult",
    "StageRecord",
    "SolverError",
    "StagnationError",
    "NonFiniteEnergyError",
    "NonConvergenceError",
    "truncate_to_wells",
    "minimize_constrained",
    "continuation_run",
    "residual_EL",
    "verify_apriori_bounds",
    "default_limit_tol",
]

log = logging.getLogger("nlhet")

MU_GUARD = 0.1  # heuristic cap on the first penalty weight (warned, not enforced)
ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the Armijo rule
ARMIJO_SHRINK = 0.5  # step factor per backtrack


class SolverError(RuntimeError):
    pass


class StagnationError(SolverError):
    def __init__(self, msg, iteration, stationarity, step):
        super().__init__(msg)
        self.iteration = iteration
        self.stationarity = stationarity
        self.step = step


class NonFiniteEnergyError(SolverError):
    def __init__(self, msg, term):
        super().__init__(msg)
        self.term = term


class NonConvergenceError(SolverError):
    def __init__(self, msg, samples):
        super().__init__(msg)
        self.samples = samples


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 200000
    grad_tol: Optional[float] = None       # default 1e-8 * n, resolved per grid
    max_backtracks: int = 60

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValueError("grad_tol must be > 0")

    def resolve_grad_tol(self, n: int) -> float:
        return self.grad_tol if self.grad_tol is not None else 1e-8 * n


@dataclass(frozen=True)
class ContinuationSchedule:
    """Decreasing eta and mu sequences; a single trailing 0 marks the final
    unregularized stage of each loop (appended automatically if missing)."""

    eta_seq: Tuple[float, ...] = (1e-1, 1e-2, 1e-3, 0.0)
    mu_seq: Tuple[float, ...] = (1e-1, 2e-2, 5e-3, 0.0)

    def __post_init__(self):
        for name, seq in (("eta_seq", self.eta_seq), ("mu_seq", self.mu_seq)):
            if len(seq) == 0:
                raise ValueError(f"{name} must be nonempty")
            pos = [v for v in seq if v != 0.0]
            if any(v < 0 for v in seq):
                raise ValueError(f"{name} entries must be >= 0")
            if any(b >= a for a, b in zip(seq, seq[1:])):
                raise ValueError(f"{name} must be strictly decreasing")
            if 0.0 in seq and seq[-1] != 0.0:
                raise ValueError(f"a zero in {name} must be its last entry")
        if self.mu_seq[0] > MU_GUARD:
            log.warning("first penalty weight mu=%g exceeds the %g guard; "
                        "the contact report is the operative certificate",
                        self.mu_seq[0], MU_GUARD)

    def etas(self) -> Tuple[float, ...]:
        return self.eta_seq if self.eta_seq[-1] == 0.0 else self.eta_seq + (0.0,)

    def mus_positive(self) -> Tuple[float, ...]:
        return tuple(v for v in self.mu_seq if v > 0.0)

    def final_polish(self) -> bool:
        return self.mu_seq[-1] == 0.0


@dataclass
class StageRecord:
    mu: float
    eta: float
    iterations: int
    energy: float
    stationarity: float
    contact_count: int


@dataclass
class SolveResult:
    profile: Profile
    breakdown: EnergyBreakdown
    residual_max: float
    contact: List[Tuple[int, float, str]]
    trace: List[Tuple]
    pair: Optional[ObstaclePair] = None  # the pair the contact report used
    flipped: bool = False
    stages: List[StageRecord] = field(default_factory=list)
    stationarity: float = 0.0
    iterations: int = 0
    limit_check: Optional[dict] = None
    monotone: Optional[bool] = None


def truncate_to_wells(Q: Profile, pot) -> Profile:
    """Clamp node values (and far fields) into the well sandwich.

    Clamping never increases any energy term: differences shrink, the
    penalty shrinks (the reference stays strictly inside the sandwich), and
    the potential drops to zero where the clamp is active.
    """
    lo, hi = pot.well_lo, pot.well_hi
    return Profile(Q.grid, np.clip(Q.values, lo, hi),
                   min(max(Q.left_const, lo), hi), min(max(Q.right_const, lo), hi))


# --------------------------------------------------------------------------
# stage context: cached quadrature pieces for fast energy/gradient
# --------------------------------------------------------------------------


class _Stage:
    """One (eta, mu) subproblem with cached convolutions of the reference."""

    def __init__(self, spec: ProblemSpec, grid: Grid, ref: Profile,
                 eta: float, mu: float, pair: Optional[ObstaclePair],
                 cfg: Optional[ObstacleConfig], tail: Optional[TailClosure]):
        self.spec, self.grid, self.ref = spec, grid, ref
        self.eta, self.mu = eta, mu
        self.ws = workspace_for(spec.kernel, grid, tail)
        n, h = grid.n, grid.h
        self.h = h
        self.a = np.asarray(spec.modulation(grid.x))
        self.tw = np.full(n, h)
        self.tw[0] = self.tw[-1] = h / 2.0
        self.ref_vals = ref.values
        self.conv_ref = self.ws.conv(self.ref_vals)
        # feasible box: well sandwich, intersected with the obstacle band
        pot = spec.potential
        self.lob = np.full(n, pot.well_lo)
        self.upb = np.full(n, pot.well_hi)
        self.pair = pair
        if pair is not None:
            x = grid.x
            region = (x <= cfg.b1) | (x >= cfg.b2)
            self.lob[region] = np.maximum(self.lob[region], pair.Psi.values[region])
            self.upb[region] = np.minimum(self.upb[region], pair.Phi.values[region])
            if np.any(self.lob > self.upb):
                raise SolverError("empty feasible box: obstacles conflict with wells")

    def trial(self, q: np.ndarray) -> Tuple[Tuple[float, float, float, float],
                                            Tuple[np.ndarray, np.ndarray]]:
        """Energy pieces at q from one convolution and one potential call.

        Also returns (conv(q - ref), W'(q)), from which ``gradient``
        builds the gradient without another convolution or potential call.
        A non-finite piece raises NonFiniteEnergyError naming the term.
        """
        h = self.h
        v = q - self.ref_vals
        cv = self.ws.conv(v)
        W, Wp = potential_eval_grad(self.spec.potential, q)
        dv = np.diff(q) / h
        visc = 0.5 * self.eta * float(np.sum(dv * dv)) * h
        pen = 0.5 * self.mu * float(np.sum(v ** 2 * self.tw))
        pot = float(np.sum(self.a * W * self.tw))
        svv = 2 * h * (float(np.sum(v * v * self.ws.diag)) - float(np.sum(v * cv)))
        svr = 2 * h * (float(np.sum(v * self.ref_vals * self.ws.rho))
                       - float(np.sum(v * self.conv_ref))
                       + float(np.sum(v * (self.ref_vals - self.ref.left_const) * self.ws.Wl))
                       + float(np.sum(v * (self.ref_vals - self.ref.right_const) * self.ws.Wr)))
        inter = 0.25 * (svv + 2.0 * svr)
        pieces = (visc, pen, pot, inter)
        for term, val in zip(("viscous", "penalty", "potential", "interaction"), pieces):
            if not math.isfinite(val):
                raise NonFiniteEnergyError(
                    f"non-finite {term} energy ({val}) at a trial point "
                    f"(eta={self.eta:g}, mu={self.mu:g})", term)
        return pieces, (cv, Wp)

    def evaluate(self, q: np.ndarray) -> Tuple[Tuple[float, float, float, float],
                                               np.ndarray]:
        """(energy pieces, gradient) at q: one convolution, one potential call."""
        pieces, parts = self.trial(q)
        return pieces, self.gradient(q, parts)

    def energy_pieces(self, q: np.ndarray) -> Tuple[float, float, float, float]:
        return self.trial(q)[0]

    def gradient(self, q: np.ndarray,
                 parts: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
        """h * (full operator field), pinned to zero at the window edges.

        ``parts``, the (conv(q - ref), W'(q)) that ``trial`` returned for
        this q, replaces the convolution and the potential call.
        """
        conv_q = Wp = None
        if parts is not None:
            conv_v, Wp = parts
            conv_q = conv_v + self.conv_ref
        g = self.h * operator_field(self.ws, q, self.ref.left_const,
                                    self.ref.right_const, self.spec, self.a,
                                    self.eta, self.mu, self.ref_vals,
                                    conv_q=conv_q, Wp=Wp)
        g[0] = g[-1] = 0.0
        return g

    def project(self, q: np.ndarray) -> np.ndarray:
        return np.clip(q, self.lob, self.upb)


def _contact_nodes(q: np.ndarray, pair: Optional[ObstaclePair], grid: Grid,
                   tol: float = 1e-11) -> List[Tuple[int, float, str]]:
    if pair is None:
        return []
    out = []
    scale = max(1.0, float(np.abs(pair.Phi.values).max()))
    x = grid.x
    upper = np.abs(q - pair.Phi.values) <= tol * scale
    lower = np.abs(q - pair.Psi.values) <= tol * scale
    for i in np.where(upper)[0]:
        out.append((int(i), float(x[i]), "upper"))
    for i in np.where(lower)[0]:
        out.append((int(i), float(x[i]), "lower"))
    return out


def _minimize_stage(stage: _Stage, q0: np.ndarray, solver_cfg: SolverConfig,
                    trace: List[Tuple], iter_offset: int) -> Tuple[np.ndarray, Tuple, int, float]:
    """Projected-gradient descent from q0; returns (q, energy pieces, iterations,
    stationarity).  Each trial point is evaluated once, and the accepted
    trial's convolution and W' give the next iterate's gradient."""
    cfg = solver_cfg
    gtol = cfg.resolve_grad_tol(stage.grid.n)
    q = stage.project(q0.copy())
    q[0], q[-1] = q0[0], q0[-1]
    pieces, g = stage.evaluate(q)
    E = sum(pieces)
    alpha = 1.0
    rn = math.inf
    it = 0
    for it in range(1, cfg.max_iters + 1):
        r = q - stage.project(q - g)
        rn = float(np.linalg.norm(r))
        trace.append((iter_offset + it - 1, *pieces, sum(pieces), rn))
        if rn <= gtol:
            break
        accepted = False
        for _ in range(cfg.max_backtracks):
            qt = stage.project(q - alpha * g)
            qt[0], qt[-1] = q[0], q[-1]
            d = q - qt
            dd = float(np.sum(d * d))
            if dd == 0.0:
                break
            pt, parts = stage.trial(qt)
            Et = sum(pt)
            if Et <= E - ARMIJO_C1 / alpha * dd:
                accepted = True
                break
            alpha *= ARMIJO_SHRINK
        if not accepted:
            raise StagnationError(
                f"no admissible descent step above machine precision "
                f"(iteration {it}, stationarity {rn:.3e}, step {alpha:.3e})",
                it, rn, alpha)
        if Et > E + 1e-12:
            raise SolverError("energy increased on an accepted step")
        q, E, pieces = qt, Et, pt
        g = stage.gradient(q, parts)
        alpha = min(alpha * 2.0, 1e8)
    return q, pieces, it, rn


def minimize_constrained(Q0: Profile, spec: ProblemSpec,
                         pair: Optional[ObstaclePair],
                         cfg: Optional[ObstacleConfig],
                         eta: float, mu: float,
                         solver_cfg: Optional[SolverConfig] = None,
                         ref: Optional[Profile] = None,
                         tail: Optional[TailClosure] = None) -> SolveResult:
    """Projected-gradient minimization of the (eta, mu) functional.

    The iterate is clamped into the well sandwich and, when an obstacle pair
    is given, into [Psi, Phi] on the constrained region.  Accepted steps
    decrease the energy strictly; termination is by stationarity or
    max_iters.  After convergence the iterate is verified to stay below the
    faithful upper barrier (and above the lower one) between b1 and b2.
    """
    solver_cfg = solver_cfg or SolverConfig()
    grid = Q0.grid
    if ref is None:
        ref = reference_profile(spec, grid)
    stage = _Stage(spec, grid, ref, eta, mu, pair, cfg, tail)
    trace: List[Tuple] = []
    q0 = project_admissible(Q0, pair, cfg, "gamma_only").values if pair is not None \
        else Q0.values
    q, pieces, it, rn = _minimize_stage(stage, q0, solver_cfg, trace, 0)
    prof = Profile(grid, q, Q0.left_const, Q0.right_const)
    bd = EnergyBreakdown(*pieces)
    contact = _contact_nodes(q, pair, grid)
    if pair is not None:
        _assert_barrier_comparison(prof, pair, cfg)
    rmax, _ = residual_EL(prof, spec, tail) if eta == 0 and mu == 0 else \
        (_stage_residual_max(stage, q), None)
    return SolveResult(profile=prof, breakdown=bd, residual_max=rmax,
                       contact=contact, trace=trace, pair=pair, stages=[
                           StageRecord(mu, eta, it, bd.total, rn, len(contact))],
                       stationarity=rn, iterations=it)


def _stage_residual_max(stage: _Stage, q: np.ndarray) -> float:
    g = stage.gradient(q) / stage.h
    return float(np.abs(g[2:-2]).max())


def _assert_barrier_comparison(Q: Profile, pair: ObstaclePair,
                               cfg: ObstacleConfig, tol: float = 1e-6) -> None:
    phi_f, psi_f = faithful_barriers(pair)
    x = Q.x
    mid = (x > cfg.b1) & (x < cfg.b2)
    over = float(np.max(Q.values[mid] - phi_f.values[mid]))
    under = float(np.max(psi_f.values[mid] - Q.values[mid]))
    if over > tol or under > tol:
        raise SolverError(
            f"minimizer escapes the faithful barrier corridor between b1 and "
            f"b2 (over={over:.3e}, under={under:.3e})")


def default_limit_tol(grid: Grid, s: float) -> float:
    return 10.0 * grid.h ** min(2 * s, 1.0) + 5.0 / grid.R ** (2 * s)


def _limit_check(Q: Profile, zeta1: float, zeta2: float, tol: float) -> dict:
    """Far-field surrogate: outer-quarter deviation below tol, running max
    non-increasing toward each window edge (1e-9 slack)."""
    x, v = Q.x, Q.values
    R = Q.grid.R
    out = {}
    for side, mask, zeta in (("left", x <= -R / 2, zeta1),
                             ("right", x >= R / 2, zeta2)):
        dev = np.abs(v[mask] - zeta)
        if side == "left":
            dev = dev[::-1]  # order from interior toward the edge
        run = np.maximum.accumulate(dev[::-1])[::-1]
        mono = bool(np.all(np.diff(run) <= 1e-9))
        out[side] = {"max_dev": float(dev.max()), "tol": tol,
                     "pass": bool(dev.max() <= tol and mono),
                     "running_max_monotone": mono}
    out["pass"] = out["left"]["pass"] and out["right"]["pass"]
    return out


def continuation_run(spec: ProblemSpec, grid: Grid,
                     obstacle_cfg: ObstacleConfig,
                     schedule: Optional[ContinuationSchedule] = None,
                     solver_cfg: Optional[SolverConfig] = None,
                     tail: Optional[TailClosure] = None,
                     limit_tol: Optional[float] = None,
                     stage_callback=None,
                     resume_state: Optional[Tuple[int, Profile]] = None) -> SolveResult:
    """Full double continuation ending in a residual-certified heteroclinic.

    Raises NonConvergenceError (with the offending tail samples) when the
    far-field limit check fails on the final profile.  ``stage_callback``
    receives (stage_index, mu, eta, Profile) after every completed stage;
    ``resume_state`` = (last_completed_stage_index, profile) skips ahead.
    """
    schedule = schedule or ContinuationSchedule()
    solver_cfg = solver_cfg or SolverConfig()
    spec, flipped = spec.canonical()
    report = verify_model(spec)
    if not report.all_passed:
        failed = [c.name for c in report if not c.passed]
        raise ValueError(f"model verification failed: {', '.join(failed)}")
    if grid.R < 4.0 * max(abs(obstacle_cfg.b1), abs(obstacle_cfg.b2)):
        raise ValueError("window too small: need R >= 4*max(|b1|, |b2|)")
    pot = spec.potential
    ref = reference_profile(spec, grid)
    Q = ref.copy()

    trace: List[Tuple] = []
    stages: List[StageRecord] = []
    last_pair = None
    stage_index = -1
    skip_until = resume_state[0] if resume_state is not None else -1
    if resume_state is not None:
        Q = _unflip(resume_state[1], flipped)  # negation is its own inverse

    def run_stage(mu, eta, pair):
        nonlocal Q
        stage = _Stage(spec, grid, ref, eta, mu, pair, obstacle_cfg, tail)
        q, pieces, it, rn = _minimize_stage(stage, Q.values, solver_cfg, trace, len(trace))
        Q = Profile(grid, q, Q.left_const, Q.right_const)
        contact = _contact_nodes(q, pair, grid)
        if pair is not None:
            _assert_barrier_comparison(Q, pair, obstacle_cfg)
        stages.append(StageRecord(mu, eta, it, sum(pieces), rn, len(contact)))
        return contact

    pairs = {}  # the barrier problem does not involve mu: one pair per eta

    def barrier_pair(eta):
        if eta not in pairs:
            phi = solve_barrier(spec, obstacle_cfg, grid, eta, +1, tail)
            psi = solve_barrier(spec, obstacle_cfg, grid, eta, -1, tail)
            pairs[eta] = build_envelopes(phi, psi, obstacle_cfg, eta)
        return pairs[eta]

    contact: List[Tuple[int, float, str]] = []
    for mu in schedule.mus_positive():
        for eta in schedule.etas():
            stage_index += 1
            if stage_index <= skip_until:
                continue
            last_pair = barrier_pair(eta)
            contact = run_stage(mu, eta, last_pair)
            if stage_callback is not None:
                stage_callback(stage_index, mu, eta, _unflip(Q, flipped))
    if last_pair is None:  # no barrier stage ran, e.g. a resume past them all
        last_pair = barrier_pair(0.0)
    if schedule.final_polish():
        stage_index += 1
        if stage_index > skip_until:
            run_stage(0.0, 0.0, None)  # well clamp only
            contact = _contact_nodes(Q.values, last_pair, grid)
            if stage_callback is not None:
                stage_callback(stage_index, 0.0, 0.0, _unflip(Q, flipped))

    rmax, _ = residual_EL(Q, spec, tail)
    tol = limit_tol if limit_tol is not None else default_limit_tol(grid, spec.s)
    lim = _limit_check(Q, pot.zeta1, pot.zeta2, tol)
    if not lim["pass"]:
        x = Q.x
        bad = [(float(xx), float(vv)) for xx, vv in
               zip(x[np.abs(x) >= grid.R / 2][:8], Q.values[np.abs(x) >= grid.R / 2][:8])]
        raise NonConvergenceError(
            f"far-field limit check failed: {lim}", samples=bad)
    mono = bool(np.all(np.diff(Q.values) >= -1e-3 * abs(pot.zeta2 - pot.zeta1)))

    stage0 = _Stage(spec, grid, ref, 0.0, 0.0, None, None, tail)
    bd = EnergyBreakdown(*stage0.energy_pieces(Q.values))
    swap = {"upper": "lower", "lower": "upper"}
    result = SolveResult(profile=_unflip(Q, flipped), breakdown=bd,
                         residual_max=rmax,
                         contact=[(i, x, swap[w] if flipped else w)
                                  for i, x, w in contact],
                         trace=trace, pair=last_pair, flipped=flipped,
                         stages=stages,
                         stationarity=stages[-1].stationarity if stages else 0.0,
                         iterations=sum(s.iterations for s in stages),
                         limit_check=lim, monotone=mono)
    return result


def _unflip(Q: Profile, flipped: bool) -> Profile:
    if not flipped:
        return Q.copy()
    return Profile(Q.grid, -Q.values, -Q.left_const, -Q.right_const)


def residual_EL(Q: Profile, spec: ProblemSpec,
                tail: Optional[TailClosure] = None) -> Tuple[float, np.ndarray]:
    """Residual of  L Q + a W'(Q)  on interior nodes, excluding the two
    outermost interior nodes per side (lopsided quadrature there)."""
    ws = workspace_for(spec.kernel, Q.grid, tail)
    inner = operator_field(ws, Q.values, Q.left_const, Q.right_const, spec)[2:-2]
    return float(np.abs(inner).max()), inner


def verify_apriori_bounds(result: SolveResult, spec: ProblemSpec,
                          eta: float, mu: float,
                          ref: Optional[Profile] = None,
                          kappa_cap: float = 1e6,
                          tail: Optional[TailClosure] = None) -> dict:
    """Report the five a-priori quantities and the implied constants.

    Each bound has the shape  quantity <= kappa * scaling(eta, mu); the
    implied kappa = quantity / scaling is reported and flagged only when it
    explodes past ``kappa_cap``.
    """
    from .discretize import WHOLE_LINE, bilinear_form
    from .energy import renormalized_interaction
    Q = result.profile
    grid = Q.grid
    if ref is None:
        ref = reference_profile(spec, grid)
    h = grid.h
    v = Q.values - ref.values
    vprof = Profile(grid, v, 0.0, 0.0)
    h1 = math.sqrt(float(np.sum(np.diff(v) ** 2)) / h)
    vk = math.sqrt(max(bilinear_form(vprof, vprof, WHOLE_LINE, WHOLE_LINE,
                                     spec.kernel, tail), 0.0))
    vinf = float(np.abs(v).max())
    vl2 = math.sqrt(float(np.sum(v * v)) * h)
    e2 = renormalized_interaction(Q, ref, spec, tail=tail)
    pot = spec.potential
    zl, zh = pot.well_lo, pot.well_hi
    sandwich_ok = bool(np.all(Q.values >= zl - 1e-12) and np.all(Q.values <= zh + 1e-12))
    quantities = {
        "v_H1": (h1, math.sqrt(eta * mu) if eta > 0 and mu > 0 else 0.0),
        "v_K": (vk, math.sqrt(mu) if mu > 0 else 0.0),
        "v_inf": (vinf, 1.0),
        "v_L2": (vl2, mu if mu > 0 else 0.0),
        "E_R2": (e2, None),  # bounded below by -kappa/mu^2
    }
    out = {"well_sandwich": sandwich_ok, "bounds": {}, "flagged": []}
    for name, (val, scale) in quantities.items():
        if name == "E_R2":
            imp = (-val) * mu ** 2 if (val < 0 and mu > 0) else 0.0
        elif scale and scale > 0:
            imp = val * scale
        else:
            imp = float("nan")
        out["bounds"][name] = {"value": float(val), "implied_kappa": float(imp)}
        if np.isfinite(imp) and imp > kappa_cap:
            out["flagged"].append(name)
    return out
