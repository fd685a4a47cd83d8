"""Constrained minimization and the double continuation eta -> 0, mu -> 0.

The minimizer is projected Newton-CG on the feasible box (well sandwich
intersected with the obstacle band on the constrained region).  A node is
fixed when it lies within min(stationarity, 1e-3) of a bound with the
gradient pushing outward; the window edges are always fixed.  Fixed nodes
take the projected gradient step.  On the free nodes, preconditioned CG
solves the Newton system to the relative residual min(0.5, sqrt(stationarity)),
preconditioned by the Strang circulant of the stage Hessian, which
``discretize.strang_circulant`` owns (E^T C_M^-1 E is SPD: R. Chan & Ng,
SIAM Review 38, 1996, section 3).  If CG meets negative curvature at its
first step (the stage is locally nonconvex, a W'' < 0) the direction is the
first preconditioned residual instead.
Armijo backtracking along the projection arc accepts only a strict energy
decrease.  The stationarity measure is ||Q - proj(Q - g)||_2 with g the
discrete energy gradient, so at free nodes the Euler-Lagrange residual is
bounded by grad_tol / h at convergence.

The continuation runs one list of (mu, eta) stages with warm starts: every
eta down to 0 for each positive penalty weight mu, then always an
unpenalized polish (mu = eta = 0, well clamp only).  ``continuation_run``
is the one public entry point, and every stage, the polish included, runs
through ``_run_stage``.  Every stage shares one ``_Core`` with the pieces
that depend only on (spec, grid, reference), and each obstacle pair is
built once per viscosity; a stage reads its constrained region x <= b1,
x >= b2 from the configuration of its pair.  The problem is solved
in the orientation it is given in: the left far field is zeta1 and the right
one zeta2, whichever well is the larger.  The completed stages and their
trace rows are all that a resumed run needs to continue exactly.  The
far-field limit check certifies the result: the deviation from each well on
the outer quarter of the window must stay below the limit tolerance and its
running maximum must shrink toward the window edge.
"""

from __future__ import annotations

import logging
import math
import time
from typing import List, Optional, Tuple

import numpy as np

from ._record import record
from .discretize import (Grid, Profile, operator_field, operator_linear,
                         reference_profile, strang_circulant, workspace_for)
from .model import (ProblemSpec, potential_eval_grad, potential_hess,
                    verify_model)
from .obstacles import ObstacleConfig, ObstaclePair, barrier_pair

__all__ = [
    "EnergyBreakdown",
    "SolverConfig",
    "ContinuationSchedule",
    "SolveResult",
    "StageRecord",
    "SolverError",
    "StagnationError",
    "NonFiniteEnergyError",
    "NonConvergenceError",
    "continuation_run",
    "default_limit_tol",
]

log = logging.getLogger("nlhet")

MU_GUARD = 0.1  # heuristic cap on the first penalty weight (warned, not enforced)
ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the Armijo rule
ARMIJO_SHRINK = 0.5  # step factor per backtrack
MAX_BACKTRACKS = 60  # cap of the trial steps per iteration
ACTIVE_EPS = 1e-3  # cap of the distance to a bound that can fix a node
CG_MAX_ITERS = 200  # cap of the CG iterations per Newton direction


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
    pass


@record(frozen=True)
class SolverConfig:
    max_iters: int = 200000
    grad_tol: Optional[float] = None       # default 1e-8 * n, resolved per grid

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValueError("grad_tol must be > 0")

    def resolve_grad_tol(self, n: int) -> float:
        return self.grad_tol if self.grad_tol is not None else 1e-8 * n


@record(frozen=True)
class ContinuationSchedule:
    """Decreasing eta and mu sequences.  The trailing 0 of each is implied:
    every mu runs the etas down to 0, and the run always ends with the
    (mu, eta) = (0, 0) polish, whether or not the sequences list the 0."""

    eta_seq: Tuple[float, ...] = (1e-1, 1e-2, 1e-3, 0.0)
    mu_seq: Tuple[float, ...] = (1e-1, 2e-2, 5e-3, 0.0)

    def __post_init__(self):
        for name, seq in (("eta_seq", self.eta_seq), ("mu_seq", self.mu_seq)):
            if len(seq) == 0:
                raise ValueError(f"{name} must be nonempty")
            if any(v < 0 for v in seq):
                raise ValueError(f"{name} entries must be >= 0")
            if any(b >= a for a, b in zip(seq, seq[1:])):
                raise ValueError(f"{name} must be strictly decreasing")
        if self.mu_seq[0] > MU_GUARD:
            log.warning("first penalty weight mu=%g exceeds the %g guard; "
                        "the contact report is the operative certificate",
                        self.mu_seq[0], MU_GUARD)

    def etas(self) -> Tuple[float, ...]:
        return self.eta_seq if self.eta_seq[-1] == 0.0 else self.eta_seq + (0.0,)

    def mus_positive(self) -> Tuple[float, ...]:
        return tuple(v for v in self.mu_seq if v > 0.0)


@record(frozen=True)
class EnergyBreakdown:
    """The four pieces of the (eta, mu) functional (``_Stage.trial``)."""

    viscous: float
    penalty: float
    potential: float
    interaction: float

    @property
    def total(self) -> float:
        return self.viscous + self.penalty + self.potential + self.interaction


@record
class StageRecord:
    mu: float
    eta: float
    iterations: int
    energy: float
    stationarity: float
    contact_count: int
    trials: int  # energy evaluations (``_Stage.trial`` calls)
    cg: int  # CG iterations (Hessian-vector products)


@record
class SolveResult:
    """A certified continuation run (``continuation_run``)."""

    profile: Profile
    breakdown: EnergyBreakdown  # of the (0, 0) functional
    residual_max: float  # of the (0, 0) Euler-Lagrange field
    contact: List[Tuple[int, float, str]]
    trace: List[Tuple]
    pair: ObstaclePair  # the eta = 0 pair that the contact report used
    stages: List[StageRecord]
    iterations: int
    limit_check: dict
    monotone: bool


# --------------------------------------------------------------------------
# stage context: cached quadrature pieces for fast energy/gradient
# --------------------------------------------------------------------------


class _Core:
    """The pieces of the (eta, mu) functional that no stage changes: the
    workspace, the modulation a on the grid, the trapezoid weights, the
    reference and its convolution, the weight of the interaction's cross
    term and the curvature a W'' at the wells.  Built once per
    (spec, grid, ref) and shared by every stage of a run."""

    def __init__(self, spec: ProblemSpec, grid: Grid, ref: Profile):
        self.spec, self.grid, self.ref = spec, grid, ref
        self.ws = ws = workspace_for(spec.kernel, grid)
        n, h = grid.n, grid.h
        self.h = h
        self.a = np.asarray(spec.modulation(grid.x))
        self.tw = np.full(n, h)
        self.tw[0] = self.tw[-1] = h / 2.0
        self.conv_ref = ws.conv(ref.values)
        # weight of the interaction's cross term, L ref: svr = 2 h sum(v w_ref)
        self.w_ref = operator_field(ws, ref.values, ref.left_const,
                                    ref.right_const, conv_q=self.conv_ref)
        pot = spec.potential
        # the preconditioner's curvature: a W'' frozen at its mean over the wells
        self.c_wells = float(np.mean(self.a)) * float(np.mean(
            potential_hess(pot, np.array([pot.zeta1, pot.zeta2]))))


class _Stage:
    """One (eta, mu) subproblem on a shared ``_Core``."""

    def __init__(self, core: _Core, eta: float, mu: float,
                 pair: Optional[ObstaclePair]):
        self.core = core
        self.spec, self.grid, self.ref = core.spec, core.grid, core.ref
        ws, h = core.ws, core.h
        self.ws, self.h, self.a = ws, h, core.a
        self.eta, self.mu = eta, mu
        n = self.grid.n
        self.trials = 0
        self.cg = 0
        self.precondition = strang_circulant(
            ws.diag[(n - 1) // 2] + (core.c_wells + mu), ws.w, eta / h ** 2,
            n, h).solve
        # feasible box: well sandwich, intersected with the obstacle band
        pot = self.spec.potential
        self.lob = np.full(n, pot.well_lo)
        self.upb = np.full(n, pot.well_hi)
        self.pair = pair
        if pair is not None:
            x = self.grid.x
            region = (x <= pair.cfg.b1) | (x >= pair.cfg.b2)
            self.lob[region] = np.maximum(self.lob[region], pair.Psi.values[region])
            self.upb[region] = np.minimum(self.upb[region], pair.Phi.values[region])
            if np.any(self.lob > self.upb):
                raise SolverError("empty feasible box: obstacles conflict with wells")

    def trial(self, q: np.ndarray) -> Tuple[Tuple[float, float, float, float],
                                            Tuple[np.ndarray, np.ndarray]]:
        """Energy pieces at q from one convolution and one potential call.

        The pieces are those of the perturbed functional

            (eta/2) int |dQ|^2 + (mu/2) int |Q - ref|^2 + int a W(Q)
                + (1/4) iint (|Q(x)-Q(y)|^2 - |ref(x)-ref(y)|^2) K(x-y) dx dy.

        The double integral is the renormalized interaction: each seminorm
        alone diverges with the window for s <= 1/2, but the difference is
        finite and is evaluated as E = [v]^2 + 2 B(v, ref) with v = q - ref,
        which kills the divergent tail-by-tail block exactly (v has zero far
        fields).  Local integrals use the trapezoid rule; the viscous term
        uses forward-difference cells, so that the discrete gradient is
        exactly h times the operator field on interior nodes.

        Also returns (conv(q - ref), W'(q)), from which ``gradient``
        builds the gradient without another convolution or potential call.
        A non-finite piece raises NonFiniteEnergyError naming the term.
        """
        self.trials += 1
        core, h = self.core, self.h
        v = q - self.ref.values
        cv = self.ws.conv(v)
        W, Wp = potential_eval_grad(self.spec.potential, q)
        dv = np.diff(q) / h
        visc = 0.5 * self.eta * float(np.sum(dv * dv)) * h
        pen = 0.5 * self.mu * float(np.sum(v ** 2 * core.tw))
        pot = float(np.sum(self.a * W * core.tw))
        svv = self.ws.seminorm_sq(v, cv)
        svr = 2 * h * float(np.sum(v * core.w_ref))
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

    def gradient(self, q: np.ndarray,
                 parts: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
        """h * (full operator field), pinned to zero at the window edges.

        ``parts``, the (conv(q - ref), W'(q)) that ``trial`` returned for
        this q, replaces the convolution and the potential call.
        """
        conv_q = Wp = None
        if parts is not None:
            conv_v, Wp = parts
            conv_q = conv_v + self.core.conv_ref
        g = self.h * operator_field(self.ws, q, self.ref.left_const,
                                    self.ref.right_const, self.spec, self.a,
                                    self.eta, self.mu, self.ref.values,
                                    conv_q=conv_q, Wp=Wp)
        g[0] = g[-1] = 0.0
        return g

    def curvature(self, q: np.ndarray) -> np.ndarray:
        """a W''(q) + mu: the per-node coefficient of the Hessian at q."""
        return self.a * potential_hess(self.spec.potential, q) + self.mu

    def hessvec(self, c: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Hessian-vector product at the q whose ``curvature`` is c."""
        return self.h * operator_linear(self.ws, p, c, self.eta)

    def project(self, q: np.ndarray) -> np.ndarray:
        return np.clip(q, self.lob, self.upb)


def _contact_nodes(q: np.ndarray, pair: Optional[ObstaclePair],
                   tol: float = 1e-11) -> List[Tuple[int, float, str]]:
    if pair is None:
        return []
    out = []
    scale = max(1.0, float(np.abs(pair.Phi.values).max()))
    x = pair.Phi.x
    upper = np.abs(q - pair.Phi.values) <= tol * scale
    lower = np.abs(q - pair.Psi.values) <= tol * scale
    for i in np.where(upper)[0]:
        out.append((int(i), float(x[i]), "upper"))
    for i in np.where(lower)[0]:
        out.append((int(i), float(x[i]), "lower"))
    return out


def _newton_direction(stage: _Stage, q: np.ndarray, g: np.ndarray,
                      free: np.ndarray, forcing: float) -> Tuple[np.ndarray, int]:
    """Projected Newton direction and its CG iteration count.

    Preconditioned CG on the free nodes solves H d = -g to the relative
    residual ``forcing``; it stops early at negative curvature, and if that
    comes at the first step the direction is the first preconditioned
    residual, a descent direction since g.d = -r.M^-1 r < 0.  Fixed nodes
    take -g.
    """
    mask = free.astype(np.float64)
    c = stage.curvature(q)
    r = -g * mask
    tol = forcing * float(np.linalg.norm(r))
    z = stage.precondition(r) * mask
    p = z
    rz = float(r @ z)
    d = np.zeros_like(g)
    for k in range(1, CG_MAX_ITERS + 1):
        Hp = stage.hessvec(c, p) * mask
        pHp = float(p @ Hp)
        if pHp <= 0.0:
            if k == 1:
                d = z
            break
        step = rz / pHp
        d += step * p
        r -= step * Hp
        if float(np.linalg.norm(r)) <= tol:
            break
        z = stage.precondition(r) * mask
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return np.where(free, d, -g), k


def _run_stage(stage: _Stage, q0: np.ndarray, solver_cfg: SolverConfig,
               trace: List[Tuple]) -> Tuple[np.ndarray, List, StageRecord]:
    """Minimize one stage by projected Newton-CG from q0, report contact
    with the stage's obstacle pair and check the barrier comparison;
    returns (q, contact, record).

    Each trial point is evaluated once, and the accepted trial's
    convolution and W' give the next iterate's gradient.  CG iterations add
    up in ``stage.cg``.  Trace rows are numbered on from the rows ``trace``
    already holds.  The record's stationarity is that of the returned q,
    also when the stage ends on ``max_iters``.
    """
    t0 = time.perf_counter()
    iter_offset = len(trace)
    gtol = solver_cfg.resolve_grad_tol(stage.grid.n)
    q = stage.project(q0.copy())
    q[0], q[-1] = q0[0], q0[-1]
    pieces, g = stage.evaluate(q)
    E = sum(pieces)
    for it in range(1, solver_cfg.max_iters + 1):
        r = q - stage.project(q - g)
        rn = float(np.linalg.norm(r))
        trace.append((iter_offset + it - 1, *pieces, sum(pieces), rn))
        if rn <= gtol:
            break
        eps = min(rn, ACTIVE_EPS)
        free = ~(((q - stage.lob <= eps) & (g > 0))
                 | ((stage.upb - q <= eps) & (g < 0)))
        free[0] = free[-1] = False
        d, cg = _newton_direction(stage, q, g, free, min(0.5, math.sqrt(rn)))
        stage.cg += cg
        alpha = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            qt = stage.project(q + alpha * d)
            qt[0], qt[-1] = q[0], q[-1]
            if not np.any(qt != q):
                break
            slope = float(g @ (qt - q))
            if slope < 0.0:
                pt, parts = stage.trial(qt)
                Et = sum(pt)
                if Et < E and Et <= E + ARMIJO_C1 * slope:
                    accepted = True
                    break
            alpha *= ARMIJO_SHRINK
        if not accepted:
            raise StagnationError(
                f"no admissible descent step above machine precision "
                f"(iteration {it}, stationarity {rn:.3e}, step {alpha:.3e})",
                it, rn, alpha)
        q, E, pieces, g = qt, Et, pt, stage.gradient(qt, parts)
    else:  # max_iters ran out after a step: measure the q it returns
        rn = float(np.linalg.norm(q - stage.project(q - g)))
    contact = _contact_nodes(q, stage.pair)
    if stage.pair is not None:
        _assert_barrier_comparison(q, stage.pair)
    record = StageRecord(stage.mu, stage.eta, it, sum(pieces), rn, len(contact),
                         stage.trials, stage.cg)
    log.info("stage mu=%g eta=%g: %d iterations, %d trials, %d cg, "
             "%d contact, %.3f s", stage.mu, stage.eta, it, stage.trials,
             stage.cg, len(contact), time.perf_counter() - t0)
    return q, contact, record


def _assert_barrier_comparison(q: np.ndarray, pair: ObstaclePair,
                               tol: float = 1e-6) -> None:
    mid, phi_mid, psi_mid = pair.corridor
    over = float(np.max(q[mid] - phi_mid))
    under = float(np.max(psi_mid - q[mid]))
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
                     limit_tol: Optional[float] = None,
                     stage_callback=None,
                     resume: Optional[Tuple[List[StageRecord], List[Tuple],
                                            np.ndarray]] = None) -> SolveResult:
    """Full double continuation ending in a residual-certified heteroclinic.

    The stages are every (mu, eta) of ``schedule`` with mu > 0, then the
    (0, 0) polish, each run by ``_run_stage`` on one shared ``_Core``.  The
    result is the only ``SolveResult`` producer: its energy breakdown and
    residual belong to the unperturbed (0, 0) problem, evaluated once after
    the last stage.  Everything, the resume input, the callback's values and
    the result, is in the caller's orientation (left far field zeta1).
    Raises NonConvergenceError when the polish ends on ``max_iters`` above
    its ``grad_tol``, and, naming each side's deviation, when the far-field
    limit check fails on the final profile.  After each stage
    ``stage_callback`` receives new (stage records, trace rows, Q values);
    ``resume`` = any such triple runs the remaining stages like a fresh run.
    """
    schedule = schedule or ContinuationSchedule()
    solver_cfg = solver_cfg or SolverConfig()
    report = verify_model(spec)
    if not report.all_passed:
        failed = [c.name for c in report if not c.passed]
        raise ValueError(f"model verification failed: {', '.join(failed)}")
    if grid.R < 4.0 * max(abs(obstacle_cfg.b1), abs(obstacle_cfg.b2)):
        raise ValueError("window too small: need R >= 4*max(|b1|, |b2|)")
    pot = spec.potential
    ref = reference_profile(spec, grid)

    plan = [(mu, eta) for mu in schedule.mus_positive() for eta in schedule.etas()]
    plan.append((0.0, 0.0))  # the polish: well clamp only
    stages: List[StageRecord] = []
    trace: List[Tuple] = []
    q = ref.values
    if resume is not None:
        stages, trace, q = list(resume[0]), list(resume[1]), resume[2]

    todo = plan[len(stages):]
    # the barrier problem does not involve mu: one pair per eta that a
    # remaining stage needs, plus the eta = 0 pair of the contact report,
    # all built before the stages' core so that no stage array is alive
    # during a barrier solve
    pairs = {eta: barrier_pair(spec, obstacle_cfg, grid, eta) for eta in
             dict.fromkeys([eta for mu, eta in todo if mu > 0] + [0.0])}
    core = _Core(spec, grid, ref)
    gtol = solver_cfg.resolve_grad_tol(grid.n)
    for mu, eta in todo:
        pair = pairs[eta] if mu > 0 else None
        q, _, record = _run_stage(_Stage(core, eta, mu, pair), q, solver_cfg,
                                  trace)
        if mu == 0 and record.stationarity > gtol:
            raise NonConvergenceError(
                f"polish stopped at max_iters = {solver_cfg.max_iters} with "
                f"stationarity {record.stationarity:.3e} > grad_tol {gtol:.3e}")
        stages.append(record)
        if stage_callback is not None:
            stage_callback(list(stages), list(trace), q)
    Q = Profile(grid, q, ref.left_const, ref.right_const)
    last_pair = pairs[0.0]
    contact = _contact_nodes(q, last_pair)

    # the energy breakdown and the residual from one evaluation at (0, 0):
    # the gradient over h is the Euler-Lagrange field L Q + a W'(Q), whose
    # max skips the two outermost interior nodes per side (lopsided
    # quadrature there)
    pieces, g = _Stage(core, 0.0, 0.0, None).evaluate(q)
    rmax = float(np.abs(g[2:-2] / grid.h).max())
    tol = limit_tol if limit_tol is not None else default_limit_tol(grid, spec.s)
    lim = _limit_check(Q, pot.zeta1, pot.zeta2, tol)
    if not lim["pass"]:
        raise NonConvergenceError(f"far-field limit check failed: {lim}")
    rise = pot.zeta2 - pot.zeta1
    mono = bool(np.all(np.diff(Q.values) * np.sign(rise) >= -1e-3 * abs(rise)))

    return SolveResult(profile=Q, breakdown=EnergyBreakdown(*pieces),
                       residual_max=rmax,
                       contact=contact, trace=trace, pair=last_pair,
                       stages=stages,
                       iterations=sum(s.iterations for s in stages),
                       limit_check=lim, monotone=mono)
