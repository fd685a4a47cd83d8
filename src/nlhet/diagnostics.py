"""Measurable diagnostics for computed profiles.

Clean intervals (stretches of prescribed length on which the profile hugs a
single well within rho), stickiness of the minimizer between clean points,
two-sided operator bounds of Lewy-Stampacchia type for the obstacle-
constrained minimizer, Hoelder quotients, and far-field decay fits.

All diagnostics are pure read-only passes over immutable profiles.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._record import record
from .discretize import (Interval, Profile, operator_field, reference_profile,
                         second_difference, seminorm_K, workspace_for)
from .model import ProblemSpec, potential_eval_grad
from .obstacles import ObstaclePair

__all__ = [
    "PreconditionError",
    "DegenerateFitError",
    "CleanInterval",
    "CleanIntervalReport",
    "StickinessReport",
    "LSReport",
    "TailFit",
    "find_clean_intervals",
    "is_clean_point",
    "stickiness_check",
    "lewy_stampacchia_check",
    "holder_estimate",
    "fit_tail_decay",
]


class PreconditionError(ValueError):
    pass


class DegenerateFitError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# clean intervals
# --------------------------------------------------------------------------


@record(frozen=True)
class CleanInterval:
    lo: float
    hi: float
    well: float
    sup_deviation: float

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)


@record
class CleanIntervalReport:
    rho: float
    intervals: List[CleanInterval]

    @property
    def clean_points(self) -> List[float]:
        return [iv.center for iv in self.intervals]


def _maximal_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Inclusive index ranges of maximal True runs."""
    if not mask.any():
        return []
    d = np.diff(mask.astype(np.int8))
    starts = list(np.where(d == 1)[0] + 1)
    ends = list(np.where(d == -1)[0])
    if mask[0]:
        starts = [0] + starts
    if mask[-1]:
        ends = ends + [mask.size - 1]
    return list(zip(starts, ends))


def find_clean_intervals(Q: Profile, rho: float, search: Interval,
                         wells: Sequence[float]) -> CleanIntervalReport:
    """All maximal grid intervals of length >= |log rho| on which the profile
    stays within rho of a single well.  Reported leftmost-first; identical
    intervals clean for two wells keep the closer well."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    lo, hi = search
    tol = 1e-9 * Q.grid.h
    if lo < -Q.grid.R - max(1e-12, tol) or hi > Q.grid.R + max(1e-12, tol):
        raise ValueError("search window extends beyond the grid")
    x = Q.x
    sel = (x >= lo - tol) & (x <= hi + tol)
    if not sel.any():
        raise ValueError("search window holds no grid nodes")
    idx = np.where(sel)[0]
    xs = x[idx]
    vs = Q.values[idx]
    need = abs(math.log(rho)) - 1e-12
    h = Q.grid.h
    found: List[CleanInterval] = []
    for z in wells:
        dev = np.abs(vs - z)
        for a, b in _maximal_runs(dev <= rho):
            if xs[b] - xs[a] >= need:
                found.append(CleanInterval(float(xs[a]), float(xs[b]), float(z),
                                           float(dev[a:b + 1].max())))
    # drop intervals strictly contained in another; dedupe equal spans
    kept: List[CleanInterval] = []
    for iv in sorted(found, key=lambda t: (t.lo, -t.hi, t.sup_deviation)):
        contained = any(other.lo <= iv.lo and iv.hi <= other.hi
                        and (other.lo, other.hi) != (iv.lo, iv.hi)
                        for other in found)
        duplicate = any(k.lo == iv.lo and k.hi == iv.hi for k in kept)
        if not contained and not duplicate:
            kept.append(iv)
    kept.sort(key=lambda t: t.lo)
    return CleanIntervalReport(rho, kept)


def is_clean_point(Q: Profile, x0: float, rho: float, well: float) -> bool:
    """A point is clean when the centered interval of length |log rho| stays
    within rho of the well."""
    half = abs(math.log(rho)) / 2.0
    x = Q.x
    sel = (x >= x0 - half) & (x <= x0 + half)
    if not sel.any():
        return False
    if x0 - half < -Q.grid.R or x0 + half > Q.grid.R:
        return False
    return bool(np.abs(Q.values[sel] - well).max() <= rho)


# --------------------------------------------------------------------------
# stickiness
# --------------------------------------------------------------------------


@record
class StickinessReport:
    x1: float
    x2: float
    well: float
    localized_energy: float
    sup_deviation: float
    r_half: float
    tol: float
    viscous: float
    penalty: float
    interaction: float
    potential: float

    @property
    def passed(self) -> bool:
        return (self.sup_deviation <= self.r_half
                and self.localized_energy <= self.tol)


def stickiness_check(Q: Profile, x1: float, x2: float, spec: ProblemSpec,
                     eta: float, mu: float, tol: float, *, rho: float,
                     well: float, r: float, ref: Optional[Profile] = None) -> StickinessReport:
    """Localized energy and sup deviation between two same-well clean points.

    Preconditions (violations raise PreconditionError): x2 >= x1 + 4 and both
    points are (rho, Q)-clean for the given well.
    """
    if x2 < x1 + 4.0:
        raise PreconditionError("stickiness needs x2 >= x1 + 4")
    for p in (x1, x2):
        if not is_clean_point(Q, p, rho, well):
            raise PreconditionError(
                f"x={p:.6g} is not a (rho={rho}, Q)-clean point for well {well}")
    x = Q.x
    sel = (x >= x1) & (x <= x2)
    h = Q.grid.h
    q = Q.values
    dv = np.diff(q) / h
    cell = (x[:-1] + h / 2 >= x1) & (x[:-1] + h / 2 <= x2)
    viscous = 0.5 * eta * float(np.sum(dv[cell] ** 2)) * h
    if ref is None:
        ref = reference_profile(spec, Q.grid)
    penalty = 0.5 * mu * float(np.sum((q[sel] - ref.values[sel]) ** 2)) * h
    inter = 0.25 * seminorm_K(Q, (x1, x2), spec.kernel) ** 2
    W, _ = potential_eval_grad(spec.potential, q[sel])
    pot = float(np.sum(np.asarray(spec.modulation(x[sel])) * W)) * h
    total = viscous + penalty + inter + pot
    sup_dev = float(np.abs(q[sel] - well).max())
    return StickinessReport(x1, x2, well, total, sup_dev, r / 2.0, tol,
                            viscous, penalty, inter, pot)


# --------------------------------------------------------------------------
# Lewy-Stampacchia
# --------------------------------------------------------------------------


@record
class LSReport:
    interval: Tuple[float, float]
    lower: float
    upper: float
    min_gap_low: float      # min over nodes of (A(Q) - lower + slack)
    min_gap_high: float     # min over nodes of (upper + slack - A(Q))
    slack: float
    admissible: bool
    passed: bool


def lewy_stampacchia_check(Q: Profile, pair: ObstaclePair, spec: ProblemSpec,
                           I: Interval, mu: float = 0.0,
                           ref: Optional[Profile] = None,
                           slack: float = 1e-6) -> LSReport:
    """Two-sided bound on  -eta d2 Q + L Q  over the interval I, at the
    viscosity eta that the barrier pair was built at (``pair.eta``).

    The lower bound is min(inf_I(-|d2 Phi| + L Phi), inf_I f) and the upper
    bound max(sup_I(|d2 Psi| + L Psi), sup_I f) with the force
    f = -a W'(Q) - mu (Q - ref).  Envelope second derivatives are sampled by
    central differences; the O(h) noise budget lives in ``slack``.  It
    passes only when both gaps are nonnegative and Q is admissible, that is
    Psi <= Q <= Phi at every node.
    """
    grid = Q.grid
    ws = workspace_for(spec.kernel, grid)
    x = grid.x
    sel = (x >= I[0]) & (x <= I[1])
    sel[0] = sel[-1] = False
    if not sel.any():
        raise ValueError("interval holds no interior grid nodes")
    if ref is None:
        ref = reference_profile(spec, grid)

    def op(prof: Profile, visc: float) -> np.ndarray:
        return operator_field(ws, prof.values, prof.left_const,
                              prof.right_const, eta=visc)

    AQ = op(Q, pair.eta)[sel]
    _, Wp = potential_eval_grad(spec.potential, Q.values)
    f = (-np.asarray(spec.modulation(x)) * Wp - mu * (Q.values - ref.values))[sel]
    d2Phi = second_difference(pair.Phi.values, grid.h)[sel]
    d2Psi = second_difference(pair.Psi.values, grid.h)[sel]
    LPhi = op(pair.Phi, 0.0)[sel]
    LPsi = op(pair.Psi, 0.0)[sel]
    lower = min(float(np.min(-np.abs(d2Phi) + LPhi)), float(np.min(f)))
    upper = max(float(np.max(np.abs(d2Psi) + LPsi)), float(np.max(f)))
    gap_low = float(np.min(AQ - lower + slack))
    gap_high = float(np.min(upper + slack - AQ))
    adm = bool(np.all(Q.values >= pair.Psi.values - 1e-9)
               and np.all(Q.values <= pair.Phi.values + 1e-9))
    return LSReport((float(I[0]), float(I[1])), lower, upper, gap_low, gap_high,
                    slack, adm, bool(adm and gap_low >= 0 and gap_high >= 0))


# --------------------------------------------------------------------------
# Hoelder quotient
# --------------------------------------------------------------------------


def holder_estimate(Q: Profile, interval: Interval, alpha: float) -> float:
    """sup over node pairs with |x-y| >= h of |Q(x)-Q(y)| / |x-y|^alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    x = Q.x
    sel = (x >= interval[0]) & (x <= interval[1])
    v = Q.values[sel]
    if v.size < 2:
        return 0.0
    h = Q.grid.h
    best = 0.0
    for m in range(1, v.size):
        d = float(np.abs(v[m:] - v[:-m]).max())
        best = max(best, d / (m * h) ** alpha)
    return best


# --------------------------------------------------------------------------
# tail decay
# --------------------------------------------------------------------------


@record
class TailFit:
    side: str
    fitted_exponent: float
    fitted_constant: float
    r_squared: float


def fit_tail_decay(Q: Profile, side: str) -> TailFit:
    """Least-squares fit of log|Q - far field| against log|x| on the outer
    quarter of the window, excluding the last 5 nodes.  Raises
    DegenerateFitError when fewer than 3 nonzero deviations remain."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    x = Q.x
    R = Q.grid.R
    if side == "right":
        sel = x >= R / 2.0
        dev = np.abs(Q.values - Q.right_const)
    else:
        sel = x <= -R / 2.0
        dev = np.abs(Q.values - Q.left_const)
    idx = np.where(sel)[0]
    idx = idx[5:] if side == "left" else idx[:-5]
    dev = dev[idx]
    xx = np.abs(x[idx])
    if float(dev.max()) < 1e-13:
        raise DegenerateFitError("far-field deviation below 1e-13: nothing to fit")
    live = dev > 0
    n_live = int(np.count_nonzero(live))
    if n_live < 3:  # two points fit any line exactly, with r_squared 1
        raise DegenerateFitError(
            f"{n_live} nonzero far-field deviations: a fit needs at least 3")
    lx, ly = np.log(xx[live]), np.log(dev[live])
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, icpt), res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - (float(res[0]) / ss_tot if res.size and ss_tot > 0 else 0.0)
    return TailFit(side, float(slope), float(math.exp(icpt)), float(r2))
