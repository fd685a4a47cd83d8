"""Barrier profiles and smooth double-obstacle envelopes.

The barriers phi (upper) and psi (lower) solve the linear Dirichlet problem

    (-eta d^2 + L) u = sign * C0   in (b1 - tau, b2 + tau),
    u = zeta1 +- r  on the left exterior,  u = zeta2 +- r  on the right,

with C0 = sup|a W'| + 2|zeta1| + 2|zeta2| + 1 (computed, never user-set).
The smooth envelopes Phi >= ... >= Psi must satisfy five clauses: equality
with the barrier outside [b1-2tau, b2+2tau], a [zeta + 3r/4, zeta + 5r/4]
sandwich below the barrier on the collars, and dominance over the barrier
between b1 and b2.

With the full C0 the barrier deviates from its boundary data at distance
tau inside the band by roughly C0 * sqrt(tau * band length), which exceeds
r/4 for every grid-resolvable tau; the collar clauses would be unsatisfiable
as posed.  Since the problem is linear, the envelope construction therefore
calibrates the barrier by scaling its deviation from the boundary datum by
the largest factor ``rhs_scale`` <= 1 that brings the collar deviation under
r/8 (equivalent to solving with the scaled right-hand side).  The pair
records the scale so the unscaled solution is recoverable exactly; the
comparison test run after each solve (minimizer below the upper barrier
between b1 and b2) uses that faithful reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .discretize import Grid, Profile, TailClosure, workspace_for
from .model import ProblemSpec, potential_eval_grad

__all__ = [
    "ObstacleConfig",
    "ObstaclePair",
    "BarrierSolveError",
    "EnvelopeClauseError",
    "compute_rhs_constant",
    "solve_barrier",
    "build_envelopes",
    "band_check",
    "faithful_barriers",
    "project_admissible",
]


class BarrierSolveError(RuntimeError):
    pass


class EnvelopeClauseError(RuntimeError):
    pass


def compute_rhs_constant(spec: ProblemSpec) -> float:
    """C0 = sup |a W'| + 2|zeta1| + 2|zeta2| + 1, the sup over the well sandwich."""
    pot = spec.potential
    u = np.linspace(pot.well_lo, pot.well_hi, 20001)
    _, Wp = potential_eval_grad(pot, u)
    return (spec.modulation.a_upper * float(np.max(np.abs(Wp)))
            + 2 * abs(pot.zeta1) + 2 * abs(pot.zeta2) + 1.0)


@dataclass(frozen=True)
class ObstacleConfig:
    """Barrier geometry: window [b1, b2], collar width tau, offset r."""

    b1: float
    b2: float
    tau: float = 0.05
    r: Optional[float] = None
    band_margin: float = 8.0   # collar deviation target = r / band_margin

    def __post_init__(self):
        if self.b1 > -1.0 or self.b2 < 1.0:
            raise ValueError("need b1 <= -1 and b2 >= 1")
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie in (0, 1)")

    def resolve_r(self, spec: ProblemSpec) -> float:
        rmax = min(spec.potential.delta0, spec.kernel.r0)
        r = self.r if self.r is not None else rmax / 2.0
        if not (0.0 < r <= rmax + 1e-12):
            raise ValueError(f"barrier offset r={r} outside (0, min(delta0, r0)]")
        return r


@dataclass
class ObstaclePair:
    """Calibrated barriers and their smooth envelopes, sampled on the grid.

    ``rhs_scale`` is the deviation scaling applied to the raw barrier
    solutions; 1.0 means the collar bands held without calibration.
    """

    phi: Profile
    psi: Profile
    Phi: Profile
    Psi: Profile
    cfg: ObstacleConfig
    r: float
    zeta1: float
    zeta2: float
    rhs_scale: float
    eta: float


def _band_indices(grid: Grid, cfg: ObstacleConfig) -> np.ndarray:
    x = grid.x
    return np.where((x > cfg.b1 - cfg.tau) & (x < cfg.b2 + cfg.tau))[0]


def solve_barrier(spec: ProblemSpec, cfg: ObstacleConfig, grid: Grid,
                  eta: float, sign: int,
                  tail: Optional[TailClosure] = None) -> Profile:
    """Solve the mixed local/nonlocal Dirichlet problem for one barrier.

    Assembles the dense band system with the same quadrature weights as the
    operator application and solves it directly: the band block is Toeplitz
    in the kernel masses, and the exterior data couple in through one
    convolution of the data with the band zeroed.  The linear residual must
    come out below 1e-8 * C0; a numerically singular system raises
    BarrierSolveError carrying a condition estimate.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 (upper) or -1 (lower)")
    if grid.R < max(abs(cfg.b1), abs(cfg.b2)) + 2 * cfg.tau + 1:
        raise ValueError("grid window must contain [b1-2tau-1, b2+2tau+1]")
    r = cfg.resolve_r(spec)
    C0 = compute_rhs_constant(spec)
    gl = spec.potential.zeta1 + sign * r
    gr = spec.potential.zeta2 + sign * r
    ws = workspace_for(spec.kernel, grid, tail)
    x, h = grid.x, grid.h
    band = _band_indices(grid, cfg)
    if band.size == 0:
        raise ValueError("band contains no grid nodes; refine the grid or widen tau")
    uext = np.where(x <= cfg.b1 - cfg.tau, gl, gr)
    # the band is a contiguous run of nodes strictly inside the window, so
    # its eta neighbours are the next band node or band[0] - 1, band[-1] + 1
    A = -ws.offset_weight(band[:, None] - band[None, :])
    idx = np.arange(band.size)
    A[idx, idx] += ws.diag[band]
    b = np.full(band.size, sign * C0)
    b += ws.Wl[band] * gl + ws.Wr[band] * gr
    outside = uext.copy()
    outside[band] = 0.0
    b += ws.conv(outside)[band]
    if eta > 0:
        c = eta / h ** 2
        A[idx, idx] += 2 * c
        A[idx[:-1], idx[1:]] -= c
        A[idx[1:], idx[:-1]] -= c
        b[0] += c * uext[band[0] - 1]
        b[-1] += c * uext[band[-1] + 1]
    try:
        u = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as e:
        raise BarrierSolveError(
            f"singular barrier system (cond ~ {np.linalg.cond(A):.3e})") from e
    res = float(np.abs(A @ u - b).max())
    if res > 1e-8 * C0:
        raise BarrierSolveError(
            f"barrier residual {res:.3e} exceeds 1e-8*C0 "
            f"(cond ~ {np.linalg.cond(A):.3e})")
    vals = uext.astype(np.float64).copy()
    vals[band] = u
    return Profile(grid, vals, gl, gr)


# --------------------------------------------------------------------------
# envelopes
# --------------------------------------------------------------------------


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return ((6.0 * t - 15.0) * t + 10.0) * t ** 3


def _bump(x: np.ndarray, lo: float, hi: float, rise: float) -> np.ndarray:
    """C^2 plateau bump: 0 outside (lo, hi), 1 on [lo+rise, hi-rise]."""
    return np.minimum(_smoothstep((x - lo) / rise), _smoothstep((hi - x) / rise))


def _datum(x: np.ndarray, cfg: ObstacleConfig, lvl_l: float, lvl_r: float) -> np.ndarray:
    """Smooth interpolation between the two exterior data levels."""
    t = _smoothstep((x - cfg.b1) / (cfg.b2 - cfg.b1))
    return lvl_l + (lvl_r - lvl_l) * t


def _collar_masks(x: np.ndarray, cfg: ObstacleConfig):
    left = (x > cfg.b1 - 2 * cfg.tau) & (x <= cfg.b1)
    right = (x >= cfg.b2) & (x < cfg.b2 + 2 * cfg.tau)
    mid = (x > cfg.b1) & (x < cfg.b2)
    outside = ~(left | right | mid)
    return left, right, mid, outside


def _mollify_near_kinks(x, f, cfg, h):
    """Blend a short moving-average of f in around the two band endpoints."""
    delta = cfg.tau / 4.0
    mw = max(3, int(round(delta / h)) * 2 + 1)
    kern = np.hanning(mw + 2)[1:-1]
    kern = kern / kern.sum()
    fm = np.convolve(f, kern, mode="same")
    out = f.copy()
    zones = []
    for kink in (cfg.b1 - cfg.tau, cfg.b2 + cfg.tau):
        zone = _bump(x, kink - 3 * delta, kink + 3 * delta, delta)
        out = (1 - zone) * out + zone * fm
        zones.append(_bump(x, kink - 4 * delta, kink + 4 * delta, delta))
    return out, zones


def band_check(barrier: Profile, cfg: ObstacleConfig, level_l: float,
               level_r: float, r: float) -> Tuple[float, bool]:
    """Collar-band deviation max |barrier - level| on [b1-tau, b1] u [b2, b2+tau].

    Returns (deviation, deviation <= r/4).
    """
    x = barrier.x
    selL = (x >= cfg.b1 - cfg.tau) & (x <= cfg.b1)
    selR = (x >= cfg.b2) & (x <= cfg.b2 + cfg.tau)
    devL = float(np.abs(barrier.values[selL] - level_l).max()) if selL.any() else 0.0
    devR = float(np.abs(barrier.values[selR] - level_r).max()) if selR.any() else 0.0
    dev = max(devL, devR)
    return dev, dev <= r / 4.0


def build_envelopes(phi: Profile, psi: Profile, cfg: ObstacleConfig,
                    eta: float = 0.0) -> ObstaclePair:
    """Construct the smooth envelope pair and verify every clause on the grid.

    ``phi``/``psi`` are raw barrier solutions; their boundary data encode the
    wells and the offset r.  Construction: calibrate the deviations so the
    collar bands hold with target r/band_margin, mollify across the interior
    kinks (subtracting/adding an exact margin so the collar-side inequality
    against the barrier is preserved), and lift/sink the envelopes between
    b1 and b2 clear of the well sandwich.  Any clause that fails afterwards
    raises EnvelopeClauseError naming the clause and the worst node.
    """
    if phi.grid != psi.grid:
        raise ValueError("barrier profiles must share a grid")
    grid = phi.grid
    x, h = grid.x, grid.h
    zeta1 = 0.5 * (phi.left_const + psi.left_const)
    zeta2 = 0.5 * (phi.right_const + psi.right_const)
    r = 0.5 * (phi.left_const - psi.left_const)
    if r <= 0 or abs((phi.right_const - psi.right_const) / 2 - r) > 1e-9:
        raise ValueError("inconsistent barrier boundary data")
    left, right, mid, outside = _collar_masks(x, cfg)
    if np.count_nonzero(left) < 2 or np.count_nonzero(right) < 2:
        raise EnvelopeClauseError(
            "collar contains fewer than 2 grid nodes (tau too small for this grid)")

    datum_p = _datum(x, cfg, zeta1 + r, zeta2 + r)
    datum_m = _datum(x, cfg, zeta1 - r, zeta2 - r)
    collars = left | right
    dev = max(float(np.abs(phi.values - datum_p)[collars].max()),
              float(np.abs(psi.values - datum_m)[collars].max()), 1e-300)
    target = r / cfg.band_margin
    beta = min(1.0, target / dev)
    phic = Profile(grid, datum_p + beta * (phi.values - datum_p),
                   phi.left_const, phi.right_const)
    psic = Profile(grid, datum_m + beta * (psi.values - datum_m),
                   psi.left_const, psi.right_const)

    Phi_v, zones = _mollify_near_kinks(x, phic.values, cfg, h)
    Psi_v, _ = _mollify_near_kinks(x, psic.values, cfg, h)
    for zone in zones:
        sel = zone > 0
        exc_p = float(np.max((Phi_v - phic.values)[sel])) if sel.any() else 0.0
        exc_m = float(np.max((psic.values - Psi_v)[sel])) if sel.any() else 0.0
        Phi_v = Phi_v - max(exc_p, 0.0) * zone - 1e-12 * zone
        Psi_v = Psi_v + max(exc_m, 0.0) * zone + 1e-12 * zone

    # lift the upper envelope above the well sandwich between b1 and b2
    # (and sink the lower one below), keeping C^2 junctions at b1, b2
    mid_rise = min(2.0, (cfg.b2 - cfg.b1) / 4.0)
    midzone = _bump(x, cfg.b1, cfg.b2, mid_rise)
    up_lvl = max(zeta2 + 2 * r, float(phic.values[mid].max()) + r / 4.0)
    dn_lvl = min(zeta1 - 2 * r, float(psic.values[mid].min()) - r / 4.0)
    Phi_v = Phi_v + np.clip(up_lvl - phic.values, 0.0, None) * midzone
    Psi_v = Psi_v - np.clip(psic.values - dn_lvl, 0.0, None) * midzone

    Phi = Profile(grid, Phi_v, phi.left_const, phi.right_const)
    Psi = Profile(grid, Psi_v, psi.left_const, psi.right_const)
    pair = ObstaclePair(phic, psic, Phi, Psi, cfg, r, zeta1, zeta2, beta, eta)
    _verify_clauses(pair)
    return pair


def _verify_clauses(pair: ObstaclePair, tol: float = 1e-9) -> None:
    cfg, r = pair.cfg, pair.r
    x = pair.phi.x
    left, right, mid, outside = _collar_masks(x, cfg)

    def worst(mask, gap, clause):
        if not mask.any():
            raise EnvelopeClauseError(f"{clause}: region holds no grid nodes")
        g = gap[mask]
        j = int(np.argmin(g))
        if g[j] < -tol:
            node = x[mask][j]
            raise EnvelopeClauseError(
                f"{clause} violated by {-g[j]:.3e} at node x={node:.6g}")

    for name, env, bar, z_l, z_r, sgn in (
            ("upper", pair.Phi.values, pair.phi.values, pair.zeta1, pair.zeta2, +1),
            ("lower", pair.Psi.values, pair.psi.values, pair.zeta1, pair.zeta2, -1)):
        # clause 1/5: equality with the barrier outside the widened band
        gap = np.abs(env - bar)
        g = gap[outside]
        if g.size and g.max() > tol:
            j = int(np.argmax(g))
            raise EnvelopeClauseError(
                f"{name} envelope differs from barrier outside the band by "
                f"{g.max():.3e} at x={x[outside][j]:.6g}")
        # clauses 2/4: collar sandwich between zeta + sgn*3r/4 and the barrier,
        # capped at zeta + sgn*5r/4
        for mask, z in ((left, z_l), (right, z_r)):
            if sgn > 0:
                worst(mask, env - (z + 0.75 * r), f"{name} collar floor")
                worst(mask, bar - env, f"{name} collar barrier bound")
                worst(mask, (z + 1.25 * r) - env, f"{name} collar ceiling")
            else:
                worst(mask, (z - 0.75 * r) - env, f"{name} collar ceiling")
                worst(mask, env - bar, f"{name} collar barrier bound")
                worst(mask, env - (z - 1.25 * r), f"{name} collar floor")
        # clause 3: dominance between b1 and b2
        worst(mid, sgn * (env - bar), f"{name} interior dominance")
    worst(np.ones_like(x, bool), pair.Phi.values - pair.Psi.values,
          "envelope ordering Psi <= Phi")


def faithful_barriers(pair: ObstaclePair) -> Tuple[Profile, Profile]:
    """Undo the calibration: the solutions of the unscaled barrier problems."""
    cfg = pair.cfg
    x = pair.phi.x
    datum_p = _datum(x, cfg, pair.zeta1 + pair.r, pair.zeta2 + pair.r)
    datum_m = _datum(x, cfg, pair.zeta1 - pair.r, pair.zeta2 - pair.r)
    inv = 1.0 / pair.rhs_scale
    phi = Profile(pair.phi.grid, datum_p + inv * (pair.phi.values - datum_p),
                  pair.phi.left_const, pair.phi.right_const)
    psi = Profile(pair.psi.grid, datum_m + inv * (pair.psi.values - datum_m),
                  pair.psi.left_const, pair.psi.right_const)
    return phi, psi


# --------------------------------------------------------------------------
# projection
# --------------------------------------------------------------------------


def project_admissible(Q: Profile, pair: ObstaclePair, cfg: ObstacleConfig,
                       mode: str = "gamma_only") -> Profile:
    """Clamp a profile into the obstacle band.

    ``gamma_only`` constrains (-inf, b1] u [b2, inf) only; ``sigma_full``
    clamps everywhere.  Idempotent; far-field constants are preserved (they
    already sit strictly inside the exterior band).
    """
    if mode not in ("gamma_only", "sigma_full"):
        raise ValueError(f"unknown projection mode {mode!r}")
    if Q.grid != pair.Phi.grid:
        raise ValueError("profile and obstacle pair must share a grid")
    lo, hi = pair.Psi.values, pair.Phi.values
    if np.any(lo > hi):
        raise ValueError("invalid obstacle pair: lower envelope exceeds upper")
    x = Q.x
    region = np.ones(Q.grid.n, bool) if mode == "sigma_full" else \
        (x <= cfg.b1) | (x >= cfg.b2)
    vals = Q.values.copy()
    vals[region] = np.clip(vals[region], lo[region], hi[region])
    return Profile(Q.grid, vals, Q.left_const, Q.right_const)
