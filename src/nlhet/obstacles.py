"""Barrier profiles and smooth double-obstacle envelopes.

The barriers phi (upper) and psi (lower) solve the linear Dirichlet problem

    (-eta d^2 + L) u = sign * C0   in (b1 - tau, b2 + tau),
    u = zeta1 +- r  on the left exterior,  u = zeta2 +- r  on the right,

with C0 = sup|a W'| + 2|zeta1| + 2|zeta2| + 1 (computed, never user-set).
Both barriers come from one matrix-free preconditioned CG on the band: the
band block is Toeplitz plus a diagonal and is never assembled; its product
and preconditioner are ``discretize.toeplitz_circulant``/``strang_circulant``.
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
records the scale and keeps the unscaled solutions between b1 and b2: the
comparison test run after each solve (minimizer below the upper barrier
between b1 and b2) uses those faithful barriers.
"""

from __future__ import annotations

import logging
from typing import Optional, Tuple

import numpy as np

from ._record import record
from .discretize import (Grid, Profile, operator_field, strang_circulant,
                         toeplitz_circulant, workspace_for)
from .model import ProblemSpec

__all__ = [
    "ObstacleConfig",
    "ObstaclePair",
    "BarrierSolveError",
    "EnvelopeClauseError",
    "solve_barrier",
    "build_envelopes",
    "barrier_pair",
]


log = logging.getLogger("nlhet")

BAND_MARGIN = 8.0  # collar deviation target of the calibration = r / BAND_MARGIN


class BarrierSolveError(RuntimeError):
    pass


class EnvelopeClauseError(RuntimeError):
    pass


@record(frozen=True)
class ObstacleConfig:
    """Barrier geometry: window [b1, b2], collar width tau, offset r."""

    b1: float
    b2: float
    tau: float = 0.05
    r: Optional[float] = None

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


@record
class ObstaclePair:
    """Calibrated barriers and their smooth envelopes, sampled on the grid.

    ``rhs_scale`` is the deviation scaling applied to the raw barrier
    solutions; 1.0 means the collar bands held without calibration.
    ``corridor`` holds the raw, unscaled barriers between b1 and b2: (slice
    of the nodes strictly inside, upper values there, lower values there).
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
    corridor: Tuple[slice, np.ndarray, np.ndarray]


def _band_indices(grid: Grid, cfg: ObstacleConfig) -> np.ndarray:
    x = grid.x
    return np.where((x > cfg.b1 - cfg.tau) & (x < cfg.b2 + cfg.tau))[0]


def _band_cg(matvec, precondition, B: np.ndarray, tol: float,
             maxiter: int) -> Tuple[np.ndarray, int]:
    """Preconditioned CG on the columns of B, each with its own step sizes.

    A column stops once max|residual| <= tol.  Negative or non-finite
    curvature, or a column still above tol after ``maxiter`` steps, raises
    BarrierSolveError with the iteration count and the residual.
    """
    U = np.zeros_like(B)
    Rs = B.copy()
    Z = precondition(Rs)
    P = Z.copy()
    rz = np.sum(Rs * Z, axis=0)
    for k in range(1, maxiter + 1):
        active = ~(np.abs(Rs).max(axis=0) <= tol)
        if not active.any():
            return U, k - 1
        AP = matvec(P)
        pAp = np.sum(P * AP, axis=0)
        if not np.all(pAp[active] > 0.0):
            raise BarrierSolveError(
                f"barrier CG breakdown at iteration {k} (curvature "
                f"{pAp.min():.3e}, residual {np.abs(Rs).max():.3e})")
        alpha = np.where(active, rz / np.where(active, pAp, 1.0), 0.0)
        U += alpha * P
        Rs -= alpha * AP
        Z = precondition(Rs)
        rz_new = np.sum(Rs * Z, axis=0)
        P = Z + np.where(active, rz_new / np.where(active, rz, 1.0), 0.0) * P
        rz = rz_new
    res = np.abs(Rs).max()
    if not res <= tol:
        raise BarrierSolveError(
            f"barrier CG reached its cap of {maxiter} iterations with "
            f"residual {res:.3e}")
    return U, maxiter


def solve_barrier(spec: ProblemSpec, cfg: ObstacleConfig, grid: Grid,
                  eta: float) -> Tuple[Profile, Profile]:
    """Solve the mixed local/nonlocal Dirichlet problem for (phi, psi).

    The band block is symmetric positive definite: the Toeplitz part -w_|i-j|
    from one kernel row (``toeplitz_circulant`` of the band), plus the
    diagonal and the eta stencil.  The exterior data couple in through the
    operator field of the data with the band zeroed, read on the band.
    Both barriers (right-hand sides of sign +1 and -1) are the two columns of
    one matrix-free CG, preconditioned by the Strang circulant of the same
    row (``strang_circulant``).  The true residual must come out below
    1e-8 * C0; a CG breakdown, a solve that hits its cap of nb iterations or
    a residual above the bound raises BarrierSolveError.
    """
    if grid.R < max(abs(cfg.b1), abs(cfg.b2)) + 2 * cfg.tau + 1:
        raise ValueError("grid window must contain [b1-2tau-1, b2+2tau+1]")
    r = cfg.resolve_r(spec)
    C0 = spec.rhs_constant
    ws = workspace_for(spec.kernel, grid)
    band = _band_indices(grid, cfg)
    if band.size == 0:
        raise ValueError("band contains no grid nodes; refine the grid or widen tau")
    nb = band.size
    c = eta / grid.h ** 2
    B = np.empty((nb, 2))
    pair = []
    for k, sign in enumerate((+1, -1)):
        gl = spec.potential.zeta1 + sign * r
        gr = spec.potential.zeta2 + sign * r
        u = np.where(grid.x <= cfg.b1 - cfg.tau, gl, gr)
        outside = u.copy()
        outside[band] = 0.0
        B[:, k] = sign * C0 - operator_field(ws, outside, gl, gr, eta=eta)[band]
        pair.append(Profile(grid, u, gl, gr))

    dg = (ws.diag[band] + 2 * c)[:, None]
    toeplitz = toeplitz_circulant(ws.w, nb)

    def matvec(U):
        AU = dg * U - toeplitz(U)
        AU[1:] -= c * U[:-1]
        AU[:-1] -= c * U[1:]
        return AU

    precondition = strang_circulant(ws.diag[band[nb // 2]], ws.w, c, nb).solve
    # CG stops two decades below the gate: its recursive residual drifts
    # from the true one by round-off
    U, iters = _band_cg(matvec, precondition, B, 1e-10 * C0, nb)
    res = float(np.abs(matvec(U) - B).max())
    if not res <= 1e-8 * C0:
        raise BarrierSolveError(f"barrier residual {res:.3e} exceeds 1e-8*C0")
    log.debug("barrier pair eta=%g: %d-node band, %d CG iterations, "
              "residual %.3e", eta, nb, iters, res)
    pair[0].values[band], pair[1].values[band] = U.T
    return pair[0], pair[1]


# --------------------------------------------------------------------------
# envelopes
# --------------------------------------------------------------------------


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return ((6.0 * t - 15.0) * t + 10.0) * (t * t * t)


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


def build_envelopes(phi: Profile, psi: Profile, cfg: ObstacleConfig,
                    eta: float = 0.0) -> ObstaclePair:
    """Construct the smooth envelope pair and verify every clause on the grid.

    ``phi``/``psi`` are raw barrier solutions; their boundary data encode the
    wells and the offset r.  Construction: calibrate the deviations so the
    collar bands hold with target r/BAND_MARGIN, mollify across the interior
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
    target = r / BAND_MARGIN
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
    up_lvl = max(max(zeta1, zeta2) + 2 * r, float(phic.values[mid].max()) + r / 4.0)
    dn_lvl = min(min(zeta1, zeta2) - 2 * r, float(psic.values[mid].min()) - r / 4.0)
    Phi_v = Phi_v + np.clip(up_lvl - phic.values, 0.0, None) * midzone
    Psi_v = Psi_v - np.clip(psic.values - dn_lvl, 0.0, None) * midzone

    Phi = Profile(grid, Phi_v, phi.left_const, phi.right_const)
    Psi = Profile(grid, Psi_v, psi.left_const, psi.right_const)
    inside = slice(np.searchsorted(x, cfg.b1, "right"),
                   np.searchsorted(x, cfg.b2, "left"))
    pair = ObstaclePair(phic, psic, Phi, Psi, cfg, r, zeta1, zeta2, beta, eta,
                        (inside, phi.values[inside].copy(),
                         psi.values[inside].copy()))
    _verify_clauses(pair)
    return pair


def barrier_pair(spec: ProblemSpec, cfg: ObstacleConfig, grid: Grid,
                 eta: float) -> ObstaclePair:
    """Upper and lower barriers at viscosity eta and their envelope pair."""
    return build_envelopes(*solve_barrier(spec, cfg, grid, eta), cfg, eta)


def _verify_clauses(pair: ObstaclePair, tol: float = 1e-9) -> None:
    cfg, r = pair.cfg, pair.r
    x = pair.phi.x
    left, right, mid, outside = _collar_masks(x, cfg)

    def worst(mask, gap, clause):
        if not mask.any():
            raise EnvelopeClauseError(f"{clause}: region holds no grid nodes")
        g = gap[mask]
        j = int(np.argmin(g))
        if not g[j] >= -tol:
            node = x[mask][j]
            raise EnvelopeClauseError(
                f"{clause} violated by {-g[j]:.3e} at node x={node:.6g}")

    for name, env, bar, z_l, z_r, sgn in (
            ("upper", pair.Phi.values, pair.phi.values, pair.zeta1, pair.zeta2, +1),
            ("lower", pair.Psi.values, pair.psi.values, pair.zeta1, pair.zeta2, -1)):
        # clause 1/5: equality with the barrier outside the widened band
        gap = np.abs(env - bar)
        g = gap[outside]
        if g.size and not g.max() <= tol:
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
