"""Independent slow reference implementations used as test oracles.

These stay deliberately separate from the package code paths: dense direct
quadrature for the singular operator, exhaustive pair enumeration for clean
intervals, a plain double-midpoint sum for the Gagliardo forms, the
two-interval bilinear form as the plain four-convolution sum, the
full-matrix H^(1/2) sum on a nonuniform partition, a dense direct
solve of the barrier problem, exactly rounded Toeplitz row sums and
quadratic forms, power kernel cell masses as a difference of two powers,
the compressed inverse of a Strang circulant by dense inversion, the
perturbed functional through the windowed bilinear form instead of the
solver's stage evaluation, and bump-member norms on a full window twice
the support's width instead of the support grid.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from nlhet.discretize import (Grid, Interval, Profile, WHOLE_LINE, _interval_mask,
                              workspace_for)
from nlhet.model import ProblemSpec, potential_eval_grad
from nlhet.solver import EnergyBreakdown


def dense_nonlocal(f: Callable[[np.ndarray], np.ndarray], x0: float,
                   s: float, c: float, left_limit: float, right_limit: float,
                   dt: float, T_fine: float = 50.0, T_mid: float = 5e4) -> float:
    """P.V. integral (f(x0) - f(y)) K(x0 - y) dy by paired dense quadrature.

    Pairs t and -t to kill the odd singularity, integrates [0, T_fine] with a
    fine midpoint rule at step dt, [T_fine, T_mid] with log-spaced midpoint
    cells, and closes the tails with the analytic kernel moment against the
    function limits.
    """
    f0 = float(f(np.array([x0]))[0])
    t = np.arange(dt / 2, T_fine, dt)
    g = 2 * f0 - f(x0 + t) - f(x0 - t)
    val = float(np.sum(g * c * t ** (-1 - 2 * s)) * dt)
    edges = np.geomspace(T_fine, T_mid, 4001)
    mids = 0.5 * (edges[1:] + edges[:-1])
    widths = np.diff(edges)
    g2 = 2 * f0 - f(x0 + mids) - f(x0 - mids)
    val += float(np.sum(g2 * c * mids ** (-1 - 2 * s) * widths))
    tail_mass = c * T_mid ** (-2 * s) / (2 * s)
    val += (2 * f0 - left_limit - right_limit) * tail_mass
    return val


def dense_seminorm_sq(f: Callable[[np.ndarray], np.ndarray],
                      X: Tuple[float, float], Y: Tuple[float, float],
                      s: float, c: float, h: float) -> float:
    """Direct double midpoint sum of |f(x)-f(y)|^2 K(x-y) over X x Y."""
    xm = np.arange(X[0] + h / 2, X[1], h)
    ym = np.arange(Y[0] + h / 2, Y[1], h)
    fx = f(xm)[:, None]
    fy = f(ym)[None, :]
    d = xm[:, None] - ym[None, :]
    with np.errstate(divide="ignore"):
        K = c * np.abs(d) ** (-1 - 2 * s)
    K[np.abs(d) < h / 2] = 0.0  # skip the singular diagonal band
    return float(np.sum((fx - fy) ** 2 * K) * h * h)


def brute_clean_intervals(x: np.ndarray, values: np.ndarray, rho: float,
                          wells: Sequence[float]) -> List[Tuple[float, float, float]]:
    """Exhaustive clean-interval search: every index pair is tested and
    non-maximal intervals are filtered.  Returns (lo, hi, well), sorted."""
    need = abs(math.log(rho)) - 1e-12
    n = x.size
    cand = []
    for z in wells:
        dev = np.abs(values - z)
        for i in range(n):
            run = np.maximum.accumulate(dev[i:])
            ok = np.where(run <= rho)[0]
            if ok.size == 0:
                continue
            jmax = i + ok[-1]
            # all ends i..jmax are clean for this well; only the longest can
            # be maximal among intervals starting at i
            if x[jmax] - x[i] >= need:
                cand.append((float(x[i]), float(x[jmax]), float(z),
                             float(dev[i:jmax + 1].max())))
    # maximality filter across all wells
    out = []
    for lo, hi, z, sd in cand:
        contained = any(l2 <= lo and hi <= h2 and (l2, h2) != (lo, hi)
                        for l2, h2, _, _ in cand)
        if not contained:
            out.append((lo, hi, z, sd))
    # dedupe identical spans, keep closer well
    best = {}
    for lo, hi, z, sd in out:
        key = (lo, hi)
        if key not in best or sd < best[key][3]:
            best[key] = (lo, hi, z, sd)
    return sorted(best.values())


def trapz(y: np.ndarray, h: float) -> float:
    return float(np.trapezoid(y, dx=h)) if hasattr(np, "trapezoid") \
        else float(np.trapz(y, dx=h))


def dense_half_seminorm(edges: np.ndarray, f_mid: np.ndarray,
                        skip: Optional[np.ndarray] = None) -> float:
    """Gagliardo H^(1/2) double sum on a nonuniform partition, as full m x m
    matrices: exact 1/(x-y)^2 cell masses for separated pairs, the midpoint
    product for adjacent pairs, exact one-sided tail masses for the exterior
    (where f = 0), and ``skip`` cells left out."""
    mids = 0.5 * (edges[1:] + edges[:-1])
    widths = np.diff(edges)
    a, b = edges[:-1], edges[1:]
    m = mids.size
    A2, B2 = a[None, :], b[None, :]
    A1, B1 = a[:, None], b[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = np.log(np.abs((A2 - A1) * (B2 - B1))
                      / np.abs((A2 - B1) * (B2 - A1)))
    off = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    adj = off <= 1
    mass[adj] = 0.0
    dmat = np.abs(mids[:, None] - mids[None, :])
    with np.errstate(divide="ignore"):
        adj_mass = np.where(off == 1, widths[:, None] * widths[None, :]
                            / np.maximum(dmat, 1e-300) ** 2, 0.0)
    mass = mass + adj_mass
    keep = np.ones(m, bool) if skip is None else ~skip
    diffs = (f_mid[:, None] - f_mid[None, :]) ** 2
    total = float(np.sum(diffs * mass * keep[:, None] * keep[None, :]))
    ext = 2.0 * np.sum((f_mid ** 2 * widths * keep)
                       * (1.0 / (edges[-1] - mids) + 1.0 / (mids - edges[0])))
    return math.sqrt(max(total + float(ext), 0.0))


def bilinear_form(f: Profile, g: Profile, I: Interval, J: Interval,
                  kernel) -> float:
    """B_{I,J}(f, g) = iint_{I x J} (f(x)-f(y))(g(x)-g(y)) K(x-y) dx dy.

    The node pairs in I x J give sum (f_i - f_j)(g_i - g_j) w_{|i-j|}, as
    the four convolution terms of the centered profiles, with the row sums
    ``rho`` in place of the convolution of an all-true mask; no term is
    shared with another.  Each unbounded end of one interval adds the
    window x tail block of the other against the far fields.  The two
    opposite tails of the whole line carry infinite kernel mass for
    s <= 1/2, so unequal far fields in both profiles make the form +-inf.
    """
    if f.grid != g.grid:
        raise ValueError("profiles must share a grid")
    ws = workspace_for(kernel, f.grid)
    h = f.grid.h
    mI, loI, hiI = _interval_mask(f.grid, I)
    mJ, loJ, hiJ = _interval_mask(f.grid, J)
    fv, gv = f.values, g.values
    fc, gc = fv - fv.mean(), gv - gv.mean()
    cI, cJ = mI.astype(np.float64), mJ.astype(np.float64)
    t1 = np.sum(fc * gc * cI * (ws.rho if mJ.all() else ws.conv(cJ)))
    t2 = np.sum(fc * gc * cJ * (ws.rho if mI.all() else ws.conv(cI)))
    t3 = np.sum(fc * cI * ws.conv(gc * cJ))
    t4 = np.sum(gc * cI * ws.conv(fc * cJ))
    total = h * float(t1 + t2 - t3 - t4)
    for mwin, tl, tr in ((mI, loJ, hiJ), (mJ, loI, hiI)):
        if tl:
            total += h * float(np.sum(((fv - f.left_const) * (gv - g.left_const)
                                       * ws.Wl)[mwin]))
        if tr:
            total += h * float(np.sum(((fv - f.right_const) * (gv - g.right_const)
                                       * ws.Wr)[mwin]))
    for a, b in ((loI, hiJ), (hiI, loJ)):
        df = f.left_const - f.right_const
        dg = g.left_const - g.right_const
        if a and b and df != 0.0 and dg != 0.0:
            total += math.copysign(math.inf, df * dg)
    return total


def full_window_bump_norms(family, k: int) -> Tuple[float, float]:
    """(L^2 norm, H^s seminorm) of bump member k on the window of half-width
    2 e^(-k) at ``family.resolution`` nodes: the support and as much zero
    field again, with the trapezoid rule and the whole-line form."""
    from nlhet.appendix_bench import _GagliardoKernel
    scale = math.exp(-k)
    grid = Grid(2 * scale, family.resolution)
    prof = Profile(grid, family.base(grid.x / scale), 0.0, 0.0)
    l2 = math.sqrt(float(np.sum(prof.values ** 2
                                * _trapezoid_weights(grid.n, grid.h))))
    hs2 = bilinear_form(prof, prof, WHOLE_LINE, WHOLE_LINE,
                        _GagliardoKernel(family.s))
    return l2, math.sqrt(max(hs2, 0.0))


def dense_barrier(ws, band: np.ndarray, gl: float, gr: float, rhs: float,
                  eta: float) -> np.ndarray:
    """The barrier with exterior data gl | gr and right-hand side ``rhs`` on
    the band mask, by one dense solve: the full n x n operator matrix from
    the workspace's kernel cell masses and tail moments, restricted to the
    band rows, with the exterior columns moved to the right-hand side."""
    grid = ws.grid
    n, h, x = grid.n, grid.h, grid.x
    wfull = np.concatenate([ws.w[::-1], [0.0], ws.w])
    K = wfull[np.arange(n)[:, None] - np.arange(n)[None, :] + n - 1]
    M = np.diag(K.sum(axis=1) + ws.Wl + ws.Wr) - K
    M += eta / h ** 2 * (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    u = np.where(x < 0, gl, gr)
    b = rhs + ws.Wl * gl + ws.Wr * gr
    b = b[band] - M[np.ix_(band, ~band)] @ u[~band]
    u[band] = np.linalg.solve(M[np.ix_(band, band)], b)
    return u


def dense_row_sums(w: np.ndarray) -> np.ndarray:
    """Row sums rho_i = sum over j != i of w[|i - j| - 1] of the n x n
    Toeplitz matrix with n = w.size + 1, each row by ``math.fsum``."""
    n = w.size + 1
    return np.array([math.fsum(np.concatenate([w[:i], w[:n - 1 - i]]))
                     for i in range(n)])


def _dense_toeplitz(w: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix with zero diagonal and w[k - 1] at offset k."""
    k = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return np.where(k > 0, np.concatenate([[0.0], w])[k], 0.0)


def dense_toeplitz_quad(w: np.ndarray, f: np.ndarray) -> Tuple[float, float]:
    """(f^T A f, |f|^T A |f|) for the n x n Toeplitz matrix A with zero
    diagonal and w[k - 1] at offset k, n = f.size: the n^2 products each
    rounded once and summed by ``math.fsum``.  The second value is the
    scale that the round-off of any summation order is relative to."""
    A = _dense_toeplitz(w, f.size)
    ff = f[:, None] * f[None, :]
    return math.fsum((ff * A).ravel()), math.fsum((np.abs(ff) * A).ravel())


def dense_pair_sum(w: np.ndarray, f: np.ndarray, g: np.ndarray,
                   mx: np.ndarray, my: np.ndarray) -> float:
    """sum over i in X, j in Y of (f_i - f_j)(g_i - g_j) w_{|i-j|} (ordered
    pairs), term by term, summed by ``math.fsum``."""
    A = _dense_toeplitz(w, f.size)
    terms = (f[:, None] - f[None, :]) * (g[:, None] - g[None, :]) * A
    return math.fsum(terms[np.ix_(mx, my)].ravel())


def two_power_cell_masses(ker, h: float, mmax: int) -> np.ndarray:
    """w_m = int over [(m - 1/2)h, (m + 1/2)h] of c t^(-1-2s) dt, m = 1..mmax,
    as c (lo^(-2s) - hi^(-2s)) / 2s with both ends clipped at r0 for a
    truncated power kernel."""
    m = np.arange(1, mmax + 1, dtype=np.float64)
    lo, hi = (m - 0.5) * h, (m + 0.5) * h
    if ker.form == "truncated_power":
        lo, hi = np.minimum(lo, ker.r0), np.minimum(hi, ker.r0)
    return ker.c * (lo ** (-2.0 * ker.s) - hi ** (-2.0 * ker.s)) / (2.0 * ker.s)


def dense_compressed_circulant_inverse(d0: float, w: np.ndarray, c: float,
                                       M: int, scale: float,
                                       n: int) -> np.ndarray:
    """E^T C^-1 E with C the M x M Strang circulant of the Toeplitz operator
    with d0 + 2c on the diagonal and -w[k-1] - c [k = 1] at offset k, times
    ``scale``, and E the embedding of n nodes into M: the leading n x n block
    of the dense inverse of the explicitly assembled circulant."""
    m = (M - 1) // 2
    t = np.zeros(m + 1)
    t[0] = d0 + 2.0 * c
    t[1:] = -w[:m]
    t[1] -= c
    offset = np.arange(M)[:, None] - np.arange(M)[None, :]
    k = np.minimum(offset % M, -offset % M)  # the circular distance
    C = scale * np.where(k <= m, t[np.minimum(k, m)], 0.0)
    return np.linalg.inv(C)[:n, :n]


_FAR_FIELD_TOL = 1e-9


def _check_far_fields(Q: Profile, ref: Profile) -> None:
    if (abs(Q.left_const - ref.left_const) > _FAR_FIELD_TOL
            or abs(Q.right_const - ref.right_const) > _FAR_FIELD_TOL):
        raise ValueError("far-field constants of Q and the reference differ; "
                         "renormalization is invalid")


def renormalized_interaction(Q: Profile, ref: Profile, spec,
                             I: Interval = WHOLE_LINE, J: Interval = WHOLE_LINE) -> float:
    """E_{I x J}(Q) = [Q]^2_{K,I x J} - [ref]^2_{K,I x J}, computed stably.

    Evaluated as [v]^2 + 2 B(v, ref) restricted to I x J, with v = Q - ref,
    so the value stays finite as the windows grow even though both raw
    seminorms diverge.  Q and ref must share far-field constants.
    """
    if Q.grid != ref.grid:
        raise ValueError("profiles must share a grid")
    _check_far_fields(Q, ref)
    v = Profile(Q.grid, Q.values - ref.values, 0.0, 0.0)
    kernel = spec.kernel if isinstance(spec, ProblemSpec) else spec
    vv = bilinear_form(v, v, I, J, kernel)
    vr = bilinear_form(v, ref, I, J, kernel)
    return vv + 2.0 * vr


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def total_energy(Q: Profile, spec: ProblemSpec, eta: float, mu: float,
                 ref: Profile) -> EnergyBreakdown:
    """Breakdown of the perturbed functional at (eta, mu): trapezoid-rule
    local terms, forward-difference viscous cells and a quarter of the
    whole-line renormalized interaction."""
    if eta < 0 or mu < 0:
        raise ValueError("eta and mu must be >= 0")
    if Q.grid != ref.grid:
        raise ValueError("profiles must share a grid")
    h = Q.grid.h
    tw = _trapezoid_weights(Q.grid.n, h)
    dv = np.diff(Q.values) / h
    viscous = 0.5 * eta * float(np.sum(dv * dv)) * h
    penalty = 0.5 * mu * float(np.sum((Q.values - ref.values) ** 2 * tw))
    W, _ = potential_eval_grad(spec.potential, Q.values)
    potential = float(np.sum(np.asarray(spec.modulation(Q.x)) * W * tw))
    interaction = 0.25 * renormalized_interaction(Q, ref, spec)
    return EnergyBreakdown(viscous, penalty, potential, interaction)
