"""Counterexample families with known norm-scaling laws.

Two families of compactly supported profiles double as a validation suite
for the fractional-seminorm quadrature:

* a bump family phi_k(x) = phi(e^k (x - b_k)) whose L^2 norms scale like
  e^(-k/2) and whose H^s Gagliardo seminorms scale like e^(-(1-2s)k/2)
  for s in (0, 1/2) -- superposing them over centers b_k = k and b_k = 1/k
  yields a bounded-seminorm function that is discontinuous and oscillates
  at infinity;

* a trace family psi_k(x) = e^(-|k|) psibar(e^(|k|)(x - e^k)) built from
  psibar(x) = log(1 - log|x|) on (-1, 1), whose L^2 norms scale like
  e^(-3|k|/2) and whose H^(1/2) seminorms like e^(-|k|).

Bump seminorms run on the shared uniform-grid engine, on the member's
support only: the spacing is that of a window of half-width 2 e^(-k) at
``resolution`` nodes, and the grid keeps the nodes with |x| <= e^(-k).
That is exact, not a truncation.  The member and its far fields vanish off
the support, and for a power kernel the cell masses beyond a sub-window
telescope into its tail moments, so the discrete whole-line form is the
same on any window that holds the support.  The trace family, singular at
a point, uses a log-refined nonuniform grid with exact kernel cell masses
off the diagonal and the same pairing/midpoint treatment next to it.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ._record import record
from .discretize import Grid, Profile, WHOLE_LINE, seminorm_K

__all__ = [
    "ResolutionError",
    "BumpFamily",
    "TraceExample",
    "bump_norms",
    "trace_norms",
    "BUMP_L2_RATIO",
    "bump_hs_ratio",
    "TRACE_L2_RATIO",
    "TRACE_HHALF_RATIO",
]

BUMP_L2_RATIO = math.exp(-0.5)
TRACE_L2_RATIO = math.exp(-1.5)
TRACE_HHALF_RATIO = math.exp(-1.0)


def bump_hs_ratio(s: float) -> float:
    return math.exp(-(1.0 - 2.0 * s) / 2.0)


class ResolutionError(RuntimeError):
    pass


@record(frozen=True)
class _GagliardoKernel:
    """Plain Gagliardo weight |r|^(-1-2s); duck-typed stand-in for KernelSpec."""

    s: float
    form: str = "power"
    c: float = 1.0
    r0: float = 1.0


@record(frozen=True)
class BumpFamily:
    """Smooth template (1 - x^2)^4 on [-1, 1] scaled to width ~ e^(-k)."""

    s: float
    centers: str = "integers"   # integers (b_k = k) | reciprocals (b_k = 1/k)
    resolution: int = 4001      # nodes across [-2, 2] support units

    def __post_init__(self):
        if not (0.0 < self.s < 0.5):
            raise ValueError("bump family requires s strictly inside (0, 1/2)")
        if self.centers not in ("integers", "reciprocals"):
            raise ValueError(f"unknown center rule {self.centers!r}")
        if self.resolution < 201 or self.resolution % 2 == 0:
            raise ValueError("resolution must be odd and >= 201")

    def center(self, k: int) -> float:
        if k == 0:
            return 0.0
        return float(k) if self.centers == "integers" else 1.0 / float(k)

    def base(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        # two squarings: pow takes a slow path on negative and near-zero bases
        return np.where(np.abs(u) < 1.0, np.square(np.square(1.0 - u * u)), 0.0)

    def member(self, k: int, x) -> np.ndarray:
        return self.base(math.exp(k) * (np.asarray(x, float) - self.center(k)))


def _adapted_profile(family: BumpFamily, k: int) -> Profile:
    """Member k on its support grid: spacing 4 e^(-k) / (resolution - 1),
    the (resolution - 1) // 4 nodes each side of the center and the center."""
    scale = math.exp(-k)
    h = 4 * scale / (family.resolution - 1)
    if h < 32 * np.finfo(float).eps * max(1.0, abs(family.center(k))):
        raise ResolutionError(
            f"member k={k} support (width ~ {scale:.2e}) is unresolvable at "
            f"this resolution near x = {family.center(k):g}")
    m = (family.resolution - 1) // 4
    grid = Grid(m * h, 2 * m + 1)
    vals = family.base(grid.x / scale)  # local coordinates around the center
    return Profile(grid, vals, 0.0, 0.0)


def bump_norms(family: BumpFamily, k: int) -> Tuple[float, float]:
    """Numerical (L^2 norm, H^s Gagliardo seminorm) of member k on its
    support grid; raises ResolutionError when the support is unresolvable."""
    prof = _adapted_profile(family, k)
    h = prof.grid.h
    tw = np.full(prof.grid.n, h)
    tw[0] = tw[-1] = h / 2
    l2 = math.sqrt(float(np.sum(prof.values ** 2 * tw)))
    return l2, seminorm_K(prof, WHOLE_LINE, _GagliardoKernel(family.s))


# --------------------------------------------------------------------------
# trace family (H^{1/2})
# --------------------------------------------------------------------------


@record(frozen=True)
class TraceExample:
    """psibar(x) = log(1 - log|x|) inside (-1, 1), 0 outside."""

    inner_cutoff: float = 1e-10   # absolute inner truncation of the log grid
    points_per_decade: int = 48

    def psibar(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        out = np.zeros_like(ax)
        inside = (ax > 0) & (ax < 1.0)
        out[inside] = np.log(1.0 - np.log(ax[inside]))
        return out

    def member(self, k: int, x) -> np.ndarray:
        ak = abs(k)
        return math.exp(-ak) * self.psibar(math.exp(ak) * (np.asarray(x, float)
                                                           - math.exp(k)))


def _log_cells(lo_abs: float, hi_abs: float, ppd: int) -> np.ndarray:
    """Symmetric log-refined cell boundaries on [-hi, -lo] u [lo, hi]."""
    decades = math.log10(hi_abs / lo_abs)
    m = max(8, int(round(decades * ppd)))
    pos = np.geomspace(lo_abs, hi_abs, m + 1)
    return np.concatenate([-pos[::-1], pos])


_BLOCK_ROWS = 32


def _nonuniform_half_seminorm(edges: np.ndarray, f_mid: np.ndarray,
                              skip: Optional[np.ndarray] = None) -> float:
    """Gagliardo H^(1/2) double sum on a nonuniform partition.

    Off-diagonal cell pairs use the exact kernel mass of 1/(x-y)^2; adjacent
    pairs (exact mass divergent, difference vanishing) fall back to the
    midpoint product, matching the uniform engine's treatment of the
    singular cell.  The exterior of the partition (where f = 0) enters
    through exact one-sided tail masses.  ``skip`` marks cells excluded from
    the quadrature (the truncated singular core of the log grid).

    Both the summand and the cell masses are symmetric in the pair, so the
    sum runs over the upper triangle and is doubled: the adjacent pairs
    j = i + 1, then the separated pairs j >= i + 2 in blocks of
    ``_BLOCK_ROWS`` rows, computed in place in three ``_BLOCK_ROWS`` x m
    buffers.
    """
    mids = 0.5 * (edges[1:] + edges[:-1])
    widths = np.diff(edges)
    a, b = edges[:-1], edges[1:]
    m = mids.size
    keep = np.ones(m) if skip is None else (~skip).astype(np.float64)
    # adjacent pairs: midpoint product
    dist = np.maximum(mids[1:] - mids[:-1], 1e-300)
    upper = float(np.sum((f_mid[:-1] - f_mid[1:]) ** 2
                         * (widths[:-1] * widths[1:] / dist ** 2)
                         * keep[:-1] * keep[1:]))
    # separated pairs, exact mass over [a_i, b_i] x [a_j, b_j]:
    #   log((a_j - a_i)(b_j - b_i) / ((a_j - b_i)(b_j - a_i)))
    # rows i0 <= i < i1 against columns j >= i0 + 2; the block's entries with
    # j < i + 2 (column offset below row offset) are zeroed
    bufs = np.empty((3, _BLOCK_ROWS, m))
    below = np.tril(np.ones((_BLOCK_ROWS, _BLOCK_ROWS), bool), -1)
    for i0 in range(0, m - 2, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, m - 2)
        r, c = i1 - i0, m - i0 - 2
        mass, den, diffs = bufs[:, :r, :c]
        A1, B1 = a[i0:i1, None], b[i0:i1, None]
        A2, B2 = a[None, i0 + 2:], b[None, i0 + 2:]
        np.subtract(A2, A1, out=mass)
        np.subtract(B2, B1, out=diffs)
        mass *= diffs
        np.subtract(A2, B1, out=den)
        np.subtract(B2, A1, out=diffs)
        den *= diffs
        np.abs(mass, out=mass)
        np.abs(den, out=den)
        with np.errstate(divide="ignore", invalid="ignore"):
            mass /= den
            np.log(mass, out=mass)
        mass[:, :r][below[:r, :r]] = 0.0
        np.subtract(f_mid[i0:i1, None], f_mid[None, i0 + 2:], out=diffs)
        np.square(diffs, out=diffs)
        diffs *= mass
        diffs *= keep[i0:i1, None]
        diffs *= keep[None, i0 + 2:]
        upper += float(np.sum(diffs))
    total = 2.0 * upper
    # exterior (f = 0 there), both pair orders, midpoint in x
    ext = 2.0 * np.sum((f_mid ** 2 * widths * keep)
                       * (1.0 / (edges[-1] - mids) + 1.0 / (mids - edges[0])))
    return math.sqrt(max(total + float(ext), 0.0))


def _core_skip(edges: np.ndarray, center: float) -> np.ndarray:
    """Mark the one cell containing the (truncated) singular point."""
    mids = 0.5 * (edges[1:] + edges[:-1])
    skip = np.zeros(mids.size, bool)
    skip[int(np.argmin(np.abs(mids - center)))] = True
    return skip


def trace_norms(example: TraceExample, k: int) -> Tuple[float, float]:
    """(L^2 norm, H^(1/2) seminorm) of member k on its log-refined grid."""
    ak = abs(k)
    scale = math.exp(-ak)
    center = math.exp(k)
    edges_loc = _log_cells(example.inner_cutoff, scale, example.points_per_decade)
    edges = center + edges_loc
    mids = 0.5 * (edges[1:] + edges[:-1])
    widths = np.diff(edges)
    f = example.member(k, mids)
    skip = _core_skip(edges, center)
    l2 = math.sqrt(float(np.sum(f * f * widths * ~skip)))
    return l2, _nonuniform_half_seminorm(edges, f, skip)
