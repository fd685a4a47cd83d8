"""Grid profiles and quadrature for the singular nonlocal operator.

A profile lives on a uniform symmetric grid over [-R, R] and is extended by
exact constants outside the window.  The principal-value operator

    L f(x) = P.V. int (f(x) - f(y)) K(x - y) dy

is discretized by product midpoint quadrature: each node owns the cell
[x_j - h/2, x_j + h/2], the kernel mass of every cell is integrated exactly
(analytically for power-law kernels), and the innermost half-cell around the
singularity is dropped — its odd part cancels by the symmetric pairing of
the +-m node pairs and the residual even part cancels against the midpoint
bias of the neighboring cells (order >= 2-2s overall, measured by the
refinement tests).  Exterior tails use the far-field constants and analytic
kernel moments.

All weights depend only on |i - j|, so operator application and every
double form reduce to Toeplitz convolutions, evaluated by FFT with a fixed
summation order (deterministic output for identical input).  The FFT length
is the next power of two >= 2n - 1: the circular wrap-around of the length
3n - 2 linear convolution then misses the n output samples that are kept.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .model import (KernelSpec, ProblemSpec, kernel_eval, potential_eval_grad,
                    reference_profile_eval)

__all__ = [
    "Grid",
    "Profile",
    "reference_profile",
    "TailClosure",
    "Workspace",
    "workspace_for",
    "Interval",
    "WHOLE_LINE",
    "operator_field",
    "apply_nonlocal",
    "apply_full_operator",
    "seminorm_K",
    "bilinear_form",
    "second_difference",
]


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid: n odd nodes x_i = -R + i*h, h = 2R/(n-1)."""

    R: float
    n: int

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("half-width R must be > 0")
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError("node count n must be odd and >= 3")

    @property
    def h(self) -> float:
        return 2.0 * self.R / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        # built from one half so the nodes are bitwise symmetric about 0
        m = (self.n - 1) // 2
        pos = self.h * np.arange(1, m + 1)
        return np.concatenate([-pos[::-1], [0.0], pos])


@dataclass
class Profile:
    """Sampled function with exact constant far fields.

    ``values`` holds the n node samples; ``left_const``/``right_const`` are
    the values on (-inf, -R) and (R, inf).  Admissible competitors (those
    with v = Q - reference in H^1) must match their far fields at the window
    edge to 1e-9; diagnostic profiles sampled from decaying functions may
    carry edge values as far-field constants instead.
    """

    grid: Grid
    values: np.ndarray
    left_const: float
    right_const: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n,):
            raise ValueError("values length must equal grid node count")

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    def copy(self) -> "Profile":
        return Profile(self.grid, self.values.copy(), self.left_const, self.right_const)

    def is_admissible(self, tol: float = 1e-9) -> bool:
        return (abs(self.values[0] - self.left_const) <= tol
                and abs(self.values[-1] - self.right_const) <= tol)

    @staticmethod
    def from_function(grid: Grid, f, left_const: Optional[float] = None,
                      right_const: Optional[float] = None) -> "Profile":
        vals = np.asarray(f(grid.x), dtype=np.float64)
        lc = float(vals[0]) if left_const is None else float(left_const)
        rc = float(vals[-1]) if right_const is None else float(right_const)
        return Profile(grid, vals, lc, rc)


def reference_profile(spec: ProblemSpec, grid: Grid) -> Profile:
    """The model's reference ramp on the grid, with the wells as far fields."""
    ref = spec.reference
    return Profile.from_function(grid, lambda x: reference_profile_eval(ref, x),
                                 ref.zeta1, ref.zeta2)


@dataclass(frozen=True)
class TailClosure:
    """How the exterior of the window is integrated.

    ``analytic_power`` uses closed-form kernel moments (power kernels only);
    ``truncated_zero`` drops the tails, which is the only option for
    tabulated kernels.
    """

    method: str = "analytic_power"  # analytic_power | truncated_zero

    def __post_init__(self):
        if self.method not in ("analytic_power", "truncated_zero"):
            raise ValueError(f"unknown tail closure {self.method!r}")


# --------------------------------------------------------------------------
# kernel cell masses and workspace
# --------------------------------------------------------------------------


def _power_mass(c: float, s: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact int_lo^hi c t^(-1-2s) dt, elementwise, lo > 0."""
    return c * (lo ** (-2.0 * s) - hi ** (-2.0 * s)) / (2.0 * s)


def _cell_masses(ker: KernelSpec, h: float, mmax: int) -> np.ndarray:
    """w_m = int over [(m-1/2)h, (m+1/2)h] of K, m = 1..mmax."""
    m = np.arange(1, mmax + 1, dtype=np.float64)
    lo, hi = (m - 0.5) * h, (m + 0.5) * h
    if ker.form == "power":
        return _power_mass(ker.c, ker.s, lo, hi)
    if ker.form == "truncated_power":
        hi_c = np.minimum(hi, ker.r0)
        lo_c = np.minimum(lo, ker.r0)
        out = np.zeros_like(lo)
        live = lo_c < hi_c
        out[live] = _power_mass(ker.c, ker.s, lo_c[live], hi_c[live])
        return out
    # tabulated: plain midpoint (no analytic antiderivative available)
    vals = np.zeros_like(m)
    inside = (m * h >= ker.table_r[0]) & (m * h <= ker.table_r[-1])
    vals[inside] = np.asarray(kernel_eval(ker, m[inside] * h)) * h
    return vals


def _tail_moment(ker: KernelSpec, T: np.ndarray) -> np.ndarray:
    """int_T^inf K(t) dt for T > 0 (analytic closures only)."""
    T = np.asarray(T, dtype=np.float64)
    if ker.form == "power":
        return ker.c * T ** (-2.0 * ker.s) / (2.0 * ker.s)
    if ker.form == "truncated_power":
        Tc = np.minimum(T, ker.r0)
        out = np.zeros_like(T)
        live = Tc < ker.r0
        out[live] = _power_mass(ker.c, ker.s, Tc[live], np.full_like(Tc[live], ker.r0))
        return out
    raise ValueError("analytic tail closure is not available for tabulated kernels")


class Workspace:
    """Precomputed Toeplitz weights for one (kernel, grid, tail) triple.

    ``w[m-1]`` is the kernel mass of the cell at node offset m; ``rho`` the
    row sums; ``Wl``/``Wr`` the tail moments from each node to the exterior;
    ``diag = rho + Wl + Wr`` the diagonal of the operator matrix.
    ``conv(f)[i] = sum_j w_{|i-j|} f_j`` (with w_0 = 0) via FFT of length
    ``_L``, the next power of two >= 2n - 1 (16384 at n = 8001): outputs
    n - 1 .. 2n - 2 of the circular convolution then carry no aliased terms.
    """

    def __init__(self, kernel: KernelSpec, grid: Grid, tail: TailClosure):
        if tail.method == "analytic_power" and kernel.form == "tabulated":
            raise ValueError("analytic tail closure requires a power-law kernel")
        if tail.method == "truncated_zero" and kernel.form == "tabulated":
            logging.getLogger("nlhet").warning(
                "tabulated kernel: exterior tails are truncated to zero")
        self.kernel, self.grid, self.tail = kernel, grid, tail
        n, h = grid.n, grid.h
        self.w = _cell_masses(kernel, h, n - 1)
        ker_full = np.concatenate([self.w[::-1], [0.0], self.w])
        self._L = 1 << (2 * n - 2).bit_length()
        self._ker_f = np.fft.rfft(ker_full, self._L)
        self._n = n
        self.rho = self.conv(np.ones(n))
        i = np.arange(n, dtype=np.float64)
        if tail.method == "analytic_power":
            self.Wl = _tail_moment(kernel, (i + 0.5) * h)
            self.Wr = _tail_moment(kernel, (n - 1 - i + 0.5) * h)
        else:
            self.Wl = np.zeros(n)
            self.Wr = np.zeros(n)
        self.diag = self.rho + self.Wl + self.Wr

    def conv(self, f: np.ndarray) -> np.ndarray:
        ff = np.fft.rfft(f, self._L)
        full = np.fft.irfft(ff * self._ker_f, self._L)
        return full[self._n - 1:2 * self._n - 1].copy()

    def offset_weight(self, m: np.ndarray) -> np.ndarray:
        """w_{|m|} with w_0 = 0, for integer offsets."""
        m = np.abs(np.asarray(m))
        out = np.zeros(m.shape, dtype=np.float64)
        nz = (m > 0) & (m <= self.w.size)
        out[nz] = self.w[m[nz] - 1]
        return out


_WS_CACHE: dict = {}


def _kernel_key(ker: KernelSpec):
    if ker.form == "tabulated":
        return (ker.form, ker.s, ker.table_r.tobytes(), ker.table_K.tobytes())
    return (ker.form, ker.s, ker.c, ker.r0)


def workspace_for(kernel: KernelSpec, grid: Grid,
                  tail: Optional[TailClosure] = None) -> Workspace:
    """Cached workspace lookup; the cache is keyed by kernel/grid/tail data."""
    if tail is None:
        tail = (TailClosure("analytic_power") if kernel.form != "tabulated"
                else TailClosure("truncated_zero"))
    key = (_kernel_key(kernel), grid.R, grid.n, tail.method)
    ws = _WS_CACHE.get(key)
    if ws is None:
        ws = Workspace(kernel, grid, tail)
        if len(_WS_CACHE) > 16:
            _WS_CACHE.clear()
        _WS_CACHE[key] = ws
    return ws


# --------------------------------------------------------------------------
# operator application
# --------------------------------------------------------------------------


def operator_field(ws: Workspace, q: np.ndarray, left_const: float,
                   right_const: float, spec: Optional[ProblemSpec] = None,
                   a: Optional[np.ndarray] = None, eta: float = 0.0,
                   mu: float = 0.0, ref: Optional[np.ndarray] = None,
                   conv_q: Optional[np.ndarray] = None,
                   Wp: Optional[np.ndarray] = None) -> np.ndarray:
    """L q + a W'(q) + mu (q - ref) - eta d2 q on all n nodes.

    q holds node values with the given far fields.  The a W'(q) term needs
    the model ``spec``; ``a``, its modulation on the grid, is sampled when not
    given.  A caller that already holds ``conv_q = ws.conv(q)`` or
    ``Wp = W'(q)`` passes them to skip the convolution or the potential call.
    h times the full field is the discrete energy gradient.
    """
    if conv_q is None:
        conv_q = ws.conv(q)
    out = q * ws.diag - conv_q - left_const * ws.Wl - right_const * ws.Wr
    if spec is not None:
        if a is None:
            a = np.asarray(spec.modulation(ws.grid.x))
        if Wp is None:
            _, Wp = potential_eval_grad(spec.potential, q)
        out = out + a * Wp
    if mu:
        out = out + mu * (q - ref)
    if eta:
        out = out - eta * second_difference(q, ws.grid.h)
    return out


def apply_nonlocal(Q: Profile, spec: KernelSpec, tail: Optional[TailClosure] = None,
                   i: Optional[int] = None):
    """L Q at node i (or the whole interior field when i is None).

    The index must be strictly interior: the two window-edge nodes see a
    lopsided quadrature and are rejected.
    """
    ws = workspace_for(spec, Q.grid, tail)
    field_vals = operator_field(ws, Q.values, Q.left_const, Q.right_const)
    if i is None:
        return field_vals[1:-1]
    if not (1 <= i <= Q.grid.n - 2):
        raise ValueError(f"node {i} is not strictly interior")
    return float(field_vals[i])


def second_difference(values: np.ndarray, h: float) -> np.ndarray:
    """3-point central second difference on interior nodes, zero at the edges."""
    d2 = np.zeros_like(values)
    d2[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)
    return d2


def apply_full_operator(Q: Profile, spec: ProblemSpec, eta: float, mu: float,
                        ref: Profile, tail: Optional[TailClosure] = None) -> np.ndarray:
    """Field of -eta*d2 Q + mu (Q - ref) + L Q + a W'(Q) on interior nodes."""
    if Q.grid != ref.grid:
        raise ValueError("profile and reference must share a grid")
    if eta < 0 or mu < 0:
        raise ValueError("eta and mu must be >= 0")
    ws = workspace_for(spec.kernel, Q.grid, tail)
    return operator_field(ws, Q.values, Q.left_const, Q.right_const, spec,
                          eta=eta, mu=mu, ref=ref.values)[1:-1]


# --------------------------------------------------------------------------
# intervals and double forms
# --------------------------------------------------------------------------

Interval = Tuple[float, float]
WHOLE_LINE: Interval = (-np.inf, np.inf)


def _interval_mask(grid: Grid, iv: Interval) -> Tuple[np.ndarray, bool, bool]:
    """Node membership mask (inclusive bounds) plus tail-inclusion flags.

    Bounds carry an ulp-scale slack so window edges stated as +-R keep the
    outermost node even when h = 2R/(n-1) rounds |x[0]| past R.
    """
    lo, hi = float(iv[0]), float(iv[1])
    if lo > hi:
        raise ValueError(f"empty interval {iv}")
    for b in (lo, hi):
        if np.isfinite(b) and abs(b) > grid.R + 1e-9 * grid.h:
            raise ValueError("finite interval endpoints must lie within the window")
    x = grid.x
    tol = 1e-9 * grid.h
    return (x >= lo - tol) & (x <= hi + tol), not np.isfinite(lo), not np.isfinite(hi)


def _masked_pair_sum(ws: Workspace, f: np.ndarray, g: np.ndarray,
                     mx: np.ndarray, my: np.ndarray) -> float:
    """sum over i in X, j in Y of (f_i - f_j)(g_i - g_j) w_{|i-j|} (ordered pairs).

    The sum is invariant under constant shifts of f and g; centering both
    keeps the four convolution terms from cancelling catastrophically.
    """
    f = f - f.mean()
    g = g - g.mean()
    cx = mx.astype(np.float64)
    cy = my.astype(np.float64)
    t1 = np.sum(f * g * cx * ws.conv(cy))
    t2 = np.sum(f * g * cy * ws.conv(cx))
    t3 = np.sum(f * cx * ws.conv(g * cy))
    t4 = np.sum(g * cx * ws.conv(f * cy))
    return float(t1 + t2 - t3 - t4)


def bilinear_form(f: Profile, g: Profile, I: Interval, J: Interval,
                  spec: KernelSpec, tail: Optional[TailClosure] = None) -> float:
    """B_{I,J}(f, g) = iint_{I x J} (f(x)-f(y))(g(x)-g(y)) K(x-y) dx dy.

    Symmetric under swapping (I, J) since K is even; bilinear in (f, g).
    Exterior parts use the far-field constants; an unbounded interval on
    both sides contributes nothing unless both profiles have unequal far
    fields, in which case the cross-tail kernel mass diverges for s <= 1/2
    and the form is reported as +-inf.
    """
    if f.grid != g.grid:
        raise ValueError("profiles must share a grid")
    ws = workspace_for(spec, f.grid, tail)
    h = f.grid.h
    mI, loI, hiI = _interval_mask(f.grid, I)
    mJ, loJ, hiJ = _interval_mask(f.grid, J)
    fv, gv = f.values, g.values
    total = h * _masked_pair_sum(ws, fv, gv, mI, mJ)
    # window x tail blocks (and mirrored)
    for mwin, tl, tr in ((mI, loJ, hiJ), (mJ, loI, hiI)):
        if tl:
            total += h * float(np.sum(((fv - f.left_const) * (gv - g.left_const)
                                       * ws.Wl)[mwin]))
        if tr:
            total += h * float(np.sum(((fv - f.right_const) * (gv - g.right_const)
                                       * ws.Wr)[mwin]))
    # tail x tail blocks: nonzero only across opposite tails
    for a, b in ((loI, hiJ), (hiI, loJ)):
        if a and b:
            df = f.left_const - f.right_const
            dg = g.left_const - g.right_const
            if df != 0.0 and dg != 0.0:
                total += math.copysign(math.inf, df * dg)
    return total


def seminorm_K(f: Profile, X: Interval, Y: Interval, spec: KernelSpec,
               tail: Optional[TailClosure] = None) -> float:
    """Squared-difference seminorm [f]_{K, X x Y} (nonnegative square root)."""
    val = bilinear_form(f, f, X, Y, spec, tail)
    return math.sqrt(max(val, 0.0))
