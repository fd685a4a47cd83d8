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
refinement tests).  Outside the window the profile is its far-field
constants, so the exterior enters only through the tail moments
Wl/Wr = int K beyond each window edge, which every kernel form has in
closed form.  The tail moments T at the cell edges h/2, 3h/2, ... give
everything: cell masses are their differences, and the row sums telescope
to rho = 2 T(h/2) - Wl - Wr, so the diagonal rho + Wl + Wr is 2 T(h/2) and
no workspace build runs a convolution.

All weights depend only on |i - j|, so operator application and the
seminorm reduce to Toeplitz convolutions, evaluated by FFT with a fixed
summation order (deterministic output for identical input); no other
module transforms.  The Toeplitz matrix embeds in a symmetric circulant of
length L, the next power of two >= 2n - 1 (R. Chan & Ng, SIAM Rev. 38,
1996): its first column is [0, w_1 .. w_{n-1}, 0 .., w_{n-1} .. w_1], its
eigenvalues are real, and the first n outputs of the circular product with a
zero-padded profile are the Toeplitz product (``toeplitz_circulant``).  A
whole-line seminorm is then a quadratic form, which Parseval's identity
evaluates from one forward transform.  ``strang_circulant`` owns the Strang
preconditioner (Strang, Stud. Appl. Math. 74, 1986).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ._record import record
from .model import (KernelSpec, ProblemSpec, potential_eval_grad,
                    reference_profile_eval)

__all__ = [
    "Grid",
    "Profile",
    "reference_profile",
    "Workspace",
    "workspace_for",
    "Interval",
    "WHOLE_LINE",
    "operator_field",
    "operator_linear",
    "seminorm_K",
    "second_difference",
    "toeplitz_circulant",
    "strang_circulant",
]


@record(frozen=True)
class Grid:
    """Uniform symmetric grid: n odd nodes x_i = -R + i*h, h = 2R/(n-1)."""

    R: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError(f"half-width R must be finite and > 0, not {self.R}")
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


@record
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


# --------------------------------------------------------------------------
# kernel tail moments and workspace
# --------------------------------------------------------------------------


def _tail_moment(ker: KernelSpec, t: np.ndarray) -> np.ndarray:
    """int_t^inf K, elementwise, t > 0; exactly 0 for t >= r0 on a
    truncated kernel."""
    t = np.asarray(t, dtype=np.float64)
    e = -2.0 * ker.s
    if ker.form == "power":
        return ker.c * t ** e / (2.0 * ker.s)
    inside = ker.c * (t ** e - ker.r0 ** e) / (2.0 * ker.s)
    return np.where(t < ker.r0, inside, 0.0)


class Circulant:
    """Symmetric circulant C of length L, acting along axis 0 on n-node
    arrays by its real eigenvalues ``lam`` and one FFT pair: ``C(f)`` is
    E^T C E f and ``C.solve(r)`` E^T C^-1 E r, E the zero padding to L.  Its
    column holds t[k] at offsets k and L - k: the package's only column."""

    def __init__(self, t: np.ndarray, L: int, n: int):
        col = np.zeros(L)
        col[:t.size] = t
        col[L - t.size + 1:] = t[:0:-1]
        self.L, self.n = L, n
        self.lam = np.fft.rfft(col).real.copy()

    def __call__(self, f: np.ndarray, op=np.multiply) -> np.ndarray:
        ff = np.fft.rfft(f, self.L, axis=0)
        op(ff, self.lam.reshape((-1,) + (1,) * (ff.ndim - 1)), out=ff)
        return np.fft.irfft(ff, self.L, axis=0)[:self.n].copy()

    def solve(self, r: np.ndarray) -> np.ndarray:
        return self(r, np.divide)


def toeplitz_circulant(w: np.ndarray, n: int) -> Circulant:
    """The circulant embedding of the n x n Toeplitz matrix with w[k-1] at
    offset k and a zero diagonal, at the next power of two >= 2n - 1."""
    return Circulant(np.concatenate(([0.0], w[:n - 1])),
                     1 << (2 * n - 2).bit_length(), n)


def strang_circulant(d0: float, w: np.ndarray, c: float, n: int,
                     scale: float = 1.0) -> Circulant:
    """Strang circulant on n nodes of the Toeplitz operator with d0 + 2c on
    the diagonal, -w[k-1] at offset k and -c more at offset 1 (the eta
    stencil), times ``scale``, at length M = the next power of two >= n (at
    least 4), offsets up to (M-1)//2.  The symbol is clamped at 1e-12 of its
    max: without exterior tails or shift it vanishes at frequency zero."""
    M = 1 << max(n - 1, 2).bit_length()
    t = np.concatenate(([d0 + 2.0 * c], -w[:(M - 1) // 2]))
    t[1] -= c
    circ = Circulant(t, M, n)
    sym = scale * circ.lam
    circ.lam = np.maximum(sym, 1e-12 * sym.max())
    return circ


class Workspace:
    """Precomputed Toeplitz weights for one (kernel, grid) pair.

    ``w[m-1]`` is the kernel mass of the cell at node offset m; ``rho`` the
    row sums; ``Wl``/``Wr`` the tail moments from each node to the exterior;
    ``diag = rho + Wl + Wr`` the diagonal of the operator matrix.  All four
    come from T[j] = int K beyond (j + 1/2) h, with no convolution:
    w = T[:-1] - T[1:], Wl = T, Wr = T reversed (a view), and the row sums
    telescope to rho = 2 T[0] - Wl - Wr (so diag = 2 T(h/2)).
    ``toeplitz`` is the circulant embedding of the weights (length 16384 at
    n = 8001): ``conv(f)[i] = sum_j w_{|i-j|} f_j`` (with w_0 = 0), and
    ``quad(f) = f . conv(f)`` is its Parseval sum over one forward transform.
    """

    def __init__(self, kernel: KernelSpec, grid: Grid):
        self.kernel, self.grid = kernel, grid
        n, h = grid.n, grid.h
        T = _tail_moment(kernel, (np.arange(n) + 0.5) * h)
        self.w = T[:-1] - T[1:]
        self.Wl = T
        self.Wr = T[::-1]
        self.rho = 2.0 * T[0] - self.Wl - self.Wr
        self.toeplitz = toeplitz_circulant(self.w, n)
        self.diag = self.rho + self.Wl + self.Wr

    def conv(self, f: np.ndarray) -> np.ndarray:
        return self.toeplitz(f)

    def quad(self, f: np.ndarray) -> float:
        """f . conv(f) = sum_k lam_k |F_k|^2 / L over the full spectrum of
        the zero-padded f; the rfft half counts every bin twice but 0 and
        L/2.  Summed with np.sum, not a BLAS dot: a dot this long wakes a
        second BLAS thread that then spins."""
        L = self.toeplitz.L
        ff = np.fft.rfft(f, L)
        p = ff.real * ff.real
        p += ff.imag * ff.imag
        p *= self.toeplitz.lam
        return (2.0 * float(np.sum(p[1:-1])) + float(p[0]) + float(p[-1])) / L

    def seminorm_sq(self, v: np.ndarray, cv: np.ndarray) -> float:
        """Whole-line [v]^2_K of a v with zero far fields, given the held
        cv = conv(v): 2 h (sum v^2 diag - sum v cv), no convolution."""
        return 2 * self.grid.h * (float(np.sum(v * v * self.diag))
                                  - float(np.sum(v * cv)))


_WS_CACHE: dict = {}


def workspace_for(kernel: KernelSpec, grid: Grid) -> Workspace:
    """Cached workspace lookup; the cache is keyed by kernel and grid data.

    The cache holds the latest workspace only, and drops it before another
    is built: a solve or diagnose works on one grid, and bench-appendix
    never revisits one of its grids, so a larger cache only holds memory.
    """
    key = ((kernel.form, kernel.s, kernel.c, kernel.r0), grid.R, grid.n)
    ws = _WS_CACHE.get(key)
    if ws is None:
        _WS_CACHE.clear()
        ws = _WS_CACHE[key] = Workspace(kernel, grid)
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


def operator_linear(ws: Workspace, v: np.ndarray, c: np.ndarray,
                    eta: float = 0.0) -> np.ndarray:
    """v (diag + c) - conv(v) - eta d2 v on all n nodes: the linear part of
    the operator field plus a per-node coefficient c.  With c = a W''(q) + mu,
    h times it is the Hessian-vector product of the discrete energy at q."""
    out = v * (ws.diag + c) - ws.conv(v)
    if eta:
        out = out - eta * second_difference(v, ws.grid.h)
    return out


def second_difference(values: np.ndarray, h: float) -> np.ndarray:
    """3-point central second difference on interior nodes, zero at the edges."""
    d2 = np.zeros_like(values)
    d2[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)
    return d2


# --------------------------------------------------------------------------
# intervals and the seminorm
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


def seminorm_K(f: Profile, X: Interval, kernel: KernelSpec) -> float:
    """Squared-difference seminorm [f]_{K, X x X} (nonnegative square root).

    The node pairs in X x X give sum (f_i - f_j)^2 w_{|i-j|}, invariant under
    a constant shift of f; centering f keeps its terms from cancelling
    catastrophically.  It is t1 + t1 - t3 - t3 with t1 = sum f^2 c conv(c)
    and t3 = sum f c conv(f c), c the mask of X: two convolutions, summed in
    the order of the four-term form so that the two agree bit for bit.  When
    X holds every node, conv(c) is the row sums ``rho`` and t3 is
    ``ws.quad(f)``, so the sum costs one forward transform and no
    convolution.  Each unbounded end adds its window x tail block twice
    (X x tail, then tail x X) against that side's far field; on the whole
    line, unequal far fields make the cross-tail kernel mass diverge for
    s <= 1/2, and the seminorm is inf.
    """
    ws = workspace_for(kernel, f.grid)
    h = f.grid.h
    m, lo, hi = _interval_mask(f.grid, X)
    fv = f.values
    fc = fv - fv.mean()
    if m.all():
        total = h * (2.0 * (float(np.sum(fc * fc * ws.rho)) - ws.quad(fc)))
    else:
        c = m.astype(np.float64)
        t1 = np.sum(fc * fc * c * ws.conv(c))
        t3 = np.sum(fc * c * ws.conv(fc * c))
        total = h * float(t1 + t1 - t3 - t3)
    for end, far, W in ((lo, f.left_const, ws.Wl), (hi, f.right_const, ws.Wr)) * 2:
        if end:
            d = fv - far
            total += h * float(np.sum((d * d * W)[m]))
    if lo and hi and f.left_const != f.right_const:
        total += math.inf
    return math.sqrt(max(total, 0.0))
