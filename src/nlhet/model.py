"""Model ingredients: kernel, potential, modulation, wells, reference profile.

The solvable problem is  L Q + a(x) W'(Q) = 0  where L is a singular
integro-differential operator with an even kernel K comparable to
|r|^(-1-2s), W is a two-well potential with quadratic growth from its
minima, and a is a bounded modulation with a quantified non-degeneracy
(two windows in which shifting by theta lowers a by at least gamma).

Everything here is immutable after construction and purely functional,
so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from ._record import record

__all__ = [
    "KernelSpec",
    "PotentialSpec",
    "ModulationSpec",
    "ReferenceProfile",
    "ProblemSpec",
    "CheckResult",
    "ValidationReport",
    "kernel_eval",
    "potential_eval_grad",
    "potential_hess",
    "reference_profile_eval",
    "verify_model",
    "natural_halfspace_constant",
]

_REL_SLACK = 1e-9  # structural-inequality slack on sampled checks


def natural_halfspace_constant(s: float) -> float:
    """Kernel normalization c(s) = 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)|).

    For s = 1/2 this returns 1/pi, the normalization under which the layer
    pi + 2*arctan(x) solves the homogeneous cosine-well equation exactly.
    """
    return (4.0 ** s) * math.gamma(0.5 + s) / (math.sqrt(math.pi) * abs(math.gamma(-s)))


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------


@record(frozen=True)
class KernelSpec:
    """Even interaction kernel with ellipticity sandwich.

    theta0/|r|^(1+2s) * chi_[0,r0](|r|) <= K(r) <= Theta0/|r|^(1+2s),
    with 1/4 < s <= 1/2.

    Forms:
      * ``power``: K(r) = c/|r|^(1+2s) for all r != 0.
      * ``truncated_power``: K(r) = c/|r|^(1+2s) on |r| <= r0 and 0 beyond
        (the lower ellipticity bound only bites on [0, r0], so a compactly
        supported power kernel is admissible).
    Both have closed-form tail moments, which fix the exterior closure.
    """

    s: float
    form: str = "power"  # power | truncated_power
    c: Optional[float] = None
    theta0: Optional[float] = None
    Theta0: Optional[float] = None
    r0: float = 1.0

    def __post_init__(self):
        if not (0.25 < self.s <= 0.5):
            raise ValueError(f"exponent s={self.s} outside (1/4, 1/2]")
        if self.r0 <= 0:
            raise ValueError("truncation radius r0 must be > 0")
        if self.form not in ("power", "truncated_power"):
            raise ValueError(f"unknown kernel form {self.form!r}")
        if self.c is None:
            object.__setattr__(self, "c", natural_halfspace_constant(self.s))
        if self.theta0 is None:
            object.__setattr__(self, "theta0", self.c)
        if self.Theta0 is None:
            object.__setattr__(self, "Theta0", self.c)
        if not (0 < self.theta0 <= self.Theta0):
            raise ValueError("need 0 < theta0 <= Theta0")


def kernel_eval(spec: KernelSpec, r) -> np.ndarray:
    """Evaluate K(r).  Even in r; r = 0 is a domain error (singular point)."""
    r = np.asarray(r, dtype=float)
    if np.any(r == 0.0):
        raise ValueError("kernel is singular at r = 0")
    ar = np.abs(r)
    if spec.form == "power":
        out = spec.c * ar ** (-1.0 - 2.0 * spec.s)
    else:
        out = np.where(ar <= spec.r0, spec.c * ar ** (-1.0 - 2.0 * spec.s), 0.0)
    return out if out.shape else float(out)


# --------------------------------------------------------------------------
# potential
# --------------------------------------------------------------------------


@record(frozen=True)
class PotentialSpec:
    """Two-well potential, canonical form: W >= 0, W(zeta1) = W(zeta2) = 0.

    Quadratic growth from the wells:
        c0 |xi|^2 <= W(zeta + xi) <= C0_growth |xi|^2   for |xi| <= delta0,
    and W' is monotone near each well (positive right of it, negative left).

    Multi-well inputs are out of scope: the library always works with the
    two-well canonical reduction, so callers must pre-clip their potential.
    """

    zeta1: float
    zeta2: float
    form: str = "cosine"  # cosine | quartic
    amplitude: float = 1.0
    delta0: Optional[float] = None
    c0: Optional[float] = None
    C0_growth: Optional[float] = None

    def __post_init__(self):
        if self.zeta1 == self.zeta2:
            raise ValueError("wells must be distinct")
        if self.form not in ("cosine", "quartic"):
            raise ValueError(f"unknown potential form {self.form!r}")
        L = abs(self.zeta2 - self.zeta1)
        if self.delta0 is None:
            object.__setattr__(self, "delta0", L / 2.0)  # half the well separation
        if self.delta0 <= 0 or self.delta0 > L / 2.0 + 1e-12:
            raise ValueError("delta0 must lie in (0, half well separation]")
        if self.c0 is None or self.C0_growth is None:
            c0, C0 = self._default_growth_constants()
            if self.c0 is None:
                object.__setattr__(self, "c0", c0)
            if self.C0_growth is None:
                object.__setattr__(self, "C0_growth", C0)
        if not (0 < self.c0 <= self.C0_growth):
            raise ValueError("need 0 < c0 <= C0_growth")

    def _default_growth_constants(self) -> Tuple[float, float]:
        L = abs(self.zeta2 - self.zeta1)
        if self.form == "cosine":
            # W(zeta+xi)/xi^2 = amp*(1-cos(2 pi xi/L))/xi^2, decreasing in |xi|
            k = 2 * math.pi / L
            lo = self.amplitude * (1 - math.cos(k * self.delta0)) / self.delta0 ** 2
            return lo, self.amplitude * k * k / 2
        # quartic: W(zeta+xi)/xi^2 = q (L -+ xi)^2, inward or outward
        q = 16.0 * self.amplitude / L ** 4
        return q * (L - self.delta0) ** 2, q * (L + self.delta0) ** 2

    @property
    def well_lo(self) -> float:
        return min(self.zeta1, self.zeta2)

    @property
    def well_hi(self) -> float:
        return max(self.zeta1, self.zeta2)


def potential_eval_grad(spec: PotentialSpec, u) -> Tuple[np.ndarray, np.ndarray]:
    """Return the consistent pair (W(u), W'(u))."""
    u = np.asarray(u, dtype=float)
    L = spec.zeta2 - spec.zeta1
    if spec.form == "cosine":
        ang = 2 * math.pi * (u - spec.zeta1) / L
        # 2 sin^2(ang/2) = 1 - cos(ang), stable against cancellation near wells
        W = spec.amplitude * 2.0 * np.sin(ang / 2.0) ** 2
        Wp = spec.amplitude * (2 * math.pi / L) * np.sin(ang)
    else:
        q = 16.0 * spec.amplitude / abs(L) ** 4
        W = q * (u - spec.zeta1) ** 2 * (u - spec.zeta2) ** 2
        Wp = 2 * q * (u - spec.zeta1) * (u - spec.zeta2) * (2 * u - spec.zeta1 - spec.zeta2)
    if W.shape:
        return W, Wp
    return float(W), float(Wp)


def potential_hess(spec: PotentialSpec, u) -> np.ndarray:
    """W''(u), analytic."""
    u = np.asarray(u, dtype=float)
    L = spec.zeta2 - spec.zeta1
    if spec.form == "cosine":
        k = 2 * math.pi / L
        Wpp = spec.amplitude * k * k * np.cos(k * (u - spec.zeta1))
    else:
        q = 16.0 * spec.amplitude / abs(L) ** 4
        Wpp = 2 * q * ((2 * u - spec.zeta1 - spec.zeta2) ** 2
                       + 2 * (u - spec.zeta1) * (u - spec.zeta2))
    return Wpp if Wpp.shape else float(Wpp)


# --------------------------------------------------------------------------
# modulation
# --------------------------------------------------------------------------


@record(frozen=True)
class ModulationSpec:
    """Oscillatory modulation a(x) with range bounds and non-degeneracy data.

    The non-degeneracy hypothesis asks for windows [m_i - omega, m_i + omega]
    (i = 1, 2, separated by at least 2*omega + theta) on which
    a(x) - a(x +- theta) >= gamma.  Declaring gamma = 0 makes the hypothesis
    vacuous; the validation report then notes that no non-degeneracy is
    asserted (the constant-modulation case).
    """

    form: str = "constant"  # constant | cosine
    base: float = 1.0
    eps: float = 0.0
    delta_freq: float = 1.0
    m1: float = 0.0
    m2: float = 0.0
    omega: float = 0.0
    theta: float = 0.0
    gamma: float = 0.0
    a_lower: Optional[float] = None
    a_upper: Optional[float] = None

    def __post_init__(self):
        if self.form not in ("constant", "cosine"):
            raise ValueError(f"unknown modulation form {self.form!r}")
        lo, hi = self._default_range()
        if self.a_lower is None:
            object.__setattr__(self, "a_lower", lo)
        if self.a_upper is None:
            object.__setattr__(self, "a_upper", hi)
        if not (0 < self.a_lower <= self.a_upper):
            raise ValueError("need 0 < a_lower <= a_upper")
        if self.gamma < 0 or self.omega < 0 or self.theta < 0:
            raise ValueError("omega, theta, gamma must be nonnegative")

    def _default_range(self) -> Tuple[float, float]:
        if self.form == "constant":
            return self.base, self.base
        return self.base - abs(self.eps), self.base + abs(self.eps)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.form == "constant":
            out = np.full_like(x, self.base)
        else:
            out = self.base + self.eps * np.cos(self.delta_freq * x)
        return out if out.shape else float(out)


# --------------------------------------------------------------------------
# reference profile
# --------------------------------------------------------------------------


def _quintic_smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return ((6.0 * t - 15.0) * t + 10.0) * t ** 3


@record(frozen=True)
class ReferenceProfile:
    """Fixed smooth ramp: zeta1 for x <= -1, zeta2 for x >= 1.

    The interior ramp is a quintic smoothstep, C^2 at the junctions, with
    range strictly between the wells on (-1, 1).  The exterior constants are
    returned bit-identically (no arithmetic is applied there).
    """

    zeta1: float
    zeta2: float

    def derivative_bound(self) -> float:
        return abs(self.zeta2 - self.zeta1) * 1.875 / 2.0  # max S' = 15/8


def reference_profile_eval(ref: ReferenceProfile, x) -> np.ndarray:
    """Evaluate the reference profile; exterior constants are exact."""
    x = np.asarray(x, dtype=float)
    scalar = not x.shape
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    left = x <= -1.0
    right = x >= 1.0
    mid = ~(left | right)
    out[left] = ref.zeta1
    out[right] = ref.zeta2
    if mid.any():
        s = _quintic_smoothstep((x[mid] + 1.0) / 2.0)
        out[mid] = ref.zeta1 + (ref.zeta2 - ref.zeta1) * s
    return float(out[0]) if scalar else out


# --------------------------------------------------------------------------
# full problem
# --------------------------------------------------------------------------


@record(frozen=True)
class ProblemSpec:
    """The full model: kernel K, potential W, modulation a, reference ramp."""

    kernel: KernelSpec
    potential: PotentialSpec
    modulation: ModulationSpec = ModulationSpec()  # immutable, so one shared default
    reference: Optional[ReferenceProfile] = None

    def __post_init__(self):
        if self.reference is None:
            object.__setattr__(
                self, "reference",
                ReferenceProfile(self.potential.zeta1, self.potential.zeta2))

    @property
    def s(self) -> float:
        return self.kernel.s

    @cached_property
    def rhs_constant(self) -> float:
        """C0 = sup |a W'| + 2|zeta1| + 2|zeta2| + 1 of the barrier problem,
        the sup sampled on 20001 points of the well sandwich; computed on
        first use and kept with the spec."""
        pot = self.potential
        u = np.linspace(pot.well_lo, pot.well_hi, 20001)
        _, Wp = potential_eval_grad(pot, u)
        return (self.modulation.a_upper * float(np.max(np.abs(Wp)))
                + 2 * abs(pot.zeta1) + 2 * abs(pot.zeta2) + 1.0)


# --------------------------------------------------------------------------
# structural validation
# --------------------------------------------------------------------------


@record
class CheckResult:
    name: str
    passed: bool
    margin: float            # signed; >= 0 means satisfied
    worst_sample: float      # location of the worst sample
    note: str = ""


@record
class ValidationReport:
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __iter__(self):
        return iter(self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            out.append(f"[{tag}] {c.name}: margin={c.margin:.6g} "
                       f"worst at {c.worst_sample:.6g}"
                       + (f" ({c.note})" if c.note else ""))
        return out

    def to_dict(self):
        return {c.name: {"passed": bool(c.passed), "margin": float(c.margin),
                         "worst_sample": float(c.worst_sample), "note": c.note}
                for c in self.checks}


def verify_model(spec: ProblemSpec, sample_count: int = 10000) -> ValidationReport:
    """Check every structural hypothesis by dense sampling.

    Failures are reported, never raised; the solver requires an all-pass
    report before running.  ``sample_count`` >= 100 controls the sampling
    density of each individual check.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be >= 100")
    checks = []
    ker, pot, mod, ref = spec.kernel, spec.potential, spec.modulation, spec.reference

    # -- kernel: evenness and ellipticity sandwich on log-spaced radii
    r = np.logspace(-6, 1, sample_count)
    Kp = np.asarray(kernel_eval(ker, r))
    Km = np.asarray(kernel_eval(ker, -r))
    even_gap = float(np.max(np.abs(Kp - Km)))
    i_even = int(np.argmax(np.abs(Kp - Km)))
    checks.append(CheckResult("kernel.even", even_gap <= 1e-12 * (1 + Kp.max()),
                              -even_gap, r[i_even]))
    pw = r ** (1.0 + 2.0 * ker.s)
    prod = Kp * pw
    lower = np.where(r <= ker.r0, ker.theta0, 0.0)
    sl_k = _REL_SLACK * max(1.0, ker.Theta0)
    lo_m = float(np.min(prod - lower))
    hi_m = float(np.min(ker.Theta0 - prod))
    i_lo = int(np.argmin(prod - lower))
    i_hi = int(np.argmin(ker.Theta0 - prod))
    checks.append(CheckResult("kernel.lower_ellipticity",
                              lo_m >= -sl_k, lo_m, r[i_lo]))
    checks.append(CheckResult("kernel.upper_ellipticity",
                              hi_m >= -sl_k, hi_m, r[i_hi]))
    checks.append(CheckResult("kernel.exponent_range",
                              0.25 < ker.s <= 0.5, min(ker.s - 0.25, 0.5 - ker.s), ker.s))

    # -- potential: zeros at the wells, positivity between, growth, monotonicity
    z1, z2 = pot.well_lo, pot.well_hi
    W1, _ = potential_eval_grad(pot, z1)
    W2, _ = potential_eval_grad(pot, z2)
    wz = max(abs(W1), abs(W2))
    checks.append(CheckResult("potential.zero_at_wells", wz <= 1e-12, -wz, z1))
    ui = np.linspace(z1, z2, sample_count)[1:-1]
    Wi, _ = potential_eval_grad(pot, ui)
    m = float(np.min(Wi))
    checks.append(CheckResult("potential.positive_between_wells", m > 0,
                              m, ui[int(np.argmin(Wi))]))
    xi = np.linspace(0, pot.delta0, sample_count)[1:]
    ok_lo, ok_hi = np.inf, np.inf
    worst = z1
    for z in (z1, z2):
        for sgn in (+1, -1):
            u = z + sgn * xi
            W, _ = potential_eval_grad(pot, np.clip(u, min(z1, u.min()), max(z2, u.max())))
            q = W / xi ** 2
            if float(np.min(q - pot.c0)) < ok_lo:
                ok_lo = float(np.min(q - pot.c0))
                worst = u[int(np.argmin(q - pot.c0))]
            ok_hi = min(ok_hi, float(np.min(pot.C0_growth - q)))
    sl = _REL_SLACK * max(1.0, pot.C0_growth)
    checks.append(CheckResult("potential.quadratic_growth_lower", ok_lo >= -sl, ok_lo, worst))
    checks.append(CheckResult("potential.quadratic_growth_upper", ok_hi >= -sl, ok_hi, worst))
    xo = np.linspace(0, pot.delta0, sample_count)[1:-1]
    mono = np.inf
    worst = z1
    for z in (z1, z2):
        _, gr = potential_eval_grad(pot, z + xo)
        _, gl = potential_eval_grad(pot, z - xo)
        if float(np.min(gr)) < mono:
            mono = float(np.min(gr))
            worst = z + xo[int(np.argmin(gr))]
        if float(np.min(-gl)) < mono:
            mono = float(np.min(-gl))
            worst = z - xo[int(np.argmin(-gl))]
    checks.append(CheckResult("potential.monotone_near_wells", mono > 0, mono, worst))

    # -- modulation: positivity/range and non-degeneracy margin
    span = max(abs(mod.m1), abs(mod.m2), mod.omega + mod.theta, 1.0)
    if mod.form == "cosine" and mod.delta_freq > 0:
        span = max(span, 2 * math.pi / mod.delta_freq)
    xs = np.linspace(-2 * span, 2 * span, sample_count)
    ax = np.asarray(mod(xs))
    lo_gap = float(np.min(ax - mod.a_lower))
    hi_gap = float(np.min(mod.a_upper - ax))
    checks.append(CheckResult("modulation.range_lower", lo_gap >= -_REL_SLACK,
                              lo_gap, xs[int(np.argmin(ax - mod.a_lower))]))
    checks.append(CheckResult("modulation.range_upper", hi_gap >= -_REL_SLACK,
                              hi_gap, xs[int(np.argmin(mod.a_upper - ax))]))
    checks.append(CheckResult("modulation.positive", float(ax.min()) > 0,
                              float(ax.min()), xs[int(np.argmin(ax))]))
    if mod.gamma > 0:
        sep = mod.m2 - mod.m1 - (2 * mod.omega + mod.theta)
        checks.append(CheckResult("modulation.window_separation", sep >= -_REL_SLACK,
                                  sep, mod.m1))
        margin = np.inf
        worst = mod.m1
        for mi in (mod.m1, mod.m2):
            xw = np.linspace(mi - mod.omega, mi + mod.omega,
                             max(sample_count // 4, 100))
            aw = np.asarray(mod(xw))
            for sgn in (+1.0, -1.0):
                d = aw - np.asarray(mod(xw + sgn * mod.theta))
                j = int(np.argmin(d))
                if d[j] < margin:
                    margin, worst = float(d[j]), xw[j]
        gap = margin - mod.gamma
        checks.append(CheckResult(
            "modulation.nondegeneracy", gap >= -_REL_SLACK * max(1.0, mod.gamma),
            gap, worst, note=f"worst-case margin {margin:.9g}"))
    else:
        checks.append(CheckResult(
            "modulation.nondegeneracy", True, 0.0, mod.m1,
            note="gamma = 0 declared: non-degeneracy not asserted"))

    # -- reference profile: exterior exactness, interior range, monotonicity
    exact = (reference_profile_eval(ref, -1.5) == ref.zeta1
             and reference_profile_eval(ref, 2.5) == ref.zeta2)
    checks.append(CheckResult("reference.exterior_exact", exact, 0.0 if exact else -1.0, -1.5))
    xr = np.linspace(-1, 1, sample_count)[1:-1]
    qr = reference_profile_eval(ref, xr)
    inside = float(min(np.min(qr) - min(ref.zeta1, ref.zeta2),
                       max(ref.zeta1, ref.zeta2) - np.max(qr)))
    checks.append(CheckResult("reference.range_strictly_inside", inside > 0, inside,
                              xr[int(np.argmin(qr))]))
    dq = np.diff(qr) * np.sign(ref.zeta2 - ref.zeta1)
    checks.append(CheckResult("reference.monotone", bool(np.all(dq >= 0)),
                              float(np.min(dq)), xr[int(np.argmin(dq))]))
    db = ref.derivative_bound()
    checks.append(CheckResult("reference.derivative_bounded", np.isfinite(db), db, 0.0))

    # informational: concrete potential/modulation forms are library choices,
    # not structurally forced; flag them so reports show what was assumed
    checks.append(CheckResult(
        "model.form_choices", True, 0.0, 0.0,
        note=f"potential='{pot.form}', modulation='{mod.form}' are "
             f"configured choices among the admissible hypotheses"))

    return ValidationReport(checks)
