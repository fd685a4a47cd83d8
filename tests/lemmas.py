"""Constructions from the paper's lemmas, checked by the tests only.

No command runs these; they exercise the package on the paper's statements:
the clamp into the well sandwich never raises the energy, the a-priori
bounds along the penalty continuation, the collar band of the calibrated
barriers, splice-and-glue with its interaction-energy defect, the window
growth of the raw seminorm, and the bump superposition and trace-family
refinement of the appendix.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from nlhet import appendix_bench as ab
from nlhet.discretize import Profile, reference_profile, seminorm_K
from nlhet.model import ProblemSpec
from nlhet.obstacles import ObstacleConfig
from nlhet.solver import _Core, _Stage

from oracles import _check_far_fields, bilinear_form, renormalized_interaction


# --------------------------------------------------------------------------
# well sandwich and a-priori bounds
# --------------------------------------------------------------------------


def truncate_to_wells(Q: Profile, pot) -> Profile:
    """Clamp node values (and far fields) into the well sandwich.

    Clamping never increases any energy term: differences shrink, the
    penalty shrinks (the reference stays strictly inside the sandwich), and
    the potential drops to zero where the clamp is active.
    """
    lo, hi = pot.well_lo, pot.well_hi
    return Profile(Q.grid, np.clip(Q.values, lo, hi),
                   min(max(Q.left_const, lo), hi), min(max(Q.right_const, lo), hi))


def verify_apriori_bounds(Q: Profile, spec: ProblemSpec,
                          eta: float, mu: float,
                          ref: Optional[Profile] = None,
                          kappa_cap: float = 1e6) -> dict:
    """Report the five a-priori quantities and the implied constants.

    Each bound has the shape  quantity <= kappa * scaling(eta, mu); the
    implied kappa = quantity / scaling is reported and flagged only when it
    explodes past ``kappa_cap``.
    """
    grid = Q.grid
    if ref is None:
        ref = reference_profile(spec, grid)
    _check_far_fields(Q, ref)
    h = grid.h
    v = Q.values - ref.values
    h1 = math.sqrt(float(np.sum(np.diff(v) ** 2)) / h)
    # [v]^2_K and the renormalized interaction E_R2 = [v]^2_K + 2 B(v, ref),
    # four times the stage's interaction piece, from one trial
    stage = _Stage(_Core(spec, grid, ref), 0.0, 0.0, None)
    pieces, (cv, _) = stage.trial(Q.values)
    vk = math.sqrt(max(stage.ws.seminorm_sq(v, cv), 0.0))
    vinf = float(np.abs(v).max())
    vl2 = math.sqrt(float(np.sum(v * v)) * h)
    e2 = 4.0 * pieces[3]
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

# --------------------------------------------------------------------------
# barrier collars
# --------------------------------------------------------------------------


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

# --------------------------------------------------------------------------
# gluing
# --------------------------------------------------------------------------


def glue_profile(Q: Profile, x0: float, zeta: float, beta: float) -> Profile:
    """Splice the profile onto the equilibrium right of a clean point.

    P equals Q left of x0, interpolates linearly from Q(x0) down to the well
    over [x0, x0+1], and is constant zeta afterwards; the right far-field
    constant is updated.  x0 is rounded to the nearest node.
    """
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    grid = Q.grid
    if x0 + beta > grid.R - grid.h:
        raise ValueError("splice extends past the window edge")
    x = grid.x
    i0 = int(round((x0 + grid.R) / grid.h))
    x0g = x[i0]
    vals = Q.values.copy()
    q0 = vals[i0]
    ramp = (x > x0g) & (x < x0g + 1.0)
    vals[ramp] = q0 * (x0g + 1.0 - x[ramp]) + zeta * (x[ramp] - x0g)
    vals[x >= x0g + 1.0] = zeta
    return Profile(grid, vals, Q.left_const, float(zeta))


def gluing_energy_defect(Q: Profile, P: Profile, x0: float, beta: float,
                         T1: float, T2: float, spec: ProblemSpec,
                         ref: Optional[Profile] = None) -> float:
    """| E_{(T1,T2)^2}(P) - E_{(T1,x0)^2}(Q) - E_{(x0,T2)^2}(P)
         + 2 [ref]^2_{K, (x0-beta,x0) x (x0,x0+beta)} |."""
    if ref is None:
        ref = reference_profile(spec, Q.grid)
    k = spec.kernel
    e_full = renormalized_interaction(P, ref, spec, (T1, T2), (T1, T2))
    e_left = renormalized_interaction(Q, ref, spec, (T1, x0), (T1, x0))
    e_right = renormalized_interaction(P, ref, spec, (x0, T2), (x0, T2))
    cross = bilinear_form(ref, ref, (x0 - beta, x0), (x0, x0 + beta), k)
    return abs(e_full - e_left - e_right + 2.0 * cross)

# --------------------------------------------------------------------------
# window growth of the raw seminorm
# --------------------------------------------------------------------------


def raw_seminorm_window_growth(Q: Profile, spec: ProblemSpec,
                               radii: Sequence[float]) -> List[float]:
    """[Q]^2_{K, [-Rk, Rk]^2} for a growing family of sub-windows."""
    return [seminorm_K(Q, (-rk, rk), spec.kernel) ** 2 for rk in radii]


def log_growth_slope(radii: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of values against log(radii)."""
    lx = np.log(np.asarray(radii, float))
    y = np.asarray(values, float)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, _), *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(slope)


def increment_growth_exponent(radii: Sequence[float],
                              values: Sequence[float]) -> float:
    """Exponent p with value increments ~ R^p across doublings (p ~ 0 for
    logarithmic growth, p ~ 1 - 2s for power growth)."""
    r = np.asarray(radii, float)
    v = np.asarray(values, float)
    d = np.diff(v)
    if np.any(d <= 0):
        raise ValueError("growth increments must be positive for the fit")
    lx, ly = np.log(r[:-1]), np.log(d)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, _), *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(slope)

# --------------------------------------------------------------------------
# appendix families
# --------------------------------------------------------------------------


def superposition_eval(family: ab.BumpFamily, x, kmax: int = 60) -> np.ndarray:
    """Sum of both center families, k = 1..kmax, evaluated pointwise."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k in range(1, kmax + 1):
        ek = math.exp(k)
        out += family.base(ek * (x - k))
        out += family.base(ek * (x - 1.0 / k))
    return out


def superposition_tail_witness(family: ab.BumpFamily,
                               x_samples: Sequence[float]) -> Tuple[float, float]:
    """(max over sampled bump centers, max over sampled midpoints).

    Centers x = k carry value exactly 1 (template peak), midpoints
    x = k + 1/2 exactly 0 (supports of width e^-k never reach them), so the
    pair witnesses limsup > liminf at infinity.
    """
    xs = np.asarray(list(x_samples), dtype=float)
    vals = superposition_eval(family, xs)
    centers = np.abs(xs - np.round(xs)) < 1e-12
    if not centers.any() or not (~centers).any():
        raise ValueError("samples must include bump centers and midpoints")
    return float(vals[centers].max()), float(vals[~centers].max())


def psibar_seminorm(example: ab.TraceExample,
                    points_per_decade: int = 0) -> float:
    """Numerical H^(1/2) seminorm of psibar itself (refinement-study hook)."""
    ppd = points_per_decade or example.points_per_decade
    edges = ab._log_cells(example.inner_cutoff, 1.0, ppd)
    mids = 0.5 * (edges[1:] + edges[:-1])
    return ab._nonuniform_half_seminorm(edges, example.psibar(mids),
                                        ab._core_skip(edges, 0.0))
