"""Renormalized interaction energy and the perturbed functional.

The total functional is

    (eta/2) int |dQ|^2 + (mu/2) int |Q - ref|^2 + int a W(Q)
        + (1/4) iint (|Q(x)-Q(y)|^2 - |ref(x)-ref(y)|^2) K(x-y) dx dy.

The double integral is the renormalized interaction: each seminorm alone
diverges with the window for s <= 1/2, but the difference is finite and is
evaluated through the identity  E = [v]^2 + 2 B(v, ref)  with v = Q - ref,
which kills the divergent tail-by-tail block exactly (v has zero far
fields).  Local integrals use the trapezoid rule; the viscous term uses
forward-difference cells so that the discrete gradient of the total energy
is exactly h times the discrete operator field on interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import Interval, Profile, WHOLE_LINE, bilinear_form
from .model import ProblemSpec, potential_eval_grad

__all__ = [
    "EnergyBreakdown",
    "renormalized_interaction",
    "total_energy",
]

_FAR_FIELD_TOL = 1e-9


@dataclass(frozen=True)
class EnergyBreakdown:
    viscous: float
    penalty: float
    potential: float
    interaction: float

    @property
    def total(self) -> float:
        return self.viscous + self.penalty + self.potential + self.interaction


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
    """Breakdown of the perturbed functional at (eta, mu)."""
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

