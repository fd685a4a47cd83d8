import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhet.model import (KernelSpec, ModulationSpec, PotentialSpec,
                         ProblemSpec, ReferenceProfile, kernel_eval,
                         natural_halfspace_constant, potential_eval_grad,
                         potential_hess, reference_profile_eval, verify_model)

from conftest import cosine_potential, footnote_modulation, homogeneous_spec

TWO_PI = 2 * math.pi


class TestKernelEval:
    def test_power_law_direct(self):
        ker = KernelSpec(s=0.5, c=1 / math.pi)
        assert kernel_eval(ker, 1.0) == pytest.approx(1 / math.pi, rel=1e-15)

    def test_evenness(self):
        ker = KernelSpec(s=0.5, c=1 / math.pi)
        assert kernel_eval(ker, -2.0) == pytest.approx(1 / (4 * math.pi), rel=1e-15)
        r = np.geomspace(1e-4, 10, 200)
        assert np.allclose(kernel_eval(ker, r), kernel_eval(ker, -r), rtol=0)

    def test_origin_is_domain_error(self):
        with pytest.raises(ValueError):
            kernel_eval(KernelSpec(s=0.5), 0.0)

    def test_truncated_power_vanishes_beyond_r0(self):
        ker = KernelSpec(s=0.4, form="truncated_power", c=1.0, r0=1.0)
        assert kernel_eval(ker, 1.5) == 0.0
        assert kernel_eval(ker, 0.5) == pytest.approx(0.5 ** (-1.8))

    def test_truncated_lower_bound_passes_verification(self):
        # beyond r0 the lower ellipticity bound carries indicator zero
        spec = ProblemSpec(KernelSpec(s=0.4, form="truncated_power", c=1.0, r0=1.0),
                           cosine_potential())
        rep = verify_model(spec, 1000)
        assert {c.name: c.passed for c in rep}["kernel.lower_ellipticity"]

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            KernelSpec(s=0.2)
        with pytest.raises(ValueError):
            KernelSpec(s=0.6)

    def test_natural_constant_half(self):
        assert natural_halfspace_constant(0.5) == pytest.approx(1 / math.pi, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(0.26, 0.5), c=st.floats(0.1, 10.0))
    def test_sandwich_invariant(self, s, c):
        ker = KernelSpec(s=s, c=c)
        r = np.geomspace(1e-6, 10.0, 10000)
        prod = np.asarray(kernel_eval(ker, r)) * r ** (1 + 2 * s)
        slack = 1e-12 * max(1.0, ker.Theta0)
        lower = np.where(r <= ker.r0, ker.theta0, 0.0)
        assert np.all(prod >= lower - slack)
        assert np.all(prod <= ker.Theta0 + slack)


class TestPotential:
    def test_cosine_values(self):
        pot = cosine_potential()
        assert potential_eval_grad(pot, 0.0) == (0.0, 0.0)
        W, Wp = potential_eval_grad(pot, math.pi)
        assert W == pytest.approx(2.0, abs=1e-14)
        assert Wp == pytest.approx(0.0, abs=1e-14)
        W, Wp = potential_eval_grad(pot, math.pi / 2)
        assert W == pytest.approx(1.0, abs=1e-14)
        assert Wp == pytest.approx(1.0, abs=1e-14)

    def test_nonnegative_between_wells(self):
        pot = cosine_potential()
        u = np.linspace(0, TWO_PI, 500)
        W, _ = potential_eval_grad(pot, u)
        assert np.all(W >= 0)

    def test_quartic_defaults(self):
        pot = PotentialSpec(zeta1=0.0, zeta2=1.0, form="quartic")
        W, _ = potential_eval_grad(pot, 0.5)
        assert W == pytest.approx(1.0)  # normalized barrier height

    def test_quadratic_sandwich_cosine(self):
        # declared constants c0 = 2/pi^2 and C0 = 1/2 hold on (0, pi/2]:
        # dense sampling of (1 - cos xi)/xi^2 stays inside [c0, C0]
        pot = PotentialSpec(zeta1=0.0, zeta2=TWO_PI, delta0=math.pi / 2,
                            c0=2 / math.pi ** 2, C0_growth=0.5)
        spec = ProblemSpec(KernelSpec(s=0.5), pot)
        rep = {c.name: c for c in verify_model(spec, 2000)}
        assert rep["potential.quadratic_growth_lower"].passed
        assert rep["potential.quadratic_growth_upper"].passed
        xi = np.linspace(1e-6, math.pi / 2, 5000)
        q = 2 * np.sin(xi / 2) ** 2 / xi ** 2  # stable form of (1-cos xi)/xi^2
        assert q.min() >= 2 / math.pi ** 2
        assert q.max() <= 0.5 + 1e-12


class TestPotentialHess:
    @pytest.mark.parametrize("form", ["cosine", "quartic"])
    def test_analytic_matches_difference_of_gradient(self, form):
        pot = PotentialSpec(zeta1=0.0, zeta2=TWO_PI, form=form)
        u = np.linspace(-0.5, TWO_PI + 0.5, 1001)
        d = 1e-5
        fd = (potential_eval_grad(pot, u + d)[1]
              - potential_eval_grad(pot, u - d)[1]) / (2 * d)
        Wpp = potential_hess(pot, u)
        assert np.max(np.abs(Wpp - fd)) <= 1e-6 * np.max(np.abs(fd))
        assert potential_hess(pot, 0.0) > 0 and potential_hess(pot, TWO_PI) > 0
        assert potential_hess(pot, math.pi) < 0


class TestModulation:
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("dfr", [0.25, 0.5, 1.0])
    def test_footnote_margin(self, eps, dfr):
        spec = ProblemSpec(KernelSpec(s=0.5), cosine_potential(),
                           footnote_modulation(eps, dfr))
        rep = {c.name: c for c in verify_model(spec, 4000)}
        nd = rep["modulation.nondegeneracy"]
        assert nd.passed
        margin = float(nd.note.split()[-1])
        assert margin == pytest.approx(math.sqrt(2) * eps, abs=1e-6)

    def test_constant_with_positive_gamma_fails(self):
        mod = ModulationSpec(form="constant", base=2.0, m1=0.0, m2=10.0,
                             omega=1.0, theta=2.0, gamma=0.1)
        spec = ProblemSpec(KernelSpec(s=0.5), cosine_potential(), mod)
        rep = {c.name: c for c in verify_model(spec, 1000)}
        assert not rep["modulation.nondegeneracy"].passed

    def test_constant_with_zero_gamma_vacuous(self):
        spec = homogeneous_spec()
        rep = {c.name: c for c in verify_model(spec, 1000)}
        nd = rep["modulation.nondegeneracy"]
        assert nd.passed and "not asserted" in nd.note

    def test_window_separation_checked(self):
        mod = ModulationSpec(form="cosine", base=2.0, eps=0.5, delta_freq=0.5,
                             m1=0.0, m2=1.0, omega=1.0, theta=2.0, gamma=0.1)
        spec = ProblemSpec(KernelSpec(s=0.5), cosine_potential(), mod)
        rep = {c.name: c for c in verify_model(spec, 1000)}
        assert not rep["modulation.window_separation"].passed

    def test_range_bounds(self):
        mod = footnote_modulation()
        assert mod.a_lower == pytest.approx(1.5)
        assert mod.a_upper == pytest.approx(2.5)


class TestReferenceProfile:
    def test_exterior_bitwise_exact(self):
        ref = ReferenceProfile(0.0, TWO_PI)
        assert reference_profile_eval(ref, -2.0) == 0.0
        assert reference_profile_eval(ref, 3.0) == TWO_PI
        assert reference_profile_eval(ref, -1.0) == 0.0

    def test_midpoint_of_symmetric_ramp(self):
        # quintic smoothstep: S(1/2) = 1/2 exactly, so the center value is pi
        ref = ReferenceProfile(0.0, TWO_PI)
        assert reference_profile_eval(ref, 0.0) == pytest.approx(math.pi, abs=1e-13)

    def test_range_and_monotonicity(self):
        ref = ReferenceProfile(0.0, TWO_PI)
        x = np.linspace(-1, 1, 1001)[1:-1]
        q = reference_profile_eval(ref, x)
        assert np.all((q > 0) & (q < TWO_PI))
        assert np.all(np.diff(q) >= 0)


class TestProblemSpec:
    def test_verify_requires_minimum_samples(self):
        with pytest.raises(ValueError):
            verify_model(homogeneous_spec(), 50)

    def test_verify_all_pass_footnote(self):
        spec = ProblemSpec(KernelSpec(s=0.5), cosine_potential(),
                           footnote_modulation())
        assert verify_model(spec, 2000).all_passed
