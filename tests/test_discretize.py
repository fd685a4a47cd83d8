import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhet.discretize import (Grid, Profile, TailClosure, WHOLE_LINE,
                              apply_full_operator, apply_nonlocal,
                              bilinear_form, reference_profile, seminorm_K,
                              workspace_for)
from nlhet.model import KernelSpec, reference_profile_eval

from conftest import homogeneous_spec, layer, reference_on
from oracles import dense_nonlocal, dense_seminorm_sq

TWO_PI = 2 * math.pi
KER = KernelSpec(s=0.5)  # c = 1/pi


class TestGridProfile:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(R=10.0, n=100)  # even
        with pytest.raises(ValueError):
            Grid(R=10.0, n=1)
        g = Grid(R=10.0, n=101)
        assert g.h == pytest.approx(0.2)
        assert g.x[50] == pytest.approx(0.0, abs=1e-14)

    def test_profile_shape_checked(self):
        g = Grid(R=1.0, n=11)
        with pytest.raises(ValueError):
            Profile(g, np.zeros(10), 0.0, 0.0)

    def test_admissibility_flag(self):
        g = Grid(R=5.0, n=11)
        p = Profile.from_function(g, lambda x: np.zeros_like(x), 0.0, 0.0)
        assert p.is_admissible()
        q = Profile(g, p.values + 1.0, 0.0, 0.0)
        assert not q.is_admissible()

    def test_reference_profile_matches_sampled_ramp(self):
        spec = homogeneous_spec()
        g = Grid(R=30.0, n=601)
        ref = reference_profile(spec, g)
        expected = reference_on(spec, g)
        assert np.array_equal(ref.values, expected.values)
        assert (ref.left_const, ref.right_const) == (
            expected.left_const, expected.right_const)

    def test_reference_profile_far_fields_are_wells(self):
        spec = homogeneous_spec()
        ref = reference_profile(spec, Grid(R=30.0, n=601))
        wells = (spec.potential.zeta1, spec.potential.zeta2)
        assert (ref.left_const, ref.right_const) == wells
        assert (ref.values[0], ref.values[-1]) == wells


class TestWorkspaceConv:
    @pytest.mark.parametrize("n", [3, 5, 101])
    def test_conv_matches_direct_sum(self, n):
        # the FFT length only reaches 2n - 1: any circular wrap-around into
        # the kept output slice would show up against the O(n^2) sum
        ws = workspace_for(KER, Grid(R=10.0, n=n))
        f = np.random.default_rng(n).normal(size=n)
        direct = np.zeros(n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    direct[i] += ws.w[abs(i - j) - 1] * f[j]
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(ws.conv(f) - direct)) <= 1e-13 * scale


class TestApplyNonlocal:
    def test_workspace_diag_is_row_sum_plus_tails(self):
        ws = workspace_for(KER, Grid(R=20.0, n=801))
        assert np.array_equal(ws.diag, ws.rho + ws.Wl + ws.Wr)

    def test_annihilates_constants(self):
        g = Grid(R=20.0, n=801)
        p = Profile.from_function(g, lambda x: np.full_like(x, 3.7))
        vals = [apply_nonlocal(p, KER, None, i) for i in (1, 100, 400, 799)]
        assert np.max(np.abs(vals)) < 1e-10

    def test_layer_identity_at_one(self):
        g = Grid(R=400.0, n=40001)
        p = Profile.from_function(g, layer)
        i1 = int(round((1 + g.R) / g.h))
        assert apply_nonlocal(p, KER, None, i1) == pytest.approx(1.0, abs=2e-3)

    def test_layer_identity_at_zero(self):
        g = Grid(R=400.0, n=40001)
        p = Profile.from_function(g, layer)
        i0 = (g.n - 1) // 2
        assert apply_nonlocal(p, KER, None, i0) == pytest.approx(0.0, abs=2e-3)

    def test_matches_dense_oracle(self):
        g = Grid(R=400.0, n=40001)
        p = Profile.from_function(g, layer)
        i1 = int(round((1 + g.R) / g.h))
        oracle = dense_nonlocal(layer, 1.0, 0.5, 1 / math.pi, 0.0, TWO_PI,
                                dt=g.h / 10)
        assert oracle == pytest.approx(1.0, abs=2e-4)
        assert apply_nonlocal(p, KER, None, i1) == pytest.approx(oracle, abs=2e-3)

    def test_boundary_index_rejected(self):
        g = Grid(R=10.0, n=101)
        p = Profile.from_function(g, layer)
        with pytest.raises(ValueError):
            apply_nonlocal(p, KER, None, 0)
        with pytest.raises(ValueError):
            apply_nonlocal(p, KER, None, 100)

    def test_tabulated_with_analytic_tail_rejected(self):
        r = np.geomspace(1e-4, 50, 400)
        ker = KernelSpec(s=0.5, form="tabulated", table_r=r,
                         table_K=(1 / math.pi) / r ** 2,
                         theta0=0.9 / math.pi, Theta0=1.1 / math.pi)
        g = Grid(R=10.0, n=101)
        p = Profile.from_function(g, layer)
        with pytest.raises(ValueError):
            apply_nonlocal(p, ker, TailClosure("analytic_power"), 50)

    def test_tabulated_kernel_tracks_power_kernel(self):
        # a dense table of the power density reproduces the power-kernel
        # operator away from the (zeroed) tails
        g = Grid(R=20.0, n=1601)
        r = np.geomspace(g.h / 4, 80, 3000)
        tab = KernelSpec(s=0.5, form="tabulated", table_r=r,
                         table_K=(1 / math.pi) / r ** 2,
                         theta0=0.5 / math.pi, Theta0=1.5 / math.pi)
        p = Profile.from_function(g, layer)
        i1 = int(round((1 + g.R) / g.h))
        v_tab = apply_nonlocal(p, tab, TailClosure("truncated_zero"), i1)
        v_pow = apply_nonlocal(p, KER, TailClosure("truncated_zero"), i1)
        assert v_tab == pytest.approx(v_pow, rel=2e-2)

    def test_decay_invariant_toward_edges(self):
        # reference-style ramp (exactly constant outside a compact set):
        # |L Q| ~ |x|^(-2s) on the outer quarter, slope within 20%
        g = Grid(R=200.0, n=8001)
        spec = homogeneous_spec()
        p = reference_on(spec, g)
        ws_field = [apply_nonlocal(p, KER, None, i) for i in
                    range(int(0.5 * g.n) + int(0.25 * g.n), g.n - 5)]
        xs = g.x[int(0.5 * g.n) + int(0.25 * g.n):g.n - 5]
        slope = np.polyfit(np.log(xs), np.log(np.abs(ws_field)), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)

    @pytest.mark.parametrize("s", [0.5, 0.35])
    def test_refinement_order(self, s):
        ker = KernelSpec(s=s)
        R = 40.0
        errs = []
        ref_val = dense_nonlocal(layer, 1.0, s, ker.c, 0.0, TWO_PI, dt=1e-4)
        for n in (1001, 2001, 4001):
            g = Grid(R=R, n=n)
            p = Profile.from_function(g, layer)
            i1 = int(round((1 + R) / g.h))
            errs.append(abs(apply_nonlocal(p, ker, None, i1) - ref_val))
        orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
        assert min(orders) >= 1.0


class TestFullOperator:
    def test_layer_residual_small(self):
        g = Grid(R=400.0, n=40001)
        spec = homogeneous_spec()
        p = Profile.from_function(g, layer)
        ref = reference_on(spec, g)
        res = apply_full_operator(p, spec, 0.0, 0.0, ref)
        assert np.abs(res[1:-1]).max() <= 5e-3

    def test_constant_at_well_is_equilibrium(self):
        g = Grid(R=50.0, n=2001)
        spec = homogeneous_spec()
        p = Profile.from_function(g, lambda x: np.zeros_like(x))
        ref = reference_on(spec, g)
        res = apply_full_operator(p, spec, 0.3, 0.0, ref)
        assert np.abs(res).max() < 1e-10

    def test_penalty_vanishes_at_reference(self):
        g = Grid(R=50.0, n=2001)
        spec = homogeneous_spec()
        ref = reference_on(spec, g)
        r1 = apply_full_operator(ref, spec, 0.0, 1.0, ref)
        r0 = apply_full_operator(ref, spec, 0.0, 0.0, ref)
        assert np.allclose(r1, r0, atol=1e-14)
        assert np.abs(r0).max() > 1e-3  # the reference is not a solution

    def test_grid_mismatch_rejected(self):
        spec = homogeneous_spec()
        p = Profile.from_function(Grid(R=50.0, n=2001), layer)
        ref = reference_on(spec, Grid(R=50.0, n=1001))
        with pytest.raises(ValueError):
            apply_full_operator(p, spec, 0.0, 0.0, ref)


def _piecewise_linear(g: Grid, seed: int) -> Profile:
    rng = np.random.default_rng(seed)
    knots = np.sort(rng.uniform(-g.R, g.R, 8))
    vals = rng.uniform(-1, 1, 8)
    f = np.interp(g.x, knots, vals, left=vals[0], right=vals[-1])
    return Profile(g, f, float(vals[0]), float(vals[-1]))


class TestSeminormAndBilinear:
    def test_constant_is_zero(self):
        g = Grid(R=10.0, n=401)
        p = Profile.from_function(g, lambda x: np.full_like(x, 2.0))
        assert seminorm_K(p, (-5, 5), (-2, 8), KER) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_symmetry_in_arguments(self, seed):
        g = Grid(R=10.0, n=401)
        p = _piecewise_linear(g, seed)
        a = seminorm_K(p, (-7, 2), (-1, 9), KER)
        b = seminorm_K(p, (-1, 9), (-7, 2), KER)
        assert a == pytest.approx(b, abs=1e-12 * (1 + a))

    def test_bilinear_in_second_argument_constant(self):
        g = Grid(R=10.0, n=401)
        p = _piecewise_linear(g, 3)
        cst = Profile.from_function(g, lambda x: np.full_like(x, 1.5))
        assert bilinear_form(p, cst, (-10, 10), (-10, 10), KER) == 0.0

    def test_bilinear_diagonal_is_squared_seminorm(self):
        g = Grid(R=10.0, n=401)
        p = _piecewise_linear(g, 7)
        bf = bilinear_form(p, p, (-4, 6), (-8, 2), KER)
        sn = seminorm_K(p, (-4, 6), (-8, 2), KER)
        assert bf == pytest.approx(sn ** 2, rel=1e-12)

    def test_reference_profile_matches_refined_oracle(self):
        spec = homogeneous_spec()
        g = Grid(R=50.0, n=10001)  # h = 0.01
        p = reference_on(spec, g)
        val = seminorm_K(p, (-2, 2), (-2, 2), KER) ** 2
        f = lambda x: reference_profile_eval(spec.reference, x)
        oracle = dense_seminorm_sq(f, (-2, 2), (-2, 2), 0.5, 1 / math.pi,
                                   h=g.h / 10)
        assert val == pytest.approx(oracle, rel=0.01)

    def test_additivity_over_disjoint_split(self):
        g = Grid(R=10.0, n=401)
        p = _piecewise_linear(g, 11)
        c = g.x[250] + g.h / 2  # split off-node for exclusive membership
        whole = seminorm_K(p, (-10, 10), (-3, 3), KER) ** 2
        left = seminorm_K(p, (-10, c), (-3, 3), KER) ** 2
        right = seminorm_K(p, (c, 10), (-3, 3), KER) ** 2
        assert whole == pytest.approx(left + right, abs=1e-10 * (1 + whole))

    def test_mixed_term_bound_finite(self):
        # |B(v, ref)| <= C ||ref||_C1 ([v]_K + ||v||_L2) with finite C
        spec = homogeneous_spec()
        g = Grid(R=40.0, n=1601)
        ref = reference_on(spec, g)
        rng = np.random.default_rng(0)
        worst = 0.0
        refC1 = max(TWO_PI, spec.reference.derivative_bound())
        for _ in range(20):
            knots = np.sort(rng.uniform(-30, 30, 6))
            vals = np.concatenate([[0], rng.uniform(-1, 1, 4), [0]])
            v = Profile(g, np.interp(g.x, knots, vals, left=0, right=0), 0.0, 0.0)
            B = bilinear_form(v, ref, WHOLE_LINE, WHOLE_LINE, KER)
            vk = seminorm_K(v, WHOLE_LINE, WHOLE_LINE, KER)
            vl2 = math.sqrt(float(np.sum(v.values ** 2)) * g.h)
            if vk + vl2 > 0:
                worst = max(worst, abs(B) / (refC1 * (vk + vl2)))
        assert 0 < worst < np.inf
