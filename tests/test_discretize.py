import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhet import discretize
from nlhet.discretize import (Grid, Profile, WHOLE_LINE, Workspace,
                              operator_field, reference_profile, seminorm_K,
                              strang_circulant, toeplitz_circulant,
                              workspace_for)
from nlhet.model import KernelSpec, reference_profile_eval

from conftest import homogeneous_spec, layer, reference_on
from oracles import (bilinear_form, dense_nonlocal, dense_pair_sum,
                     dense_row_sums, dense_seminorm_sq, dense_toeplitz_quad,
                     two_power_cell_masses)

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

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_half_width_must_be_finite_and_positive(self, R):
        with pytest.raises(ValueError, match="half-width R"):
            Grid(R=R, n=101)

    def test_profile_shape_checked(self):
        g = Grid(R=1.0, n=11)
        with pytest.raises(ValueError):
            Profile(g, np.zeros(10), 0.0, 0.0)

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
    @pytest.mark.parametrize("n", [3, 5, 15, 17, 101])
    def test_conv_matches_direct_sum(self, n):
        # the FFT length only reaches 2n - 1 (n = 15: 32 against 29, the
        # tightest fit; n = 17: 64): any circular wrap-around into the kept
        # output slice would show up against the O(n^2) sum
        ws = workspace_for(KER, Grid(R=10.0, n=n))
        f = np.random.default_rng(n).normal(size=n)
        direct = np.zeros(n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    direct[i] += ws.w[abs(i - j) - 1] * f[j]
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(ws.conv(f) - direct)) <= 1e-13 * scale


class TestWorkspaceQuad:
    @pytest.mark.parametrize("n", [3, 5, 15, 101, 401])
    def test_quad_matches_exact_sum_and_conv(self, n):
        # Parseval over the circulant spectrum; round-off measured <= 5e-17
        # of the scale sum |f_i f_j| w_|i-j|
        ws = workspace_for(KER, Grid(R=10.0, n=n))
        f = np.random.default_rng(n).normal(size=n)
        exact, scale = dense_toeplitz_quad(ws.w, f)
        assert abs(ws.quad(f) - exact) <= 1e-15 * scale
        assert abs(ws.quad(f) - float(np.sum(f * ws.conv(f)))) <= 1e-15 * scale

    def test_spectrum_is_real_and_half_length(self):
        ws = workspace_for(KER, Grid(R=10.0, n=101))
        assert ws.toeplitz.lam.dtype == np.float64
        assert ws.toeplitz.lam.shape == (ws.toeplitz.L // 2 + 1,)


class TestWorkspaceCache:
    def test_holds_the_latest_grid_only(self, monkeypatch):
        monkeypatch.setattr(discretize, "_WS_CACHE", {})
        g1, g2 = Grid(R=10.0, n=101), Grid(R=10.0, n=201)
        ws1 = workspace_for(KER, g1)
        ws2 = workspace_for(KER, g2)
        assert list(discretize._WS_CACHE.values()) == [ws2]
        assert workspace_for(KER, g2) is ws2
        assert workspace_for(KER, g1) is not ws1
        assert len(discretize._WS_CACHE) == 1


class TestStrangSymbol:
    @pytest.mark.parametrize("n", [4, 7, 64, 101])
    def test_symbol_diagonalizes_the_dense_circulant(self, n):
        # the circulant has the next power of two M >= n as its length and
        # keeps offsets up to (M - 1) // 2 on either side; the offset M / 2
        # is left empty
        ws = workspace_for(KER, Grid(R=10.0, n=201))
        d0, c, scale = float(ws.diag[100]), 0.3, 0.7
        circ = strang_circulant(d0, ws.w, c, n, scale)
        M = circ.L
        assert M == {4: 4, 7: 8, 64: 64, 101: 128}[n]
        t = np.concatenate([[d0 + 2 * c], -ws.w[:M]])
        t[1] -= c
        C = np.zeros((M, M))
        for i in range(M):
            for j in range(M):
                k = min(abs(i - j), M - abs(i - j))
                if k <= (M - 1) // 2:
                    C[i, j] = scale * t[k]
        v = np.random.default_rng(M).normal(size=M)
        got = np.fft.irfft(circ.lam * np.fft.rfft(v), M)
        assert np.max(np.abs(got - C @ v)) <= 1e-12 * np.max(np.abs(C @ v))

    def test_symbol_clamped_where_it_vanishes(self):
        # row sums zero out: the symbol is 0 at frequency zero before the clamp
        w = np.array([1.0, 0.5, 0.25])
        sym = strang_circulant(2 * w.sum(), w, 0.0, 8).lam
        assert sym.min() == 1e-12 * sym.max() > 0.0

    def test_acts_on_columns_along_axis_0(self):
        # the barrier solves both right-hand sides as the two columns of one
        # array: each column must get what it gets alone
        ws = workspace_for(KER, Grid(R=10.0, n=201))
        U = np.random.default_rng(3).normal(size=(37, 2))
        for op in (toeplitz_circulant(ws.w, 37),
                   strang_circulant(float(ws.diag[100]), ws.w, 0.3, 37).solve):
            both = op(U)
            assert both.shape == U.shape
            for k in range(2):
                alone = op(U[:, k].copy())
                err = np.max(np.abs(both[:, k] - alone))
                assert err <= 1e-14 * np.max(np.abs(alone))


BUILD_KERNELS = {
    "power": KER,
    "power_s0.3": KernelSpec(s=0.3),
    "truncated_inside": KernelSpec(s=0.4, form="truncated_power", c=1.0,
                                   r0=3.0),
    "truncated_below_half_cell": KernelSpec(s=0.4, form="truncated_power",
                                            c=1.0, r0=0.02),
}


class TestWorkspaceBuild:
    """Every workspace comes from one array of tail moments: the cell
    masses are its differences and the row sums telescope to
    2 T(h/2) - Wl - Wr, so a build runs no convolution."""

    G = Grid(R=10.0, n=401)   # h = 0.05

    @pytest.mark.parametrize("name", list(BUILD_KERNELS))
    def test_row_sums_match_dense_oracle(self, name):
        # measured max relative error <= 1.7e-16 (conv(ones) measured up to
        # 6.1e-16 on this grid); with r0 < h/2 the oracle is 0 and rho must
        # be exactly 0
        ws = Workspace(BUILD_KERNELS[name], self.G)
        oracle = dense_row_sums(ws.w)
        assert np.all(np.abs(ws.rho - oracle) <= 1e-15 * oracle)

    def test_truncated_below_half_cell_is_exactly_zero(self):
        # r0 < h/2: no kernel mass reaches a neighbor cell or the exterior
        ws = Workspace(BUILD_KERNELS["truncated_below_half_cell"], self.G)
        for arr in (ws.w, ws.rho, ws.Wl, ws.Wr, ws.diag):
            assert not arr.any()

    @pytest.mark.parametrize("name", ["power", "power_s0.3",
                                      "truncated_inside",
                                      "truncated_below_half_cell"])
    def test_cell_masses_match_two_power_formula(self, name):
        # differencing the tail moments cancels like the two-power formula:
        # measured max relative gap 1.7e-13 (s = 0.3, offsets up to 400)
        ker = BUILD_KERNELS[name]
        ws = Workspace(ker, self.G)
        ref = two_power_cell_masses(ker, self.G.h, self.G.n - 1)
        assert np.all(np.abs(ws.w - ref) <= 1e-12 * ref)

    @pytest.mark.parametrize("name, convs", [
        ("power", 0), ("truncated_inside", 0),
        ("truncated_below_half_cell", 0)])
    def test_build_convolutions(self, monkeypatch, name, convs):
        calls = []
        conv = Workspace.conv
        monkeypatch.setattr(Workspace, "conv",
                            lambda ws, v: calls.append(1) or conv(ws, v))
        Workspace(BUILD_KERNELS[name], self.G)
        assert len(calls) == convs


class TestApplyNonlocal:
    def test_workspace_diag_is_row_sum_plus_tails(self):
        ws = workspace_for(KER, Grid(R=20.0, n=801))
        assert np.array_equal(ws.diag, ws.rho + ws.Wl + ws.Wr)

    def test_annihilates_constants(self):
        g = Grid(R=20.0, n=801)
        p = Profile.from_function(g, lambda x: np.full_like(x, 3.7))
        L = operator_field(workspace_for(KER, g), p.values, p.left_const,
                           p.right_const)
        vals = L[[1, 100, 400, 799]]
        assert np.max(np.abs(vals)) < 1e-10

    def test_layer_identity_at_one(self):
        g = Grid(R=400.0, n=40001)
        p = Profile.from_function(g, layer)
        i1 = int(round((1 + g.R) / g.h))
        L = operator_field(workspace_for(KER, g), p.values, p.left_const,
                           p.right_const)
        assert L[i1] == pytest.approx(1.0, abs=2e-3)

    def test_layer_identity_at_zero(self):
        g = Grid(R=400.0, n=40001)
        p = Profile.from_function(g, layer)
        i0 = (g.n - 1) // 2
        L = operator_field(workspace_for(KER, g), p.values, p.left_const,
                           p.right_const)
        assert L[i0] == pytest.approx(0.0, abs=2e-3)

    def test_matches_dense_oracle(self):
        g = Grid(R=400.0, n=40001)
        p = Profile.from_function(g, layer)
        i1 = int(round((1 + g.R) / g.h))
        oracle = dense_nonlocal(layer, 1.0, 0.5, 1 / math.pi, 0.0, TWO_PI,
                                dt=g.h / 10)
        assert oracle == pytest.approx(1.0, abs=2e-4)
        L = operator_field(workspace_for(KER, g), p.values, p.left_const,
                           p.right_const)
        assert L[i1] == pytest.approx(oracle, abs=2e-3)

    def test_decay_invariant_toward_edges(self):
        # reference-style ramp (exactly constant outside a compact set):
        # |L Q| ~ |x|^(-2s) on the outer quarter, slope within 20%
        g = Grid(R=200.0, n=8001)
        spec = homogeneous_spec()
        p = reference_on(spec, g)
        L = operator_field(workspace_for(KER, g), p.values, p.left_const,
                           p.right_const)
        ws_field = L[int(0.5 * g.n) + int(0.25 * g.n):g.n - 5]
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
            L = operator_field(workspace_for(ker, g), p.values, p.left_const,
                               p.right_const)
            errs.append(abs(L[i1] - ref_val))
        orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
        assert min(orders) >= 1.0


class TestFullOperator:
    def test_layer_residual_small(self):
        g = Grid(R=400.0, n=40001)
        spec = homogeneous_spec()
        p = Profile.from_function(g, layer)
        res = operator_field(workspace_for(spec.kernel, g), p.values,
                             p.left_const, p.right_const, spec)[1:-1]
        assert np.abs(res[1:-1]).max() <= 5e-3

    def test_constant_at_well_is_equilibrium(self):
        g = Grid(R=50.0, n=2001)
        spec = homogeneous_spec()
        p = Profile.from_function(g, lambda x: np.zeros_like(x))
        res = operator_field(workspace_for(spec.kernel, g), p.values,
                             p.left_const, p.right_const, spec, eta=0.3)[1:-1]
        assert np.abs(res).max() < 1e-10

    def test_penalty_vanishes_at_reference(self):
        g = Grid(R=50.0, n=2001)
        spec = homogeneous_spec()
        ref = reference_on(spec, g)
        ws = workspace_for(spec.kernel, g)
        r1 = operator_field(ws, ref.values, ref.left_const, ref.right_const,
                            spec, mu=1.0, ref=ref.values)[1:-1]
        r0 = operator_field(ws, ref.values, ref.left_const, ref.right_const,
                            spec)[1:-1]
        assert np.allclose(r1, r0, atol=1e-14)
        assert np.abs(r0).max() > 1e-3  # the reference is not a solution


def _piecewise_linear(g: Grid, seed: int) -> Profile:
    rng = np.random.default_rng(seed)
    knots = np.sort(rng.uniform(-g.R, g.R, 8))
    vals = rng.uniform(-1, 1, 8)
    f = np.interp(g.x, knots, vals, left=vals[0], right=vals[-1])
    return Profile(g, f, float(vals[0]), float(vals[-1]))


class TestSeminormAndBilinear:
    """seminorm_K on one interval; the cross-interval forms run on the
    oracle's bilinear form."""

    def test_constant_is_zero(self):
        g = Grid(R=10.0, n=401)
        p = Profile.from_function(g, lambda x: np.full_like(x, 2.0))
        assert seminorm_K(p, (-5, 5), KER) == 0.0
        assert seminorm_K(p, WHOLE_LINE, KER) == 0.0
        assert bilinear_form(p, p, (-5, 5), (-2, 8), KER) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_symmetry_in_arguments(self, seed):
        g = Grid(R=10.0, n=401)
        p = _piecewise_linear(g, seed)
        a = bilinear_form(p, p, (-7, 2), (-1, 9), KER)
        b = bilinear_form(p, p, (-1, 9), (-7, 2), KER)
        assert a == pytest.approx(b, abs=1e-12 * (1 + a))

    def test_bilinear_in_second_argument_constant(self):
        g = Grid(R=10.0, n=401)
        p = _piecewise_linear(g, 3)
        cst = Profile.from_function(g, lambda x: np.full_like(x, 1.5))
        assert bilinear_form(p, cst, (-10, 10), (-10, 10), KER) == 0.0

    def test_bilinear_diagonal_is_squared_seminorm(self):
        g = Grid(R=10.0, n=401)
        p = _piecewise_linear(g, 7)
        for X in ((-4, 6), (-np.inf, 2), WHOLE_LINE):
            bf = bilinear_form(p, p, X, X, KER)
            assert bf == pytest.approx(seminorm_K(p, X, KER) ** 2, rel=1e-12)

    def test_reference_profile_matches_refined_oracle(self):
        spec = homogeneous_spec()
        g = Grid(R=50.0, n=10001)  # h = 0.01
        p = reference_on(spec, g)
        val = seminorm_K(p, (-2, 2), KER) ** 2
        f = lambda x: reference_profile_eval(spec.reference, x)
        oracle = dense_seminorm_sq(f, (-2, 2), (-2, 2), 0.5, 1 / math.pi,
                                   h=g.h / 10)
        assert val == pytest.approx(oracle, rel=0.01)

    def test_additivity_over_disjoint_split(self):
        g = Grid(R=10.0, n=401)
        p = _piecewise_linear(g, 11)
        c = g.x[250] + g.h / 2  # split off-node for exclusive membership
        whole = bilinear_form(p, p, (-10, 10), (-3, 3), KER)
        left = bilinear_form(p, p, (-10, c), (-3, 3), KER)
        right = bilinear_form(p, p, (c, 10), (-3, 3), KER)
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
            vk = seminorm_K(v, WHOLE_LINE, KER)
            vl2 = math.sqrt(float(np.sum(v.values ** 2)) * g.h)
            if vk + vl2 > 0:
                worst = max(worst, abs(B) / (refC1 * (vk + vl2)))
        assert 0 < worst < np.inf


class TestSharedConvolutions:
    """seminorm_K evaluates the oracle's four-convolution sum B(f, f, X, X)
    with its coinciding terms shared: two convolutions and the same value,
    bit for bit, on an interval short of the window, and no convolution at
    all, by Parseval, on an interval that holds every node."""

    G = Grid(R=10.0, n=401)

    def _bump(self, seed, left=0.0, right=0.0):
        # a Gaussian bump on a smooth step from ``left`` to ``right``
        rng = np.random.default_rng(seed)
        x = self.G.x
        vals = (np.exp(-(x - rng.uniform(-3, 3)) ** 2) * rng.uniform(0.5, 2)
                + left + (right - left) * (1 + np.tanh(x)) / 2)
        return Profile(self.G, vals, left, right)

    def _count(self, monkeypatch, f, X):
        workspace_for(KER, self.G)   # build before counting
        calls = []
        conv = Workspace.conv
        monkeypatch.setattr(Workspace, "conv",
                            lambda ws, v: calls.append(1) or conv(ws, v))
        value = seminorm_K(f, X, KER)
        monkeypatch.undo()
        return value, len(calls)

    @pytest.mark.parametrize("X", [(-4.0, 6.0), (-np.inf, 5.0), (5.0, np.inf)])
    def test_equals_four_convolution_sum(self, monkeypatch, X):
        f = self._bump(1, left=0.25, right=-0.5)
        value, count = self._count(monkeypatch, f, X)
        assert value == math.sqrt(max(bilinear_form(f, f, X, X, KER), 0.0))
        assert count == 2

    @pytest.mark.parametrize("X", [WHOLE_LINE, (-10.0, 10.0)])
    def test_every_node_runs_no_convolution(self, monkeypatch, X):
        # 2 (sum f^2 rho - quad(f)) by Parseval, plus the tail blocks of
        # the unbounded ends: measured 2.2e-15 relative to the exactly
        # summed pair sum
        f = self._bump(1, left=0.25, right=0.25)
        value, count = self._count(monkeypatch, f, X)
        ws = workspace_for(KER, self.G)
        fc = f.values - f.values.mean()
        every = np.ones(self.G.n, bool)
        exact = self.G.h * dense_pair_sum(ws.w, fc, fc, every, every)
        if X == WHOLE_LINE:
            d = f.values - 0.25
            exact += 2 * self.G.h * float(np.sum(d * d * (ws.Wl + ws.Wr)))
        assert value ** 2 == pytest.approx(exact, rel=1e-14)
        assert count == 0

    def test_whole_line_diverges_for_unequal_far_fields(self, monkeypatch):
        f = self._bump(1, left=0.25, right=-0.5)
        value, count = self._count(monkeypatch, f, WHOLE_LINE)
        assert value == math.inf
        assert bilinear_form(f, f, WHOLE_LINE, WHOLE_LINE, KER) == math.inf
        assert count == 0

    @pytest.mark.parametrize("s", [0.3, 0.5])
    def test_row_sums_are_conv_of_ones_up_to_round_off(self, s):
        # rho telescopes rather than convolving, so it differs from
        # conv(ones) in the last bits: measured in 297 of 401 entries, at
        # most 5.6e-16 relative (s = 0.5; 5.2e-16 at s = 0.3)
        ws = workspace_for(KernelSpec(s=s), self.G)
        conv = ws.conv(np.ones(self.G.n))
        assert np.all(np.abs(ws.rho - conv) <= 1e-15 * ws.rho)
