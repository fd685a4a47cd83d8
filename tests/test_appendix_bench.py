import math
import tracemalloc

import numpy as np
import pytest

from nlhet import appendix_bench as ab
from nlhet import discretize
from nlhet.appendix_bench import (BUMP_L2_RATIO, TRACE_HHALF_RATIO,
                                  TRACE_L2_RATIO, BumpFamily, ResolutionError,
                                  TraceExample, bump_hs_ratio, bump_norms,
                                  trace_norms)

from lemmas import (psibar_seminorm, superposition_eval,
                    superposition_tail_witness)
from oracles import dense_half_seminorm, full_window_bump_norms


class TestBumpFamily:
    def test_s_must_be_strictly_below_half(self):
        with pytest.raises(ValueError):
            BumpFamily(s=0.5)
        BumpFamily(s=0.49)

    def test_base_matches_fourth_power_template(self):
        # squared squares instead of pow: within 4 ulp of (1 - u^2)^4 inside
        # the support (measured 2 ulp), exactly 0 on |u| >= 1
        u = np.linspace(-2, 2, 32001)
        got = BumpFamily(s=0.3).base(u)
        inside = np.abs(u) < 1
        ref = (1 - u[inside] ** 2) ** 4
        assert np.all(np.abs(got[inside] - ref) <= 4 * np.spacing(ref))
        assert np.all(got[~inside] == 0.0)

    def test_member_zero_matches_direct_quadrature(self):
        fam = BumpFamily(s=0.3)
        l2, _ = bump_norms(fam, 0)
        u = np.linspace(-1, 1, 400001)
        direct = math.sqrt(np.trapezoid((1 - u * u) ** 8, u))
        assert l2 == pytest.approx(direct, rel=1e-6)

    @pytest.mark.parametrize("s", [0.3, 0.4])
    def test_scaling_ratios(self, s):
        fam = BumpFamily(s=s)
        prev = bump_norms(fam, 0)
        for k in range(1, 7):
            cur = bump_norms(fam, k)
            assert cur[0] / prev[0] == pytest.approx(BUMP_L2_RATIO, rel=0.03)
            assert cur[1] / prev[1] == pytest.approx(bump_hs_ratio(s), rel=0.03)
            prev = cur

    def test_ratio_resolution_stable(self):
        vals = []
        for res in (2001, 4001):
            fam = BumpFamily(s=0.3, resolution=res)
            a = bump_norms(fam, 3)
            b = bump_norms(fam, 4)
            vals.append(b[1] / a[1])
        assert abs(vals[1] / vals[0] - 1) < 0.01

    def test_reciprocal_centers(self):
        fam = BumpFamily(s=0.3, centers="reciprocals")
        assert fam.center(4) == 0.25
        l2, hs = bump_norms(fam, 4)
        assert l2 > 0 and hs > 0

    def test_unresolvable_support_raises(self):
        fam = BumpFamily(s=0.3)
        with pytest.raises(ResolutionError):
            bump_norms(fam, 40)

    @pytest.mark.parametrize("resolution", [2001, 2003])
    @pytest.mark.parametrize("centers", ["integers", "reciprocals"])
    @pytest.mark.parametrize("s", [0.3, 0.45])
    def test_support_grid_matches_full_window_oracle(self, s, centers,
                                                     resolution):
        # the whole-line form does not see the zero field past the support;
        # at 2003 nodes the support edge falls between two nodes
        fam = BumpFamily(s=s, centers=centers, resolution=resolution)
        for k in (0, 4, 8):
            got = bump_norms(fam, k)
            ref = full_window_bump_norms(fam, k)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestSuperposition:
    def test_centers_hit_one_midpoints_zero(self):
        fam = BumpFamily(s=0.3)
        centers = [float(k) for k in range(5, 21)]
        mids = [k + 0.5 for k in range(5, 21)]
        hi, lo = superposition_tail_witness(fam, centers + mids)
        assert hi == 1.0
        assert lo == 0.0

    def test_triangle_inequality_for_partial_sums(self):
        # common-grid seminorm of the partial superposition never exceeds
        # the sum of member seminorms
        from nlhet.appendix_bench import _GagliardoKernel
        from nlhet.discretize import Grid, Profile, WHOLE_LINE, seminorm_K
        s = 0.3
        fam = BumpFamily(s=s)
        g = Grid(R=3.0, n=12001)
        ker = _GagliardoKernel(s)
        total = Profile(g, superposition_eval(fam, g.x + 2.0, kmax=4), 0.0, 0.0)
        lhs = seminorm_K(total, WHOLE_LINE, ker)
        rhs = 0.0
        for k in range(1, 5):
            member = Profile(g, fam.member(k, g.x + 2.0), 0.0, 0.0)
            rhs += seminorm_K(member, WHOLE_LINE, ker)
            member2 = Profile(g, fam.base(math.exp(k) * (g.x + 2.0 - 1.0 / k)), 0.0, 0.0)
            rhs += seminorm_K(member2, WHOLE_LINE, ker)
        assert lhs <= rhs + 1e-12


class TestTraceFamily:
    def test_l2_ratio(self):
        tex = TraceExample()
        prev = trace_norms(tex, 1)
        for k in (2, 3):
            cur = trace_norms(tex, k)
            assert cur[0] / prev[0] == pytest.approx(TRACE_L2_RATIO, rel=0.05)
            prev = cur

    def test_h_half_ratio(self):
        tex = TraceExample()
        prev = trace_norms(tex, 1)
        for k in (2, 3):
            cur = trace_norms(tex, k)
            assert cur[1] / prev[1] == pytest.approx(TRACE_HHALF_RATIO, rel=0.05)
            prev = cur

    def test_psibar_seminorm_converges_under_refinement(self):
        tex = TraceExample()
        base = psibar_seminorm(tex, points_per_decade=48)
        fine = psibar_seminorm(tex, points_per_decade=192)
        assert abs(fine - base) / base < 0.10

    def test_blocked_sum_matches_dense_oracle_on_members(self, monkeypatch):
        tex = TraceExample()
        blocked = [trace_norms(tex, k) for k in (1, 2, 3)]
        monkeypatch.setattr(ab, "_nonuniform_half_seminorm", dense_half_seminorm)
        for k, (l2, hs) in zip((1, 2, 3), blocked):
            l2_d, hs_d = trace_norms(tex, k)
            assert l2 == l2_d
            assert hs == pytest.approx(hs_d, rel=1e-12)

    def test_blocked_sum_matches_dense_oracle_on_psibar(self, monkeypatch):
        tex = TraceExample()
        blocked = psibar_seminorm(tex, points_per_decade=48)
        monkeypatch.setattr(ab, "_nonuniform_half_seminorm", dense_half_seminorm)
        assert blocked == pytest.approx(psibar_seminorm(tex, 48), rel=1e-12)

    def test_blocked_sum_matches_dense_oracle_with_skip(self):
        # 20 cells: one partial row block; 300 cells: nine full row blocks
        # and a partial one
        rng = np.random.default_rng(5)
        for cells in (20, 300):
            edges = np.cumsum(rng.uniform(0.01, 1.0, cells + 1)) - 40.0
            f = rng.normal(size=cells)
            skip = rng.uniform(size=cells) < 0.1
            for sk in (None, skip):
                assert ab._nonuniform_half_seminorm(edges, f, sk) == pytest.approx(
                    dense_half_seminorm(edges, f, sk), rel=1e-12)

    def test_psibar_unbounded_near_origin_zero_outside(self):
        # the doubly-logarithmic growth is slow but unbounded
        tex = TraceExample()
        assert tex.psibar(1e-300) > tex.psibar(1e-30) > tex.psibar(1e-3) > 1.0
        assert tex.psibar(1.5) == 0.0
        assert tex.psibar(-0.5) == tex.psibar(0.5)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_bump_member_at_resolution_32001(self, monkeypatch):
        # workspace build and whole-line seminorm of one member on its
        # 16001-node support grid, nothing cached: measured 1.72 MB (3.43 MB
        # on the 32001-node full window)
        monkeypatch.setattr(discretize, "_WS_CACHE", {})
        fam = BumpFamily(s=0.3, resolution=32001)
        assert _traced_peak(bump_norms, fam, 3) < 2.0e6

    def test_default_trace_member(self):
        # measured 1.01 MB (4.71 MB with 128-row blocks of fresh temporaries)
        assert _traced_peak(trace_norms, TraceExample(), 0) < 1.5e6
