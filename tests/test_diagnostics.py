import math

import numpy as np
import pytest

from nlhet.diagnostics import (DegenerateFitError, PreconditionError,
                               find_clean_intervals, fit_tail_decay,
                               holder_estimate, is_clean_point,
                               lewy_stampacchia_check, stickiness_check)
from nlhet.discretize import Grid, Profile
from nlhet.obstacles import ObstacleConfig, barrier_pair

from conftest import homogeneous_spec, layer, reference_on, run_stage
from lemmas import glue_profile, gluing_energy_defect
from oracles import brute_clean_intervals

TWO_PI = 2 * math.pi
WELLS = (0.0, TWO_PI)


class TestCleanIntervals:
    def test_layer_right_tail_threshold(self):
        # |layer - 2pi| = 2 arctan(1/x) <= 0.05 exactly from x ~ 40 on
        g = Grid(R=200.0, n=8001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        rep = find_clean_intervals(Q, 0.05, (-g.R, g.R), WELLS)
        right = [iv for iv in rep.intervals if iv.well == TWO_PI]
        assert len(right) == 1
        x_star = 1.0 / math.tan(0.025)
        assert right[0].lo == pytest.approx(x_star, abs=2 * g.h)
        assert right[0].hi - right[0].lo >= abs(math.log(0.05))
        assert right[0].sup_deviation <= 0.05

    def test_constant_profile_single_interval(self):
        g = Grid(R=50.0, n=2001)
        Q = Profile.from_function(g, lambda x: np.zeros_like(x))
        rep = find_clean_intervals(Q, 0.05, (-g.R, g.R), WELLS)
        assert len(rep.intervals) == 1
        assert rep.intervals[0].lo == -g.R and rep.intervals[0].hi == g.R

    def test_length_gate_excludes_short_runs(self):
        # reference ramp at rho = half the well separation: the middle stays
        # within pi of a well only on stretches shorter than |log pi| + 2
        spec = homogeneous_spec()
        g = Grid(R=3.0, n=601)
        ref = reference_on(spec, g)
        rep = find_clean_intervals(ref, math.pi, (-1.0, 1.0), WELLS)
        assert rep.intervals == []

    def test_scan_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.choice([401, 801, 1501]))
            g = Grid(R=30.0, n=n)
            vals = _random_profile(g, rng)
            Q = Profile(g, vals, vals[0], vals[-1])
            rho = float(rng.uniform(0.02, 0.6))
            rep = find_clean_intervals(Q, rho, (-g.R, g.R), WELLS)
            got = [(iv.lo, iv.hi, iv.well, iv.sup_deviation) for iv in rep.intervals]
            want = brute_clean_intervals(g.x, vals, rho, WELLS)
            assert len(got) == len(want)
            for a, b in zip(sorted(got), sorted(want)):
                assert a == b

    def test_rho_validation(self):
        g = Grid(R=5.0, n=101)
        Q = Profile.from_function(g, lambda x: np.zeros_like(x))
        with pytest.raises(ValueError):
            find_clean_intervals(Q, -0.1, (-5, 5), WELLS)
        with pytest.raises(ValueError):
            find_clean_intervals(Q, 0.05, (-50, 50), WELLS)

    def test_clean_point_predicate(self):
        g = Grid(R=200.0, n=8001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        assert is_clean_point(Q, 100.0, 0.05, TWO_PI)
        assert not is_clean_point(Q, 10.0, 0.05, TWO_PI)
        assert not is_clean_point(Q, 100.0, 0.05, 0.0)


def _random_profile(g: Grid, rng) -> np.ndarray:
    """Plateaus near wells plus rough interludes; exercises run extraction."""
    vals = np.empty(g.n)
    pos = 0
    level = float(rng.choice([0.0, TWO_PI]))
    while pos < g.n:
        ln = int(rng.integers(20, 400))
        kind = rng.random()
        if kind < 0.5:
            seg = level + rng.uniform(-0.3, 0.3) * rng.random(min(ln, g.n - pos))
        else:
            seg = rng.uniform(-1, TWO_PI + 1, min(ln, g.n - pos))
        vals[pos:pos + seg.size] = seg
        pos += seg.size
        level = float(rng.choice([0.0, TWO_PI]))
    return vals


class TestStickiness:
    def test_preconditions(self):
        spec = homogeneous_spec()
        g = Grid(R=200.0, n=8001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        with pytest.raises(PreconditionError):
            stickiness_check(Q, 100.0, 102.0, spec, 0.0, 0.0, 1e-2,
                             rho=0.05, well=TWO_PI, r=0.5)
        with pytest.raises(PreconditionError):
            stickiness_check(Q, 5.0, 50.0, spec, 0.0, 0.0, 1e-2,
                             rho=0.05, well=TWO_PI, r=0.5)

    def test_interior_bump_fails_sup_criterion(self):
        spec = homogeneous_spec()
        g = Grid(R=200.0, n=8001)
        r = 0.5
        vals = layer(g.x)
        bump = r * np.exp(-((g.x - 100.0) ** 2))
        Q = Profile(g, vals + bump, 0.0, TWO_PI)
        rep = stickiness_check(Q, 60.0, 150.0, spec, 0.0, 0.0, 1e-2,
                               rho=0.05, well=TWO_PI, r=r)
        assert rep.sup_deviation > r / 2
        assert not rep.passed

    def test_terms_are_nonnegative_except_interaction(self):
        spec = homogeneous_spec()
        g = Grid(R=200.0, n=8001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        rep = stickiness_check(Q, 60.0, 150.0, spec, 0.1, 0.1, 1.0,
                               rho=0.05, well=TWO_PI, r=0.5)
        assert rep.viscous >= 0 and rep.penalty >= 0 and rep.potential >= 0
        assert rep.interaction >= 0  # raw localized seminorm


@pytest.fixture(scope="module")
def constrained():
    spec = homogeneous_spec()
    grid = Grid(R=60.0, n=2401)
    cfg = ObstacleConfig(b1=-4.0, b2=4.0)
    eta = 1e-2
    pair = barrier_pair(spec, cfg, grid, eta)
    ref = reference_on(spec, grid)
    res = run_stage(ref, spec, pair, eta, 0.05)
    return spec, grid, cfg, pair, ref, res, eta


class TestLewyStampacchia:
    def test_minimizer_passes(self, constrained):
        spec, grid, cfg, pair, ref, res, eta = constrained
        slack = 2 * (1e-8 * grid.n) / grid.h
        for I in ((-4.0, 4.0), (-10.0, 10.0), (cfg.b1 - 1.0, cfg.b1 + 1.0)):
            rep = lewy_stampacchia_check(res.profile, pair, spec, I,
                                         mu=0.05, ref=ref, slack=slack)
            assert rep.passed, f"interval {I}: gaps {rep.min_gap_low}, {rep.min_gap_high}"

    def test_noise_witness_fails(self, constrained):
        # far fields intact, arbitrary interior noise: not a minimizer, and
        # the check must say so (tested away from the envelope bridge, where
        # the obstacle branch of the bounds is tight)
        spec, grid, cfg, pair, ref, res, eta = constrained
        rng = np.random.default_rng(3)
        noise = 0.2 * rng.choice([-1.0, 1.0], grid.n) * rng.uniform(0.5, 1.0, grid.n)
        noise[np.abs(grid.x) > 3.0] = 0.0
        noisy = np.clip(res.profile.values + noise,
                        pair.Psi.values, pair.Phi.values)
        Qn = Profile(grid, noisy, res.profile.left_const, res.profile.right_const)
        slack = 2 * (1e-8 * grid.n) / grid.h
        rep = lewy_stampacchia_check(Qn, pair, spec, (-2.0, 2.0),
                                     mu=0.05, ref=ref, slack=slack)
        assert not rep.passed

    def test_inadmissible_profile_fails(self, constrained):
        # one node far outside I pushed above Phi: the gaps on I barely
        # move, but a profile outside [Psi, Phi] cannot pass
        spec, grid, cfg, pair, ref, res, eta = constrained
        q = res.profile.values.copy()
        k = int(np.argmin(np.abs(grid.x + 50.0)))
        q[k] = pair.Phi.values[k] + 0.01
        Qb = Profile(grid, q, res.profile.left_const, res.profile.right_const)
        slack = 2 * (1e-8 * grid.n) / grid.h
        rep = lewy_stampacchia_check(Qb, pair, spec, (-4.0, 4.0),
                                     mu=0.05, ref=ref, slack=slack)
        assert rep.min_gap_low >= 0 and rep.min_gap_high >= 0
        assert not rep.admissible
        assert not rep.passed

    def test_upper_obstacle_attains_lower_bound(self, constrained):
        # substituting the upper envelope itself makes the obstacle branch of
        # the lower bound tight up to the viscous term
        spec, grid, cfg, pair, ref, res, eta = constrained
        rep = lewy_stampacchia_check(pair.Phi, pair, spec, (-4.0, 4.0),
                                     mu=0.0, ref=ref, slack=1e-9)
        from nlhet.discretize import second_difference, workspace_for
        ws = workspace_for(spec.kernel, grid)
        x = grid.x
        sel = (x >= -4.0) & (x <= 4.0)
        sel[0] = sel[-1] = False
        phiv = pair.Phi.values
        AQ = (phiv * (ws.rho + ws.Wl + ws.Wr) - ws.conv(phiv)
              - pair.Phi.left_const * ws.Wl - pair.Phi.right_const * ws.Wr
              - eta * second_difference(phiv, grid.h))[sel]
        d2 = second_difference(phiv, grid.h)[sel]
        attain = float(np.min(AQ - rep.lower))
        assert attain <= (1 + eta) * float(np.abs(d2).max()) + 1e-6


class TestHolder:
    def test_constant_is_zero(self):
        g = Grid(R=10.0, n=401)
        Q = Profile.from_function(g, lambda x: np.full_like(x, 1.0))
        assert holder_estimate(Q, (-5, 5), 0.5) == 0.0

    def test_layer_refinement_stability(self):
        vals = []
        for n in (2001, 4001):
            g = Grid(R=50.0, n=n)
            Q = Profile.from_function(g, layer, 0.0, TWO_PI)
            vals.append(holder_estimate(Q, (-1.0, 1.0), 0.9))
        assert vals[1] == pytest.approx(vals[0], rel=0.05)

    def test_monotone_in_pair_refinement(self):
        g = Grid(R=50.0, n=2001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        sub = holder_estimate(Q, (-0.5, 0.5), 0.7)
        full = holder_estimate(Q, (-1.0, 1.0), 0.7)
        assert full >= sub


class TestGlue:
    def test_idempotent_on_matched_data(self):
        g = Grid(R=50.0, n=2001)
        vals = np.where(g.x < 10.0, layer(g.x), TWO_PI)
        vals[g.x >= 10.0] = TWO_PI
        Q = Profile(g, vals, 0.0, TWO_PI)
        i0 = int(np.argmin(np.abs(g.x - 20.0)))
        Q.values[i0] = TWO_PI
        P = glue_profile(Q, 20.0, TWO_PI, 4.0)
        assert np.array_equal(P.values, Q.values)

    def test_spliced_profile_stays_near_well(self):
        g = Grid(R=200.0, n=8001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        rho = 0.05
        x0 = 60.0
        assert is_clean_point(Q, x0, rho, TWO_PI)
        P = glue_profile(Q, x0, TWO_PI, 4.0)
        sel = g.x >= x0
        assert np.abs(P.values[sel] - TWO_PI).max() <= 2 * rho

    def test_splice_holder_bound(self):
        g = Grid(R=200.0, n=8001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        rho, x0, beta = 0.05, 60.0, 4.0
        P = glue_profile(Q, x0, TWO_PI, beta)
        dev = abs(float(Q.values[int(np.argmin(np.abs(g.x - x0)))]) - TWO_PI)
        est = holder_estimate(P, (x0, x0 + beta), 0.5)
        assert est <= dev * (1 + 1e-9)
        assert est <= rho

    def test_window_guard(self):
        g = Grid(R=50.0, n=2001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        with pytest.raises(ValueError):
            glue_profile(Q, 48.0, TWO_PI, 4.0)
        with pytest.raises(ValueError):
            glue_profile(Q, 10.0, TWO_PI, 0.5)


class TestGluingDefect:
    def test_constants_give_zero(self):
        spec = homogeneous_spec()
        g = Grid(R=50.0, n=2001)
        Q = Profile.from_function(g, lambda x: np.full_like(x, TWO_PI))
        ref = Profile.from_function(g, lambda x: np.full_like(x, TWO_PI))
        d = gluing_energy_defect(Q, Q, 10.0, 2.0, -40.0, 40.0, spec, ref=ref)
        assert d == pytest.approx(0.0, abs=1e-10)

    def test_clean_splice_beats_rough_splice(self):
        spec = homogeneous_spec()
        g = Grid(R=200.0, n=8001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        rho = 0.05
        beta = abs(math.log(rho)) / 8
        clean_x0 = 80.0
        P1 = glue_profile(Q, clean_x0, TWO_PI, max(beta, 1.0))
        d_clean = gluing_energy_defect(Q, P1, clean_x0, beta, -150.0, 150.0, spec)
        rough_x0 = 0.0  # O(1) jump at the splice
        P2 = glue_profile(Q, rough_x0, TWO_PI, max(beta, 1.0))
        d_rough = gluing_energy_defect(Q, P2, rough_x0, beta, -150.0, 150.0, spec)
        assert d_rough > 10 * d_clean
        assert d_rough > 0.1


class TestCertifiedProfileSweeps:
    """Sweeps over rho on a certified continuation run (session fixture)."""

    def test_holder_bound_on_clean_intervals(self, anchor_run):
        # on a (rho, Q)-clean interval (x0-4T, x0+4T) the Hoelder quotient on
        # the inner third obeys C * (rho^(1-a/2s)/|log rho|^a + rho) with a
        # stable constant across rho (mu = 0 on the final profile)
        spec = anchor_run["spec"]
        Q = anchor_run["result"].profile
        s = spec.s
        alpha = 0.5
        consts = []
        for rho in (0.1, 0.05, 0.02):
            rep = find_clean_intervals(Q, rho, (0.0, Q.grid.R), (0.0, TWO_PI))
            iv = max(rep.intervals, key=lambda t: t.hi - t.lo)
            T = (iv.hi - iv.lo) / 8.0
            x0 = iv.center
            est = holder_estimate(Q, (x0 - T, x0 + T), alpha)
            bound = (rho ** (1 - alpha / (2 * s)) / abs(math.log(rho)) ** alpha
                     + rho)
            consts.append(est / bound)
        assert all(c > 0 for c in consts)
        assert max(consts) / min(consts) <= 10.0

    def test_gluing_defect_decreases_with_rho(self, anchor_run):
        # P = Q: the split defect with the cross-seminorm correction shrinks
        # as the splice point moves deeper into the clean tail
        spec = anchor_run["spec"]
        Q = anchor_run["result"].profile
        defects = []
        for rho in (0.1, 0.05, 0.02):
            rep = find_clean_intervals(Q, rho, (0.0, Q.grid.R), (0.0, TWO_PI))
            iv = max(rep.intervals, key=lambda t: t.hi)
            x0 = min(iv.center, Q.grid.R - 20.0)
            beta = abs(math.log(rho)) / 8.0
            defects.append(gluing_energy_defect(Q, Q, x0, beta,
                                                -150.0, 150.0, spec))
        assert defects[0] > defects[1] > defects[2]


class TestTailFit:
    def test_layer_exponent(self):
        g = Grid(R=400.0, n=16001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        fit = fit_tail_decay(Q, "right")
        assert fit.fitted_exponent == pytest.approx(-1.0, abs=0.1)
        fit_l = fit_tail_decay(Q, "left")
        assert fit_l.fitted_exponent == pytest.approx(-1.0, abs=0.1)

    def test_degenerate_fit_raises(self):
        g = Grid(R=50.0, n=2001)
        Q = Profile.from_function(g, lambda x: np.full_like(x, TWO_PI))
        with pytest.raises(DegenerateFitError):
            fit_tail_decay(Q, "right")

    @pytest.mark.parametrize("xs", [(150.0,), (150.0, 160.0)])
    def test_fewer_than_three_deviations_raise(self, xs):
        # two points fit any line exactly: one sample at x = 150 used to
        # return exponent -1.326 with r_squared 1.0
        g = Grid(R=200.0, n=8001)
        q = np.full(g.n, TWO_PI)
        for x0 in xs:
            q[np.argmin(np.abs(g.x - x0))] -= 1e-3
        with pytest.raises(DegenerateFitError, match="at least 3"):
            fit_tail_decay(Profile(g, q, 0.0, TWO_PI), "right")
