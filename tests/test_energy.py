import math

import numpy as np
import pytest

from nlhet.discretize import (Grid, Profile, WHOLE_LINE, operator_field,
                              workspace_for)
from nlhet.obstacles import ObstacleConfig, barrier_pair
from nlhet.solver import _Core, _Stage

from conftest import homogeneous_spec, layer, reference_on, run_stage
from lemmas import (increment_growth_exponent, log_growth_slope,
                    raw_seminorm_window_growth, verify_apriori_bounds)
from oracles import renormalized_interaction, total_energy, trapz

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def setup():
    spec = homogeneous_spec()
    grid = Grid(R=60.0, n=2401)
    ref = reference_on(spec, grid)
    return spec, grid, ref


class TestRenormalizedInteraction:
    def test_zero_at_reference(self, setup):
        spec, grid, ref = setup
        for I, J in (((-5, 5), (-5, 5)), (WHOLE_LINE, WHOLE_LINE), ((-1, 3), (0, 7))):
            assert renormalized_interaction(ref, ref, spec, I, J) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_in_windows(self, setup):
        spec, grid, ref = setup
        Q = Profile.from_function(grid, layer, 0.0, TWO_PI)
        a = renormalized_interaction(Q, ref, spec, (-5, 2), (0, 9))
        b = renormalized_interaction(Q, ref, spec, (0, 9), (-5, 2))
        assert a == pytest.approx(b, rel=1e-12)

    def test_far_field_mismatch_rejected(self, setup):
        spec, grid, ref = setup
        Q = Profile.from_function(grid, layer, 0.0, TWO_PI + 0.5)
        with pytest.raises(ValueError):
            renormalized_interaction(Q, ref, spec)

    def test_window_doubling_stability(self):
        # renormalization removes the log divergence: the whole-line value is
        # stable within 2% when the computational window doubles
        spec = homogeneous_spec()
        vals = []
        for R, n in ((200.0, 8001), (400.0, 16001)):
            g = Grid(R=R, n=n)
            ref = reference_on(spec, g)
            Q = Profile.from_function(g, layer, 0.0, TWO_PI)
            vals.append(renormalized_interaction(Q, ref, spec))
        assert abs(vals[1] - vals[0]) <= 0.02 * abs(vals[0])

    def test_raw_seminorm_log_divergence_s_half(self):
        # raw [Q]^2 over [-Rk, Rk]^2 grows like 2 c (z2-z1)^2 log R
        spec = homogeneous_spec()
        g = Grid(R=200.0, n=8001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        radii = [25.0, 50.0, 100.0, 200.0]
        vals = raw_seminorm_window_growth(Q, spec, radii)
        slope = log_growth_slope(radii, vals)
        theory = 2 * spec.kernel.c * TWO_PI ** 2
        assert slope / theory == pytest.approx(1.0, abs=0.2)

    def test_raw_seminorm_power_divergence_s_small(self):
        spec = homogeneous_spec(s=0.35)
        g = Grid(R=200.0, n=8001)
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        radii = [25.0, 50.0, 100.0, 200.0]
        vals = raw_seminorm_window_growth(Q, spec, radii)
        p = increment_growth_exponent(radii, vals)
        assert p == pytest.approx(1 - 2 * 0.35, abs=0.2 * (1 - 2 * 0.35) + 0.05)


class TestTotalEnergy:
    def test_reference_breakdown(self, setup):
        spec, grid, ref = setup
        bd = total_energy(ref, spec, 1.0, 1.0, ref)
        dref = np.diff(ref.values) / grid.h
        assert bd.viscous == pytest.approx(0.5 * float(np.sum(dref ** 2)) * grid.h)
        assert bd.penalty == 0.0
        assert bd.interaction == pytest.approx(0.0, abs=1e-12)
        assert bd.total == bd.viscous + bd.penalty + bd.potential + bd.interaction

    def test_constant_at_well(self, setup):
        spec, grid, _ = setup
        p = Profile.from_function(grid, lambda x: np.zeros_like(x))
        bd = total_energy(p, spec, 1.0, 0.0, p)
        assert bd.viscous == 0.0
        assert bd.potential == pytest.approx(0.0, abs=1e-12)

    def test_reference_competitor_bound(self, setup):
        # the zero deviation is admissible: J(0) <= 1/2 int |d ref|^2 + int a_up W(ref)
        spec, grid, ref = setup
        bd = total_energy(ref, spec, 1.0, 1.0, ref)
        from nlhet.model import potential_eval_grad
        W, _ = potential_eval_grad(spec.potential, ref.values)
        bound = (0.5 * float(np.sum((np.diff(ref.values) / grid.h) ** 2)) * grid.h
                 + spec.modulation.a_upper * trapz(W, grid.h))
        assert bd.total <= bound + 1e-9

    def test_floor_helper(self, setup):
        # the renormalized interaction may be negative but not below
        # -kappa/mu^2: E_R2 = -46.5 at mu = 0.05 implies kappa = 0.116, so a
        # cap of 0.05 flags it and the default cap does not
        spec, grid, ref = setup
        cfg = ObstacleConfig(b1=-4.0, b2=4.0)
        pair = barrier_pair(spec, cfg, grid, 1e-2)
        Q = run_stage(ref, spec, pair, 1e-2, 0.05).profile
        rep = verify_apriori_bounds(Q, spec, 1e-2, 0.05, ref=ref)
        e2 = rep["bounds"]["E_R2"]
        assert e2["value"] < 0 and e2["implied_kappa"] > 0.05
        assert "E_R2" not in rep["flagged"]
        low = verify_apriori_bounds(Q, spec, 1e-2, 0.05, ref=ref, kappa_cap=0.05)
        assert "E_R2" in low["flagged"]


class TestEnergyGradient:
    def test_matches_operator_identically(self, setup):
        spec, grid, ref = setup
        Q = Profile.from_function(grid, layer, 0.0, TWO_PI)
        stage = _Stage(_Core(spec, grid, ref), 0.3, 0.2, None)
        g1 = stage.gradient(Q.values)[1:-1]
        g2 = grid.h * operator_field(stage.ws, Q.values, Q.left_const,
                                     Q.right_const, spec, eta=0.3, mu=0.2,
                                     ref=ref.values)[1:-1]
        assert np.array_equal(g1, g2)

    def test_finite_difference_oracle(self, setup):
        spec, grid, ref = setup
        Q = Profile.from_function(grid, layer, 0.0, TWO_PI)
        eta, mu = 0.05, 0.02
        ws = workspace_for(spec.kernel, grid)
        grad = grid.h * operator_field(ws, Q.values, Q.left_const, Q.right_const,
                                       spec, eta=eta, mu=mu,
                                       ref=ref.values)[1:-1]
        rng = np.random.default_rng(42)
        eps = 1e-6
        for idx in rng.integers(1, grid.n - 1, 50):
            Qp, Qm = Q.copy(), Q.copy()
            Qp.values[idx] += eps
            Qm.values[idx] -= eps
            fd = (total_energy(Qp, spec, eta, mu, ref).total
                  - total_energy(Qm, spec, eta, mu, ref).total) / (2 * eps)
            gi = grad[idx - 1]
            assert abs(fd - gi) <= 1e-6 * (1 + abs(gi))

    def test_zero_at_well_equilibrium(self, setup):
        spec, grid, _ = setup
        p = Profile.from_function(grid, lambda x: np.zeros_like(x))
        ws = workspace_for(spec.kernel, grid)
        g = grid.h * operator_field(ws, p.values, p.left_const, p.right_const,
                                    spec, eta=0.5)[1:-1]
        assert np.abs(g).max() < 1e-12

    def test_interaction_gradient_is_operator_on_reference(self, setup):
        # d/dQ_i of the renormalized quarter-interaction at Q = ref equals
        # h * L ref, by analytic differentiation of the quadratic form
        spec, grid, ref = setup
        eps = 1e-6
        rng = np.random.default_rng(1)
        L_ref = operator_field(workspace_for(spec.kernel, grid), ref.values,
                               ref.left_const, ref.right_const)
        for idx in rng.integers(5, grid.n - 5, 10):
            Qp, Qm = ref.copy(), ref.copy()
            Qp.values[idx] += eps
            Qm.values[idx] -= eps
            fd = (renormalized_interaction(Qp, ref, spec)
                  - renormalized_interaction(Qm, ref, spec)) / (8 * eps)
            Lref = L_ref[idx]
            assert fd == pytest.approx(grid.h * Lref, abs=1e-6 * (1 + abs(Lref)))
