import logging
import math

import numpy as np
import pytest

from nlhet.discretize import Grid, Profile
from nlhet.energy import total_energy
from nlhet.model import KernelSpec, PotentialSpec, ProblemSpec
from nlhet.obstacles import ObstacleConfig, build_envelopes, solve_barrier
from nlhet import solver
from nlhet.solver import (ContinuationSchedule, NonFiniteEnergyError,
                          SolverConfig, SolverError, StagnationError, _Stage,
                          continuation_run, minimize_constrained, residual_EL,
                          truncate_to_wells, verify_apriori_bounds)

from conftest import (homogeneous_spec, layer, modulated_spec, reference_on)

TWO_PI = 2 * math.pi


class TestTruncateToWells:
    def test_clamps_above_and_below(self):
        g = Grid(R=5.0, n=11)
        pot = PotentialSpec(zeta1=0.0, zeta2=TWO_PI)
        p = Profile(g, np.array([TWO_PI + 0.3, -0.1] + [1.0] * 9), 0.0, TWO_PI)
        out = truncate_to_wells(p, pot)
        assert out.values[0] == TWO_PI
        assert out.values[1] == 0.0
        assert np.array_equal(out.values[2:], p.values[2:])

    def test_never_increases_energy(self):
        spec = homogeneous_spec()
        g = Grid(R=40.0, n=1601)
        ref = reference_on(spec, g)
        rng = np.random.default_rng(5)
        for _ in range(20):
            bump = rng.normal(0, 1.5, g.n)
            bump[np.abs(g.x) > 20] = 0.0
            Q = Profile(g, ref.values + bump, 0.0, TWO_PI)
            Qc = truncate_to_wells(Q, spec.potential)
            e0 = total_energy(Q, spec, 0.3, 0.2, ref).total
            e1 = total_energy(Qc, spec, 0.3, 0.2, ref).total
            assert e1 <= e0 + 1e-10


@pytest.fixture(scope="module")
def small_setup():
    spec = homogeneous_spec()
    grid = Grid(R=60.0, n=2401)
    cfg = ObstacleConfig(b1=-4.0, b2=4.0)
    return spec, grid, cfg


def _pair_at(spec, cfg, grid, eta):
    phi = solve_barrier(spec, cfg, grid, eta, +1)
    psi = solve_barrier(spec, cfg, grid, eta, -1)
    return build_envelopes(phi, psi, cfg, eta)


class TestMinimizeConstrained:
    def test_converges_with_monotone_trace(self, small_setup):
        spec, grid, cfg = small_setup
        pair = _pair_at(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        res = minimize_constrained(ref, spec, pair, cfg, 1e-2, 0.05)
        totals = [row[5] for row in res.trace]
        assert all(b < a for a, b in zip(totals, totals[1:]))
        assert res.stationarity <= SolverConfig().resolve_grad_tol(grid.n)

    def test_exact_layer_is_near_stationary(self, small_setup):
        # at eta = mu = 0 the explicit layer is already stationary at the
        # quadrature scale: with grad_tol at that scale it stops in <= 5 steps
        spec, grid, cfg = small_setup
        Q0 = Profile.from_function(grid, layer, 0.0, TWO_PI)
        probe = minimize_constrained(Q0, spec, None, None, 0.0, 0.0,
                                     SolverConfig(max_iters=1))
        g0 = probe.trace[0][-1]
        res = minimize_constrained(Q0, spec, None, None, 0.0, 0.0,
                                   SolverConfig(grad_tol=1.05 * g0))
        assert res.iterations <= 5

    def test_contact_free_with_defaults(self, small_setup):
        spec, grid, cfg = small_setup
        pair = _pair_at(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        res = minimize_constrained(ref, spec, pair, cfg, 1e-2, 0.05)
        assert res.contact == []

    def test_sigma_membership_without_interior_clamping(self, small_setup):
        # the constrained minimizer also lies inside [Psi, Phi] strictly
        # between b1 and b2 even though only the exterior is clamped
        spec, grid, cfg = small_setup
        pair = _pair_at(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        res = minimize_constrained(ref, spec, pair, cfg, 1e-2, 0.05)
        x = grid.x
        mid = (x > cfg.b1) & (x < cfg.b2)
        q = res.profile.values
        assert np.all(q[mid] <= pair.Phi.values[mid] + 1e-9)
        assert np.all(q[mid] >= pair.Psi.values[mid] - 1e-9)

    def test_stagnation_error_with_one_backtrack(self, small_setup):
        # one backtrack per iteration cannot absorb the step doubling, so
        # Armijo runs out of admissible steps a few iterations in
        spec, grid, cfg = small_setup
        ref = reference_on(spec, grid)
        with pytest.raises(StagnationError):
            minimize_constrained(ref, spec, None, None, 1e-2, 0.05,
                                 SolverConfig(max_backtracks=1))

    def test_non_finite_potential_raises_at_first_bad_trial(self, small_setup,
                                                             monkeypatch):
        # a NaN potential must stop the descent with the term named, not
        # burn every backtrack and report a missing descent step
        spec, grid, cfg = small_setup
        ref = reference_on(spec, grid)
        real = solver.potential_eval_grad
        calls = []

        def poisoned(pot, u):
            calls.append(1)
            W, Wp = real(pot, u)
            return (np.full_like(W, np.nan) if len(calls) >= 3 else W), Wp

        monkeypatch.setattr(solver, "potential_eval_grad", poisoned)
        with pytest.raises(NonFiniteEnergyError, match="potential") as err:
            minimize_constrained(ref, spec, None, None, 1e-2, 0.05)
        assert isinstance(err.value, SolverError)
        assert err.value.term == "potential"
        assert len(calls) == 3

    def test_discrete_complementarity_at_forced_contact(self, small_setup):
        # a tight barrier offset forces tail contact: there the raw gradient
        # points out of the band (upper contact wants to rise), while free
        # nodes keep the Euler-Lagrange residual at the stationarity scale
        spec, grid, cfg = small_setup
        tight = ObstacleConfig(b1=-4.0, b2=4.0, r=0.1)
        pair = _pair_at(spec, tight, grid, 1e-2)
        ref = reference_on(spec, grid)
        res = minimize_constrained(ref, spec, pair, tight, 1e-2, 0.05)
        assert res.contact, "tight corridor should produce contact"
        from nlhet.energy import energy_gradient
        g = np.zeros(grid.n)
        g[1:-1] = energy_gradient(res.profile, spec, 1e-2, 0.05, ref)
        gtol = SolverConfig().resolve_grad_tol(grid.n)
        q = res.profile.values
        upper = {i for i, _, w in res.contact if w == "upper"}
        lower = {i for i, _, w in res.contact if w == "lower"}
        for i in upper:
            assert g[i] <= gtol  # descent direction points past the obstacle
        for i in lower:
            assert g[i] >= -gtol
        x = grid.x
        region = (x <= tight.b1) | (x >= tight.b2)
        free = region & (np.abs(q - pair.Phi.values) > 1e-9) \
            & (np.abs(q - pair.Psi.values) > 1e-9)
        free[0] = free[-1] = False
        assert np.abs(g[free]).max() <= gtol


class TestFusedEvaluation:
    def test_evaluate_matches_separate_energy_and_gradient(self):
        spec = modulated_spec()
        grid = Grid(R=60.0, n=2401)
        ref = reference_on(spec, grid)
        bump = np.exp(-grid.x ** 2 / 8.0) * np.sin(grid.x)
        q = np.clip(ref.values + bump, 0.0, TWO_PI)
        stage = _Stage(spec, grid, ref, 1e-2, 0.05, None, None, None)
        pieces, g = stage.evaluate(q)
        assert pieces == stage.energy_pieces(q)
        g_ref = stage.gradient(q)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
        assert g[0] == g[-1] == 0.0
        bd = total_energy(Profile(grid, q, ref.left_const, ref.right_const),
                          spec, 1e-2, 0.05, ref)
        assert sum(pieces) == pytest.approx(bd.total, rel=1e-9)


class TestSchedule:
    def test_strictly_decreasing_enforced(self):
        with pytest.raises(ValueError):
            ContinuationSchedule(eta_seq=(0.1, 0.1, 0.0))
        with pytest.raises(ValueError):
            ContinuationSchedule(mu_seq=(0.1, 0.2, 0.0))

    def test_zero_must_be_last(self):
        with pytest.raises(ValueError):
            ContinuationSchedule(eta_seq=(0.1, 0.0, 0.01))

    def test_trailing_zero_added_for_etas(self):
        s = ContinuationSchedule(eta_seq=(0.1, 0.01), mu_seq=(0.1, 0.0))
        assert s.etas() == (0.1, 0.01, 0.0)
        assert s.mus_positive() == (0.1,)
        assert s.final_polish()

    def test_mu_guard_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="nlhet"):
            ContinuationSchedule(mu_seq=(0.9, 0.1, 0.0))
        assert any("guard" in r.message for r in caplog.records)


@pytest.fixture(scope="module")
def small_run():
    spec = modulated_spec()
    grid = Grid(R=120.0, n=4801)
    cfg = ObstacleConfig(b1=spec.modulation.m1, b2=spec.modulation.m2)
    sched = ContinuationSchedule(eta_seq=(1e-1, 1e-2, 0.0),
                                 mu_seq=(1e-1, 2e-2, 0.0))
    res = continuation_run(spec, grid, cfg, sched, SolverConfig())
    return spec, grid, cfg, sched, res


class TestBarrierCache:
    def test_each_barrier_solved_once(self, monkeypatch):
        # the barrier problem does not involve mu, so one (eta, sign) solve
        # serves every mu stage
        spec = homogeneous_spec()
        grid = Grid(R=40.0, n=401)
        cfg = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
        sched = ContinuationSchedule(eta_seq=(1e-1, 1e-2, 0.0),
                                     mu_seq=(1e-1, 2e-2, 0.0))
        real = solver.solve_barrier
        keys = []

        def counting(spec, cfg, grid, eta, sign, tail=None):
            keys.append((eta, sign))
            return real(spec, cfg, grid, eta, sign, tail)

        monkeypatch.setattr(solver, "solve_barrier", counting)
        res = continuation_run(spec, grid, cfg, sched, SolverConfig())
        assert sorted(keys) == sorted((eta, sign) for eta in sched.etas()
                                      for sign in (+1, -1))
        assert len(res.stages) == 7
        assert res.pair.eta == 0.0


class TestContinuation:
    def test_certified_result(self, small_run):
        spec, grid, cfg, sched, res = small_run
        assert res.limit_check["pass"]
        assert res.contact == []
        assert res.residual_max < 1e-2
        q = res.profile.values
        assert np.all(q >= 0.0 - 1e-12) and np.all(q <= TWO_PI + 1e-12)

    def test_stage_energies_decrease_within_each_stage(self, small_run):
        spec, grid, cfg, sched, res = small_run
        totals = [row[5] for row in res.trace]
        # the trace partitions by the per-stage iteration counts
        bounds = np.cumsum([s.iterations for s in res.stages])
        start = 0
        for end in bounds:
            seg = totals[start:end]
            assert all(b < a + 1e-12 for a, b in zip(seg, seg[1:]))
            start = end

    def test_orientation_invariance(self, small_run):
        spec, grid, cfg, sched, res = small_run
        pot = spec.potential
        rpot = PotentialSpec(zeta1=-pot.zeta1, zeta2=-pot.zeta2,
                             form=pot.form, amplitude=pot.amplitude,
                             delta0=pot.delta0, c0=pot.c0,
                             C0_growth=pot.C0_growth)
        rspec = ProblemSpec(spec.kernel, rpot, spec.modulation)
        rres = continuation_run(rspec, grid, cfg, sched, SolverConfig())
        assert rres.flipped
        assert np.max(np.abs(rres.profile.values - (-res.profile.values))) <= 1e-10

    def test_window_guard(self):
        spec = modulated_spec()
        with pytest.raises(ValueError, match="window"):
            continuation_run(spec, Grid(R=40.0, n=1601),
                             ObstacleConfig(b1=-4 * math.pi, b2=4 * math.pi))

    def test_unverified_model_rejected(self):
        # constant modulation with a declared positive gamma fails structural
        # verification, which blocks the continuation
        from nlhet.model import ModulationSpec
        bad = ProblemSpec(KernelSpec(s=0.5),
                          PotentialSpec(zeta1=0.0, zeta2=TWO_PI),
                          ModulationSpec(form="constant", base=2.0, m1=-8.0,
                                         m2=8.0, omega=1.0, theta=2.0, gamma=0.1))
        with pytest.raises(ValueError, match="verification"):
            continuation_run(bad, Grid(R=60.0, n=2401),
                             ObstacleConfig(b1=-8.0, b2=8.0))


class TestTranslationAndBounds:
    def test_translation_invariance_homogeneous(self):
        # at mu = 0 with constant a the energy is translation invariant up to
        # quadrature and window effects
        spec = homogeneous_spec()
        g = Grid(R=120.0, n=4801)
        ref = reference_on(spec, g)
        theta = 2.0
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        Qs = Profile.from_function(g, lambda x: layer(x, theta), 0.0, TWO_PI)
        e0 = total_energy(Q, spec, 0.0, 0.0, ref).total
        e1 = total_energy(Qs, spec, 0.0, 0.0, ref).total
        assert abs(e1 - e0) <= 2e-2 * (1 + abs(e0))

    def test_modulated_shift_changes_potential_energy(self):
        spec = modulated_spec()
        g = Grid(R=120.0, n=4801)
        ref = reference_on(spec, g)
        theta = spec.modulation.theta
        Q = Profile.from_function(g, layer, 0.0, TWO_PI)
        Qs = Profile.from_function(g, lambda x: layer(x, theta), 0.0, TWO_PI)
        p0 = total_energy(Q, spec, 0.0, 0.0, ref).potential
        p1 = total_energy(Qs, spec, 0.0, 0.0, ref).potential
        assert abs(p1 - p0) > 1e-3  # reported margin; the modulation pins phase

    def test_apriori_bounds_report(self):
        spec = homogeneous_spec()
        grid = Grid(R=60.0, n=2401)
        cfg = ObstacleConfig(b1=-4.0, b2=4.0)
        pair = _pair_at(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        res = minimize_constrained(ref, spec, pair, cfg, 1e-2, 0.05)
        rep = verify_apriori_bounds(res, spec, 1e-2, 0.05, ref=ref)
        assert rep["well_sandwich"]
        assert rep["flagged"] == []
        assert rep["bounds"]["v_inf"]["value"] <= TWO_PI + math.pi

    def test_interaction_floor_stable_across_mu_schedule(self):
        # the renormalized interaction stays bounded below along a penalty
        # sweep (never degrading toward the -kappa/mu^2 floor): the measured
        # values vary by less than one order of magnitude
        spec = homogeneous_spec()
        grid = Grid(R=60.0, n=2401)
        cfg = ObstacleConfig(b1=-4.0, b2=4.0)
        pair = _pair_at(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        Q = ref
        e_values = []
        for mu in (0.1, 0.02, 0.005):
            res = minimize_constrained(Q, spec, pair, cfg, 1e-2, mu, ref=ref)
            Q = res.profile
            rep = verify_apriori_bounds(res, spec, 1e-2, mu, ref=ref)
            assert rep["flagged"] == []
            e_values.append(abs(rep["bounds"]["E_R2"]["value"]))
        assert max(e_values) / min(e_values) <= 10.0


class TestResidualEL:
    def test_layer_residual(self):
        spec = homogeneous_spec()
        g = Grid(R=400.0, n=40001)
        Q = Profile.from_function(g, layer)
        rmax, field = residual_EL(Q, spec)
        assert rmax <= 5e-3
        assert field.size == g.n - 4

    def test_equilibrium_residual_zero(self):
        spec = homogeneous_spec()
        g = Grid(R=60.0, n=2401)
        Q = Profile.from_function(g, lambda x: np.full_like(x, TWO_PI))
        rmax, _ = residual_EL(Q, spec)
        assert rmax < 1e-10

    def test_reference_is_not_a_solution(self):
        spec = homogeneous_spec()
        g = Grid(R=60.0, n=2401)
        ref = reference_on(spec, g)
        rmax, _ = residual_EL(ref, spec)
        assert rmax > 1e-2
