import logging
import math

import numpy as np
import pytest

from nlhet.discretize import (Grid, Profile, Workspace, operator_field,
                              workspace_for)
from nlhet.model import KernelSpec, PotentialSpec, ProblemSpec
from nlhet import obstacles, solver
from nlhet.obstacles import ObstacleConfig, barrier_pair
from nlhet.solver import (ContinuationSchedule, NonConvergenceError,
                          NonFiniteEnergyError, SolverConfig, SolverError,
                          StagnationError, _Core, _Stage, continuation_run)

from conftest import (homogeneous_spec, layer, modulated_spec, reference_on,
                      run_stage)
from lemmas import truncate_to_wells, verify_apriori_bounds
from oracles import dense_compressed_circulant_inverse, total_energy

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


def _plateau_start(grid):
    """A plateau on the potential maximum pi between tanh flanks at +-10."""
    x = grid.x
    return np.clip(math.pi + 0.01 * np.sin(x / 5.0)
                   + math.pi / 2 * (np.tanh(x - 10.0) + np.tanh(x + 10.0)),
                   0.0, TWO_PI)


@pytest.fixture(scope="module")
def small_setup():
    spec = homogeneous_spec()
    grid = Grid(R=60.0, n=2401)
    cfg = ObstacleConfig(b1=-4.0, b2=4.0)
    return spec, grid, cfg


class TestMinimizeConstrained:
    def test_converges_with_monotone_trace(self, small_setup):
        spec, grid, cfg = small_setup
        pair = barrier_pair(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        res = run_stage(ref, spec, pair, 1e-2, 0.05)
        totals = [row[5] for row in res.trace]
        assert all(b < a for a, b in zip(totals, totals[1:]))
        assert res.record.stationarity <= SolverConfig().resolve_grad_tol(grid.n)

    def test_exact_layer_is_near_stationary(self, small_setup):
        # at eta = mu = 0 the explicit layer is already stationary at the
        # quadrature scale: with grad_tol at that scale it stops in <= 5 steps
        spec, grid, cfg = small_setup
        Q0 = Profile.from_function(grid, layer, 0.0, TWO_PI)
        probe = run_stage(Q0, spec, None, 0.0, 0.0, SolverConfig(max_iters=1))
        g0 = probe.trace[0][-1]
        res = run_stage(Q0, spec, None, 0.0, 0.0,
                        SolverConfig(grad_tol=1.05 * g0))
        assert res.record.iterations <= 5

    def test_contact_free_with_defaults(self, small_setup):
        spec, grid, cfg = small_setup
        pair = barrier_pair(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        res = run_stage(ref, spec, pair, 1e-2, 0.05)
        assert res.contact == []

    def test_sigma_membership_without_interior_clamping(self, small_setup):
        # the constrained minimizer also lies inside [Psi, Phi] strictly
        # between b1 and b2 even though only the exterior is clamped
        spec, grid, cfg = small_setup
        pair = barrier_pair(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        res = run_stage(ref, spec, pair, 1e-2, 0.05)
        x = grid.x
        mid = (x > cfg.b1) & (x < cfg.b2)
        q = res.profile.values
        assert np.all(q[mid] <= pair.Phi.values[mid] + 1e-9)
        assert np.all(q[mid] >= pair.Psi.values[mid] - 1e-9)

    def test_stagnation_error_with_one_backtrack(self, small_setup,
                                                 monkeypatch):
        # from the plateau start of the nonconvex test the first Newton
        # steps are accepted at the unit step, but a later one overshoots
        # (at iteration 3 the energy rises from 1.57 to 4.24); one trial per iteration cannot absorb that, so
        # Armijo runs out of admissible steps after accepted ones
        spec, grid, cfg = small_setup
        monkeypatch.setattr(solver, "MAX_BACKTRACKS", 1)
        with pytest.raises(StagnationError) as err:
            run_stage(Profile(grid, _plateau_start(grid), 0.0, TWO_PI),
                      spec, None, 0.0, 0.0)
        assert err.value.iteration > 1

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
            run_stage(ref, spec, None, 1e-2, 0.05)
        assert isinstance(err.value, SolverError)
        assert err.value.term == "potential"
        assert len(calls) == 3

    def test_discrete_complementarity_at_forced_contact(self, small_setup):
        # a tight barrier offset forces tail contact: there the raw gradient
        # points out of the band (upper contact wants to rise), while free
        # nodes keep the Euler-Lagrange residual at the stationarity scale
        spec, grid, cfg = small_setup
        tight = ObstacleConfig(b1=-4.0, b2=4.0, r=0.1)
        pair = barrier_pair(spec, tight, grid, 1e-2)
        ref = reference_on(spec, grid)
        res = run_stage(ref, spec, pair, 1e-2, 0.05)
        assert res.contact, "tight corridor should produce contact"
        Q = res.profile
        g = grid.h * operator_field(workspace_for(spec.kernel, grid), Q.values,
                                    Q.left_const, Q.right_const, spec,
                                    eta=1e-2, mu=0.05, ref=ref.values)
        g[0] = g[-1] = 0.0
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


class TestStepRule:
    def test_tolerance_moves_the_path_not_the_answer(self, small_setup):
        # the stage minimizer at the default grad_tol lies within criterion
        # 11's 2 grad_tol / h of the same stage solved 100 times tighter
        spec, grid, cfg = small_setup
        pair = barrier_pair(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        gtol = SolverConfig().resolve_grad_tol(grid.n)
        loose = run_stage(ref, spec, pair, 1e-2, 0.05)
        tight = run_stage(ref, spec, pair, 1e-2, 0.05,
                          SolverConfig(grad_tol=gtol / 100))
        assert tight.record.stationarity <= gtol / 100
        diff = np.abs(loose.profile.values - tight.profile.values).max()
        assert diff <= 2 * gtol / grid.h

    def test_nonconvex_start_falls_back_and_still_descends(self, small_setup,
                                                            monkeypatch):
        # a plateau on the potential maximum pi, where W'' = -1, with jumps
        # straight to the wells at |x| = 10: the first Newton step smooths
        # the jumps but leaves the plateau within 0.5 of pi, so from then on
        # the first CG step meets negative curvature and the direction falls
        # back to the first preconditioned residual.  From the smooth tanh
        # flanks of ``_plateau_start`` the first Newton step carries the
        # plateau 2.3 away from pi, out of the concave region, and no
        # fallback happens.  The preconditioned fallback takes 10 iterations
        # here (34 with raw -g).
        spec, grid, cfg = small_setup
        x = grid.x
        q = np.where(np.abs(x) < 10.0, math.pi + 0.01 * np.sin(x / 5.0),
                     np.where(x < 0.0, 0.0, TWO_PI))
        real_direction, real_trial = solver._newton_direction, _Stage.trial
        fallbacks, trials = [], []

        def direction(stage, q, g, free, forcing):
            # the fallback is taken when CG's first step meets negative
            # curvature
            mask = free.astype(np.float64)
            z = stage.precondition(-g * mask) * mask
            fallbacks.append(float(z @ (stage.hessvec(stage.curvature(q), z) * mask))
                             <= 0.0)
            return real_direction(stage, q, g, free, forcing)

        def trial(self, q):
            trials.append(1)
            return real_trial(self, q)

        monkeypatch.setattr(solver, "_newton_direction", direction)
        monkeypatch.setattr(_Stage, "trial", trial)
        res = run_stage(Profile(grid, q, 0.0, TWO_PI), spec, None, 0.0, 0.0)
        assert sum(fallbacks) >= 1
        totals = [row[5] for row in res.trace]
        assert all(b < a for a, b in zip(totals, totals[1:]))
        assert res.record.stationarity <= SolverConfig().resolve_grad_tol(grid.n)
        assert res.record.trials == len(trials)
        assert res.record.iterations <= 15


class TestFusedEvaluation:
    def test_evaluate_matches_separate_energy_and_gradient(self):
        spec = modulated_spec()
        grid = Grid(R=60.0, n=2401)
        ref = reference_on(spec, grid)
        bump = np.exp(-grid.x ** 2 / 8.0) * np.sin(grid.x)
        q = np.clip(ref.values + bump, 0.0, TWO_PI)
        stage = _Stage(_Core(spec, grid, ref), 1e-2, 0.05, None)
        pieces, g = stage.evaluate(q)
        assert pieces == stage.trial(q)[0]
        g_ref = stage.gradient(q)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
        assert g[0] == g[-1] == 0.0
        bd = total_energy(Profile(grid, q, ref.left_const, ref.right_const),
                          spec, 1e-2, 0.05, ref)
        assert sum(pieces) == pytest.approx(bd.total, rel=1e-9)
        assert pieces[3] == pytest.approx(bd.interaction, rel=1e-9)


class TestNewtonCG:
    @pytest.mark.parametrize("form", ["cosine", "quartic"])
    def test_hessvec_matches_difference_of_gradient(self, form):
        base = homogeneous_spec()
        spec = ProblemSpec(base.kernel,
                           PotentialSpec(zeta1=0.0, zeta2=TWO_PI, form=form),
                           base.modulation)
        grid = Grid(R=60.0, n=2401)
        ref = reference_on(spec, grid)
        x = grid.x
        q = np.clip(ref.values + np.exp(-x ** 2 / 8.0) * np.sin(x), 0.0, TWO_PI)
        p = np.exp(-(x - 3.0) ** 2 / 20.0) * np.cos(x / 2.0)
        p[0] = p[-1] = 0.0
        stage = _Stage(_Core(spec, grid, ref), 0.05, 0.1, None)
        d = 1e-5
        fd = (stage.gradient(q + d * p) - stage.gradient(q - d * p)) / (2 * d)
        Hp = stage.hessvec(stage.curvature(q), p)
        err = np.max(np.abs(Hp[1:-1] - fd[1:-1]))
        assert err <= 1e-7 * np.max(np.abs(fd))

    def test_padded_preconditioner_matches_dense_oracle(self):
        # at n = 33 the circulant has the fast length M = 64; zero-padding
        # r and cutting the result back to n nodes applies E^T C_M^-1 E,
        # which is symmetric positive definite
        spec = modulated_spec()
        grid = Grid(R=4.0, n=33)
        core = _Core(spec, grid, reference_on(spec, grid))
        eta, mu = 0.05, 0.1
        stage = _Stage(core, eta, mu, None)
        P = np.column_stack([stage.precondition(e) for e in np.eye(grid.n)])
        ws, h = core.ws, grid.h
        dense = dense_compressed_circulant_inverse(
            ws.diag[16] + (core.c_wells + mu), ws.w, eta / h ** 2, 64, h,
            grid.n)
        assert np.max(np.abs(P - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert np.max(np.abs(P - P.T)) <= 1e-12 * np.max(np.abs(P))
        assert np.linalg.eigvalsh(0.5 * (P + P.T)).min() > 0.0

    @staticmethod
    def _check_preconditioner_cuts_cg_iterations(monkeypatch, grid):
        # the first stage (eta = mu = 0.1) of the anchor run: one Newton
        # system to a relative residual of 1e-6, with and without the Strang
        # circulant (5 against 95 CG iterations at n = 8001 and at 16001)
        spec = homogeneous_spec()
        cfg = ObstacleConfig(b1=-4.0, b2=4.0)
        ref = reference_on(spec, grid)
        stage = _Stage(_Core(spec, grid, ref), 0.1, 0.1,
                       barrier_pair(spec, cfg, grid, 0.1))
        q = stage.project(ref.values)
        _, g = stage.evaluate(q)
        free = np.ones(grid.n, bool)
        free[0] = free[-1] = False
        d_pre, k_pre = solver._newton_direction(stage, q, g, free, 1e-6)
        monkeypatch.setattr(stage, "precondition", lambda r: r)
        d_plain, k_plain = solver._newton_direction(stage, q, g, free, 1e-6)
        assert k_pre < k_plain
        assert k_pre <= 10
        c = stage.curvature(q)
        for d in (d_pre, d_plain):
            res = stage.hessvec(c, d)[1:-1] + g[1:-1]
            assert np.linalg.norm(res) <= 1e-6 * np.linalg.norm(g)

    def test_preconditioner_cuts_cg_iterations(self, monkeypatch):
        self._check_preconditioner_cuts_cg_iterations(monkeypatch,
                                                      Grid(R=200.0, n=8001))

    def test_preconditioner_cuts_cg_iterations_at_n16001(self, monkeypatch):
        # the window of the tail-decay runs: the circulant at length 16384
        self._check_preconditioner_cuts_cg_iterations(monkeypatch,
                                                      Grid(R=400.0, n=16001))


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
        # the barrier problem does not involve mu, so one solve per eta
        # (both signs at once) serves every mu stage
        spec = homogeneous_spec()
        grid = Grid(R=40.0, n=401)
        cfg = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
        sched = ContinuationSchedule(eta_seq=(1e-1, 1e-2, 0.0),
                                     mu_seq=(1e-1, 2e-2, 0.0))
        real = obstacles.solve_barrier
        keys = []
        solved = {}

        def counting(spec, cfg, grid, eta):
            keys.append(eta)
            solved[eta] = real(spec, cfg, grid, eta)
            return solved[eta]

        monkeypatch.setattr(obstacles, "solve_barrier", counting)
        res = continuation_run(spec, grid, cfg, sched, SolverConfig())
        assert sorted(keys) == sorted(sched.etas())
        assert len(res.stages) == 7
        assert res.pair.eta == 0.0
        # the barrier comparison after each constrained stage reads the
        # unscaled barriers that the pair kept from that one solve
        mid, phi_mid, psi_mid = res.pair.corridor
        phi, psi = solved[0.0]
        assert np.array_equal(phi_mid, phi.values[mid])
        assert np.array_equal(psi_mid, psi.values[mid])


class TestStageRunner:
    def test_continuation_stage_matches_single_stage(self):
        # a continuation runs each stage through the one stage runner: its
        # stage 0 equals a single constrained minimization from the same
        # start, against the same barrier pair, at the same (eta, mu)
        spec = homogeneous_spec()
        grid = Grid(R=40.0, n=401)
        cfg = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
        sched = ContinuationSchedule(eta_seq=(1e-1, 0.0), mu_seq=(1e-1,))
        seen = {}

        def capture(stages, trace, q):
            seen[len(stages) - 1] = q

        cont = continuation_run(spec, grid, cfg, sched, SolverConfig(),
                                stage_callback=capture)
        assert len(cont.stages) == 3  # both etas at mu = 0.1, then the polish
        ref = reference_on(spec, grid)
        single = run_stage(ref, spec, barrier_pair(spec, cfg, grid, 1e-1),
                           1e-1, 1e-1)
        assert np.array_equal(seen[0], single.profile.values)
        assert cont.stages[0] == single.record
        assert cont.trace[:len(single.trace)] == single.trace


class TestStageRecord:
    SPEC = homogeneous_spec()
    GRID = Grid(R=40.0, n=401)
    CFG = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
    SCHED = ContinuationSchedule(eta_seq=(1e-1, 1e-2, 0.0),
                                 mu_seq=(1e-1, 2e-2, 0.0))

    def test_stationarity_is_that_of_the_returned_q(self):
        # at max_iters = 3 every stage stops on max_iters, the polish below
        # its grad_tol (measured 5.6e-8 against 4.0e-6); each record reads
        # the projected-gradient norm of the q the stage hands on
        snaps = []
        continuation_run(self.SPEC, self.GRID, self.CFG, self.SCHED,
                         SolverConfig(max_iters=3),
                         stage_callback=lambda *snap: snaps.append(snap))
        assert len(snaps) == 7
        core = _Core(self.SPEC, self.GRID, reference_on(self.SPEC, self.GRID))
        for stages, trace, q in snaps:
            rec = stages[-1]
            assert rec.iterations == 3
            pair = (barrier_pair(self.SPEC, self.CFG, self.GRID, rec.eta)
                    if rec.mu > 0 else None)
            stage = _Stage(core, rec.eta, rec.mu, pair)
            _, g = stage.evaluate(q)
            assert rec.stationarity == float(
                np.linalg.norm(q - stage.project(q - g)))

    def test_polish_on_max_iters_above_tol_raises(self):
        # at max_iters = 1 the polish ends at stationarity 1.7e-3 against a
        # grad_tol of 4.0e-6; it is neither reported nor returned
        snaps = []
        with pytest.raises(NonConvergenceError, match="polish"):
            continuation_run(self.SPEC, self.GRID, self.CFG, self.SCHED,
                             SolverConfig(max_iters=1),
                             stage_callback=lambda *snap: snaps.append(snap))
        assert [len(stages) for stages, _, _ in snaps] == list(range(1, 7))


class TestResume:
    def test_resume_from_every_stage_equals_fresh_run(self):
        # a falling profile (zeta1 > zeta2), solved as given
        base = homogeneous_spec()
        spec = ProblemSpec(base.kernel, PotentialSpec(zeta1=TWO_PI, zeta2=0.0),
                           base.modulation)
        grid = Grid(R=40.0, n=401)
        cfg = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
        sched = ContinuationSchedule(eta_seq=(1e-1, 1e-2, 0.0),
                                     mu_seq=(1e-1, 2e-2, 0.0))
        snaps = []
        fresh = continuation_run(spec, grid, cfg, sched, SolverConfig(),
                                 stage_callback=lambda *snap: snaps.append(snap))
        assert len(snaps) == 7
        assert fresh.monotone and fresh.profile.values[0] > fresh.profile.values[-1]
        for k, (stages, trace, q) in enumerate(snaps):
            # what a callback received did not change after it returned
            assert stages == fresh.stages[:k + 1]
            assert trace == fresh.trace[:len(trace)]
            assert len(trace) == sum(s.iterations for s in stages)
            res = continuation_run(spec, grid, cfg, sched, SolverConfig(),
                                   resume=(stages, trace, q))
            assert np.array_equal(res.profile.values, fresh.profile.values)
            assert res.trace == fresh.trace
            assert res.stages == fresh.stages
            assert res.contact == fresh.contact
            assert res.residual_max == fresh.residual_max
        assert np.array_equal(snaps[-1][2], fresh.profile.values)


class TestFinalEvaluation:
    def test_resume_past_all_stages_convolves_twice(self, monkeypatch):
        # after the last stage, conv(ref) of the core and one (0, 0)
        # evaluation give the energy breakdown and the residual together
        spec = homogeneous_spec()
        grid = Grid(R=40.0, n=401)
        cfg = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
        sched = ContinuationSchedule(eta_seq=(1e-1, 0.0), mu_seq=(1e-1, 0.0))
        fresh = continuation_run(spec, grid, cfg, sched, SolverConfig())
        pair = barrier_pair(spec, cfg, grid, 0.0)
        monkeypatch.setattr(solver, "barrier_pair", lambda *args: pair)
        calls = []
        conv = Workspace.conv
        monkeypatch.setattr(Workspace, "conv",
                            lambda ws, v: calls.append(1) or conv(ws, v))
        res = continuation_run(spec, grid, cfg, sched, SolverConfig(),
                               resume=(fresh.stages, fresh.trace,
                                       fresh.profile.values))
        assert len(calls) == 2
        assert res.residual_max == fresh.residual_max
        assert res.breakdown == fresh.breakdown

    def test_residual_matches_independent_check(self, small_run):
        # the stage gradient over h against the operator field itself:
        # measured 7e-15 apart
        spec, grid, cfg, sched, res = small_run
        Q = res.profile
        field = operator_field(workspace_for(spec.kernel, grid), Q.values,
                               Q.left_const, Q.right_const, spec)
        rmax = np.abs(field[2:-2]).max()
        assert res.residual_max == pytest.approx(rmax, rel=0, abs=1e-12)


class TestContinuation:
    def test_polish_implied_when_mu_seq_lacks_zero(self):
        # the trailing 0 of mu_seq is implied: the run ends with the
        # (0, 0) polish and equals the run that lists the 0
        spec = homogeneous_spec()
        grid = Grid(R=40.0, n=401)
        cfg = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
        runs = [continuation_run(spec, grid, cfg,
                                 ContinuationSchedule(eta_seq=(1e-1, 0.0),
                                                      mu_seq=mus), SolverConfig())
                for mus in ((1e-1, 2e-2), (1e-1, 2e-2, 0.0))]
        implied, listed = runs
        assert [(s.mu, s.eta) for s in implied.stages] == [
            (1e-1, 1e-1), (1e-1, 0.0), (2e-2, 1e-1), (2e-2, 0.0), (0.0, 0.0)]
        assert implied.stages == listed.stages
        assert np.array_equal(implied.profile.values, listed.profile.values)

    def test_certified_result(self, small_run):
        spec, grid, cfg, sched, res = small_run
        assert res.limit_check["pass"]
        assert res.contact == []
        assert res.residual_max < 1e-2
        q = res.profile.values
        assert np.all(q >= 0.0 - 1e-12) and np.all(q <= TWO_PI + 1e-12)

    def test_trials_per_iteration(self, small_run):
        # Newton steps are mostly accepted at the unit step
        spec, grid, cfg, sched, res = small_run
        assert all(s.trials >= s.iterations for s in res.stages)
        assert sum(s.trials for s in res.stages) \
            <= 1.5 * sum(s.iterations for s in res.stages)

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
        assert rres.monotone and rres.profile.values[0] > rres.profile.values[-1]
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
        pair = barrier_pair(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        res = run_stage(ref, spec, pair, 1e-2, 0.05)
        rep = verify_apriori_bounds(res.profile, spec, 1e-2, 0.05, ref=ref)
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
        pair = barrier_pair(spec, cfg, grid, 1e-2)
        ref = reference_on(spec, grid)
        Q = ref
        e_values = []
        for mu in (0.1, 0.02, 0.005):
            res = run_stage(Q, spec, pair, 1e-2, mu, ref=ref)
            Q = res.profile
            rep = verify_apriori_bounds(Q, spec, 1e-2, mu, ref=ref)
            assert rep["flagged"] == []
            e_values.append(abs(rep["bounds"]["E_R2"]["value"]))
        assert max(e_values) / min(e_values) <= 10.0


class TestResidualEL:
    def test_layer_residual(self):
        spec = homogeneous_spec()
        g = Grid(R=400.0, n=40001)
        Q = Profile.from_function(g, layer)
        field = operator_field(workspace_for(spec.kernel, g), Q.values,
                               Q.left_const, Q.right_const, spec)[2:-2]
        assert np.abs(field).max() <= 5e-3
        assert field.size == g.n - 4

    def test_equilibrium_residual_zero(self):
        spec = homogeneous_spec()
        g = Grid(R=60.0, n=2401)
        Q = Profile.from_function(g, lambda x: np.full_like(x, TWO_PI))
        field = operator_field(workspace_for(spec.kernel, g), Q.values,
                               Q.left_const, Q.right_const, spec)[2:-2]
        assert np.abs(field).max() < 1e-10

    def test_reference_is_not_a_solution(self):
        spec = homogeneous_spec()
        g = Grid(R=60.0, n=2401)
        ref = reference_on(spec, g)
        field = operator_field(workspace_for(spec.kernel, g), ref.values,
                               ref.left_const, ref.right_const, spec)[2:-2]
        assert np.abs(field).max() > 1e-2
