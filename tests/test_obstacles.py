import copy
import math
import tracemalloc

import numpy as np
import pytest

from nlhet import model, obstacles
from nlhet.discretize import Grid, workspace_for
from nlhet.model import KernelSpec, ModulationSpec, PotentialSpec, ProblemSpec
from nlhet.obstacles import (BarrierSolveError, EnvelopeClauseError,
                             ObstacleConfig, _band_cg, _verify_clauses,
                             barrier_pair, build_envelopes, solve_barrier)
from nlhet.solver import (ContinuationSchedule, SolverConfig, SolverError,
                          _Core, _Stage, continuation_run)

from conftest import homogeneous_spec, modulated_spec, reference_on
from lemmas import band_check
from oracles import dense_barrier

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def barrier_setup():
    spec = modulated_spec()
    grid = Grid(R=120.0, n=4801)
    cfg = ObstacleConfig(b1=-4 * math.pi, b2=4 * math.pi, tau=0.1)
    eta = 1e-2
    phi, psi = solve_barrier(spec, cfg, grid, eta)
    pair = build_envelopes(phi, psi, cfg, eta)
    return spec, grid, cfg, phi, psi, pair


class TestRhsConstant:
    def test_formula(self):
        spec = modulated_spec()
        # sup|a W'| = 2.5 * 1 for the cosine potential on {0, 2pi}
        expected = 2.5 * 1.0 + 0.0 + 2 * TWO_PI + 1.0
        assert spec.rhs_constant == pytest.approx(expected, rel=1e-6)

    def test_swept_once_per_spec(self, monkeypatch):
        # C0 depends on the model only: every barrier solve of a continuation
        # (one per viscosity) shares one 20001-sample sweep of W'
        spec = homogeneous_spec()
        real = model.potential_eval_grad
        sweeps = []

        def counting(pot, u):
            sweeps.append(np.size(u) == 20001)
            return real(pot, u)

        monkeypatch.setattr(model, "potential_eval_grad", counting)
        grid = Grid(R=40.0, n=401)
        sched = ContinuationSchedule(eta_seq=(1e-1, 1e-2, 0.0), mu_seq=(1e-1,))
        continuation_run(spec, grid, ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25),
                         sched, SolverConfig())
        assert sum(sweeps) == 1
        assert spec.rhs_constant == pytest.approx(
            1.0 + 2 * TWO_PI + 1.0, rel=1e-6)
        assert sum(sweeps) == 1


class TestSolveBarrier:
    def test_exterior_dirichlet_exact(self, barrier_setup):
        spec, grid, cfg, phi, psi, _ = barrier_setup
        r = cfg.resolve_r(spec)
        x = grid.x
        left = x <= cfg.b1 - cfg.tau
        right = x >= cfg.b2 + cfg.tau
        assert np.all(phi.values[left] == spec.potential.zeta1 + r)
        assert np.all(phi.values[right] == spec.potential.zeta2 + r)
        assert np.all(psi.values[left] == spec.potential.zeta1 - r)

    def test_upper_barrier_above_data_minimum(self, barrier_setup):
        spec, grid, cfg, phi, _, _ = barrier_setup
        r = cfg.resolve_r(spec)
        assert phi.values.min() >= spec.potential.zeta1 + r - 1e-9

    def test_reflection_symmetry_oracle(self):
        # symmetric data (wells {-pi, pi}, even modulation, b2 = -b1):
        # the lower barrier is the value-and-space reflection of the upper
        pot = PotentialSpec(zeta1=-math.pi, zeta2=math.pi)
        spec = ProblemSpec(KernelSpec(s=0.5), pot,
                           ModulationSpec(form="constant", base=1.0))
        grid = Grid(R=60.0, n=2401)
        cfg = ObstacleConfig(b1=-6.0, b2=6.0, tau=0.1)
        phi, psi = solve_barrier(spec, cfg, grid, 1e-2)
        reflected = -phi.values[::-1]
        assert np.max(np.abs(psi.values - reflected)) < 1e-9

    @staticmethod
    def _check_against_dense(spec, eta, sign):
        # independent oracle: a dense direct solve on the band rows of the
        # full n x n operator matrix
        grid = Grid(R=30.0, n=601)
        cfg = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
        ws = workspace_for(spec.kernel, grid)
        r = cfg.resolve_r(spec)
        x = grid.x
        band = (x > cfg.b1 - cfg.tau) & (x < cfg.b2 + cfg.tau)
        u = dense_barrier(ws, band, spec.potential.zeta1 + sign * r,
                          spec.potential.zeta2 + sign * r,
                          sign * spec.rhs_constant, eta)
        got = solve_barrier(spec, cfg, grid, eta)[0 if sign > 0 else 1]
        assert np.max(np.abs(got.values - u)) <= 1e-10 * np.max(np.abs(u))

    @pytest.mark.parametrize("eta", [0.0, 1e-2])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_dense_reference_assembly(self, eta, sign):
        self._check_against_dense(modulated_spec(), eta, sign)

    @pytest.mark.parametrize("eta", [0.0, 1e-2])
    @pytest.mark.parametrize("kernel", ["power_s0.3", "truncated_s0.3"])
    def test_matches_dense_reference_other_kernels(self, kernel, eta):
        if kernel == "power_s0.3":
            ker = KernelSpec(s=0.3)
        else:
            ker = KernelSpec(s=0.3, form="truncated_power")
        base = modulated_spec()
        spec = ProblemSpec(ker, base.potential, base.modulation)
        for sign in (+1, -1):
            self._check_against_dense(spec, eta, sign)

    def test_window_must_contain_band(self):
        spec = homogeneous_spec()
        with pytest.raises(ValueError):
            solve_barrier(spec, ObstacleConfig(b1=-50.0, b2=50.0), Grid(R=40.0, n=401),
                          0.0)

    def test_one_cg_per_pair(self, monkeypatch):
        calls = []

        def counting(matvec, precondition, B, tol, maxiter):
            calls.append(B.shape)
            return _band_cg(matvec, precondition, B, tol, maxiter)

        monkeypatch.setattr(obstacles, "_band_cg", counting)
        spec = homogeneous_spec()
        cfg = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
        barrier_pair(spec, cfg, Grid(R=40.0, n=401), 1e-2)
        assert len(calls) == 1 and calls[0][1] == 2

    def test_cg_cap_raises(self, monkeypatch):
        monkeypatch.setattr(obstacles, "_band_cg",
                            lambda mv, pc, B, tol, maxiter: _band_cg(mv, pc, B, tol, 1))
        spec = homogeneous_spec()
        with pytest.raises(BarrierSolveError,
                           match=r"cap of 1 iterations with residual \d"):
            solve_barrier(spec, ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25),
                          Grid(R=40.0, n=401), 0.0)

    @pytest.mark.parametrize("matvec", [lambda P: -P, lambda P: P * np.nan])
    def test_cg_breakdown_raises(self, matvec):
        B = np.ones((5, 2))
        with pytest.raises(BarrierSolveError, match=r"breakdown at iteration 1 "):
            _band_cg(matvec, lambda R: R, B, 1e-12, 5)

    @staticmethod
    def _solve_with_cg_returning(monkeypatch, value):
        monkeypatch.setattr(obstacles, "_band_cg",
                            lambda mv, pc, B, tol, maxiter: (np.full_like(B, value), 0))
        solve_barrier(homogeneous_spec(), ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25),
                      Grid(R=40.0, n=401), 0.0)

    def test_residual_gate_raises(self, monkeypatch):
        # a solve that returns zeros leaves the residual |B| >= C0
        with pytest.raises(BarrierSolveError, match=r"exceeds 1e-8\*C0"):
            self._solve_with_cg_returning(monkeypatch, 0.0)

    def test_residual_gate_rejects_nan(self, monkeypatch):
        with pytest.raises(BarrierSolveError, match=r"residual nan exceeds 1e-8\*C0"):
            self._solve_with_cg_returning(monkeypatch, np.nan)

    def test_large_band_stays_matrix_free(self):
        # a 2001-node band: its dense block alone would take 32 MB
        spec = homogeneous_spec()
        grid = Grid(R=200.0, n=8001)
        cfg = ObstacleConfig(b1=-50.0, b2=50.0)
        assert obstacles._band_indices(grid, cfg).size == 2001
        workspace_for(spec.kernel, grid)
        tracemalloc.start()
        try:
            solve_barrier(spec, cfg, grid, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestEnvelopes:
    def test_band_check_passes_after_calibration(self, barrier_setup):
        spec, grid, cfg, _, _, pair = barrier_setup
        dev, ok = band_check(pair.phi, cfg, pair.zeta1 + pair.r,
                             pair.zeta2 + pair.r, pair.r)
        assert ok and dev <= pair.r / 4
        dev, ok = band_check(pair.psi, cfg, pair.zeta1 - pair.r,
                             pair.zeta2 - pair.r, pair.r)
        assert ok

    def test_raw_barrier_band_needs_calibration(self, barrier_setup):
        # the unscaled solution bulges far beyond the r/4 band at this tau:
        # the recorded scale documents how much calibration was required
        spec, grid, cfg, phi, _, pair = barrier_setup
        dev, ok = band_check(phi, cfg, pair.zeta1 + pair.r,
                             pair.zeta2 + pair.r, pair.r)
        assert not ok
        assert pair.rhs_scale < 1.0

    def test_equality_outside_widened_band(self, barrier_setup):
        spec, grid, cfg, _, _, pair = barrier_setup
        x = grid.x
        outside = (x <= cfg.b1 - 2 * cfg.tau) | (x >= cfg.b2 + 2 * cfg.tau)
        assert np.max(np.abs(pair.Phi.values - pair.phi.values)[outside]) <= 1e-12
        assert np.max(np.abs(pair.Psi.values - pair.psi.values)[outside]) <= 1e-12

    def test_collar_sandwich(self, barrier_setup):
        spec, grid, cfg, _, _, pair = barrier_setup
        x = grid.x
        collar = (x > cfg.b1 - 2 * cfg.tau) & (x <= cfg.b1)
        z1, r = pair.zeta1, pair.r
        assert np.all(pair.Phi.values[collar] >= z1 + 0.75 * r - 1e-9)
        assert np.all(pair.Phi.values[collar] <= pair.phi.values[collar] + 1e-9)
        assert np.all(pair.Phi.values[collar] <= z1 + 1.25 * r + 1e-9)

    def test_interior_dominance_and_ordering(self, barrier_setup):
        spec, grid, cfg, _, _, pair = barrier_setup
        x = grid.x
        mid = (x > cfg.b1) & (x < cfg.b2)
        assert np.all(pair.Phi.values[mid] >= pair.phi.values[mid] - 1e-9)
        assert np.all(pair.Psi.values[mid] <= pair.psi.values[mid] + 1e-9)
        assert np.all(pair.Phi.values >= pair.Psi.values)
        # away from the junction ramps the lift clears the well sandwich
        rise = min(2.0, (cfg.b2 - cfg.b1) / 4.0)
        inner = (x >= cfg.b1 + rise) & (x <= cfg.b2 - rise)
        assert pair.Phi.values[inner].min() >= pair.zeta2 + 2 * pair.r - 1e-9
        assert pair.Psi.values[inner].max() <= pair.zeta1 - 2 * pair.r + 1e-9

    def test_degenerate_tau_rejected(self):
        spec = modulated_spec()
        grid = Grid(R=120.0, n=1201)  # h = 0.2
        cfg = ObstacleConfig(b1=-4 * math.pi, b2=4 * math.pi, tau=0.05)
        phi, psi = solve_barrier(spec, cfg, grid, 1e-2)
        with pytest.raises(EnvelopeClauseError, match="collar"):
            build_envelopes(phi, psi, cfg, 1e-2)

    @pytest.mark.parametrize("where", ["outside", "collar", "mid"])
    def test_clause_check_rejects_nan(self, barrier_setup, where):
        spec, grid, cfg, _, _, pair = barrier_setup
        x = grid.x
        node = {"outside": cfg.b2 + 1.0, "collar": cfg.b1 - cfg.tau,
                "mid": 0.0}[where]
        bad = copy.deepcopy(pair)
        bad.Phi.values[int(np.argmin(np.abs(x - node)))] = np.nan
        with pytest.raises(EnvelopeClauseError):
            _verify_clauses(bad)

    def test_faithful_reconstruction_roundtrip(self, barrier_setup):
        # the pair keeps the unscaled solve between b1 and b2, bit for bit
        spec, grid, cfg, phi, psi, pair = barrier_setup
        assert pair.rhs_scale < 1.0
        mid, phi_mid, psi_mid = copy.deepcopy(pair).corridor
        inside = (grid.x > cfg.b1) & (grid.x < cfg.b2)
        assert np.array_equal(np.arange(grid.n)[mid], np.flatnonzero(inside))
        assert np.array_equal(phi_mid, phi.values[inside])
        assert np.array_equal(psi_mid, psi.values[inside])

    def test_smoothstep_within_two_ulp_of_pow_form(self):
        # t >= 1e-100 keeps t^3 a normal number, where an ulp is relative
        t = np.concatenate([np.linspace(-0.5, 1.5, 200001),
                            np.random.default_rng(3).random(100000),
                            np.geomspace(1e-100, 1.0, 20001)])
        got = obstacles._smoothstep(t)
        tc = np.clip(t, 0.0, 1.0)
        want = ((6.0 * tc - 15.0) * tc + 10.0) * tc ** 3
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        assert got[0] == 0.0 and got[200000] == 1.0


class TestStageProjection:
    def test_clamps_shifted_reference(self, barrier_setup):
        # the solver's only clamp: the obstacle band on the constrained
        # region, intersected with the well sandwich everywhere
        spec, grid, cfg, _, _, pair = barrier_setup
        pot = spec.potential
        ref = reference_on(spec, grid)
        stage = _Stage(_Core(spec, grid, ref), 1e-2, 1e-1, pair)
        out = stage.project(ref.values + 10.0)
        x = grid.x
        left, right = x <= cfg.b1, x >= cfg.b2
        assert np.array_equal(out[left], pair.Phi.values[left])
        # right of b2 the envelope sits above the upper well (zeta2 + r)
        assert np.array_equal(out[right],
                              np.minimum(pair.Phi.values, pot.well_hi)[right])
        assert np.all(out[~(left | right)] == pot.well_hi)
        assert np.array_equal(stage.project(out), out)

    def test_conflicting_pair_rejected(self, barrier_setup):
        spec, grid, cfg, _, _, pair = barrier_setup
        bad = copy.deepcopy(pair)
        bad.Psi.values[:] = bad.Phi.values + 1.0
        with pytest.raises(SolverError, match="empty feasible box"):
            _Stage(_Core(spec, grid, reference_on(spec, grid)), 1e-2, 1e-1, bad)
