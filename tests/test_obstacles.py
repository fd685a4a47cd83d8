import math

import numpy as np
import pytest

from nlhet.discretize import Grid, Profile, workspace_for
from nlhet.model import KernelSpec, ModulationSpec, PotentialSpec, ProblemSpec
from nlhet.obstacles import (EnvelopeClauseError, ObstacleConfig, band_check,
                             build_envelopes, compute_rhs_constant,
                             faithful_barriers, project_admissible,
                             solve_barrier)

from conftest import homogeneous_spec, modulated_spec, reference_on

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def barrier_setup():
    spec = modulated_spec()
    grid = Grid(R=120.0, n=4801)
    cfg = ObstacleConfig(b1=-4 * math.pi, b2=4 * math.pi, tau=0.1)
    eta = 1e-2
    phi = solve_barrier(spec, cfg, grid, eta, +1)
    psi = solve_barrier(spec, cfg, grid, eta, -1)
    pair = build_envelopes(phi, psi, cfg, eta)
    return spec, grid, cfg, phi, psi, pair


class TestRhsConstant:
    def test_formula(self):
        spec = modulated_spec()
        # sup|a W'| = 2.5 * 1 for the cosine potential on {0, 2pi}
        expected = 2.5 * 1.0 + 0.0 + 2 * TWO_PI + 1.0
        assert compute_rhs_constant(spec) == pytest.approx(expected, rel=1e-6)


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
        phi = solve_barrier(spec, cfg, grid, 1e-2, +1)
        psi = solve_barrier(spec, cfg, grid, 1e-2, -1)
        reflected = -phi.values[::-1]
        assert np.max(np.abs(psi.values - reflected)) < 1e-9

    @pytest.mark.parametrize("eta", [0.0, 1e-2])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_dense_reference_assembly(self, eta, sign):
        # independent oracle: the full n x n operator matrix from the
        # kernel cell masses, restricted to the band rows, with the exterior
        # columns moved to the right-hand side
        spec = modulated_spec()
        grid = Grid(R=30.0, n=601)
        cfg = ObstacleConfig(b1=-4.0, b2=4.0, tau=0.25)
        ws = workspace_for(spec.kernel, grid)
        n, h, x = grid.n, grid.h, grid.x
        wfull = np.concatenate([ws.w[::-1], [0.0], ws.w])
        K = wfull[np.arange(n)[:, None] - np.arange(n)[None, :] + n - 1]
        M = np.diag(K.sum(axis=1) + ws.Wl + ws.Wr) - K
        M += eta / h ** 2 * (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
        r = cfg.resolve_r(spec)
        gl = spec.potential.zeta1 + sign * r
        gr = spec.potential.zeta2 + sign * r
        band = (x > cfg.b1 - cfg.tau) & (x < cfg.b2 + cfg.tau)
        u = np.where(x < 0, gl, gr)
        rhs = sign * compute_rhs_constant(spec) + ws.Wl * gl + ws.Wr * gr
        rhs = rhs[band] - M[np.ix_(band, ~band)] @ u[~band]
        u[band] = np.linalg.solve(M[np.ix_(band, band)], rhs)
        got = solve_barrier(spec, cfg, grid, eta, sign)
        assert np.max(np.abs(got.values - u)) <= 1e-10 * np.max(np.abs(u))

    def test_window_must_contain_band(self):
        spec = homogeneous_spec()
        with pytest.raises(ValueError):
            solve_barrier(spec, ObstacleConfig(b1=-50.0, b2=50.0), Grid(R=40.0, n=401),
                          0.0, +1)

    def test_bad_sign_rejected(self):
        spec = homogeneous_spec()
        with pytest.raises(ValueError):
            solve_barrier(spec, ObstacleConfig(b1=-4, b2=4), Grid(R=40.0, n=401),
                          0.0, 2)


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
        phi = solve_barrier(spec, cfg, grid, 1e-2, +1)
        psi = solve_barrier(spec, cfg, grid, 1e-2, -1)
        with pytest.raises(EnvelopeClauseError, match="collar"):
            build_envelopes(phi, psi, cfg, 1e-2)

    def test_faithful_reconstruction_roundtrip(self, barrier_setup):
        spec, grid, cfg, phi, psi, pair = barrier_setup
        phi_f, psi_f = faithful_barriers(pair)
        assert np.max(np.abs(phi_f.values - phi.values)) < 1e-8
        assert np.max(np.abs(psi_f.values - psi.values)) < 1e-8


class TestProjection:
    def test_idempotent_inside(self, barrier_setup):
        spec, grid, cfg, _, _, pair = barrier_setup
        ref = reference_on(spec, grid)
        out = project_admissible(ref, pair, cfg, "gamma_only")
        assert np.array_equal(out.values, ref.values)
        out2 = project_admissible(out, pair, cfg, "gamma_only")
        assert np.array_equal(out2.values, out.values)

    def test_clamps_offset_profile(self, barrier_setup):
        spec, grid, cfg, _, _, pair = barrier_setup
        ref = reference_on(spec, grid)
        shifted = Profile(grid, ref.values + 10.0, ref.left_const, ref.right_const)
        out = project_admissible(shifted, pair, cfg, "gamma_only")
        x = grid.x
        region = (x <= cfg.b1) | (x >= cfg.b2)
        assert np.all(out.values[region] == pair.Phi.values[region])
        assert np.all(out.values[~region] == shifted.values[~region])
        full = project_admissible(shifted, pair, cfg, "sigma_full")
        assert np.all(full.values <= pair.Phi.values)

    def test_far_fields_preserved(self, barrier_setup):
        spec, grid, cfg, _, _, pair = barrier_setup
        ref = reference_on(spec, grid)
        out = project_admissible(ref, pair, cfg, "sigma_full")
        assert out.left_const == ref.left_const
        assert out.right_const == ref.right_const

    def test_invalid_pair_rejected(self, barrier_setup):
        spec, grid, cfg, _, _, pair = barrier_setup
        import copy
        bad = copy.deepcopy(pair)
        bad.Psi.values[:] = bad.Phi.values + 1.0
        ref = reference_on(spec, grid)
        with pytest.raises(ValueError, match="lower envelope exceeds upper"):
            project_admissible(ref, bad, cfg, "sigma_full")

    def test_unknown_mode_rejected(self, barrier_setup):
        spec, grid, cfg, _, _, pair = barrier_setup
        ref = reference_on(spec, grid)
        with pytest.raises(ValueError):
            project_admissible(ref, pair, cfg, "everything")
