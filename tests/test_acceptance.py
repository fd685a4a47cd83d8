"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with  pytest -s tests/test_acceptance.py  to see the per-criterion lines.
The heavyweight certified runs live in session fixtures (conftest) shared
with the other test modules.
"""

import math

import numpy as np

from nlhet.appendix_bench import (BUMP_L2_RATIO, TRACE_HHALF_RATIO,
                                  TRACE_L2_RATIO, BumpFamily, TraceExample,
                                  bump_hs_ratio, bump_norms, trace_norms)
from nlhet.diagnostics import (find_clean_intervals, fit_tail_decay,
                               lewy_stampacchia_check, stickiness_check)
from nlhet.discretize import Grid, Profile, operator_field, workspace_for
from nlhet.model import verify_model
from nlhet.obstacles import ObstacleConfig, barrier_pair
from nlhet.solver import ContinuationSchedule, SolverConfig, continuation_run

from conftest import layer, modulated_spec, reference_on, run_stage
from lemmas import log_growth_slope, raw_seminorm_window_growth
from oracles import brute_clean_intervals, renormalized_interaction, total_energy

TWO_PI = 2 * math.pi


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _best_shift_distance(Q: Profile) -> float:
    x = Q.x
    lo, hi = -5.0, 5.0
    for _ in range(60):
        c = 0.5 * (lo + hi)
        dl = float(np.abs(Q.values - layer(x, c - 1e-5)).max())
        dr = float(np.abs(Q.values - layer(x, c + 1e-5)).max())
        if dl < dr:
            hi = c
        else:
            lo = c
    c = 0.5 * (lo + hi)
    return float(np.abs(Q.values - layer(x, c)).max())


def test_criterion_1_explicit_layer_anchor(anchor_run):
    res = anchor_run["result"]
    dist = _best_shift_distance(res.profile)
    ok = (dist <= 0.05 and res.residual_max <= 1e-2
          and anchor_run["elapsed"] <= 300.0)
    _report(1, ok, f"layer distance {dist:.4f} (<=0.05), residual "
                   f"{res.residual_max:.2e} (<=1e-2), runtime "
                   f"{anchor_run['elapsed']:.0f}s (<=300s)")


def test_criterion_2_footnote_constants():
    worst = 0.0
    for eps in (0.25, 0.5, 1.0):
        for dfr in (0.25, 0.5, 1.0):
            spec = modulated_spec(eps, dfr)
            rep = {c.name: c for c in verify_model(spec, 4000)}
            nd = rep["modulation.nondegeneracy"]
            margin = float(nd.note.split()[-1])
            worst = max(worst, abs(margin - math.sqrt(2) * eps))
            assert nd.passed
    _report(2, worst <= 1e-6,
            f"worst margin error {worst:.2e} over 9 (eps, delta) pairs (<=1e-6)")


def test_criterion_3_renormalization_split(stickiness_run):
    # evaluated on the long-window certified solve: the window-doubling
    # drift of the renormalized interaction scales like 1/R, so the smallest
    # doubled window must comfortably dominate the transition region
    spec = stickiness_run["spec"]
    Q = stickiness_run["result"].profile
    radii = [62.5, 125.0, 250.0, 500.0]
    raw = raw_seminorm_window_growth(Q, spec, radii)
    slope = log_growth_slope(radii, raw)
    theory = 2.0 * spec.kernel.c * TWO_PI ** 2
    slope_ratio = slope / theory
    ref = reference_on(spec, Q.grid)
    e_windows = [renormalized_interaction(Q, ref, spec, (-rk, rk), (-rk, rk))
                 for rk in (125.0, 250.0, 500.0)]
    rels = [abs(b - a) / abs(a) for a, b in zip(e_windows, e_windows[1:])]
    ok = abs(slope_ratio - 1.0) <= 0.2 and max(rels) <= 0.02
    _report(3, ok, f"log-slope/theory {slope_ratio:.3f} (1 +- 0.2); "
                   f"renormalized doubling drift {max(rels):.4f} (<=0.02)")


def test_criterion_4_modulated_heteroclinic(modulated_run):
    res = modulated_run["result"]
    q = res.profile.values
    sandwich = bool(np.all(q >= -1e-12) and np.all(q <= TWO_PI + 1e-12))
    ok = (res.limit_check["left"]["pass"] and res.limit_check["right"]["pass"]
          and res.contact == [] and sandwich)
    _report(4, ok, f"limits pass={res.limit_check['pass']}, contact "
                   f"{len(res.contact)} (empty), sandwich {sandwich}")


def test_criterion_5_lewy_stampacchia(anchor_run):
    spec, grid = anchor_run["spec"], anchor_run["grid"]
    cfg = anchor_run["ocfg"]
    ref = reference_on(spec, grid)
    slack = 2 * SolverConfig().resolve_grad_tol(grid.n) / grid.h
    all_pass = True
    details = []
    for eta in (1e-1, 1e-2):
        pair = barrier_pair(spec, cfg, grid, eta)
        res = run_stage(ref, spec, pair, eta, 0.05)
        for I in ((cfg.b1, cfg.b2), (-10.0, 10.0), (cfg.b1 - 1.0, cfg.b1 + 1.0),
                  (0.0, 20.0)):
            rep = lewy_stampacchia_check(res.profile, pair, spec, I,
                                         mu=0.05, ref=ref, slack=slack)
            all_pass &= rep.passed
        details.append(f"eta={eta:g} ok")
        if eta == 1e-2:
            rng = np.random.default_rng(11)
            noise = 0.2 * rng.choice([-1, 1], grid.n) * rng.uniform(0.5, 1, grid.n)
            noise[np.abs(grid.x) > 3.0] = 0.0
            noisy = np.clip(res.profile.values + noise, pair.Psi.values,
                            pair.Phi.values)
            Qn = Profile(grid, noisy, res.profile.left_const,
                         res.profile.right_const)
            rep = lewy_stampacchia_check(Qn, pair, spec, (-2.0, 2.0),
                                         mu=0.05, ref=ref, slack=slack)
            all_pass &= not rep.passed
            details.append("noise witness fails")
    _report(5, all_pass, "; ".join(details))


def test_criterion_6_clean_interval_oracle_equivalence():
    rng = np.random.default_rng(2024)
    wells = (0.0, TWO_PI)
    mismatches = 0
    for trial in range(50):
        n = 4001 if trial < 5 else int(rng.choice([401, 801, 1501, 2001]))
        g = Grid(R=float(rng.uniform(20, 40)), n=n)
        vals = np.empty(n)
        pos = 0
        while pos < n:
            ln = int(rng.integers(15, 500))
            if rng.random() < 0.55:
                level = float(rng.choice(wells))
                seg = level + rng.uniform(-0.4, 0.4) * rng.random(min(ln, n - pos))
            else:
                seg = rng.uniform(-1.0, TWO_PI + 1.0, min(ln, n - pos))
            vals[pos:pos + seg.size] = seg
            pos += seg.size
        Q = Profile(g, vals, float(vals[0]), float(vals[-1]))
        rho = float(rng.uniform(0.02, 0.5))
        rep = find_clean_intervals(Q, rho, (-g.R, g.R), wells)
        got = sorted((iv.lo, iv.hi, iv.well, iv.sup_deviation)
                     for iv in rep.intervals)
        want = sorted(brute_clean_intervals(g.x, vals, rho, wells))
        if got != want:
            mismatches += 1
    _report(6, mismatches == 0,
            f"{50 - mismatches}/50 randomized profiles match exactly")


def test_criterion_7_stickiness(stickiness_run):
    spec = stickiness_run["spec"]
    res = stickiness_run["result"]
    Q = res.profile
    rho, tol = 0.01, 1e-2
    r = stickiness_run["ocfg"].resolve_r(spec)
    rep = find_clean_intervals(Q, rho, (-Q.grid.R, Q.grid.R), (0.0, TWO_PI))
    need = abs(math.log(rho))
    checked = 0
    worst_energy, worst_dev = 0.0, 0.0
    for iv in rep.intervals:
        c_lo = iv.lo + need / 2 + Q.grid.h
        c_hi = iv.hi - need / 2 - Q.grid.h
        if c_hi < c_lo + 4:
            continue
        candidates = [(c_lo, c_hi)]
        mid = 0.5 * (c_lo + c_hi)
        if c_hi - c_lo > 8:
            candidates += [(c_lo, mid), (mid, c_hi)]
        for x1, x2 in candidates:
            st = stickiness_check(Q, x1, x2, spec, 0.0, 0.0, tol,
                                  rho=rho, well=iv.well, r=r)
            checked += 1
            worst_energy = max(worst_energy, st.localized_energy)
            worst_dev = max(worst_dev, st.sup_deviation)
            assert st.passed, (x1, x2, st.localized_energy, st.sup_deviation)
    ok = checked >= 2
    _report(7, ok, f"{checked} same-well clean pairs: worst energy "
                   f"{worst_energy:.4f} (<= {tol}), worst deviation "
                   f"{worst_dev:.4f} (<= {r / 2})")


def test_criterion_8_gradient_and_monotonicity(anchor_run, modulated_run,
                                               stickiness_run, tail_runs):
    spec, grid = anchor_run["spec"], anchor_run["grid"]
    ref = reference_on(spec, grid)
    Q = anchor_run["result"].profile
    eta, mu = 0.01, 0.05
    ws = workspace_for(spec.kernel, grid)
    grad = grid.h * operator_field(ws, Q.values, Q.left_const, Q.right_const,
                                   spec, eta=eta, mu=mu, ref=ref.values)[1:-1]
    rng = np.random.default_rng(77)
    eps = 1e-6
    worst = 0.0
    for idx in rng.integers(1, grid.n - 1, 50):
        Qp, Qm = Q.copy(), Q.copy()
        Qp.values[idx] += eps
        Qm.values[idx] -= eps
        fd = (total_energy(Qp, spec, eta, mu, ref).total
              - total_energy(Qm, spec, eta, mu, ref).total) / (2 * eps)
        gi = grad[idx - 1]
        worst = max(worst, abs(fd - gi) / (1 + abs(gi)))
    mono_ok = True
    for run in (anchor_run, modulated_run, stickiness_run,
                *({"result": t["result"]} for t in tail_runs.values())):
        res = run["result"]
        totals = [row[5] for row in res.trace]
        start = 0
        for end in np.cumsum([s.iterations for s in res.stages]):
            seg = totals[start:end]
            mono_ok &= all(b < a + 1e-12 for a, b in zip(seg, seg[1:]))
            start = end
    ok = worst <= 1e-6 and mono_ok
    _report(8, ok, f"worst FD gradient error {worst:.2e} (<=1e-6); all "
                   f"acceptance traces strictly decreasing: {mono_ok}")


def test_criterion_9_tail_decay(tail_runs):
    details = []
    ok = True
    for s, run in tail_runs.items():
        Q = run["result"].profile
        for side in ("left", "right"):
            fit = fit_tail_decay(Q, side)
            rel = abs(fit.fitted_exponent - (-2 * s)) / (2 * s)
            ok &= rel <= 0.15
            details.append(f"s={s}: {side} {fit.fitted_exponent:.3f}")
    _report(9, ok, "; ".join(details) + " (targets -2s +-15%)")


def test_criterion_10_appendix_scalings():
    ok = True
    details = []
    for s in (0.3, 0.4):
        ratios = {}
        for res in (2001, 4001):
            fam = BumpFamily(s=s, resolution=res)
            prev = bump_norms(fam, 0)
            rl2, rhs = [], []
            for k in range(1, 7):
                cur = bump_norms(fam, k)
                rl2.append(cur[0] / prev[0])
                rhs.append(cur[1] / prev[1])
                prev = cur
            ratios[res] = (np.mean(rl2), np.mean(rhs))
            ok &= max(abs(r / BUMP_L2_RATIO - 1) for r in rl2) <= 0.03
            ok &= max(abs(r / bump_hs_ratio(s) - 1) for r in rhs) <= 0.03
        stab = max(abs(ratios[4001][i] / ratios[2001][i] - 1) for i in (0, 1))
        ok &= stab <= 0.01
        details.append(f"bump s={s} stab {stab:.2e}")
    tr = {}
    for ppd in (48, 96):
        tex = TraceExample(points_per_decade=ppd)
        prev = trace_norms(tex, 1)
        rl2, rhh = [], []
        for k in (2, 3):
            cur = trace_norms(tex, k)
            rl2.append(cur[0] / prev[0])
            rhh.append(cur[1] / prev[1])
            prev = cur
        ok &= max(abs(r / TRACE_L2_RATIO - 1) for r in rl2) <= 0.05
        ok &= max(abs(r / TRACE_HHALF_RATIO - 1) for r in rhh) <= 0.05
        tr[ppd] = (np.mean(rl2), np.mean(rhh))
    stab = max(abs(tr[96][i] / tr[48][i] - 1) for i in (0, 1))
    ok &= stab <= 0.01
    details.append(f"trace stab {stab:.2e}")
    _report(10, ok, "; ".join(details) + " (3%/5% ratio, 1% stability)")


def test_criterion_11_continuation_stability():
    spec = modulated_spec()
    grid = Grid(R=120.0, n=4801)
    m = spec.modulation
    cfg = ObstacleConfig(b1=m.m1, b2=m.m2)
    mu_seq = (1e-1, 2e-2, 0.0)
    run_a = continuation_run(spec, grid, cfg,
                             ContinuationSchedule((1e-1, 1e-2, 1e-3, 0.0), mu_seq),
                             SolverConfig())
    run_b = continuation_run(spec, grid, cfg,
                             ContinuationSchedule((1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 0.0),
                                                  mu_seq),
                             SolverConfig())
    dist = float(np.abs(run_a.profile.values - run_b.profile.values).max())
    bound = 2 * SolverConfig().resolve_grad_tol(grid.n) / grid.h
    _report(11, dist <= bound,
            f"L-inf distance {dist:.2e} between sub-schedules (<= {bound:.2e})")
