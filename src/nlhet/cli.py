"""Command-line entry point: verify-model, solve, diagnose, bench-appendix.

Exit codes: 0 pass, 1 check or convergence failure, 2 usage or precondition
error (config parse error, a checkpoint of another config, a diagnostics
value out of range, a non-finite profile value), 3 environment
error (I/O, a lock held by a live or foreign run).  Outputs are deterministic
for identical configs; the manifest is written last via atomic rename, and
``solve --resume`` continues from checkpoint.json to the same bytes as an
uninterrupted run.  nlhet starts no thread of its own: ``bench-appendix``
computes its members one after another, in input order.  Config digests and
model hashes are SHA-256, computed without loading OpenSSL.
"""

from __future__ import annotations

import argparse
import base64
import gc
import json
import math
import os
import sys
import warnings
from typing import Iterable, List, Optional

import numpy as np

from . import appendix_bench as ab
from . import diagnostics as dg
from .config import ConfigError, RunConfig, parse_config, sha256_hex
from .discretize import Grid, Profile, reference_profile
from .model import verify_model
from .obstacles import (BarrierSolveError, EnvelopeClauseError, ObstaclePair,
                        barrier_pair)
from .solver import (NonConvergenceError, SolverError, StageRecord,
                     continuation_run)

# the objects the imports made live as long as the process: keep them out
# of every collection and of the one at exit
gc.freeze()

EXIT_OK, EXIT_CHECK, EXIT_USAGE, EXIT_ENV = 0, 1, 2, 3
_FMT = "%.17g"


# --------------------------------------------------------------------------
# file helpers
# --------------------------------------------------------------------------


def _atomic_write(path: str, text: str, lines: Iterable[str] = ()) -> None:
    """``text`` and then ``lines`` to path.tmp, renamed over path."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.writelines(lines)
    os.replace(tmp, path)


def _write_rows(path: str, header: str, row_fmt: str, rows) -> None:
    """CSV with one ``row_fmt % row`` line per row (rows of Python numbers),
    streamed: the whole text is never held at once (about 1 MB at n = 8001)."""
    _atomic_write(path, header + "\n", (row_fmt % r + "\n" for r in rows))


def _columns(*cols):
    """Rows of Python floats, converted 1024 rows at a time: lists of whole
    columns raise the peak RSS of a solve at n = 8001 by about 1 MB."""
    cols = [np.asarray(c, float) for c in cols]
    for k in range(0, cols[0].size, 1024):
        yield from zip(*(c[k:k + 1024].tolist() for c in cols))


def write_profile_csv(path: str, Q: Profile, ref: Profile) -> None:
    _write_rows(path, "x,Q,Qsharp,v", ",".join([_FMT] * 4),
                _columns(Q.x, Q.values, ref.values, Q.values - ref.values))


def read_profile_csv(path: str):
    try:
        with open(path) as fh:
            names = [name.strip() for name in fh.readline().split(",")]
        cols = [names.index(name) for name in ("x", "Q", "Qsharp")]
        with warnings.catch_warnings():  # no rows: the size check below says so
            warnings.simplefilter("ignore", UserWarning)
            x, q, ref = np.loadtxt(path, delimiter=",", skiprows=1,
                                   usecols=cols, ndmin=2, unpack=True)
    except Exception as e:
        raise ValueError(f"profile CSV schema mismatch: {e}") from e
    if x.ndim != 1 or x.size < 3 or x.size % 2 == 0:
        raise ValueError("profile CSV must hold an odd number >= 3 of rows")
    if not (np.isfinite(x).all() and np.isfinite(q).all()
            and np.isfinite(ref).all()):
        raise ValueError("profile CSV holds a non-finite x, Q or Qsharp value")
    grid = Grid(R=float(abs(x[0])), n=x.size)
    # rtol=0: solve writes x with %.17g, which reads back exactly
    if not np.allclose(grid.x, x, rtol=0.0, atol=1e-9):
        raise ValueError("profile CSV nodes are not a symmetric uniform grid")
    lc, rc = float(ref[0]), float(ref[-1])
    return Profile(grid, q, lc, rc), Profile(grid, ref, lc, rc)


def write_obstacles_csv(path: str, pair: ObstaclePair) -> None:
    _write_rows(path, "x,phi,psi,Phi,Psi", ",".join([_FMT] * 5),
                _columns(pair.phi.x, pair.phi.values, pair.psi.values,
                         pair.Phi.values, pair.Psi.values))


def write_trace_csv(path: str, trace) -> None:
    _write_rows(path, "iter,viscous,penalty,potential,interaction,total,grad_norm",
                ",".join(["%d"] + [_FMT] * 6), trace)


def write_tail_csv(path: str, Q: Profile, side: str) -> None:
    """log |Q - far field| on the outer quarter of one side (-inf where zero)."""
    x, R = Q.x, Q.grid.R
    sel = (x >= R / 2) if side == "right" else (x <= -R / 2)
    const = Q.right_const if side == "right" else Q.left_const
    _write_rows(path, "x,log_abs_dev", ",".join([_FMT] * 2),
                ((xx, math.log(dd) if dd > 0 else -math.inf)
                 for xx, dd in _columns(x[sel], np.abs(Q.values[sel] - const))))


def _ratio_rows(ks, norms):
    """Rows (k, l2, hs, l2 ratio, hs ratio), each ratio against the row
    before; the first row's ratios are nan."""
    rows, prev = [], None
    for k, (l2, hs) in zip(ks, norms):
        rl, rh = (l2 / prev[0], hs / prev[1]) if prev else (math.nan, math.nan)
        rows.append((k, l2, hs, rl, rh))
        prev = (l2, hs)
    return rows


def write_norms_csv(path: str, rows) -> None:
    _write_rows(path, "k,l2,hs,ratio_l2,ratio_hs", ",".join(["%d"] + [_FMT] * 4),
                rows)


def _encode_values(q: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes: exact and byte-deterministic."""
    return base64.b64encode(np.asarray(q, "<f8").tobytes()).decode("ascii")


def _decode_values(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8").astype(float)


def _read_checkpoint(path: str, digest: str, n: int):
    """(stages, trace, values) of a checkpoint of config ``digest`` on n nodes."""
    try:
        with open(path) as fh:
            ck = json.load(fh)
        q = _decode_values(ck["q"])
        if ck["config_digest"] != digest or q.shape != (n,):
            raise ValueError("written for another config")
        return ([StageRecord(**s) for s in ck["stages"]],
                [tuple(r) for r in ck["trace"]], q)
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"checkpoint {path} does not fit this run: {e}") from e


def _dead_owner(path: str) -> Optional[str]:
    """The text of the lock at ``path`` when it is ``pid@hostname`` of a
    process that no longer runs on this host, else None."""
    try:
        with open(path) as fh:
            text = fh.read()
        pid, host = text.split("@")
        if host == os.uname().nodename and int(pid) > 0:
            os.kill(int(pid), 0)
    except ProcessLookupError:
        return text
    except (OSError, ValueError, OverflowError):
        pass  # no lock, a live pid, or not pid@hostname
    return None


class _Lock:
    """Claim on an output directory: a file holding ``pid@hostname`` of its
    run.  A lock whose pid is dead on this host is taken over; any other lock
    (live, foreign, empty or malformed) refuses the run."""

    def __init__(self, outdir: str):
        self.path = os.path.join(outdir, ".nlhet.lock")

    def __enter__(self):
        stale = _dead_owner(self.path)
        if stale is not None:
            # move it aside, and back if another run's lock replaced it since
            aside = f"{self.path}.{os.getpid()}"
            os.rename(self.path, aside)
            with open(aside) as fh:
                replaced = fh.read() != stale
            if replaced:
                os.rename(aside, self.path)
            else:
                os.remove(aside)
        try:
            with open(self.path, "x") as fh:
                fh.write(f"{os.getpid()}@{os.uname().nodename}")
        except FileExistsError:
            raise OSError(f"output directory is locked by another run "
                          f"({self.path})")
        return self

    def __exit__(self, *exc):
        try:
            os.remove(self.path)
        except OSError:
            pass


def _write_manifest(outdir: str, digest: str, command: str,
                    outputs: List[str], verdicts: dict,
                    extra: Optional[dict] = None) -> str:
    man = {"config_digest": digest, "run_id": digest[:16], "command": command,
           "outputs": sorted(outputs), "verdicts": verdicts}
    if extra:
        man.update(extra)
    path = os.path.join(outdir, "manifest.json")
    _atomic_write(path, json.dumps(man, indent=2, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_verify_model(cfg: RunConfig, outdir: Optional[str]) -> int:
    report = verify_model(cfg.spec)
    for line in report.lines():
        print(line)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, "verify_model.json")
        _atomic_write(path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        _write_manifest(outdir, cfg.digest, "verify-model", [path],
                        {c.name: ("pass" if c.passed else "fail") for c in report})
    return EXIT_OK if report.all_passed else EXIT_CHECK


def _layer_match(Q: Profile, report_cfg: dict) -> Optional[dict]:
    """L-inf distance on |x| <= R/2 to the best-shift explicit layer
    pi + 2 sgn arctan(x - c) (homogeneous anchor), with sgn the sign of
    the far-field rise, so a profile that falls is matched too.

    The outer half of the window is left out: there the profile sits on the
    wells while the layer is still 2/|x| away from them.  The shift comes
    from a vectorized scan of c in [-10, 10] at step 0.1, refined by
    bisection on the sign of the distance's slope.
    """
    if not report_cfg.get("layer_match"):
        return None
    sel = np.abs(Q.x) <= Q.grid.R / 2
    x, q = Q.x[sel], Q.values[sel]
    sgn = 1.0 if Q.right_const >= Q.left_const else -1.0

    def dist(c):
        c = np.atleast_1d(c)[:, None]
        return np.abs(q - (np.pi + 2 * sgn * np.arctan(x - c))).max(axis=1)

    shifts = np.linspace(-10, 10, 201)
    # 8 shifts per block: larger blocks raise the peak RSS of a solve
    coarse = np.concatenate([dist(shifts[k:k + 8])
                             for k in range(0, shifts.size, 8)])
    k = int(np.argmin(coarse))
    lo, hi = shifts[k] - 0.1, shifts[k] + 0.1
    for _ in range(40):
        c = 0.5 * (lo + hi)
        dl, dr = dist([c - 1e-9, c + 1e-9])
        if dl < dr:
            hi = c
        else:
            lo = c
    shift = float(0.5 * (lo + hi))
    best = float(dist(shift)[0])
    if best > coarse[k]:  # the bisection left the coarse minimum's basin
        shift, best = float(shifts[k]), float(coarse[k])
    tol = report_cfg.get("layer_tol", 0.05)
    return {"distance": best, "shift": shift, "tol": tol, "pass": best <= tol}


def cmd_solve(cfg: RunConfig, outdir: str, resume: bool) -> int:
    if cfg.obstacles is None:
        print("config lacks usable obstacle endpoints (set obstacles.b1/b2 "
              "or modulation m1/m2)", file=sys.stderr)
        return EXIT_USAGE
    ck_path = os.path.join(outdir, "checkpoint.json")
    ref = reference_profile(cfg.spec, cfg.grid)
    completed = 0

    def stage_cb(stages, trace, q):
        nonlocal completed
        completed = len(stages)
        _atomic_write(ck_path, json.dumps(
            {"config_digest": cfg.digest, "stages": [vars(s) for s in stages],
             "trace": trace, "q": _encode_values(q)}, sort_keys=True) + "\n")

    outputs: List[str] = []
    verdicts: dict = {}
    try:
        os.makedirs(outdir, exist_ok=True)
        with _Lock(outdir):
            resume_from = None
            if resume and os.path.exists(ck_path):
                try:
                    resume_from = _read_checkpoint(ck_path, cfg.digest, cfg.grid.n)
                except ValueError as e:
                    print(f"cannot resume: {e}", file=sys.stderr)
                    return EXIT_USAGE
                completed = len(resume_from[0])
                print(f"resuming after completed stage {completed - 1}")
            try:
                result = continuation_run(
                    cfg.spec, cfg.grid, cfg.obstacles, cfg.schedule, cfg.solver,
                    limit_tol=cfg.limit_tol, stage_callback=stage_cb,
                    resume=resume_from)
            except (NonConvergenceError, SolverError, EnvelopeClauseError,
                    BarrierSolveError, ValueError) as e:
                print(f"continuation failed after {completed} completed "
                      f"stages: {e}", file=sys.stderr)
                return EXIT_CHECK

            prof_path = os.path.join(outdir, "profile.csv")
            write_profile_csv(prof_path, result.profile, ref)
            outputs.append(prof_path)
            tr_path = os.path.join(outdir, "energy_trace.csv")
            write_trace_csv(tr_path, result.trace)
            outputs.append(tr_path)
            obs_path = os.path.join(outdir, "obstacles.csv")
            write_obstacles_csv(obs_path, result.pair)
            outputs.append(obs_path)

            diag = {
                "residual_max": result.residual_max,
                "limit_check": result.limit_check,
                "contact_count": len(result.contact),
                "monotone": result.monotone,
                "iterations": result.iterations,
                "stages": [vars(s) for s in result.stages],
                "energy": {
                    "viscous": result.breakdown.viscous,
                    "penalty": result.breakdown.penalty,
                    "potential": result.breakdown.potential,
                    "interaction": result.breakdown.interaction,
                    "total": result.breakdown.total,
                },
                "rhs_scale": result.pair.rhs_scale,
            }
            lm = _layer_match(result.profile, cfg.report)
            if lm is not None:
                diag["layer_match"] = lm
                verdicts["layer_match"] = "pass" if lm["pass"] else "fail"
            diag_path = os.path.join(outdir, "diagnostics.json")
            _atomic_write(diag_path, json.dumps(diag, indent=2, sort_keys=True) + "\n")
            outputs.append(diag_path)

            verdicts["limit_check"] = "pass" if result.limit_check["pass"] else "fail"
            verdicts["contact_empty"] = "pass" if not result.contact else "fail"
            verdicts["residual_max"] = f"measured:{result.residual_max:.6e}"
            verdicts["monotone"] = f"measured:{result.monotone}"
            outputs.append(ck_path)
            model_raw = {k: v for k, v in cfg.raw.items()
                         if k in ("kernel", "potential", "modulation")}
            model_hash = sha256_hex(json.dumps(model_raw, sort_keys=True))
            extra = {
                "model_hash": model_hash,
                "stage_energies": [{"mu": s.mu, "eta": s.eta,
                                    "energy": s.energy,
                                    "iterations": s.iterations}
                                   for s in result.stages],
                "residual_max": result.residual_max,
                "contact_count": len(result.contact),
            }
            _write_manifest(outdir, cfg.digest, "solve", outputs, verdicts, extra)
    except OSError as e:
        print(f"environment error: {e}", file=sys.stderr)
        return EXIT_ENV
    bad = [k for k, v in verdicts.items() if v == "fail"]
    if bad:
        print(f"failed verdicts: {', '.join(bad)}", file=sys.stderr)
        return EXIT_CHECK
    print(f"solve complete: residual_max={result.residual_max:.3e}, "
          f"contact={len(result.contact)}, outputs in {outdir}")
    return EXIT_OK


DIAGNOSE_CHECKS = ("clean", "lewy-stampacchia", "stickiness", "holder", "tail")


def cmd_diagnose(profile_path: str, cfg: RunConfig, checks: List[str],
                 outdir: str) -> int:
    unknown = [c for c in checks if c not in DIAGNOSE_CHECKS]
    if unknown:
        print(f"unknown check {', '.join(map(repr, unknown))}", file=sys.stderr)
        return EXIT_USAGE
    try:
        Q, ref = read_profile_csv(profile_path)
    except ValueError as e:
        print(f"profile schema error: {e}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(outdir, exist_ok=True)
    spec = cfg.spec
    pot = spec.potential
    wells = (pot.zeta1, pot.zeta2)
    d = cfg.diagnostics
    needs_obstacles = any(c in checks for c in ("lewy-stampacchia", "stickiness"))
    if needs_obstacles and cfg.obstacles is None:
        print("requested checks need obstacle endpoints in the config",
              file=sys.stderr)
        return EXIT_USAGE
    out = {}
    outputs = []
    ok = True
    try:
        for check in checks:
            if check == "clean":
                rep = dg.find_clean_intervals(
                    Q, d["rho"], (-Q.grid.R, Q.grid.R), wells)
                out["clean"] = {
                    "rho": rep.rho,
                    "intervals": [{"lo": iv.lo, "hi": iv.hi, "well": iv.well,
                                   "sup_deviation": iv.sup_deviation}
                                  for iv in rep.intervals],
                    "clean_points": rep.clean_points,
                }
            elif check == "lewy-stampacchia":
                pair = barrier_pair(spec, cfg.obstacles, Q.grid, d["eta"])
                slack = d["ls_slack"]
                if slack is None:
                    slack = 2 * cfg.solver.resolve_grad_tol(Q.grid.n) / Q.grid.h
                rep = dg.lewy_stampacchia_check(
                    Q, pair, spec, (cfg.obstacles.b1, cfg.obstacles.b2),
                    mu=d["mu"], ref=ref, slack=slack)
                out["lewy_stampacchia"] = vars(rep)
                out["lewy_stampacchia"]["passed"] = rep.passed
                ok &= rep.passed
            elif check == "stickiness":
                if d["x1"] is None or d["x2"] is None:
                    raise dg.PreconditionError(
                        "stickiness requires diagnostics.x1 and diagnostics.x2")
                r = cfg.obstacles.resolve_r(spec)
                well = wells[1] if d["x1"] >= 0 else wells[0]
                rep = dg.stickiness_check(
                    Q, d["x1"], d["x2"], spec, d["eta"], d["mu"],
                    d["stickiness_tol"], rho=d["rho"], well=well, r=r, ref=ref)
                out["stickiness"] = vars(rep)
                out["stickiness"]["passed"] = rep.passed
                ok &= rep.passed
            elif check == "holder":
                alpha = d["alpha"] if d["alpha"] is not None else min(0.9, spec.s)
                val = dg.holder_estimate(Q, (-2.0, 2.0), alpha)
                out["holder"] = {"alpha": alpha, "value": val}
            elif check == "tail":
                # both fits before either CSV: a failed fit writes nothing
                fits = [dg.fit_tail_decay(Q, side) for side in ("left", "right")]
                for fit in fits:
                    out[f"tail_{fit.side}"] = vars(fit)
                    csvp = os.path.join(outdir, f"tail_{fit.side}.csv")
                    write_tail_csv(csvp, Q, fit.side)
                    outputs.append(csvp)
    except dg.PreconditionError as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except dg.DegenerateFitError as e:
        print(f"degenerate fit: {e}", file=sys.stderr)
        return EXIT_CHECK
    except (BarrierSolveError, EnvelopeClauseError) as e:
        print(f"obstacle construction failed: {e}", file=sys.stderr)
        return EXIT_CHECK
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    path = os.path.join(outdir, "diagnose.json")
    _atomic_write(path, json.dumps(out, indent=2, sort_keys=True, default=float) + "\n")
    outputs.append(path)
    # only the gated checks carry ``passed``; the others measure
    verdicts = {k: ("pass" if v["passed"] else "fail") if "passed" in v
                else "measured"
                for k, v in out.items()}
    _write_manifest(outdir, cfg.digest, "diagnose", outputs, verdicts)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_bench_appendix(cfg: RunConfig, outdir: str) -> int:
    """Bump members for every s, then the trace members, one at a time; the
    first failure in input order ends the run."""
    b = cfg.bench
    os.makedirs(outdir, exist_ok=True)
    outputs = []
    verdicts = {}
    ok = True
    try:
        fams = [ab.BumpFamily(s=s, resolution=b["resolution"])
                for s in b["s_values"]]
        ks = list(range(0, b["kmax"] + 1))
        tex = ab.TraceExample()
        tks = list(range(1, b["trace_kmax"] + 1))
        norms = ([ab.bump_norms(fam, k) for fam in fams for k in ks]
                 + [ab.trace_norms(tex, k) for k in tks])
        for i, s in enumerate(b["s_values"]):
            rows = _ratio_rows(ks, norms[i * len(ks):(i + 1) * len(ks)])
            path = os.path.join(outdir, f"bump_s{s:g}.csv")
            write_norms_csv(path, rows)
            outputs.append(path)
            ehs = ab.bump_hs_ratio(s)
            worst_l2 = max(abs(r[3] / ab.BUMP_L2_RATIO - 1) for r in rows[1:])
            worst_hs = max(abs(r[4] / ehs - 1) for r in rows[1:])
            good = worst_l2 <= b["bump_tol"] and worst_hs <= b["bump_tol"]
            verdicts[f"bump_s{s:g}"] = "pass" if good else "fail"
            ok &= good
        rows = _ratio_rows(tks, norms[len(fams) * len(ks):])
        tr_ok = all(abs(r[3] / ab.TRACE_L2_RATIO - 1) <= b["trace_tol"]
                    and abs(r[4] / ab.TRACE_HHALF_RATIO - 1) <= b["trace_tol"]
                    for r in rows[1:])
        path = os.path.join(outdir, "trace.csv")
        write_norms_csv(path, rows)
        outputs.append(path)
        verdicts["trace"] = "pass" if tr_ok else "fail"
        ok &= tr_ok
    except ab.ResolutionError as e:
        print(f"resolution error: {e}", file=sys.stderr)
        return EXIT_CHECK
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    _write_manifest(outdir, cfg.digest, "bench-appendix", outputs, verdicts)
    return EXIT_OK if ok else EXIT_CHECK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="nlhet",
        description="heteroclinic connections for strongly nonlocal equations")
    sub = p.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify-model", help="check the structural hypotheses")
    pv.add_argument("config")
    pv.add_argument("--out", default=None)
    ps = sub.add_parser("solve", help="run the full continuation")
    ps.add_argument("config")
    ps.add_argument("--out", required=True)
    ps.add_argument("--resume", action="store_true")
    pd = sub.add_parser("diagnose", help="run diagnostics on a dumped profile")
    pd.add_argument("profile")
    pd.add_argument("config")
    pd.add_argument("--checks", default="clean,tail")
    pd.add_argument("--out", required=True)
    pb = sub.add_parser("bench-appendix", help="norm-scaling validation suite")
    pb.add_argument("config")
    pb.add_argument("--out", required=True)
    args = p.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except FileNotFoundError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return EXIT_ENV
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "verify-model":
        return cmd_verify_model(cfg, args.out)
    if args.command == "solve":
        return cmd_solve(cfg, args.out, args.resume)
    if args.command == "diagnose":
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        return cmd_diagnose(args.profile, cfg, checks, args.out)
    if args.command == "bench-appendix":
        return cmd_bench_appendix(cfg, args.out)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
