#!/usr/bin/env python3
"""nlhet benchmark: time to a certified profile, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run writes the workload's INI from the
seed, times the set-up in fresh interpreters, then repeats the workload's
command sequence for S seconds: a closed loop with one client, one command
at a time, each command in a fresh interpreter writing to a fresh output
directory.  Every command is checked: exit code 0, no manifest verdict
other than ``pass`` or ``measured``, outputs byte-identical across
repetitions, and the workload's accuracy within its tolerance.

With --trace 1, traced repetitions alternate with untraced ones; the traced
ones report per-layer counts and seconds (see spans.py) and the tracing
overhead, and their outputs must equal the untraced ones byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  Scratch files live under .bench_work/ and are
removed at the end.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from spans import per_iter, summarize
from workloads import BENCH, ROOT, WORKLOADS

CHILD = BENCH / "child.py"
WORK = ROOT / ".bench_work"
REQUIRED = ("src/nlhet/cli.py", "configs/homogeneous.ini", "configs/modulated.ini")
SETUP_PROBES = 11
MIN_REPS = 2
RUN_LIMIT_S = 170.0     # every command is killed once the run is this old


class CommandTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CommandTimeout()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds through spawn, which kills the child


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> Dict[str, str]:
    cap = str(nproc())
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), NLHET_THREADS=cap,
               OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap)
    return env


def spawn(args: List[str], env: Dict[str, str], log: Path, deadline: float):
    """Run ``python3 ARGS`` to completion, or kill it at ``deadline``
    (perf_counter seconds); returns (exit code, wall s, peak RSS MB).

    The peak RSS is that child's own (wait4), not the running maximum over
    all children that RUSAGE_CHILDREN keeps.
    """
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=actions)
    try:
        signal.setitimer(signal.ITIMER_REAL, max(deadline - t0, 0.01))
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except CommandTimeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        code = "timeout"
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, time.perf_counter() - t0, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def far_field_dev(profile_csv: Path, zeta1: float, zeta2: float) -> float:
    """max |Q - well| on the outer halves |x| >= R/2 of the window."""
    x, q = np.loadtxt(profile_csv, delimiter=",", skiprows=1, usecols=(0, 1)).T
    R = abs(x[0])
    return max(float(np.abs(q[x <= -R / 2] - zeta1).max()),
               float(np.abs(q[x >= R / 2] - zeta2).max()))


def ratio_dev(csv: Path, l2_exact: float, semi_exact: float) -> float:
    """max |ratio / exact - 1| over the successive-member ratios of a family."""
    rows = np.genfromtxt(csv, delimiter=",", names=True)
    return float(max(np.abs(rows["ratio_l2"][1:] / l2_exact - 1).max(),
                     np.abs(rows["ratio_hs"][1:] / semi_exact - 1).max()))


def layer_err(profile_csv: Path) -> float:
    """L-inf distance on |x| <= R/2 to the best-shift explicit layer
    pi + 2 arctan(x - c) (homogeneous s = 1/2 model)."""
    data = np.loadtxt(profile_csv, delimiter=",", skiprows=1, usecols=(0, 1))
    x, q = data[:, 0], data[:, 1]
    sel = np.abs(x) <= abs(x[0]) / 2
    x, q = x[sel], q[sel]

    def dist(c: float) -> float:
        return float(np.abs(q - (np.pi + 2 * np.arctan(x - c))).max())

    best = min(np.linspace(-10.0, 10.0, 2001), key=dist)
    lo, hi = best - 0.01, best + 0.01   # golden-section refinement
    g = (math.sqrt(5) - 1) / 2
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = dist(a), dist(b)
    for _ in range(60):
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = dist(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = dist(b)
    return min(dist(best), fa, fb)


class Run:
    """One benchmark run: the workload's repetitions and their checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.wl = WORKLOADS[workload]
        self.work = work
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.ini = work / f"{workload}.ini"
        text = self.wl.config_text(seed)
        self.ini.write_text(text)
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.expected_digest: Optional[str] = None
        if seed == 0:
            if text != self.wl.template.read_text():
                self.problems.append("seed 0 config differs from the template")
            sys.path.insert(0, str(ROOT / "src"))
            from nlhet.config import parse_config
            self.expected_digest = parse_config(str(self.wl.template)).digest
        self.cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        self.cfg.read_string(text)
        self.reference: Dict[str, Dict[str, str]] = {}   # label -> file hashes
        self.n_reps = 0

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def setup_times(self) -> List[float]:
        """Set-up seconds of SETUP_PROBES fresh interpreters, after one
        untimed probe that fills the bytecode cache."""
        times = []
        for i in range(SETUP_PROBES + 1):
            log = self.work / f"setup-{i}.log"
            code, wall, _ = spawn([str(CHILD), "setup", self.wl.name, str(self.ini)],
                                  self.env, log, self.deadline)
            self.attempted += 1
            if code != 0:
                self._fail(f"setup probe exit code {code}")
                times.append(wall)
            elif i:
                times.append(json.loads(log.read_text().splitlines()[-1])["setup_s"])
        return times

    def rep(self, traced: bool) -> dict:
        """Run the command sequence once; time it, then check every output."""
        self.n_reps += 1
        rep_dir = self.work / f"rep{self.n_reps:03d}"
        cmds = self.wl.sequence(self.ini, rep_dir)
        span_files, timed = [], []
        for label, argv, out in cmds:
            args = [str(CHILD), "cli"]
            if traced:
                span_files.append(self.work / f"rep{self.n_reps:03d}-{label}.spans.json")
                args += ["--spans", str(span_files[-1])]
            log = self.work / f"rep{self.n_reps:03d}-{label}.log"
            timed.append(spawn(args + ["--", *argv], self.env, log, self.deadline) + (log,))
        rep = {"wall_s": sum(t[1] for t in timed), "rss_mb": max(t[2] for t in timed),
               "iters": 0, "iters_eta_max": 0, "err_frac": None, "layer_err": None,
               "span_files": span_files}
        for (label, _, out), (code, _, _, log) in zip(cmds, timed):
            self.attempted += 1
            bad = self._check(label, code, out, rep)
            if bad:
                self._fail(f"rep {self.n_reps} {label}: {'; '.join(bad)}")
                tail = log.read_text().splitlines()[-5:] if log.exists() else []
                print(f"[bench] {label} failed: {bad}\n  " + "\n  ".join(tail),
                      file=sys.stderr)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return rep

    def _check(self, label: str, code, out: Path, rep: dict) -> List[str]:
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        try:
            manifest = json.loads((out / "manifest.json").read_text())
        except (OSError, ValueError) as e:
            return bad + [f"no manifest: {e}"]
        for name, verdict in manifest.get("verdicts", {}).items():
            if verdict != "pass" and not str(verdict).startswith("measured"):
                bad.append(f"verdict {name} = {verdict}")
        if self.expected_digest and manifest.get("config_digest") != self.expected_digest:
            bad.append("config digest differs from the committed config")
        hashes = {str(Path(p).relative_to(out)): sha256(Path(p))
                  for p in manifest.get("outputs", []) if Path(p).is_file()}
        ref = self.reference.setdefault(label, hashes)
        if hashes != ref:
            diff = sorted(k for k in set(ref) | set(hashes) if ref.get(k) != hashes.get(k))
            bad.append(f"outputs differ from the first repetition: {diff[:4]}")
        try:
            if label == "solve":
                diag = json.loads((out / "diagnostics.json").read_text())
                rep["iters"] += diag["iterations"]
                eta_max = max(s["eta"] for s in diag["stages"])
                rep["iters_eta_max"] += sum(s["iterations"] for s in diag["stages"]
                                            if s["eta"] == eta_max)
                err = self._solve_err(out, diag, rep)
            elif label == "bench-appendix":
                err = self._appendix_err(out)
            else:
                return bad
        except (OSError, ValueError, KeyError) as e:
            return bad + [f"unreadable output: {e!r}"]
        rep["err_frac"] = err
        if not err <= 1.0:
            bad.append(f"error at {err:.3g} x its tolerance")
        return bad

    def _solve_err(self, out: Path, diag: dict, rep: dict) -> float:
        """Error of the certified profile as a share of its tolerance: the
        distance to the explicit layer when the config asks for that match,
        else the far-field deviation from the wells on |x| >= R/2."""
        if self.cfg.getboolean("report", "layer_match", fallback=False):
            rep["layer_err"] = layer_err(out / "profile.csv")
            return rep["layer_err"] / self.cfg.getfloat("report", "layer_tol", fallback=0.05)
        wells = (self.cfg.getfloat("potential", "zeta1", fallback=0.0),
                 self.cfg.getfloat("potential", "zeta2", fallback=2 * math.pi))
        return far_field_dev(out / "profile.csv", *wells) / diag["limit_check"]["left"]["tol"]

    def _appendix_err(self, out: Path) -> float:
        """Worst relative deviation of the norm ratios from their exact
        scaling laws, as a share of the family's tolerance."""
        b = self.cfg["bench"]
        worst = []
        for s in (float(t) for t in b["s_values"].split(",")):
            dev = ratio_dev(out / f"bump_s{s:g}.csv", math.exp(-0.5),
                            math.exp(-(1.0 - 2.0 * s) / 2.0))
            worst.append(dev / float(b["bump_tol"]))
        dev = ratio_dev(out / "trace.csv", math.exp(-1.5), math.exp(-1.0))
        worst.append(dev / float(b["trace_tol"]))
        return max(worst)

    def loop(self, seconds: float, trace: bool) -> List[dict]:
        """Closed loop for ``seconds``; with ``trace``, traced and untraced
        repetitions alternate (untraced first)."""
        reps = []
        t_end = time.perf_counter() + seconds
        while len(reps) < MIN_REPS * (2 if trace else 1) or time.perf_counter() < t_end:
            reps.append(self.rep(traced=trace and len(reps) % 2 == 1))
        return reps


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup: List[float], reps: List[dict]) -> dict:
    med = statistics.median
    metrics = {
        "wall_s": _m(med(r["wall_s"] for r in reps), "s"),
        "setup_s": _m(med(setup), "s"),
        "peak_rss_mb": _m(med(r["rss_mb"] for r in reps), "MB"),
        "ok_frac": _m(1.0 - run.failed / run.attempted, "ratio"),
    }
    errs = [r["err_frac"] for r in reps if r["err_frac"] is not None]
    # with no checked result at all, report the largest finite error
    metrics["err_frac"] = _m(med(errs) if errs else sys.float_info.max, "ratio")
    return metrics


def per_layer(untraced: List[dict], traced: List[dict]) -> dict:
    """Medians over the traced repetitions of each layer's counts and seconds."""
    rows = []
    for r in traced:
        t = summarize(str(p) for p in r["span_files"])
        it = r["iters"]
        conv_calls = t.calls["discretize.conv"]
        pot_calls = t.calls["model.potential"]
        rows.append({
            "discretize.conv.calls": (conv_calls, "count"),
            "discretize.conv.s": (t.seconds["discretize.conv"], "s"),
            "discretize.conv.us_per_call": (
                1e6 * t.seconds["discretize.conv"] / conv_calls if conv_calls else 0.0, "us"),
            "discretize.conv.per_iter": (per_iter(conv_calls, it), "count/iter"),
            "discretize.workspace.lookups": (t.calls["discretize.workspace.lookup"], "count"),
            "discretize.workspace.builds": (t.calls["discretize.workspace.build"], "count"),
            "discretize.workspace.build_s": (t.seconds["discretize.workspace.build"], "s"),
            "model.potential.calls": (pot_calls, "count"),
            "model.potential.s": (t.seconds["model.potential"], "s"),
            "model.potential.per_iter": (per_iter(pot_calls, it), "count/iter"),
            "model.verify.s": (t.seconds["model.verify"], "s"),
            "config.parse.s": (t.seconds["config.parse"], "s"),
            "obstacles.barrier.calls": (t.calls["obstacles.barrier"], "count"),
            "obstacles.barrier.distinct": (t.distinct["obstacles.barrier"], "count"),
            "obstacles.barrier.s": (t.seconds["obstacles.barrier"], "s"),
            "obstacles.envelopes.s": (t.seconds["obstacles.envelopes"], "s"),
            "solver.iters": (it, "count"),
            "solver.iters.eta_max": (r["iters_eta_max"], "count"),
            "solver.continuation.s": (t.seconds["solver.continuation"], "s"),
            "solver.self_s": (t.self_seconds["solver.continuation"], "s"),
            "cli.csv_write.calls": (t.calls["cli.csv_write"], "count"),
            "cli.csv_write.s": (t.seconds["cli.csv_write"], "s"),
            "cli.csv_read.s": (t.seconds["cli.csv_read"], "s"),
            "cli.layer_match.s": (t.seconds["cli.layer_match"], "s"),
            "diagnostics.s": (t.seconds["diagnostics"], "s"),
            "appendix_bench.bump_norms.s": (t.seconds["appendix_bench.bump_norms"], "s"),
            "appendix_bench.trace_norms.s": (t.seconds["appendix_bench.trace_norms"], "s"),
        })
        if t.missing:
            print(f"[bench] not found, reported as 0: {sorted(t.missing)}", file=sys.stderr)
    metrics = {name: _m(statistics.median(row[name][0] for row in rows), unit)
               for name, (_, unit) in rows[0].items()}
    wall_t = statistics.median(r["wall_s"] for r in traced)
    wall_u = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.overhead"] = _m(wall_t / wall_u, "ratio")
    return metrics


def environment() -> dict:
    keys = ("NLHET_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = child_env()
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__,
            **{k: env[k] for k in keys}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not an nlhet checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        setup = [] if args.trace else run.setup_times()
        reps = run.loop(args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(reps[0::2], reps[1::2])
        else:
            metrics = end_to_end(run, setup, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for p in run.problems:
        print(f"[bench] problem: {p}", file=sys.stderr)
    errs = [r["layer_err"] for r in reps if r["layer_err"] is not None]
    print(json.dumps({"environment": environment(), "repetitions": len(reps),
                      "layer_err": statistics.median(errs) if errs else None}))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
