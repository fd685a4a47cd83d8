import base64
import configparser
import glob
import hashlib
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from nlhet import solver
from nlhet.cli import (_layer_match, _Lock, main, read_profile_csv,
                       write_obstacles_csv, write_profile_csv,
                       write_tail_csv, write_trace_csv)
from nlhet.discretize import Grid, Profile
from nlhet.obstacles import ObstacleConfig, ObstaclePair
from nlhet.solver import SolverError

from conftest import layer


CONFIG_SMALL = """
[kernel]
form = power
s = 0.5

[potential]
form = cosine
zeta1 = 0.0
zeta2 = 6.283185307179586

[modulation]
form = constant
base = 1.0

[grid]
R = 60.0
n = 2401

[obstacles]
b1 = -4.0
b2 = 4.0

[continuation]
eta_seq = 0.1, 0.01, 0
mu_seq = 0.1, 0.02, 0

[report]
layer_match = true
layer_tol = 0.05
"""

CONFIG_FOOTNOTE = """
[kernel]
s = 0.5

[potential]
zeta1 = 0.0
zeta2 = 6.283185307179586
form = cosine

[modulation]
form = cosine
base = 2.0
eps = 0.5
delta_freq = 0.5
m1 = -12.566370614359172
m2 = 12.566370614359172
omega = 1.5707963267948966
theta = 6.283185307179586
gamma = 0.7071067811865476
"""

CONFIG_BAD_GAMMA = """
[kernel]
s = 0.5

[potential]
zeta1 = 0.0
zeta2 = 6.283185307179586

[modulation]
form = constant
base = 2.0
m1 = -8.0
m2 = 8.0
omega = 1.0
theta = 2.0
gamma = 0.1
"""

CONFIG_BENCH = """
[bench]
s_values = 0.3
kmax = 4
resolution = 2001
trace_kmax = 2
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _with_value_at_origin(profile_path, tmp_path, column, value):
    """A copy of a profile CSV with ``value`` in ``column`` on the x = 0 row."""
    lines = profile_path.read_text().splitlines()
    k = lines[0].split(",").index(column)
    mid = (len(lines) - 1) // 2 + 1  # the header, then n rows
    fields = lines[mid].split(",")
    assert float(fields[0]) == 0.0
    fields[k] = value
    lines[mid] = ",".join(fields)
    return _write(tmp_path, "bad_profile.csv", "\n".join(lines) + "\n")


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs")


def _with_form(tmp_path, base, section, form):
    """A copy of ``configs/<base>.ini`` with ``[section] form = form``."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str
    cp.read(os.path.join(CONFIGS, base + ".ini"))
    cp[section]["form"] = form
    path = tmp_path / f"{base}_{section}_{form}.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


class TestVerifyModel:
    def test_footnote_passes(self, tmp_path):
        cfg = _write(tmp_path, "m.ini", CONFIG_FOOTNOTE)
        assert main(["verify-model", cfg, "--out", str(tmp_path / "out")]) == 0
        rep = json.loads((tmp_path / "out" / "verify_model.json").read_text())
        assert rep["modulation.nondegeneracy"]["passed"]

    def test_degenerate_modulation_fails(self, tmp_path):
        cfg = _write(tmp_path, "m.ini", CONFIG_BAD_GAMMA)
        assert main(["verify-model", cfg]) == 1

    def test_malformed_config_usage_error(self, tmp_path):
        cfg = _write(tmp_path, "m.ini", "[kernel\ns = 0.5\n")
        assert main(["verify-model", cfg]) == 2

    def test_bad_value_usage_error(self, tmp_path):
        cfg = _write(tmp_path, "m.ini", "[kernel]\ns = fast\n")
        assert main(["verify-model", cfg]) == 2

    @pytest.mark.parametrize("R", ["nan", "inf"])
    def test_nonfinite_half_width_usage_error(self, tmp_path, capsys, R):
        cfg = _write(tmp_path, "m.ini", CONFIG_SMALL.replace(
            "R = 60.0", f"R = {R}"))
        assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "[grid] R" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, named", [
        # each used to exit 1 after a partial or a full run
        (CONFIG_SMALL + "\n[solver]\ngrad_tol = nan\n", "[solver] grad_tol"),
        (CONFIG_SMALL.replace("b1 = -4.0", "b1 = nan"), "[obstacles] b1"),
        (CONFIG_SMALL + "\n[limit]\ntol = nan\n", "[limit] tol"),
        (CONFIG_SMALL + "\n[limit]\ntol = inf\n", "[limit] tol"),
        (CONFIG_SMALL.replace("eta_seq = 0.1, 0.01, 0", "eta_seq = 0.1, nan, 0"),
         "[continuation] eta_seq"),
    ], ids=["grad_tol-nan", "b1-nan", "limit_tol-nan", "limit_tol-inf",
            "eta_seq-nan"])
    def test_non_finite_number_usage_error(self, tmp_path, capsys, text, named):
        cfg = _write(tmp_path, "m.ini", text)
        assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert named in err and "not a finite number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, named", [
        ("[solvr]\nmax_iters = 10\n", "[solvr]"),
        ("[solvr]\n", "[solvr]"),
        ("[solver]\ngrad_tool = 1e-3\n", "[solver] grad_tool"),
        ("[grid]\nR = 30.0\nwidth = 3\n", "[grid] width"),
        # option names are case-sensitive: a miscased name is unknown
        ("[grid]\nr = 30.0\n", "[grid] r"),
        ("[solver]\nMax_iters = 10\n", "[solver] Max_iters"),
    ])
    def test_unknown_section_or_key_usage_error(self, tmp_path, capsys, text,
                                                named):
        cfg = _write(tmp_path, "m.ini", CONFIG_FOOTNOTE + "\n" + text)
        assert main(["verify-model", cfg]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("word", ["ture", "2", "enabled", "y"])
    def test_misspelt_boolean_usage_error(self, tmp_path, capsys, word):
        # every word but 1/true/yes/on used to read as false, silently
        cfg = _write(tmp_path, "m.ini", CONFIG_FOOTNOTE
                     + f"\n[report]\nlayer_match = {word}\n")
        assert main(["verify-model", cfg]) == 2
        assert "layer_match" in capsys.readouterr().err

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("yes", True), ("TRUE", True), ("On", True),
        ("0", False), ("no", False), ("False", False), ("OFF", False)])
    def test_boolean_words(self, tmp_path, word, value):
        from nlhet.config import parse_config
        cfg = parse_config(_write(tmp_path, "m.ini", CONFIG_FOOTNOTE
                                  + f"\n[report]\nlayer_match = {word}\n"))
        assert cfg.report["layer_match"] is value

    def test_kernel_bounds_are_two_keys(self, tmp_path):
        # theta0 and Theta0 differ only in case; each sets its own bound
        from nlhet.config import parse_config
        one = parse_config(_write(tmp_path, "one.ini",
                                  "[kernel]\ns = 0.5\ntheta0 = 0.2\n"))
        assert one.spec.kernel.theta0 == 0.2
        assert one.spec.kernel.Theta0 == one.spec.kernel.c
        both = parse_config(_write(tmp_path, "both.ini",
                                   "[kernel]\ns = 0.5\ntheta0 = 0.2\n"
                                   "Theta0 = 0.5\n"))
        assert (both.spec.kernel.theta0, both.spec.kernel.Theta0) == (0.2, 0.5)
        assert both.raw["kernel"] == {"s": "0.5", "theta0": "0.2",
                                      "Theta0": "0.5"}

    def test_powerlaw_alias_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "m.ini", "[kernel]\nform = powerlaw\n")
        assert main(["verify-model", cfg]) == 2
        assert "powerlaw" in capsys.readouterr().err

    @pytest.mark.parametrize("base, section, form", [
        ("homogeneous", "kernel", "power"),
        ("homogeneous", "kernel", "truncated_power"),
        ("homogeneous", "potential", "cosine"),
        ("homogeneous", "potential", "quartic"),
        ("homogeneous", "modulation", "constant"),
        ("modulated", "modulation", "cosine"),
    ])
    def test_every_form_verifies_from_a_config(self, tmp_path, base, section,
                                               form):
        # the quartic case needs a default C0_growth that bounds W/xi^2 on
        # the outward side of each well too
        cfg = _with_form(tmp_path, base, section, form)
        assert main(["verify-model", cfg]) == 0

    @pytest.mark.parametrize("section", ["kernel", "potential", "modulation"])
    def test_tabulated_form_usage_error(self, tmp_path, capsys, section):
        cfg = _with_form(tmp_path, "homogeneous", section, "tabulated")
        assert main(["verify-model", cfg]) == 2
        assert (f"unknown {section} form 'tabulated'"
                in capsys.readouterr().err)

    def test_missing_config_env_error(self, tmp_path):
        assert main(["verify-model", str(tmp_path / "no.ini")]) == 3

    def test_python_dash_m_entry_point(self, tmp_path):
        cfg = _write(tmp_path, "m.ini", CONFIG_BAD_GAMMA)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        run = subprocess.run([sys.executable, "-m", "nlhet", "verify-model", cfg],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 1  # the exit code of cli.main, not an import error
        assert "nondegeneracy" in run.stdout


def test_import_is_light_and_complete():
    # importing the CLI loads every module of the package (traced benchmark
    # runs wrap them right after this import) but neither the socket stack,
    # nor OpenSSL (3.4 MB of RSS), nor the thread pool, nor dataclasses (one
    # exec per generated method), and freezes the import-time objects out of
    # the garbage collector; the package body (numpy and the core modules)
    # runs with no collection pass and leaves the collector on, so the only
    # pass comes after it, as the import returns
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = ("import gc, json, sys\n"
            "def in_body():  # the package body ends by setting __all__\n"
            "    pkg = sys.modules.get('nlhet')\n"
            "    return pkg is not None and not hasattr(pkg, '__all__')\n"
            "passes = []\n"
            "gc.callbacks.append(lambda phase, info: passes.append(in_body()))\n"
            "import nlhet\n"
            "during, enabled = passes.count(True), gc.isenabled()\n"
            "import nlhet.cli\n"
            "print(json.dumps([sorted(sys.modules), gc.get_freeze_count(),\n"
            "                  during, enabled]))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    loaded, frozen, during, enabled = json.loads(run.stdout)
    assert "socket" not in loaded
    assert "_hashlib" not in loaded and "ssl" not in loaded
    assert "concurrent.futures" not in loaded
    assert "dataclasses" not in loaded
    assert during == 0 and enabled
    package = {f"nlhet.{name[:-3]}" for name in os.listdir(os.path.join(src, "nlhet"))
               if name.endswith(".py") and name not in ("__init__.py", "__main__.py")}
    assert package <= set(loaded)
    assert frozen > 0


def test_commands_never_load_openssl(tmp_path):
    # nor does running them: a later runtime import (numpy.random ->
    # secrets -> hmac, say) would load _hashlib after the import check
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    cfg = _write(tmp_path, "run.ini", CONFIG_SMALL)
    out = tmp_path / "out"
    code = (
        "import json, sys\n"
        "from nlhet.cli import main\n"
        f"codes = [main(['solve', {cfg!r}, '--out', {str(out / 's')!r}]),\n"
        f"         main(['diagnose', {str(out / 's' / 'profile.csv')!r}, {cfg!r},\n"
        "               '--checks', 'clean,tail,holder,lewy-stampacchia',\n"
        f"               '--out', {str(out / 'd')!r}]),\n"
        f"         main(['bench-appendix', {os.path.join(root, 'configs', 'bench.ini')!r},\n"
        f"               '--out', {str(out / 'b')!r}])]\n"
        "print(json.dumps([codes, '_hashlib' in sys.modules, 'ssl' in sys.modules]))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    assert run.returncode == 0, run.stderr
    codes, hashlib_loaded, ssl_loaded = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert not hashlib_loaded and not ssl_loaded


def _canonical_config_text(path):
    """The config digest's input, written out: sorted sections and keys."""
    import configparser
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read(path)
    return "".join(f"[{sec}]\n" + "".join(f"{k}={v}\n" for k, v in sorted(cp.items(sec)))
                   for sec in sorted(cp.sections()))


class TestDigests:
    """The built-in SHA-256 gives hashlib's digests, so checkpoints and
    manifests written with hashlib still match."""

    ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

    def test_homogeneous_digest_pinned(self):
        from nlhet.config import parse_config
        cfg = parse_config(os.path.join(self.ROOT, "configs", "homogeneous.ini"))
        assert cfg.digest == ("a78cc851a477548ee53bc50c0ea7f483240b2977"
                              "e0f76a92cd526e5221d66fe8")

    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(ROOT, "configs", "*.ini"))
        + glob.glob(os.path.join(ROOT, "bench", "*.ini"))), ids=os.path.basename)
    def test_config_digest_is_hashlib_sha256(self, path):
        from nlhet.config import parse_config
        text = _canonical_config_text(path)
        assert parse_config(path).digest == hashlib.sha256(text.encode()).hexdigest()

    def test_model_hash_is_hashlib_sha256(self, solved):
        from nlhet.config import parse_config
        code, tmp, cfg, out = solved
        raw = parse_config(cfg).raw
        model = {k: raw[k] for k in ("kernel", "potential", "modulation")}
        man = json.loads((out / "manifest.json").read_text())
        assert man["model_hash"] == hashlib.sha256(
            json.dumps(model, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    cfg = _write(tmp, "run.ini", CONFIG_SMALL)
    out = tmp / "out"
    code = main(["solve", cfg, "--out", str(out)])
    return code, tmp, cfg, out


CONFIG_SWAPPED = (CONFIG_SMALL.replace("zeta1 = 0.0", "zeta1 = 6.283185307179586", 1)
                  .replace("zeta2 = 6.283185307179586", "zeta2 = 0.0", 1))


@pytest.fixture(scope="module")
def swapped(tmp_path_factory):
    """CONFIG_SMALL with its wells swapped and no layer match: the profile
    falls from 2 pi to 0."""
    tmp = tmp_path_factory.mktemp("swapped")
    cfg = _write(tmp, "run.ini", CONFIG_SWAPPED.replace("layer_match = true",
                                                        "layer_match = false"))
    out = tmp / "out"
    code = main(["solve", cfg, "--out", str(out)])
    return code, tmp, cfg, out


@pytest.fixture(scope="module")
def dead_pid():
    """The pid of a child that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


SOLVE_OUTPUTS = ("profile.csv", "energy_trace.csv", "obstacles.csv",
                 "diagnostics.json", "checkpoint.json")


class TestSolve:
    def test_exit_zero_and_outputs(self, solved):
        code, tmp, cfg, out = solved
        assert code == 0
        man = json.loads((out / "manifest.json").read_text())
        for name in SOLVE_OUTPUTS:
            assert (out / name).exists() and (out / name).stat().st_size > 0
            assert any(p.endswith(name) for p in man["outputs"])
        assert sorted(os.listdir(out)) == sorted(SOLVE_OUTPUTS + ("manifest.json",))
        # manifest completeness: every listed output exists and is non-empty
        import pathlib
        for p in man["outputs"]:
            assert pathlib.Path(p).stat().st_size > 0
        assert man["verdicts"]["limit_check"] == "pass"
        assert man["verdicts"]["contact_empty"] == "pass"
        assert man["verdicts"]["layer_match"] == "pass"
        assert man["run_id"] == man["config_digest"][:16]
        assert man["contact_count"] == 0
        assert man["stage_energies"]
        assert len(man["model_hash"]) == 64

    def test_profile_roundtrip(self, solved):
        code, tmp, cfg, out = solved
        Q, ref = read_profile_csv(str(out / "profile.csv"))
        assert Q.grid.n == 2401
        assert abs(Q.values[-1] - 2 * math.pi) < 0.1

    def test_diagnostics_stage_counts_and_layer_match(self, solved):
        code, tmp, cfg, out = solved
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["stages"]
        assert all(s["trials"] >= s["iterations"] >= 1 for s in diag["stages"])
        assert all(s["cg"] >= s["iterations"] - 1 for s in diag["stages"])
        # measured on |x| <= R/2: the whole-window maximum would be the
        # 2/R = 0.033 gap between layer and well at the window edge
        assert diag["layer_match"]["distance"] < 1e-3

    def test_stage_log_lines(self, solved, tmp_path, caplog):
        # one INFO line per stage carries the counts and the wall time; the
        # wall time stays out of the outputs (see test_deterministic_outputs)
        code, tmp, cfg, out = solved
        with caplog.at_level(logging.INFO, logger="nlhet"):
            assert main(["solve", cfg, "--out", str(tmp_path / "logged")]) == 0
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("stage ")]
        diag = json.loads((out / "diagnostics.json").read_text())
        assert len(lines) == len(diag["stages"])
        for line, s in zip(lines, diag["stages"]):
            assert (f"{s['iterations']} iterations, {s['trials']} trials, "
                    f"{s['cg']} cg, {s['contact_count']} contact, ") in line
            assert line.endswith(" s")

    def test_polish_on_max_iters_exits_one(self, tmp_path, capsys):
        # at max_iters = 1 the polish stops above its grad_tol; the six
        # mu > 0 stages stay checkpointed, the polish does not
        cfg = _write(tmp_path, "m.ini",
                     CONFIG_SMALL + "\n[solver]\nmax_iters = 1\n")
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out", str(out)]) == 1
        assert "polish stopped at max_iters = 1" in capsys.readouterr().err
        ck = json.loads((out / "checkpoint.json").read_text())
        assert len(ck["stages"]) == 6
        assert not (out / "profile.csv").exists()

    def test_deterministic_outputs(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        out2 = tmp_path / "out2"
        assert main(["solve", cfg, "--out", str(out2)]) == 0
        for name in SOLVE_OUTPUTS:
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_resume_after_final_stage_writes_same_obstacles(self, solved,
                                                             tmp_path):
        # resumes into a copy; runs before the in-place resume test below,
        # so ``out`` still holds the fresh run's artifacts
        code, tmp, cfg, out = solved
        copy = tmp_path / "resumed"
        shutil.copytree(out, copy)
        assert main(["solve", cfg, "--out", str(copy), "--resume"]) == 0
        assert ((copy / "obstacles.csv").read_bytes()
                == (out / "obstacles.csv").read_bytes())
        fresh = json.loads((out / "diagnostics.json").read_text())
        resumed = json.loads((copy / "diagnostics.json").read_text())
        assert resumed["rhs_scale"] == fresh["rhs_scale"]

    @pytest.mark.parametrize("last", [0, 3, 6])  # 7 stages: first, middle, final
    def test_resume_writes_same_bytes_as_fresh_run(self, solved, tmp_path,
                                                   monkeypatch, last):
        code, tmp, cfg, out = solved
        real, calls = solver._run_stage, []

        def failing(*args):
            calls.append(None)
            if len(calls) == last + 2:
                raise SolverError("interrupted")
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(solver, "_run_stage", failing)
            first = main(["solve", cfg, "--out", str(tmp_path)])
        # after the final stage nothing fails: the run completes, and removing
        # its outputs leaves what a run killed after that stage leaves
        assert first == (0 if last == 6 else 1)
        for name in os.listdir(tmp_path):  # keep only what a killed run leaves
            if name != "checkpoint.json":
                os.remove(tmp_path / name)
        ck = json.loads((tmp_path / "checkpoint.json").read_text())
        assert len(ck["stages"]) == last + 1
        assert main(["solve", cfg, "--out", str(tmp_path), "--resume"]) == 0
        for name in SOLVE_OUTPUTS:
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

    def test_resume_with_edited_config_usage_error(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        edited = _write(tmp_path, "edited.ini",
                        CONFIG_SMALL.replace("layer_tol = 0.05", "layer_tol = 0.06"))
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        assert main(["solve", edited, "--out", str(copy), "--resume"]) == 2
        assert ((copy / "checkpoint.json").read_bytes()
                == (out / "checkpoint.json").read_bytes())

    def test_resume_from_truncated_checkpoint_usage_error(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        text = (out / "checkpoint.json").read_text()
        (tmp_path / "checkpoint.json").write_text(text[:len(text) // 2])
        assert main(["solve", cfg, "--out", str(tmp_path), "--resume"]) == 2

    @pytest.mark.parametrize("q", ["not base64!", "short", "list"])
    def test_resume_from_bad_checkpoint_values_usage_error(self, solved,
                                                           tmp_path, q):
        # undecodable base64, a length other than n, and the JSON list of
        # floats that the encoding replaced are all refused
        code, tmp, cfg, out = solved
        ck = json.loads((out / "checkpoint.json").read_text())
        values = np.frombuffer(base64.b64decode(ck["q"]), "<f8")
        ck["q"] = {"not base64!": "not base64!",
                   "short": base64.b64encode(values[:-1].tobytes()).decode(),
                   "list": values.tolist()}[q]
        (tmp_path / "checkpoint.json").write_text(json.dumps(ck))
        assert main(["solve", cfg, "--out", str(tmp_path), "--resume"]) == 2

    def test_checkpoint_values_round_trip_exactly(self, solved):
        code, tmp, cfg, out = solved
        ck = json.loads((out / "checkpoint.json").read_text())
        Q, _ = read_profile_csv(str(out / "profile.csv"))
        assert np.array_equal(np.frombuffer(base64.b64decode(ck["q"]), "<f8"),
                              Q.values)

    def test_resume_from_staged_profile(self, solved, capsys):
        code, tmp, cfg, out = solved
        assert main(["solve", cfg, "--out", str(out), "--resume"]) == 0
        assert "resuming after completed stage" in capsys.readouterr().out

    def test_locked_outdir_env_error(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        out3 = tmp_path / "locked"
        out3.mkdir()
        (out3 / ".nlhet.lock").write_text("")
        assert main(["solve", cfg, "--out", str(out3)]) == 3

    @pytest.mark.parametrize("owner", ["malformed", "live", "other-host"])
    def test_lock_of_another_run_env_error(self, solved, tmp_path, dead_pid,
                                           owner):
        code, tmp, cfg, out = solved
        host = os.uname().nodename
        text = {"malformed": "12@", "live": f"{os.getpid()}@{host}",
                "other-host": f"{dead_pid}@not-{host}"}[owner]
        lock = tmp_path / ".nlhet.lock"
        lock.write_text(text)
        assert main(["solve", cfg, "--out", str(tmp_path)]) == 3
        assert lock.read_text() == text

    def test_lock_of_dead_run_taken_over(self, tmp_path, dead_pid):
        host = os.uname().nodename
        lock = tmp_path / ".nlhet.lock"
        lock.write_text(f"{dead_pid}@{host}")
        with _Lock(str(tmp_path)):
            assert lock.read_text() == f"{os.getpid()}@{host}"
            assert os.listdir(tmp_path) == [".nlhet.lock"]
        assert os.listdir(tmp_path) == []

    def test_unwritable_outdir_env_error(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert main(["solve", cfg, "--out", str(blocker)]) == 3


def _per_value(header, rows):
    """Reference CSV text: every value rendered on its own with %.17g."""
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else "%.17g" % v
                              for v in row))
    return "\n".join(lines) + "\n"


class TestCsvWriters:
    @pytest.fixture
    def columns(self):
        # negative values, exact zeros and magnitudes >= 1e16 in every column
        rng = np.random.default_rng(7)
        grid = Grid(R=3.0, n=31)
        cols = rng.normal(0.0, 1.0, (4, grid.n)) * 10.0 ** rng.integers(
            -20, 20, (4, grid.n))
        cols[:, ::5] = 0.0
        cols[:, 1::7] = -3.0e17
        cols[:, 2::9] = 1.0e16
        return grid, cols

    def test_profile_bytes(self, columns, tmp_path):
        grid, (q, r, _, _) = columns
        path = tmp_path / "p.csv"
        write_profile_csv(str(path), Profile(grid, q, 0.0, 1.0),
                          Profile(grid, r, 0.0, 1.0))
        rows = [(float(x), float(a), float(b), float(a - b))
                for x, a, b in zip(grid.x, q, r)]
        assert path.read_text() == _per_value("x,Q,Qsharp,v", rows)

    def test_obstacles_bytes(self, columns, tmp_path):
        grid, cols = columns
        phi, psi, Phi, Psi = (Profile(grid, c, 0.0, 1.0) for c in cols)
        pair = ObstaclePair(phi, psi, Phi, Psi, ObstacleConfig(b1=-1.0, b2=1.0),
                            0.5, 0.0, 1.0, 1.0, 0.0,
                            (slice(0, 0), np.empty(0), np.empty(0)))
        path = tmp_path / "o.csv"
        write_obstacles_csv(str(path), pair)
        rows = [tuple(float(v) for v in t) for t in zip(grid.x, *cols)]
        assert path.read_text() == _per_value("x,phi,psi,Phi,Psi", rows)

    def test_trace_bytes(self, columns, tmp_path):
        grid, cols = columns
        trace = [(i, *(float(v) for v in cols[:, i]), float(cols[0, i] * 3),
                  float(abs(cols[1, i])))
                 for i in range(grid.n)]
        path = tmp_path / "t.csv"
        write_trace_csv(str(path), trace)
        rows = [("%d" % t[0], *t[1:]) for t in trace]
        assert path.read_text() == _per_value(
            "iter,viscous,penalty,potential,interaction,total,grad_norm", rows)

    def test_profile_written_without_whole_text(self, tmp_path):
        # rows are streamed to the file: measured 0.31 MB at n = 8001
        # (0.97 MB when the whole text was joined first)
        grid = Grid(R=200.0, n=8001)
        Q = Profile(grid, np.tanh(grid.x), -1.0, 1.0)
        ref = Profile(grid, np.tanh(grid.x / 2), -1.0, 1.0)
        tracemalloc.start()
        try:
            write_profile_csv(str(tmp_path / "p.csv"), Q, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_tail_bytes(self, columns, tmp_path, side):
        # far fields 0: the column's exact zeros are zero deviations, whose
        # logarithm is written as -inf
        grid, (q, _, _, _) = columns
        path = tmp_path / "tail.csv"
        write_tail_csv(str(path), Profile(grid, q, 0.0, 0.0), side)
        x = grid.x
        sel = x >= grid.R / 2 if side == "right" else x <= -grid.R / 2
        rows = [(float(xx), math.log(abs(v)) if v != 0 else -math.inf)
                for xx, v in zip(x[sel], q[sel])]
        assert any(r[1] == -math.inf for r in rows)
        assert path.read_text() == _per_value("x,log_abs_dev", rows)


class TestProfileReader:
    def test_columns_match_genfromtxt_oracle(self, solved):
        code, tmp, cfg, out = solved
        path = str(out / "profile.csv")
        Q, ref = read_profile_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert Q.grid == Grid(R=float(abs(data["x"][0])), n=data.size)
        for got, col in ((Q.values, "Q"), (ref.values, "Qsharp")):
            assert np.array_equal(got.view(np.uint64), data[col].view(np.uint64))
        assert (Q.left_const, Q.right_const) == (data["Qsharp"][0],
                                                 data["Qsharp"][-1])

    def test_columns_found_by_name(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        path = str(out / "profile.csv")
        lines = (out / "profile.csv").read_text().splitlines()
        order = [3, 2, 0, 1]  # v, Qsharp, x, Q
        moved = tmp_path / "moved.csv"
        moved.write_text("\n".join(",".join(line.split(",")[k] for k in order)
                                    for line in lines) + "\n")
        assert moved.read_text().startswith("v,Qsharp,x,Q\n")
        Q0, ref0 = read_profile_csv(path)
        Q1, ref1 = read_profile_csv(str(moved))
        assert np.array_equal(Q0.values, Q1.values)
        assert np.array_equal(ref0.values, ref1.values)
        assert Q0.grid == Q1.grid

    def test_missing_column_raises(self, tmp_path):
        bad = tmp_path / "noqsharp.csv"
        bad.write_text("x,Q,v\n-1,0,0\n0,1,0\n1,2,0\n")
        with pytest.raises(ValueError, match="schema mismatch"):
            read_profile_csv(str(bad))

    def test_header_only_raises(self, tmp_path, recwarn):
        bad = tmp_path / "empty.csv"
        bad.write_text("x,Q,Qsharp,v\n")
        with pytest.raises(ValueError, match="odd number"):
            read_profile_csv(str(bad))
        assert not recwarn.list

    @pytest.mark.parametrize("column", ["x", "Q", "Qsharp"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_raises(self, solved, tmp_path, column, value):
        code, tmp, cfg, out = solved
        bad = _with_value_at_origin(out / "profile.csv", tmp_path, column, value)
        with pytest.raises(ValueError, match="non-finite"):
            read_profile_csv(bad)


class TestLayerMatch:
    def test_shifted_layer_inside_half_window(self):
        # outside |x| <= R/2 the profile is clamped to the wells, where the
        # layer is 2/|x| away: only the inner half may enter the distance
        grid = Grid(R=60.0, n=2401)
        x = grid.x
        q = np.where(x < -30.0, 0.0,
                     np.where(x > 30.0, 2 * math.pi, layer(x, 0.3)))
        rep = _layer_match(Profile(grid, q, 0.0, 2 * math.pi),
                           {"layer_match": True})
        assert rep["distance"] < 1e-6
        assert abs(rep["shift"] - 0.3) <= 1e-4
        assert rep["pass"]


class TestSwappedWells:
    def test_obstacles_bracket_profile(self, swapped):
        code, tmp, cfg, out = swapped
        assert code == 0
        Q, _ = read_profile_csv(str(out / "profile.csv"))
        assert Q.values[0] == 2 * math.pi and Q.values[-1] == 0.0
        obs = np.loadtxt(out / "obstacles.csv", delimiter=",", skiprows=1)
        assert np.array_equal(obs[:, 0], Q.x)
        Phi, Psi = obs[:, 3], obs[:, 4]
        assert np.all((Psi <= Q.values) & (Q.values <= Phi))
        assert json.loads((out / "diagnostics.json").read_text())["monotone"]

    def test_diagnose_in_config_orientation(self, swapped, tmp_path):
        code, tmp, cfg, out = swapped
        dout = tmp_path / "diag"
        assert main(["diagnose", str(out / "profile.csv"), cfg, "--checks",
                     "clean,lewy-stampacchia", "--out", str(dout)]) == 0
        rep = json.loads((dout / "diagnose.json").read_text())
        wells = {iv["well"] for iv in rep["clean"]["intervals"]}
        assert wells == {0.0, 2 * math.pi}
        assert rep["lewy_stampacchia"]["admissible"]
        assert rep["lewy_stampacchia"]["passed"]

    def test_layer_match_of_falling_profile(self, solved, tmp_path):
        # the swapped run matches pi - 2 arctan(x - c) as closely as the
        # unswapped one matches pi + 2 arctan(x - c)
        code, tmp, cfg, out = solved
        cfg2 = _write(tmp_path, "swapped.ini", CONFIG_SWAPPED)
        out2 = tmp_path / "out"
        assert main(["solve", cfg2, "--out", str(out2)]) == 0
        lm = json.loads((out / "diagnostics.json").read_text())["layer_match"]
        lm2 = json.loads((out2 / "diagnostics.json").read_text())["layer_match"]
        assert lm2["pass"]
        assert lm2["distance"] == pytest.approx(lm["distance"], abs=1e-6)
        assert lm2["shift"] == pytest.approx(-lm["shift"], abs=1e-6)


class TestDiagnose:
    def test_clean_and_tail(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        dout = tmp_path / "diag"
        assert main(["diagnose", str(out / "profile.csv"), cfg,
                     "--checks", "clean,tail,holder", "--out", str(dout)]) == 0
        rep = json.loads((dout / "diagnose.json").read_text())
        assert rep["clean"]["intervals"]
        assert (dout / "tail_right.csv").exists()
        # none of these checks has a gate: the manifest reports a measurement
        man = json.loads((dout / "manifest.json").read_text())
        assert man["verdicts"] == {k: "measured" for k in
                                   ("clean", "tail_left", "tail_right", "holder")}

    def test_lewy_stampacchia_check(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        dout = tmp_path / "diag_ls"
        assert main(["diagnose", str(out / "profile.csv"), cfg,
                     "--checks", "lewy-stampacchia", "--out", str(dout)]) == 0
        man = json.loads((dout / "manifest.json").read_text())
        assert man["verdicts"] == {"lewy_stampacchia": "pass"}

    def test_stickiness_precondition_exit2(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        cfg2 = _write(tmp_path, "d.ini", CONFIG_SMALL +
                      "\n[diagnostics]\nx1 = 40.0\nx2 = 42.0\nrho = 0.2\n")
        dout = tmp_path / "diag2"
        assert main(["diagnose", str(out / "profile.csv"), cfg2,
                     "--checks", "stickiness", "--out", str(dout)]) == 2

    def test_stickiness_pass_path(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        cfg2 = _write(tmp_path, "d2.ini", CONFIG_SMALL +
                      "\n[diagnostics]\nx1 = 15.0\nx2 = 25.0\nrho = 0.2\n"
                      "stickiness_tol = 0.5\n")
        dout = tmp_path / "diag_ok"
        assert main(["diagnose", str(out / "profile.csv"), cfg2,
                     "--checks", "stickiness", "--out", str(dout)]) == 0
        rep = json.loads((dout / "diagnose.json").read_text())
        assert rep["stickiness"]["passed"]

    def test_schema_mismatch_exit2(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["diagnose", str(bad), cfg, "--out",
                     str(tmp_path / "d3")]) == 2

    def test_unknown_check_exit2(self, solved, tmp_path):
        code, tmp, cfg, out = solved
        assert main(["diagnose", str(out / "profile.csv"), cfg,
                     "--checks", "frobnicate", "--out", str(tmp_path / "d4")]) == 2

    def test_unknown_check_runs_no_check(self, solved, tmp_path, capsys):
        # the known check before it used to write its CSVs first
        code, tmp, cfg, out = solved
        dout = tmp_path / "d8"
        dout.mkdir()
        assert main(["diagnose", str(out / "profile.csv"), cfg,
                     "--checks", "tail,bogus", "--out", str(dout)]) == 2
        assert "'bogus'" in capsys.readouterr().err
        assert os.listdir(dout) == []

    @staticmethod
    def _one_line_exit(capsys, argv, code):
        """``main(argv)`` returns ``code``, prints one line to stderr and
        writes neither diagnose.json nor a manifest."""
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        out = argv[argv.index("--out") + 1]
        assert not os.path.exists(os.path.join(out, "diagnose.json"))
        assert not os.path.exists(os.path.join(out, "manifest.json"))
        return err

    def test_non_finite_profile_exit2(self, solved, tmp_path, capsys):
        # a NaN used to be dropped silently: every verdict measured, exit 0
        code, tmp, cfg, out = solved
        bad = _with_value_at_origin(out / "profile.csv", tmp_path, "Q", "nan")
        err = self._one_line_exit(
            capsys, ["diagnose", bad, cfg, "--checks", "clean,tail,holder",
                     "--out", str(tmp_path / "d5")], 2)
        assert "non-finite" in err

    def test_off_grid_node_exit2(self, solved, tmp_path, capsys):
        # a node 4e-4 (0.8% of h) off x = 50 used to pass the grid check,
        # whose default relative tolerance allows 1e-5 |x|
        code, tmp, cfg, out = solved
        lines = (out / "profile.csv").read_text().splitlines()
        row = next(k for k, line in enumerate(lines[1:], 1)
                   if float(line.split(",")[0]) == 50.0)
        fields = lines[row].split(",")
        fields[0] = repr(50.0 + 4e-4)
        lines[row] = ",".join(fields)
        bad = _write(tmp_path, "off_grid.csv", "\n".join(lines) + "\n")
        err = self._one_line_exit(
            capsys, ["diagnose", bad, cfg, "--checks", "clean",
                     "--out", str(tmp_path / "d6")], 2)
        assert "uniform grid" in err

    @pytest.mark.parametrize("key, value, checks", [
        ("rho", "-1", "clean"),
        ("alpha", "1.5", "holder"),
    ])
    def test_bad_diagnostics_value_exit2(self, solved, tmp_path, capsys, key,
                                         value, checks):
        code, tmp, cfg, out = solved
        cfg2 = _write(tmp_path, "bad.ini", CONFIG_SMALL +
                      f"\n[diagnostics]\n{key} = {value}\n")
        self._one_line_exit(capsys, ["diagnose", str(out / "profile.csv"), cfg2,
                                     "--checks", checks,
                                     "--out", str(tmp_path / "d6")], 2)

    def test_envelope_clause_failure_exit1(self, tmp_path, capsys):
        # at h = 0.2 the collars of width 2 tau = 0.1 hold fewer than two
        # nodes, so the barrier pair cannot be built
        grid = Grid(R=200.0, n=2001)
        ref = Profile.from_function(grid, lambda x: layer(x))
        prof = str(tmp_path / "coarse.csv")
        write_profile_csv(prof, ref, ref)
        cfg = _write(tmp_path, "run.ini", CONFIG_SMALL)
        err = self._one_line_exit(
            capsys, ["diagnose", prof, cfg, "--checks", "lewy-stampacchia",
                     "--out", str(tmp_path / "d7")], 1)
        assert "collar" in err

    def test_single_tail_sample_exit1(self, tmp_path, capsys):
        # one nonzero deviation right of R/2 used to fit exponent -1.326
        # with r_squared 1.0, reported as measured
        grid = Grid(R=200.0, n=8001)
        x = grid.x
        q = np.where(x < 0.0, layer(x), 2 * math.pi)
        q[np.argmin(np.abs(x - 150.0))] -= 1e-3
        Q = Profile(grid, q, 0.0, 2 * math.pi)
        prof = str(tmp_path / "sparse.csv")
        write_profile_csv(prof, Q, Q)
        cfg = _write(tmp_path, "run.ini", CONFIG_SMALL)
        err = self._one_line_exit(
            capsys, ["diagnose", prof, cfg, "--checks", "tail",
                     "--out", str(tmp_path / "d9")], 1)
        assert "degenerate fit" in err
        # the left fit succeeds, but no side's CSV is written
        assert not list((tmp_path / "d9").glob("tail_*.csv"))


class TestBench:
    def test_small_bench_passes(self, tmp_path):
        cfg = _write(tmp_path, "b.ini", CONFIG_BENCH)
        out = tmp_path / "bench"
        assert main(["bench-appendix", cfg, "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["verdicts"]["bump_s0.3"] == "pass"
        assert man["verdicts"]["trace"] == "pass"

    def test_half_exponent_usage_error(self, tmp_path):
        cfg = _write(tmp_path, "b.ini", "[bench]\ns_values = 0.5\nkmax = 3\n")
        assert main(["bench-appendix", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key,value", [
        ("s_values", ""), ("kmax", "0"), ("trace_kmax", "1")])
    def test_value_that_checks_nothing_is_usage_error(self, tmp_path, capsys,
                                                     key, value):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        with open(os.path.join(root, "configs", "bench.ini")) as fh:
            lines = [f"{key} = {value}" if ln.split("=")[0].strip() == key
                     else ln for ln in fh.read().splitlines()]
        cfg = _write(tmp_path, "b.ini", "\n".join(lines) + "\n")
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["bench-appendix", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"[bench] {key}" in err
        assert not out.exists()

    def test_unresolvable_k_check_error(self, tmp_path):
        cfg = _write(tmp_path, "b.ini",
                     "[bench]\ns_values = 0.3\nkmax = 40\nresolution = 2001\n")
        assert main(["bench-appendix", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_starts_no_thread_and_ignores_thread_env(self, tmp_path,
                                                      monkeypatch):
        # the members run one after another in this thread, whatever
        # NLHET_THREADS says
        def refuse(self):
            raise AssertionError("bench-appendix started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = _write(tmp_path, "b.ini",
                     "[bench]\ns_values = 0.3, 0.4\nkmax = 4\n"
                     "resolution = 2001\ntrace_kmax = 3\n")
        names = ["bump_s0.3.csv", "bump_s0.4.csv", "trace.csv"]
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("NLHET_THREADS", threads)
            out = tmp_path / f"t{threads}"
            assert main(["bench-appendix", cfg, "--out", str(out)]) == 0
            outs.append([(out / name).read_bytes() for name in names])
        assert outs[0] == outs[1]
