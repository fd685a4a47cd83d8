"""Plain-text configuration (INI sections, key = value) -> model objects.

One file drives a run; the resolved content is hashed so identical configs
produce identical outputs.  A section or key that the parser does not read
is rejected, so a misspelt name cannot fall back to its default silently.
Option names are case-sensitive: ``theta0`` and ``Theta0`` are two keys,
and a miscased name is unknown.  Sequences are comma-separated.  Obstacle
endpoints default to the modulation's window centers m1/m2 when omitted.
"""

from __future__ import annotations

import configparser
import io
import math
from typing import Optional, Tuple

from ._record import record
from .discretize import Grid
from .model import KernelSpec, ModulationSpec, PotentialSpec, ProblemSpec
from .obstacles import ObstacleConfig
from .solver import ContinuationSchedule, SolverConfig

# CPython's built-in SHA-256 (``_sha2`` from 3.12, ``_sha256`` before): the
# same digests as hashlib's, without loading OpenSSL's libcrypto (3.4 MB of
# RSS in every process)
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # a build without the built-in modules
        from hashlib import sha256 as _sha256


class ConfigError(ValueError):
    """Bad configuration content; carries a line number when known."""

    def __init__(self, msg: str, lineno: Optional[int] = None):
        super().__init__(msg if lineno is None else f"line {lineno}: {msg}")
        self.lineno = lineno


@record
class RunConfig:
    spec: ProblemSpec
    grid: Grid
    obstacles: Optional[ObstacleConfig]  # None when unused and not derivable
    schedule: ContinuationSchedule
    solver: SolverConfig
    limit_tol: Optional[float]
    report: dict
    diagnostics: dict
    bench: dict
    digest: str
    raw: dict


def _floats(text: str) -> Tuple[float, ...]:
    return tuple(float(t) for t in text.replace(";", ",").split(",") if t.strip())


def parse_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str
    try:
        with open(path, "r") as fh:
            cp.read_file(fh, source=path)
    except OSError as e:
        raise FileNotFoundError(str(e)) from e
    except configparser.Error as e:
        raise ConfigError(str(e), getattr(e, "lineno", None)) from e

    read = set()  # (section, key): every key the parser knows

    def get(sec, key, cast=float, default=None):
        read.add((sec, key))
        if not cp.has_option(sec, key):
            return default
        raw = cp.get(sec, key)
        try:
            if cast is bool:  # 1/yes/true/on or 0/no/false/off, any case
                return cp.getboolean(sec, key)
            value = cast(raw)
        except ValueError as e:
            raise ConfigError(f"[{sec}] {key} = {raw!r}: {e}") from e
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"[{sec}] {key} = {raw!r}: not a finite number")
        return value

    try:
        kernel = KernelSpec(
            s=get("kernel", "s", float, 0.5),
            form=(get("kernel", "form", str, "power") or "power").lower(),
            c=get("kernel", "c", float, None),
            theta0=get("kernel", "theta0", float, None),
            Theta0=get("kernel", "Theta0", float, None),
            r0=get("kernel", "r0", float, 1.0),
        )
        potential = PotentialSpec(
            zeta1=get("potential", "zeta1", float, 0.0),
            zeta2=get("potential", "zeta2", float, 2 * math.pi),
            form=(get("potential", "form", str, "cosine") or "cosine").lower(),
            amplitude=get("potential", "amplitude", float, 1.0),
            delta0=get("potential", "delta0", float, None),
            c0=get("potential", "c0", float, None),
            C0_growth=get("potential", "C0_growth", float, None),
        )
        modulation = ModulationSpec(
            form=(get("modulation", "form", str, "constant") or "constant").lower(),
            base=get("modulation", "base", float, 1.0),
            eps=get("modulation", "eps", float, 0.0),
            delta_freq=get("modulation", "delta_freq", float, 1.0),
            m1=get("modulation", "m1", float, 0.0),
            m2=get("modulation", "m2", float, 0.0),
            omega=get("modulation", "omega", float, 0.0),
            theta=get("modulation", "theta", float, 0.0),
            gamma=get("modulation", "gamma", float, 0.0),
        )
        spec = ProblemSpec(kernel, potential, modulation)
        grid = Grid(R=get("grid", "R", float, 200.0),
                    n=get("grid", "n", int, 8001))
        explicit_b = cp.has_option("obstacles", "b1") or cp.has_option("obstacles", "b2")
        b1 = get("obstacles", "b1", float, None)
        b2 = get("obstacles", "b2", float, None)
        if b1 is None:
            b1 = modulation.m1
        if b2 is None:
            b2 = modulation.m2
        try:
            obstacles = ObstacleConfig(
                b1=b1, b2=b2,
                tau=get("obstacles", "tau", float, 0.05),
                r=get("obstacles", "r", float, None),
            )
        except ValueError:
            if explicit_b:
                raise
            obstacles = None  # commands that need obstacles reject this later
        schedule = ContinuationSchedule(
            eta_seq=get("continuation", "eta_seq", _floats, (1e-1, 1e-2, 1e-3, 0.0)),
            mu_seq=get("continuation", "mu_seq", _floats, (1e-1, 2e-2, 5e-3, 0.0)),
        )
        solver = SolverConfig(
            max_iters=get("solver", "max_iters", int, 200000),
            grad_tol=get("solver", "grad_tol", float, None),
        )
        limit_tol = get("limit", "tol", float, None)
        report = {
            "layer_match": get("report", "layer_match", bool, False),
            "layer_tol": get("report", "layer_tol", float, 0.05),
        }
        diagnostics = {
            "rho": get("diagnostics", "rho", float, 0.05),
            "stickiness_tol": get("diagnostics", "stickiness_tol", float, 1e-2),
            "ls_slack": get("diagnostics", "ls_slack", float, None),
            "alpha": get("diagnostics", "alpha", float, None),
            "x1": get("diagnostics", "x1", float, None),
            "x2": get("diagnostics", "x2", float, None),
            "eta": get("diagnostics", "eta", float, 0.0),
            "mu": get("diagnostics", "mu", float, 0.0),
        }
        bench = {
            "s_values": get("bench", "s_values", _floats, (0.3, 0.4)),
            "kmax": get("bench", "kmax", int, 8),
            "resolution": get("bench", "resolution", int, 4001),
            "trace_kmax": get("bench", "trace_kmax", int, 3),
            "bump_tol": get("bench", "bump_tol", float, 0.03),
            "trace_tol": get("bench", "trace_tol", float, 0.05),
        }
        # a bump or trace ratio needs two members: k = 0..kmax, 1..trace_kmax
        for key, low in (("kmax", 1), ("trace_kmax", 2)):
            if bench[key] < low:
                raise ConfigError(f"[bench] {key} = {bench[key]}: must be >= "
                                  f"{low}, or no ratio is checked")
        if not bench["s_values"]:
            raise ConfigError("[bench] s_values is empty: no family to check")
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e

    known = {sec for sec, _ in read}
    unknown = [f"[{sec}]" for sec in cp.sections() if sec not in known] + [
        f"[{sec}] {key}" for sec in cp.sections() if sec in known
        for key in cp.options(sec) if (sec, key) not in read]
    if unknown:
        raise ConfigError("unknown section or key: " + ", ".join(unknown))

    # the digest names keys in lowercase, as earlier digests did; a key
    # that would then read as another known key (Theta0) keeps its case
    def digest_name(sec, key):
        low = key.lower()
        return key if low != key and (sec, low) in read else low

    raw = {s: {digest_name(s, k): v for k, v in cp.items(s)}
           for s in cp.sections()}
    digest = config_digest(raw)
    return RunConfig(spec, grid, obstacles, schedule, solver, limit_tol,
                     report, diagnostics, bench, digest, raw)


def config_digest(raw: dict) -> str:
    buf = io.StringIO()
    for sec in sorted(raw):
        buf.write(f"[{sec}]\n")
        for k in sorted(raw[sec]):
            buf.write(f"{k}={raw[sec][k]}\n")
    return sha256_hex(buf.getvalue())


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of the UTF-8 bytes of ``text``: every digest nlhet writes."""
    return _sha256(text.encode()).hexdigest()
