"""Plain-text configuration (INI sections, key = value) -> model objects.

One file drives a run; the resolved content is hashed so identical configs
produce identical outputs.  Sequences are comma-separated.  Obstacle
endpoints default to the modulation's window centers m1/m2 when omitted.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from typing import Optional, Tuple

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


@dataclass
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


def _get(cp, sec, key, cast=float, default=None):
    if not cp.has_option(sec, key):
        return default
    raw = cp.get(sec, key)
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as e:
        raise ConfigError(f"[{sec}] {key} = {raw!r}: {e}") from e


def parse_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r") as fh:
            cp.read_file(fh, source=path)
    except OSError as e:
        raise FileNotFoundError(str(e)) from e
    except configparser.Error as e:
        raise ConfigError(str(e), getattr(e, "lineno", None)) from e

    try:
        kernel = KernelSpec(
            s=_get(cp, "kernel", "s", float, 0.5),
            form={"powerlaw": "power"}.get(
                (_get(cp, "kernel", "form", str, "power") or "power").lower(),
                (_get(cp, "kernel", "form", str, "power") or "power").lower()),
            c=_get(cp, "kernel", "c", float, None),
            theta0=_get(cp, "kernel", "theta0", float, None),
            Theta0=_get(cp, "kernel", "Theta0", float, None),
            r0=_get(cp, "kernel", "r0", float, 1.0),
        )
        potential = PotentialSpec(
            zeta1=_get(cp, "potential", "zeta1", float, 0.0),
            zeta2=_get(cp, "potential", "zeta2", float, 2 * math.pi),
            form=(_get(cp, "potential", "form", str, "cosine") or "cosine").lower(),
            amplitude=_get(cp, "potential", "amplitude", float, 1.0),
            delta0=_get(cp, "potential", "delta0", float, None),
            c0=_get(cp, "potential", "c0", float, None),
            C0_growth=_get(cp, "potential", "C0_growth", float, None),
        )
        modulation = ModulationSpec(
            form=(_get(cp, "modulation", "form", str, "constant") or "constant").lower(),
            base=_get(cp, "modulation", "base", float, 1.0),
            eps=_get(cp, "modulation", "eps", float, 0.0),
            delta_freq=_get(cp, "modulation", "delta_freq", float, 1.0),
            m1=_get(cp, "modulation", "m1", float, 0.0),
            m2=_get(cp, "modulation", "m2", float, 0.0),
            omega=_get(cp, "modulation", "omega", float, 0.0),
            theta=_get(cp, "modulation", "theta", float, 0.0),
            gamma=_get(cp, "modulation", "gamma", float, 0.0),
        )
        spec = ProblemSpec(kernel, potential, modulation)
        grid = Grid(R=_get(cp, "grid", "R", float, 200.0),
                    n=_get(cp, "grid", "n", int, 8001))
        explicit_b = cp.has_option("obstacles", "b1") or cp.has_option("obstacles", "b2")
        b1 = _get(cp, "obstacles", "b1", float, None)
        b2 = _get(cp, "obstacles", "b2", float, None)
        if b1 is None:
            b1 = modulation.m1
        if b2 is None:
            b2 = modulation.m2
        try:
            obstacles = ObstacleConfig(
                b1=b1, b2=b2,
                tau=_get(cp, "obstacles", "tau", float, 0.05),
                r=_get(cp, "obstacles", "r", float, None),
            )
        except ValueError:
            if explicit_b:
                raise
            obstacles = None  # commands that need obstacles reject this later
        schedule = ContinuationSchedule(
            eta_seq=_floats(cp.get("continuation", "eta_seq"))
            if cp.has_option("continuation", "eta_seq") else (1e-1, 1e-2, 1e-3, 0.0),
            mu_seq=_floats(cp.get("continuation", "mu_seq"))
            if cp.has_option("continuation", "mu_seq") else (1e-1, 2e-2, 5e-3, 0.0),
        )
        solver = SolverConfig(
            max_iters=_get(cp, "solver", "max_iters", int, 200000),
            grad_tol=_get(cp, "solver", "grad_tol", float, None),
        )
        limit_tol = _get(cp, "limit", "tol", float, None)
        report = {
            "layer_match": _get(cp, "report", "layer_match", bool, False),
            "layer_tol": _get(cp, "report", "layer_tol", float, 0.05),
        }
        diagnostics = {
            "rho": _get(cp, "diagnostics", "rho", float, 0.05),
            "stickiness_tol": _get(cp, "diagnostics", "stickiness_tol", float, 1e-2),
            "ls_slack": _get(cp, "diagnostics", "ls_slack", float, None),
            "alpha": _get(cp, "diagnostics", "alpha", float, None),
            "x1": _get(cp, "diagnostics", "x1", float, None),
            "x2": _get(cp, "diagnostics", "x2", float, None),
            "eta": _get(cp, "diagnostics", "eta", float, 0.0),
            "mu": _get(cp, "diagnostics", "mu", float, 0.0),
        }
        bench = {
            "s_values": _floats(cp.get("bench", "s_values"))
            if cp.has_option("bench", "s_values") else (0.3, 0.4),
            "kmax": _get(cp, "bench", "kmax", int, 8),
            "resolution": _get(cp, "bench", "resolution", int, 4001),
            "trace_kmax": _get(cp, "bench", "trace_kmax", int, 3),
            "bump_tol": _get(cp, "bench", "bump_tol", float, 0.03),
            "trace_tol": _get(cp, "bench", "trace_tol", float, 0.05),
        }
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e

    raw = {s: dict(cp.items(s)) for s in cp.sections()}
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
