"""The benchmark's workloads: seeded INI generation and command sequences.

Each workload starts from a committed INI file and redraws a few input
values from the seed.  Seed 0 keeps the committed values, so the generated
file equals the committed one byte for byte; other seeds keep the problem
size and every correctness check valid.  The program only sees the
generated INI.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _set_keys(text: str, values: Dict[str, str]) -> str:
    """Replace the value of each ``key = value`` line named in ``values``."""
    for key, value in values.items():
        text, n = re.subn(rf"(?m)^{re.escape(key)} = .*$",
                          lambda _m, k=key, v=value: f"{k} = {v}", text)
        if n != 1:
            raise ValueError(f"template holds {n} lines for key {key!r}")
    return text


def _homogeneous(rng: random.Random, seed: int) -> Dict[str, str]:
    b = 4.0 if seed == 0 else round(rng.uniform(3.0, 5.0), 6)
    return {"b1": repr(-b), "b2": repr(b)}


def _modulated(rng: random.Random, seed: int) -> Dict[str, str]:
    eps = 0.5 if seed == 0 else round(rng.uniform(0.4, 0.6), 6)
    return {"eps": repr(eps), "gamma": repr(math.sqrt(2) * eps)}


def _appendix(rng: random.Random, seed: int) -> Dict[str, str]:
    if seed == 0:
        s_values = [0.3, 0.35, 0.4, 0.45]
    else:
        s_values = set()
        while len(s_values) < 4:
            s_values.add(round(rng.uniform(0.3, 0.45), 3))
        s_values = sorted(s_values)
    return {"s_values": ", ".join(repr(s) for s in s_values)}


Command = Tuple[str, List[str], Path]   # label, nlhet argv, output directory


@dataclass(frozen=True)
class Workload:
    name: str
    template: Path
    draw: Callable[[random.Random, int], Dict[str, str]]
    sequence: Callable[[Path, Path], List[Command]]

    def config_text(self, seed: int) -> str:
        return _set_keys(self.template.read_text(), self.draw(random.Random(seed), seed))


def _solve(ini: Path, out: Path) -> List[Command]:
    return [("solve", ["solve", str(ini), "--out", str(out)], out)]


def _solve_diagnose(ini: Path, out: Path) -> List[Command]:
    diag = out / "diagnostics"
    return _solve(ini, out) + [
        ("diagnose", ["diagnose", str(out / "profile.csv"), str(ini),
                      "--checks", "clean,tail,lewy-stampacchia",
                      "--out", str(diag)], diag)]


def _bench_appendix(ini: Path, out: Path) -> List[Command]:
    return [("bench-appendix", ["bench-appendix", str(ini), "--out", str(out)], out)]


WORKLOADS = {w.name: w for w in (
    Workload("homogeneous", ROOT / "configs" / "homogeneous.ini", _homogeneous, _solve),
    Workload("modulated", ROOT / "configs" / "modulated.ini", _modulated, _solve_diagnose),
    Workload("appendix", BENCH / "appendix.ini", _appendix, _bench_appendix),
)}
