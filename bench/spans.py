"""Spans around nlhet's public callables, recorded from outside the package.

``install`` runs inside a traced command: it replaces every module binding
of each measured callable (``from .model import potential_eval_grad`` makes
one binding per importing module) with a wrapper that records a span
(layer, start, end, parent, key).  Spans stay in memory until ``dump``.
``summarize`` runs in run.py and turns the span files of one
repetition into per-layer counts and seconds.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

# (layer, module, attribute); "Class.method" wraps the method on its class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("discretize.conv", "nlhet.discretize", "Workspace.conv"),
    ("discretize.workspace.build", "nlhet.discretize", "Workspace.__init__"),
    ("discretize.workspace.lookup", "nlhet.discretize", "workspace_for"),
    ("model.potential", "nlhet.model", "potential_eval_grad"),
    ("model.verify", "nlhet.model", "verify_model"),
    ("config.parse", "nlhet.config", "parse_config"),
    ("obstacles.barrier", "nlhet.obstacles", "solve_barrier"),
    ("obstacles.envelopes", "nlhet.obstacles", "build_envelopes"),
    ("solver.continuation", "nlhet.solver", "continuation_run"),
    ("cli.csv_write", "nlhet.cli", "write_profile_csv"),
    ("cli.csv_write", "nlhet.cli", "write_trace_csv"),
    ("cli.csv_write", "nlhet.cli", "write_obstacles_csv"),
    ("cli.csv_read", "nlhet.cli", "read_profile_csv"),
    ("cli.layer_match", "nlhet.cli", "_layer_match"),
    ("appendix_bench.bump_norms", "nlhet.appendix_bench", "bump_norms"),
    ("appendix_bench.trace_norms", "nlhet.appendix_bench", "trace_norms"),
)
# every public function of this module is one layer
DIAGNOSTICS = ("diagnostics", "nlhet.diagnostics")
# arguments that identify a call, for counting distinct calls
KEY_ARGS = {"obstacles.barrier": ("eta", "sign")}


class Recorder:
    """In-memory spans: [layer, start, end, parent record or None, key]."""

    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()

    def wrap(self, layer: str, fn):
        spans, local = self.spans, self._local
        names = KEY_ARGS.get(layer)
        sig = inspect.signature(fn) if names else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            key = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                key = [bound.get(n) for n in names]
            rec = [layer, 0.0, 0.0, stack[-1] if stack else None, key]
            spans.append(rec)
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def dump(self, path: str, report: dict) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[layer, t0, t1, -1 if parent is None else index[id(parent)], key]
                for layer, t0, t1, parent, key in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, **report}, fh)


def _targets():
    dg = sys.modules[DIAGNOSTICS[1]]
    extra = [(DIAGNOSTICS[0], DIAGNOSTICS[1], name) for name in dg.__all__
             if inspect.isfunction(getattr(dg, name, None))]
    return list(TARGETS) + extra


def install(rec: Recorder) -> dict:
    """Wrap every binding of every target in the loaded nlhet modules.

    Returns {"bindings": {target: count}, "missing": [target, ...]}.
    """
    import nlhet.cli  # noqa: F401  (loads every module of the package)

    modules = [m for name, m in list(sys.modules.items())
               if name == "nlhet" or name.startswith("nlhet.")]
    bindings: Dict[str, int] = {}
    missing: List[str] = []
    for layer, modname, attr in _targets():
        target = f"{modname}.{attr}"
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(sys.modules[modname], owner_name) if owner_name \
            else sys.modules[modname]
        orig = vars(owner).get(name)
        if orig is None:
            missing.append(target)
            continue
        wrapper = rec.wrap(layer, orig)
        if owner_name:
            setattr(owner, name, wrapper)
            bindings[target] = 1
            continue
        count = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    count += 1
        bindings[target] = count
    return {"bindings": bindings, "missing": missing}


class LayerTotals:
    """Per-layer sums over the span files of one repetition."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)  # outermost spans
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, int] = defaultdict(int)
        self.missing: set = set()

    def add_file(self, path: str) -> None:
        with open(path) as fh:
            data = json.load(fh)
        rows = data["spans"]
        self.missing.update(data.get("missing", ()))
        covered = [0.0] * len(rows)
        keys = defaultdict(set)
        for layer, t0, t1, parent, key in rows:
            self.calls[layer] += 1
            if parent >= 0:
                covered[parent] += t1 - t0
            if key is not None:
                keys[layer].add(tuple(key))
            if not _nested_in_same(rows, parent, layer):
                self.seconds[layer] += t1 - t0
        for i, (layer, t0, t1, _, _) in enumerate(rows):
            self.self_seconds[layer] += (t1 - t0) - covered[i]
        for layer, ks in keys.items():
            self.distinct[layer] += len(ks)


def _nested_in_same(rows: list, parent: int, layer: str) -> bool:
    while parent >= 0:
        if rows[parent][0] == layer:
            return True
        parent = rows[parent][3]
    return False


def summarize(files: Iterable[str]) -> LayerTotals:
    totals = LayerTotals()
    for path in files:
        if os.path.exists(path):    # a command that died writes no spans
            totals.add_file(path)
    return totals


def per_iter(calls: int, iters: Optional[int]) -> float:
    return calls / iters if iters else 0.0
