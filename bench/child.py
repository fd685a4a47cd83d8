"""One fresh interpreter of the benchmark: an nlhet command or the set-up probe.

    python3 bench/child.py cli [--spans FILE] -- ARGV...
        Run ``nlhet.cli.main(ARGV)`` and exit with its code.  With --spans,
        the callables listed in spans.py are wrapped at every module binding
        first, and the spans are written to FILE when the command ends.

    python3 bench/child.py setup WORKLOAD INI
        Time everything that runs before the first descent step: import
        nlhet, parse_config, verify_model and the first workspace_for on the
        workload's grid.  Prints {"setup_s": seconds} as JSON.

run.py sets PYTHONPATH to the src directory of the repository.
"""

import json
import sys
import time


def _setup(workload: str, ini: str) -> int:
    t0 = time.perf_counter()
    from nlhet.config import parse_config
    from nlhet.discretize import Grid, workspace_for
    from nlhet.model import KernelSpec, verify_model
    cfg = parse_config(ini)
    report = verify_model(cfg.spec)
    if workload == "appendix":
        # first bump member: plain Gagliardo kernel on a window of half-width
        # BumpFamily.pad = 2 at the configured resolution
        kernel = KernelSpec(s=cfg.bench["s_values"][0], c=1.0)
        grid = Grid(2.0, cfg.bench["resolution"])
    else:
        kernel, grid = cfg.spec.kernel, cfg.grid
    workspace_for(kernel, grid)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))
    return 0 if report.all_passed else 1


def _cli(spans_path, argv) -> int:
    if spans_path is None:
        from nlhet.cli import main
        return main(argv)
    from spans import Recorder, install
    rec = Recorder()
    report = install(rec)
    from nlhet.cli import main
    try:
        return main(argv)
    finally:
        rec.dump(spans_path, report)


def main(args) -> int:
    if args[:1] == ["setup"] and len(args) == 3:
        return _setup(args[1], args[2])
    if args[:1] == ["cli"] and "--" in args:
        sep = args.index("--")
        opts = args[1:sep]
        if opts == []:
            return _cli(None, args[sep + 1:])
        if len(opts) == 2 and opts[0] == "--spans":
            return _cli(opts[1], args[sep + 1:])
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
