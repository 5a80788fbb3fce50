"""Command line interface: run scenarios, emit plot series, and validate
behaviour-tree files.

Exit codes: 0 scenario complete / command succeeded, 2 scenario ran but
did not complete, 3 error.  Each subcommand imports what it uses, so
`plots` loads no numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bt import ParseError, ResolveError, parse_document, resolve, serialize
from .scenarios import REFERENCE_SCENARIOS, scenario_path

EXIT_OK = 0
EXIT_INCOMPLETE = 2
EXIT_ERROR = 3


def _resolve_config_path(value: str) -> Path:
    path = Path(value)
    if path.exists():
        return path
    if value in REFERENCE_SCENARIOS:
        return scenario_path(value)
    return path    # let load_config report the missing file


def _cmd_run(args) -> int:
    from .config import ConfigError, load_config
    from .runner import run
    path = _resolve_config_path(args.config)
    # load_config skips the None values of flags left unset
    overrides = {"seed": args.seed, "max_sim_time": args.max_sim_time,
                 "transport": args.mode}
    try:
        config = load_config(path, overrides=overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report = run(config, out_dir=args.out, snapshot=args.snapshot)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if report.error:
        return EXIT_ERROR
    return EXIT_OK if report.complete else EXIT_INCOMPLETE


def _cmd_plots(args) -> int:
    from .plots import PlotDataError, emit_plot_data
    try:
        info = emit_plot_data(args.in_dir)
    except PlotDataError as exc:
        print(f"plot data error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps(info))
    return EXIT_OK


def _cmd_validate_bt(args) -> int:
    from .config import PlannerParams
    from .planner import PlannerRuntime, build_registry
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"cannot read tree file: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        doc = parse_document(text)
        stub = PlannerRuntime(bus=None, wm=None, params=PlannerParams())
        tree = resolve(doc, build_registry(stub))
    except (ParseError, ResolveError) as exc:
        print(f"invalid tree: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(serialize(tree), end="")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="regolith",
        description="Desk-scale multi-machine earthmoving simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario headless")
    run_p.add_argument("--config", required=True,
                       help="config file path or bundled scenario name")
    run_p.add_argument("--mode", choices=("loopback", "tcp"), default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--max-sim-time", type=float, default=None)
    run_p.add_argument("--out", default=None, help="artifact directory")
    run_p.add_argument("--snapshot", default=None,
                       help="resume where the snapshot's run stopped")
    run_p.set_defaults(func=_cmd_run)

    plots_p = sub.add_parser("plots", help="emit plot series from run CSVs")
    plots_p.add_argument("--in", dest="in_dir", required=True)
    plots_p.set_defaults(func=_cmd_plots)

    bt_p = sub.add_parser("validate-bt",
                          help="parse and resolve a behaviour-tree file")
    bt_p.add_argument("--file", required=True)
    bt_p.set_defaults(func=_cmd_validate_bt)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:          # surface anything unexpected as exit 3
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
