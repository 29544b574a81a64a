"""Command-line entry point.

Subcommands:

* ``scan``     analyze one tree file or a directory of tree files
* ``report``   aggregate previously scanned JSON results
* ``simulate`` run the synthetic-project methodology comparison
* ``status``   print the release-cadence status of every library in a history file

Exit codes: 0 success, 1 any error, 2 when a scan finds a vulnerable
deployed path (CI-friendly). All configuration is via flags; no environment
variables are read.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from datetime import date
from pathlib import Path

from depscope.errors import DepscopeError, InputFileError, SchemaViolation
from depscope.ingest import (
    load_release_history,
    load_vuln_kb,
    parse_date_at,
    parse_tree_json,
    parse_tree_text,
)
from depscope.lifecycle import SmoothingConfig, render_status
from depscope.model import DependencyTree
from depscope.report import aggregate, parse_scan_results_json, render, render_chunks, scan
from depscope.simulate import SimulationConfig, SimulationPool, render_simulation, simulate


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for findings
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _date_arg(text: str) -> date:
    try:
        return parse_date_at(text, "")
    except SchemaViolation:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {text!r}") from None


def _add_smoothing_flags(parser: argparse.ArgumentParser) -> None:
    default = SmoothingConfig()
    parser.add_argument("--alpha", type=float, default=default.alpha,
                        help=f"smoothing factor in (0,1) (default {default.alpha})")
    parser.add_argument("--default-interval-days", type=int,
                        default=default.default_interval_days,
                        help="assumed release interval for short histories "
                        f"(default {default.default_interval_days})")
    parser.add_argument("--min-releases", type=int, default=default.min_releases,
                        help="releases needed before the smoothed interval is used "
                        f"(default {default.min_releases})")
    parser.add_argument("--time", type=_date_arg, default=None,
                        help="analysis date YYYY-MM-DD (default: tree analysis time, else today)")


def _smoothing(args) -> SmoothingConfig:
    return SmoothingConfig(
        alpha=args.alpha,
        default_interval_days=args.default_interval_days,
        min_releases=args.min_releases,
    )


def _load(path: Path, parse):
    """``parse`` applied to the file's text, without a leading UTF-8 byte-order
    mark; its errors, and text that is not UTF-8, name the file."""
    try:
        return parse(path.read_text(encoding="utf-8-sig"))
    except (DepscopeError, UnicodeDecodeError) as exc:
        raise InputFileError(path, exc) from exc


def _names(directory: Path, suffixes: tuple[str, ...]) -> list[str]:
    """The sorted names of the files in ``directory`` ending in one of
    ``suffixes``: names, not paths, so what is held per file stays small."""
    return sorted(name for name in os.listdir(directory) if os.path.splitext(name)[1] in suffixes)


def _load_trees(path: Path) -> list[DependencyTree]:
    files = [path]
    if path.is_dir():
        files = [path / name for name in _names(path, (".txt", ".json"))]
        if not files:
            raise DepscopeError(f"no .txt or .json tree files in {path}")
    trees, file_of = [], {}
    for file in files:
        tree = _load(file, parse_tree_json if file.suffix == ".json" else parse_tree_text)
        root = tree.root.gav
        if root in file_of:
            raise DepscopeError(f"tree {root} is in both {file_of[root]} and {file}")
        file_of[root] = file
        trees.append(tree)
    return trees


def _cmd_scan(args) -> int:
    histories = _load(args.history, load_release_history)
    kb = _load(args.kb, load_vuln_kb)
    trees = _load_trees(args.tree)
    cfg = _smoothing(args)  # one config, so every tree reads the one verdict table
    results = [
        scan(
            tree,
            kb,
            histories,
            time=args.time,
            cfg=cfg,
            lenient=args.lenient_history,
            include_non_deployed=args.include_non_deployed,
        )
        for tree in trees
    ]
    results.sort(key=lambda r: str(r.root))
    output = results[0] if not args.tree.is_dir() else results
    sys.stdout.writelines(render_chunks(output, args.format))  # one rendered result at a time
    return 2 if any(r.has_deployed_finding() for r in results) else 0


def _cmd_report(args) -> int:
    names = _names(args.input, (".json",))
    if not names:
        raise DepscopeError(f"no .json scan results in {args.input}")
    # aggregate reads every file before anything is written, holding one at a time
    results = (result for name in names
               for result in _load(args.input / name, parse_scan_results_json))
    sys.stdout.write(render(aggregate(results), args.format))
    return 0


def _cmd_simulate(args) -> int:
    pool = SimulationPool(
        trees=tuple(_load_trees(args.trees)),
        histories=_load(args.history, load_release_history),
        kb=_load(args.kb, load_vuln_kb),
    )
    cfg = SimulationConfig(
        projects=args.projects,
        deps_per_project=args.deps,
        seed=args.seed,
        smoothing=_smoothing(args),
        time=args.time,
        lenient=args.lenient_history,
    )
    outcomes = simulate(pool, cfg)
    sys.stdout.write(render_simulation(outcomes, cfg, args.format))
    return 0


def _cmd_status(args) -> int:
    histories = _load(args.history, load_release_history)
    time = args.time or date.today()
    sys.stdout.write(render_status(histories, time, _smoothing(args), args.format))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="depscope",
                     description="dependency tree vulnerability and lifecycle analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="analyze a tree file or a directory of trees")
    p_scan.add_argument("--tree", type=Path, required=True,
                        help="tree file (.txt or .json) or directory of tree files")
    p_scan.add_argument("--history", type=Path, required=True,
                        help="release history CSV")
    p_scan.add_argument("--kb", type=Path, required=True,
                        help="vulnerability knowledge base JSON")
    p_scan.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_scan.add_argument("--lenient-history", action="store_true",
                        help="treat libraries without history as alive instead of failing")
    p_scan.add_argument("--include-non-deployed", action="store_true",
                        help="match vulnerabilities before the deployment filter")
    _add_smoothing_flags(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_report = sub.add_parser("report", help="aggregate scan results from JSON files")
    p_report.add_argument("--input", type=Path, required=True,
                          help="directory of scan-result .json files")
    p_report.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_report.set_defaults(func=_cmd_report)

    p_sim = sub.add_parser("simulate", help="compare methodologies on synthetic projects")
    p_sim.add_argument("--trees", type=Path, required=True,
                       help="directory of pool tree files")
    p_sim.add_argument("--history", type=Path, required=True)
    p_sim.add_argument("--kb", type=Path, required=True)
    default = SimulationConfig()
    p_sim.add_argument("--projects", type=int, default=default.projects)
    p_sim.add_argument("--deps", type=int, default=default.deps_per_project,
                       help="direct dependencies per synthetic project "
                       f"(default {default.deps_per_project})")
    p_sim.add_argument("--seed", type=int, default=default.seed)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--lenient-history", action="store_true")
    _add_smoothing_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_status = sub.add_parser("status", help="lifecycle status of every library in a history file")
    p_status.add_argument("--history", type=Path, required=True)
    p_status.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_smoothing_flags(p_status)
    p_status.set_defaults(func=_cmd_status)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DepscopeError, OSError, ValueError) as exc:
        print(f"depscope: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    """The console script and ``python -m depscope.cli``: :func:`main`, with
    the cyclic garbage collector off for the command. A command is a short
    process that creates almost no reference cycles, so the collections a
    large KB would set off find nothing to free. :func:`main` leaves the
    collector as it finds it, for callers in a longer-lived process."""
    gc.disable()
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
