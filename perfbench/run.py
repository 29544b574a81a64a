"""depscope benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-scan --seed 1 --seconds 10 --trace 0

Run from the root of a depscope checkout; depscope is imported from ``src/``.
Inputs are generated from ``--seed`` into ``.perfbench_work/`` and removed at
the end. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it drives ``depscope.cli.main`` in-process, once plain and once
with every layer wrapped, and reports the per-layer metrics. Human-readable
lines come first; the last line of standard output is one JSON object.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import csv
import gc
import importlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

SETUP_REPEATS = 3
SAMPLE_EVERY_S = 0.025  # op time between kernel samples
SAMPLES_PER_S = 20  # kernel samples before an op, per second the last op took
CLI_RUNS = 5
# op_tail_ms is taken per block of this many consecutive ops, and the median
# over blocks reported: the tail of all ops of a run (p99.9 on report) moved
# by 25-40% between runs with a single hiccup of the host
TAIL_BLOCK = 250
OVERHEAD_PAIRS = 3  # plain and traced in-process runs behind trace.overhead_ratio
CLI_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 40
TIME = gen.ANALYSIS_TIME


class OpLog:
    """Attempted and failed ops, with a note on the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(note)


def checked(check, *args) -> str | None:
    """Run an output check; output the check cannot read is a failed op,
    not a crash of the benchmark."""
    try:
        return check(*args)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


# --- depscope access ------------------------------------------------------------------


def fresh_depscope():
    """Import depscope from ``src/`` as a new process would."""
    for name in [n for n in sys.modules if n == "depscope" or n.startswith("depscope.")]:
        del sys.modules[name]
    return importlib.import_module("depscope")


def read(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def parse_tree_file(ds, path: str):
    text = read(path)
    return ds.parse_tree_json(text) if path.endswith(".json") else ds.parse_tree_text(text)


# --- per-workload set-up, ops and checks ----------------------------------------------------


class Workload:
    """Set-up, the timed op and the output checks of one workload."""

    # Each run times a fixed number of ops: --seconds times this rate, which
    # is about what the code measured when the benchmark was written. A
    # fixed count keeps the tail percentile fixed when the code gets faster.
    nominal_ops_per_s: float

    def __init__(self, inputs: gen.Inputs):
        self.inputs = inputs
        self.ds = None
        self.state = None
        self.expected: dict = {}  # reference outputs, computed once

    def path(self, *parts) -> str:
        return os.path.join(self.inputs.root, *parts)

    def setup(self):
        """Load-once work; returns the state the ops use."""
        raise NotImplementedError

    def op_keys(self) -> list:
        raise NotImplementedError

    def op(self, key):
        raise NotImplementedError

    def digest(self, output) -> str:
        """The op's output as text, kept for the check after the timed loop."""
        return output

    def check_op(self, key, text: str) -> str | None:
        """None when the op's output matches the reference, else a note."""
        raise NotImplementedError

    def check_cli(self, code: int, stdout: str) -> str | None:
        raise NotImplementedError

    def cli_ops(self) -> int:
        """Ops one CLI invocation performs (trees, projects or files)."""
        raise NotImplementedError


class ScanWorkload(Workload):
    op_span = "report.scan"
    nominal_ops_per_s = 25.0

    def setup(self):
        histories = self.ds.load_release_history(read(self.path("history.csv")))
        kb = self.ds.load_vuln_kb(read(self.path("kb.json")))
        return histories, kb

    def op_keys(self):
        return sorted(self.inputs.trees)

    def op(self, key):
        histories, kb = self.state
        tree = parse_tree_file(self.ds, self.path("trees", key))
        return self.ds.render(self.ds.scan(tree, kb, histories, time=TIME), "json")

    def _expected(self, key: str) -> dict:
        if key not in self.expected:
            tree = self.inputs.trees.get(key) or self.inputs.probes[key]
            self.expected[key] = oracle.scan(tree, self.inputs.kb, self.inputs.histories, TIME, False)
        return self.expected[key]

    def check_op(self, key, text):
        got = oracle.scan_digest(json.loads(text))
        return None if got == oracle.scan_digest(self._expected(key)) else f"scan of {key} differs"

    def check_cli(self, code, stdout):
        expected = sorted((self._expected(k) for k in self.inputs.trees), key=lambda r: r["root"])
        if code != oracle.exit_code(expected):
            return f"exit code {code}, expected {oracle.exit_code(expected)}"
        got = json.loads(stdout)
        if [oracle.scan_digest(r) for r in got] != [oracle.scan_digest(r) for r in expected]:
            return "scan output differs"
        return None

    def check_probe(self, key, code, stdout) -> str | None:
        """None when the probe passes, "crashed" when depscope died, else
        a note on the wrong answer."""
        expected = self._expected(key)
        if code not in (0, 2):
            return "crashed"
        if code != oracle.exit_code([expected]):
            return f"exit code {code}, expected {oracle.exit_code([expected])}"
        got = json.loads(stdout)
        return None if oracle.scan_digest(got) == oracle.scan_digest(expected) else "scan differs"

    def cli_ops(self):
        return len(self.inputs.trees)


class Simulate(Workload):
    op_span = "simulate.project_tree"
    nominal_ops_per_s = 130.0

    def __init__(self, inputs):
        super().__init__(inputs)
        self.pool_model: dict = {}  # library -> version -> pool tree
        for tree in inputs.trees.values():
            g, a, v = tree.gavs[0]
            self.pool_model.setdefault((g, a), {})[v] = tree

    def setup(self):
        trees = tuple(parse_tree_file(self.ds, self.path("pool", name))
                      for name in sorted(self.inputs.trees))
        pool = self.ds.SimulationPool(
            trees=trees,
            histories=self.ds.load_release_history(read(self.path("history.csv"))),
            kb=tuple(self.ds.load_vuln_kb(read(self.path("kb.json")))),
        )
        return pool

    def op_keys(self):
        # each op is project 0 of its own simulation seed
        return list(range(1, 1 + 10_000))

    def op(self, key):
        cfg = self.ds.SimulationConfig(projects=1, deps_per_project=gen.SIM_DEPS, seed=key, time=TIME)
        (outcome,) = self.ds.simulate(self.state, cfg)
        return outcome

    def digest(self, outcome):
        return repr((outcome.all_vulnerable, outcome.deployed_vulnerable,
                     outcome.controlled_standard, outcome.controlled_proposed,
                     outcome.halted_vulnerable))

    def _expected(self, seed: int, index: int) -> tuple[int, ...]:
        if (seed, index) not in self.expected:
            tree = oracle.project_tree(self.pool_model, seed, index, gen.SIM_DEPS)
            self.expected[seed, index] = oracle.project_counts(
                tree, self.inputs.kb, self.inputs.histories, TIME)
        return self.expected[seed, index]

    def check_op(self, key, text):
        return None if text == repr(self._expected(key, 0)) else f"project of seed {key} differs"

    def check_cli(self, code, stdout):
        seed = int(self.inputs.argv[self.inputs.argv.index("--seed") + 1])
        rows = list(csv.reader(io.StringIO(stdout)))[1:]
        if code != 0 or len(rows) != gen.SIM_PROJECTS:
            return f"exit code {code}, {len(rows)} projects"
        for row in rows:
            index = int(row[0])
            if tuple(int(x) for x in row[2:7]) != self._expected(seed, index):
                return f"project {index} differs"
            if row[1] != f"sim.depscope:project-{index}:1.0":
                return f"project {index} root differs"
        return None

    def cli_ops(self):
        return gen.SIM_PROJECTS


class Report(Workload):
    op_span = "report.parse_scan_results_json"
    nominal_ops_per_s = 1150.0

    def setup(self):
        return sorted(os.listdir(self.path("results")))

    def op_keys(self):
        return list(self.state)

    def op(self, key):
        results = self.ds.parse_scan_results_json(read(self.path("results", key)))
        return self.ds.aggregate(results)

    def digest(self, report):
        return json.dumps(dict(report.cells), sort_keys=True)

    def check_op(self, key, text):
        expected = oracle.cells(self.inputs.results[key])
        return None if _cells_match(json.loads(text), expected) else f"aggregate of {key} differs"

    def check_cli(self, code, stdout):
        expected = oracle.cells([r for rs in self.inputs.results.values() for r in rs])
        if code != 0:
            return f"exit code {code}"
        return None if _cells_match(json.loads(stdout)["cells"], expected) else "aggregate differs"

    def cli_ops(self):
        return len(self.inputs.results)


def _cells_match(got: dict, expected: dict) -> bool:
    return all(got.get(key) == value for key, value in expected.items())


WORKLOADS = {
    "corpus-scan": ScanWorkload,
    "simulate": Simulate,
    "report": Report,
}


# --- subprocess runs ------------------------------------------------------------------------


def run_cli(argv: list[str], work: str, timeout: float) -> tuple[int, str, float, float, float]:
    """Run the depscope CLI as a subprocess; returns (exit code, stdout,
    start, end, peak RSS in MB). A run past ``timeout`` is killed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = os.path.join(work, "cli.out")
    with open(out_path, "wb") as out, open(os.path.join(work, "cli.err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "depscope.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=work)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, read(out_path), started, ended, usage.ru_maxrss / 1024.0


# --- untraced run ---------------------------------------------------------------------------


def block_tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value (nearest rank); the maximum when there are ten samples or fewer."""
    ordered = sorted(values) or [0.0]
    rank = max(1, len(ordered) - 10)  # 1-based rank with ten samples above
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """``block_tail`` of each block of about TAIL_BLOCK consecutive ops (the
    last block takes the remainder); returns the first block's percentile,
    the median value over blocks and the number of blocks."""
    blocks = max(1, len(values) // TAIL_BLOCK)
    size = len(values) // blocks
    tails = [block_tail(values[i * size:(i + 1) * size if i < blocks - 1 else len(values)])
             for i in range(blocks)]
    return tails[0][0], statistics.median(value for _, value in tails), blocks


def untraced(workload: Workload, seconds: float) -> tuple[dict, OpLog, dict]:
    log = OpLog()
    host = speed.SpeedLog()
    host.sample(speed.NEAREST)
    setups = []  # (start, end)
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.ds = fresh_depscope()
        workload.state = workload.setup()
        setups.append((started, time.perf_counter()))
        host.sample(2)

    keys = workload.op_keys()
    count = max(11, round(seconds * workload.nominal_ops_per_s))
    # bookkeeping the collector does not traverse, so it adds no pauses
    outputs: dict[object, set[str]] = {}
    starts, ends = array.array("d"), array.array("d")
    since_sample = 0.0  # op time since the last kernel sample
    gc.collect()
    for i in range(count):
        key = keys[i % len(keys)]
        if since_sample >= SAMPLE_EVERY_S:
            host.sample(min(8, max(1, int(since_sample * SAMPLES_PER_S))))
            since_sample = 0.0
        log.attempted += 1
        started = time.perf_counter()
        try:
            output = workload.op(key)
        except Exception as exc:  # a crash is a failed op, not a failed run
            log.fail(f"op {key}: {type(exc).__name__}: {exc}")
            continue
        ended = time.perf_counter()
        since_sample += ended - started
        starts.append(started)
        ends.append(ended)
        outputs.setdefault(key, set()).add(workload.digest(output))
    host.sample(speed.NEAREST)
    for key, distinct in outputs.items():
        for text in distinct:
            note = checked(workload.check_op, key, text)
            if note:
                log.fail(note)

    # the CLI runs are too long to sample the host speed inside; a median of
    # several runs, each scaled by the samples right around it, stays steady
    walls, rss_values = [], []
    for _ in range(CLI_RUNS):
        host.sample(speed.BURST)
        code, stdout, cli_start, cli_end, rss = run_cli(
            workload.inputs.argv, workload.inputs.root, CLI_TIMEOUT_S)
        host.sample(speed.BURST)
        walls.append((cli_start, cli_end))
        rss_values.append(rss)
        log.attempted += 1
        note = checked(workload.check_cli, code, stdout)
        if note:
            log.fail(f"cli: {note}")

    # the probes hit a known defect: a crash there is counted in error_rate
    # but does not make the run incorrect; a wrong answer does
    probes = OpLog()
    wrong_probes = 0
    for key in sorted(workload.inputs.probes):
        argv = list(workload.inputs.argv)
        argv[argv.index("--tree") + 1] = workload.path("probes", key)
        code, stdout, *_ = run_cli(argv, workload.inputs.root, PROBE_TIMEOUT_S)
        probes.attempted += 1
        verdict = checked(workload.check_probe, key, code, stdout)
        if verdict:
            probes.fail(f"probe {key}: {verdict}")
            wrong_probes += verdict != "crashed"

    def scaled(spans):
        return [(end - start) * host.factor(start, end) for start, end in spans]

    timed = list(zip(starts, ends)) or [(0.0, 0.0)]  # none when every op crashed
    latencies = scaled(timed)
    percentile, tail, blocks = tail_latency(latencies)
    attempted = log.attempted + probes.attempted
    failed = log.failed + probes.failed
    raw_latencies = [end - start for start, end in timed]
    metrics = {
        "wall_s": statistics.median((end - start) * host.factor(start, end, speed.BURST)
                                    for start, end in walls),
        "setup_s": statistics.median(scaled(setups)),
        "ops_per_s": len(latencies) / (sum(latencies) or float("inf")),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail,
        "peak_rss_mb": statistics.median(rss_values),
        "success_rate": 1.0 - failed / attempted,
    }
    raw = {
        "wall_s": statistics.median(end - start for start, end in walls),
        "setup_s": statistics.median(end - start for start, end in setups),
        "ops_per_s": len(raw_latencies) / (sum(raw_latencies) or float("inf")),
        "op_p50_ms": 1000.0 * statistics.median(raw_latencies),
        "op_tail_ms": 1000.0 * tail_latency(raw_latencies)[1],
    }
    info = {
        "raw (unscaled)": ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        "host speed": f"factor {host.factor(timed[0][0], timed[-1][1]):.4f} over the timed ops, "
                      f"{len(host.durations)} kernel samples (reference {speed.REFERENCE_S} s)",
        "error_rate": f"{failed / attempted:.4f} ({failed} failed of {attempted} attempted ops: "
                      f"{log.attempted} timed and CLI ops, {probes.attempted} deep-chain probes "
                      f"of which {probes.failed} failed)",
        "op_tail_ms": f"p{percentile:.1f} per block of {len(latencies) // blocks} ops, "
                      f"median of {blocks} blocks ({len(latencies)} timed ops)",
        "notes": "; ".join(log.notes + probes.notes) or "none",
    }
    return metrics, log, info | {"wrong_probes": wrong_probes}


# --- traced run ------------------------------------------------------------------------------


# how each per_layer metric of BENCHMARK.json, trace.overhead_ratio aside,
# is derived from the spans: (kind, span or counter name)
LAYER_DERIVATION = {
    "ingest.parse_tree.s": ("busy", "ingest.parse_tree"),
    "ingest.nodes_parsed": ("nodes_parsed", "ingest.parse_tree"),
    "ingest.load_vuln_kb.s": ("busy", "ingest.load_vuln_kb"),
    "ingest.load_release_history.s": ("busy", "ingest.load_release_history"),
    "model.tree_validations": ("count", "model.tree_validations"),
    "model.ga_built": ("count", "model.ga_built"),
    "analysis.filter_non_deployed.calls": ("calls", "analysis.filter_non_deployed"),
    "analysis.filter_non_deployed.s": ("busy", "analysis.filter_non_deployed"),
    "analysis.match_vulnerabilities.s": ("busy", "analysis.match_vulnerabilities"),
    "analysis.kb_records_examined": ("count", "analysis.kb_records_examined"),
    "analysis.kb_hit_ratio": ("hit_ratio", "analysis.kb_records_examined"),
    "analysis.group_path.calls": ("calls", "analysis.group_path"),
    "analysis.group_path.s": ("busy", "analysis.group_path"),
    "analysis.extract_vulnerable_paths.s": ("busy", "analysis.extract_vulnerable_paths"),
    "lifecycle.lifecycle_status.calls": ("calls", "lifecycle.lifecycle_status"),
    "lifecycle.lifecycle_status.s": ("busy", "lifecycle.lifecycle_status"),
    "lifecycle.expected_release_date.calls": ("count", "lifecycle.expected_release_date"),
    "lifecycle.status_reuse_ratio": ("reuse", "lifecycle.lifecycle_status"),
    "lifecycle.detect_via_halted.s": ("busy", "lifecycle.detect_via_halted"),
    "lifecycle.library_status.calls": ("count", "lifecycle.library_status"),
    "report.scan.self_s": ("self", "report.scan"),
    "report.census.self_s": ("self", "report.census"),
    "report.render.s": ("busy", "report.render"),
    "report.parse_scan_results_json.s": ("busy", "report.parse_scan_results_json"),
    "report.aggregate.s": ("busy", "report.aggregate"),
    "simulate.project_tree.calls": ("calls", "simulate.project_tree"),
    "simulate.project_tree.s": ("busy", "simulate.project_tree"),
    "simulate.simulate.self_s": ("self", "simulate.simulate"),
    "cli.self_s": ("self", "cli"),
}


def main_in_process(argv: list[str], tracer=None) -> tuple[int, str, float, float]:
    """Run ``depscope.cli.main`` with stdout captured; returns (exit code,
    stdout, start, end)."""
    cli = importlib.import_module("depscope.cli")
    entry = tracer.span("cli", cli.main) if tracer else cli.main
    buffer = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = entry(argv)
    return code, buffer.getvalue(), started, time.perf_counter()


def traced(workload: Workload, spans_path: str) -> tuple[dict, OpLog, dict]:
    log = OpLog()
    fresh_depscope()
    host = speed.SpeedLog()
    argv = workload.inputs.argv
    ops = workload.cli_ops()
    main_in_process(argv)  # warm-up, so the plain run pays no first-run costs
    rates: dict[str, list[float]] = {"plain": [], "traced": []}
    tracer = None  # the first traced run's, which the layer metrics use
    for mode in ("plain", "traced") * OVERHEAD_PAIRS:
        run_tracer = spans.Tracer(workload.op_span) if mode == "traced" else None
        host.sample(speed.BURST)
        if run_tracer:
            run_tracer.install()
        try:
            code, stdout, started, ended = main_in_process(argv, run_tracer)
        except Exception as exc:  # a crash fails the op; the run still reports
            code, stdout, started, ended = -1, "", 0.0, float("inf")
            log.fail(f"{mode} main: {type(exc).__name__}: {exc}")
        finally:
            if run_tracer:
                run_tracer.uninstall()
        host.sample(speed.BURST)
        log.attempted += 1
        if code != -1:
            note = checked(workload.check_cli, code, stdout)
            if note:
                log.fail(f"{mode} main: {note}")
        rates[mode].append(ops / ((ended - started) * host.factor(started, ended, speed.BURST)))
        tracer = tracer or run_tracer

    tracer.write(spans_path)
    calls, busy, self_time = tracer.layer_totals()
    metrics = {}
    absent = []
    for name, (kind, key) in LAYER_DERIVATION.items():
        if key not in tracer.present and key != "cli":
            absent.append(name)
            metrics[name] = 0.0
            continue
        if kind == "busy":
            value = busy[key]
        elif kind == "self":
            value = self_time[key]
        elif kind == "calls":
            value = calls[key]
        elif kind == "count":
            value = tracer.count(key)
        elif kind == "nodes_parsed":
            value = sum(spans.count_nodes(t) for t in tracer.parsed)
        elif kind == "hit_ratio":
            examined = tracer.count(key)
            if not examined:  # e.g. an index that reads no record in the match
                absent.append(name)
                metrics[name] = 0.0
                continue
            value = sum(spans.count_hits(a) for a in tracer.matched) / examined
        else:  # reuse
            value = calls[key] / len(tracer.libraries) if tracer.libraries else 0.0
        metrics[name] = value
    plain, traced_rate = statistics.median(rates["plain"]), statistics.median(rates["traced"])
    metrics["trace.overhead_ratio"] = traced_rate / plain
    info = {
        "ops_per_s": f"plain {plain:.3f}, traced {traced_rate:.3f} over {ops} ops "
                     f"(medians of {OVERHEAD_PAIRS} alternating runs each)",
        "spans": f"{len(tracer.names)} written to {os.path.relpath(spans_path, ROOT)}",
        "absent": ", ".join(absent) or "none",
        "notes": "; ".join(log.notes) or "none",
    }
    return metrics, log, info


# --- entry point --------------------------------------------------------------------------------


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    spec = json.loads(read(ROOT / "BENCHMARK.json"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def src_lines() -> int:
    return sum(len(read(p).splitlines()) for p in sorted((SRC / "depscope").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="depscope benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "depscope" / "cli.py").is_file():
        print(f"perfbench: no depscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # one CPU for this process and its subprocesses: the host-speed samples
    # then measure the CPU that the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = gen.WORKLOADS[args.workload](random.Random(args.seed), str(work))
        workload = WORKLOADS[args.workload](inputs)
        if args.trace:
            spans_path = str(out_dir / f"spans-{args.workload}.csv.gz")
            metrics, log, info = traced(workload, spans_path)
            correct = log.failed == 0
        else:
            metrics, log, info = untraced(workload, args.seconds)
            correct = log.failed == 0 and info.pop("wrong_probes") == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"perfbench: metrics measured {sorted(set(metrics) - set(units))} and declared in "
              f"BENCHMARK.json {sorted(set(units) - set(metrics))} do not match", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  axes: {json.dumps(inputs.axes, sort_keys=True)}")
    print(f"  src_lines: {src_lines()} (informational, ungated)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:16.6f} {units[name]}")
    for key, text in info.items():
        print(f"  {key}: {text}")
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
