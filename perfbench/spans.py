"""Span recorder for the traced run.

The traced run wraps depscope's public functions from outside, at every
module attribute where a caller looks them up (``depscope.report.group_path``,
``depscope.cli.scan``, ...), and drives ``depscope.cli.main(argv)``
in-process. Spans (name, start, end, parent, op id) stay in memory and are
written once the run ends. Functions that a later version of depscope no
longer has are reported as absent instead of failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import Counter

# (span name, defining module, attribute) -- a span is recorded per call
SPANS = (
    ("ingest.parse_tree", "depscope.ingest", "parse_tree"),
    ("ingest.parse_tree", "depscope.ingest", "parse_tree_text"),
    ("ingest.parse_tree", "depscope.ingest", "parse_tree_json"),
    ("ingest.load_vuln_kb", "depscope.ingest", "load_vuln_kb"),
    ("ingest.load_release_history", "depscope.ingest", "load_release_history"),
    ("analysis.filter_non_deployed", "depscope.analysis", "filter_non_deployed"),
    ("analysis.match_vulnerabilities", "depscope.analysis", "match_vulnerabilities"),
    ("analysis.group_path", "depscope.analysis", "group_path"),
    ("analysis.extract_vulnerable_paths", "depscope.analysis", "extract_vulnerable_paths"),
    ("lifecycle.lifecycle_status", "depscope.lifecycle", "lifecycle_status"),
    ("lifecycle.detect_via_halted", "depscope.lifecycle", "detect_via_halted"),
    ("report.scan", "depscope.report", "scan"),
    ("report.census", "depscope.report", "census"),
    ("report.render", "depscope.report", "render"),
    ("report.parse_scan_results_json", "depscope.report", "parse_scan_results_json"),
    ("report.aggregate", "depscope.report", "aggregate"),
    ("simulate.project_tree", "depscope.simulate", "project_tree"),
    ("simulate.simulate", "depscope.simulate", "simulate"),
    ("simulate.render_simulation", "depscope.simulate", "render_simulation"),
)

# (counter name, defining module, attribute) -- calls are counted, no span
COUNTED = (
    ("lifecycle.expected_release_date", "depscope.lifecycle", "expected_release_date"),
    ("lifecycle.library_status", "depscope.lifecycle", "library_status"),
)

# (counter name, module, class) -- constructions are counted through the
# class's __post_init__, which runs every validation of the value
CONSTRUCTED = (
    ("model.tree_validations", "depscope.model", "DependencyTree"),
    ("model.ga_built", "depscope.model", "Ga"),
)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Records spans and counters while installed; ``uninstall`` restores
    every patched attribute."""

    def __init__(self, op_span: str):
        self.op_span = op_span  # the span that starts a new op
        # one entry per span, in call order
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []  # open spans, innermost last
        self.active: Counter = Counter()  # open spans per name
        self.op = 0
        self.counts: Counter = Counter()
        self.constructed: dict[str, list[int]] = {}  # name -> [constructions]
        self.present: set[str] = set()
        self.libraries: set[tuple[str, str]] = set()  # lifecycle_status arguments
        self.parsed: list = []  # trees returned by outermost parse spans
        self.matched: list = []  # match_vulnerabilities results
        self.in_match = False
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "depscope" or name.startswith("depscope."))]
        for name, module_name, attr in SPANS:
            self._wrap_everywhere(modules, module_name, attr, lambda fn, n=name: self.span(n, fn))
        for name, module_name, attr in COUNTED:
            self._wrap_everywhere(modules, module_name, attr, lambda fn, n=name: self._count(n, fn))
        for name, module_name, cls_name in CONSTRUCTED:
            cls = getattr(_module(module_name), cls_name, None)
            post_init = getattr(cls, "__post_init__", None)
            if post_init is not None:
                self._patch(cls, "__post_init__", self._count_post_init(name, post_init))
        self._count_kb_reads()

    def _wrap_everywhere(self, modules, module_name: str, attr: str, make) -> None:
        original = getattr(_module(module_name), attr, None)
        if not callable(original):
            return
        wrapper = make(original)
        for module in modules:
            if getattr(module, attr, None) is original:
                self._patch(module, attr, wrapper)

    def _count_kb_reads(self) -> None:
        """Count reads of ``VulnerabilityRecord.affected`` made while a
        match span is open: the KB records the matcher examined."""
        cls = getattr(_module("depscope.model"), "VulnerabilityRecord", None)
        if cls is None or "affected" not in getattr(cls, "__dataclass_fields__", {}):
            return
        tracer = self

        def read(record):
            if tracer.in_match:
                tracer.counts["analysis.kb_records_examined"] += 1
            return record.__dict__["affected"]

        def write(record, value):
            record.__dict__["affected"] = value

        self.present.add("analysis.kb_records_examined")
        self._patch(cls, "affected", property(read, write))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # --- wrappers ---------------------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap ``fn`` so every call records a span named ``name``."""
        self.present.add(name)
        names, starts, ends, parents, ops = self.names, self.starts, self.ends, self.parents, self.ops
        stack, active, clock = self.stack, self.active, time.perf_counter
        tracer = self
        is_op = name == self.op_span
        is_parse = name == "ingest.parse_tree"
        is_match = name == "analysis.match_vulnerabilities"
        is_status = name == "lifecycle.lifecycle_status"

        def wrapper(*args, **kwargs):
            outer = not active[name]
            if is_op and outer:
                tracer.op += 1
            if is_status and args:
                tracer.libraries.add((args[0].group_id, args[0].artifact_id))
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(index)
            active[name] += 1
            if is_match:
                tracer.in_match = True
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                active[name] -= 1
                if is_match:
                    tracer.in_match = False
            if is_parse and outer:
                tracer.parsed.append(result)
            elif is_match:
                tracer.matched.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        self.present.add(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_post_init(self, name: str, fn):
        """Counting wrapper for ``__post_init__``, which takes only ``self``."""
        self.present.add(name)
        cell = self.constructed.setdefault(name, [0])

        def wrapper(instance):
            cell[0] += 1
            return fn(instance)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results ------------------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.constructed[name][0] if name in self.constructed else self.counts[name]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name,start,end,parent,op\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                out.write("%s,%.9f,%.9f,%d,%d\n" % row)

    def layer_totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, outermost busy time and self time.

        Busy time counts a span only when no enclosing span has the same
        name; self time is a span's duration minus its direct children's.
        """
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_time: Counter = Counter()
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[i]
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_time[name] += durations[i] - child_time[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                busy[name] += durations[i]
        return calls, busy, self_time


_MISSING = object()


def count_nodes(parsed) -> int:
    """Nodes in a parsed tree, whatever wrapper the parser returns it in."""
    root = getattr(parsed, "root", None) or getattr(getattr(parsed, "tree", None), "root", None)
    if root is None:
        return 0
    total, stack = 0, [root]
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.children)
    return total


def count_hits(annotated) -> int:
    """Distinct vulnerability ids a match call found."""
    vulnerable = getattr(annotated, "vulnerable", None)
    if vulnerable is None:
        return 0
    return len({vuln_id for ids in vulnerable.values() for vuln_id in ids})
