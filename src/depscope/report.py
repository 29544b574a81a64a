"""Per-tree scan results and corpus-level aggregate reports.

A scan produces one census row per dependency (every non-root node of the
unfiltered tree) plus the vulnerable paths. Aggregation folds scan results
into pure cross-tabulated counts; percentages exist only at render time.
Census-shaped tables count per instance, path tables count per
(instance, vulnerability) pair — the two senses of "vulnerable dependency"
are kept apart and named explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from depscope.analysis import classify_responsibility, iter_group_path
from depscope.errors import MissingHistory, SchemaViolation
from depscope.ingest import (
    csv_rows,
    csv_text,
    json_object,
    json_pointer,
    json_text,
    json_typed,
    parse_date_at,
    parse_gav_at,
    parse_json,
)
from depscope.lifecycle import SmoothingConfig, VerdictTable, verdict_table
from depscope.model import (
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    InstanceStatus,
    LibraryStatus,
    ReleaseHistory,
    Responsibility,
    VulnerabilityKb,
    VulnerabilityRecord,
    VulnerablePath,
    chain_of,
    same_project,
    walk,
)

_VULN_AXES = ("vuln", "safe")
_POSITION_AXES = ("direct", "transitive")
_RESP_AXES = ("own", "direct", "transitive")
_LIFE_AXES = ("halted", "outdated", "up_to_date")


def _all_cell_keys() -> tuple[str, ...]:
    keys: list[str] = []
    for row in ("deployed", "all"):
        keys += [f"{row}/{v}/{p}" for v in _VULN_AXES for p in _POSITION_AXES]
    keys += [f"grouped/{v}/{r}" for v in _VULN_AXES for r in _RESP_AXES]
    keys += [f"lifecycle/{v}/{s}" for v in _VULN_AXES for s in _LIFE_AXES]
    keys += [f"via_halted/{v}/{s}" for v in _VULN_AXES for s in _LIFE_AXES]
    keys += [f"paths/{stage}/{r}" for stage in ("grouped", "ungrouped") for r in _RESP_AXES]
    keys += ["unknown_history", "trees", "trees_include_non_deployed"]
    return tuple(keys)


CELL_KEYS: tuple[str, ...] = _all_cell_keys()


class CensusRow(NamedTuple):
    """Flags for one dependency (a non-root node of the unfiltered tree)."""

    gav: Gav
    depth: int
    deployed: bool
    vuln_ids: tuple[str, ...]
    responsibility: Responsibility  # grouped classification of the node's chain
    library_status: LibraryStatus
    instance_status: InstanceStatus
    via_halted: bool
    unknown_history: bool

    @property
    def direct(self) -> bool:
        return self.depth == 1

    @property
    def vulnerable(self) -> bool:
        return bool(self.vuln_ids)

    @property
    def own(self) -> bool:
        """Whether the dependency shares a project with the root, which is
        what makes its chain's class ``own``."""
        return self.responsibility is Responsibility.OWN


@dataclass(frozen=True)
class ScanResult:
    """Everything the analysis of one tree produced."""

    root: Gav
    analysis_time: date
    include_non_deployed: bool
    paths: tuple[VulnerablePath, ...]
    census: tuple[CensusRow, ...]

    def has_deployed_finding(self) -> bool:
        """Whether some path starts at the root or at a deployed dependency."""
        deployed = {self.root, *(row.gav for row in self.census if row.deployed)}
        return any(path.raw_path[0] in deployed for path in self.paths)


@dataclass(frozen=True)
class AggregateReport:
    """Cross-tabulated counts: exactly the cells of :data:`CELL_KEYS`, in order, as given."""

    cells: Mapping[str, int]

    def __post_init__(self):
        unknown, missing = self.cells.keys() - CELL_KEYS, set(CELL_KEYS).difference(self.cells)
        if unknown:
            raise ValueError(f"unknown cell {min(unknown)!r}")
        if missing:
            raise ValueError(f"missing cell {min(missing)!r}")
        object.__setattr__(self, "cells", {key: self.cells[key] for key in CELL_KEYS})


def scan(
    tree: DependencyTree,
    kb: Sequence[VulnerabilityRecord],
    histories: Mapping[Ga, ReleaseHistory],
    *,
    time: date | None = None,
    cfg: SmoothingConfig | None = None,
    lenient: bool = False,
    include_non_deployed: bool = False,
) -> ScanResult:
    """Run the full pipeline on one tree, in one preorder walk of it.

    Each node is looked up in the KB's index once (a plain list of records
    is indexed on the spot). By default only deployed nodes are matched, so
    non-deployed vulnerable instances never produce paths;
    ``include_non_deployed`` matches every node, flagging non-deployed
    instances in the census and giving their paths as well.

    The census has one row per dependency (every non-root node). A row is
    ``deployed`` when every edge on its chain to the root ships, and
    ``via_halted`` when it is deployed, sits below depth 1 and its depth-1
    ancestor is halted at ``time``: no new version of that direct
    dependency will arrive to refresh it. A node's paths take their
    responsibility and ``via_halted`` flag from its row (a root's paths are
    ``own``). In strict mode the first library in preorder without release
    history raises :class:`MissingHistory`; with ``lenient`` it is counted as
    alive/up-to-date (so never halted) and flagged ``unknown_history``.
    ``lenient`` covers only libraries with no history at all: in both modes
    a version missing from a history that exists raises
    :class:`UnknownVersion` at the first such node in preorder.

    ``time`` defaults to the tree's own analysis date when present, else
    today. Lifecycle verdicts come from the verdict table of ``histories``
    at ``(time, cfg)`` (:func:`depscope.lifecycle.verdict_table`).
    """
    cfg = cfg or SmoothingConfig()
    time = time or tree.analysis_time or date.today()
    root = tree.root.gav
    if not isinstance(kb, VulnerabilityKb):
        kb = VulnerabilityKb(kb)
    # the root ships, so it is matched in both modes; its paths are own
    paths = [VulnerablePath((root,), (root,), vuln_id, Responsibility.OWN, False)
             for vuln_id in kb.ids_by_gav.get(root, ())]
    rows = []
    for row, chain, grouped in census_rows(tree.root, kb, verdict_table(histories, time, cfg),
                                           lenient=lenient, include_non_deployed=include_non_deployed):
        rows.append(row)
        for vuln_id in row.vuln_ids:
            paths.append(VulnerablePath(chain, grouped, vuln_id, row.responsibility, row.via_halted))

    return ScanResult(
        root=root,
        analysis_time=time,
        include_non_deployed=include_non_deployed,
        paths=tuple(paths),
        census=tuple(rows),
    )


def census_rows(
    root: DependencyNode,
    kb: VulnerabilityKb,
    verdicts: VerdictTable,
    *,
    lenient: bool,
    include_non_deployed: bool,
) -> Iterator[tuple[CensusRow, tuple[Gav, ...], tuple[Gav, ...]]]:
    """``(row, chain, grouped)`` for each dependency below ``root`` in the
    order of :func:`depscope.model.walk`, which drops a repeated library
    with its subtree; raises as :func:`scan` does, at the first offending
    node. For a vulnerable node, ``chain`` runs from it up to the root and
    ``grouped`` is :func:`depscope.analysis.group_path` of it; for a safe
    node both are empty. Every row's class comes from the group ids the walk
    carries, looked at up to the third member kept."""
    ids_by_gav = kb.ids_by_gav
    root_group = root.gav.group_id
    direct = None  # the verdict of the latest depth-1 node: in preorder, the current one's ancestor
    for step in islice(walk(root), 1, None):  # the root has no row
        node, depth, deployed, _, above = step
        gav = node.gav
        vuln_ids = ids_by_gav.get(gav, ()) if deployed or include_non_deployed else ()
        verdict = verdicts[gav.ga]
        if verdict is not None:
            lib_status, inst_status = verdict.status, verdict.instance_status(gav)
        elif lenient:
            lib_status, inst_status = LibraryStatus.ALIVE, InstanceStatus.UP_TO_DATE
        else:
            raise MissingHistory(gav.ga)
        if depth == 1:
            direct = verdict
        chain = grouped = ()
        if vuln_ids:
            chain = chain_of(step)
            grouped = tuple(iter_group_path(chain))
        yield CensusRow(
            gav=gav,
            depth=depth,
            deployed=deployed,
            vuln_ids=vuln_ids,
            responsibility=_responsibility(gav.group_id, above, root_group),
            library_status=lib_status,
            instance_status=inst_status,
            via_halted=deployed and depth > 1 and direct is not None
            and direct.status is LibraryStatus.HALTED,
            unknown_history=verdict is None,
        ), chain, grouped


def _responsibility(group: str, above: tuple, root_group: str) -> Responsibility:
    """:func:`classify_responsibility` of the grouped chain of a node in
    ``group`` below the distinct group ids ``above`` (links, nearest first,
    as :func:`depscope.model.walk` carries them). A group met again farther
    up a chain is absorbed, by its nearer occurrence or by whatever absorbed
    that, so grouping the distinct ids keeps as many members as grouping the
    chain; only up to three matter."""
    if same_project(group, root_group):
        return Responsibility.OWN
    kept = [group]
    while above:
        other, above = above
        for anchor in kept:
            if same_project(anchor, other):
                break
        else:
            kept.append(other)
            if len(kept) == 3:
                return Responsibility.TRANSITIVE
    return Responsibility.DIRECT if len(kept) == 2 else Responsibility.TRANSITIVE


def _lifecycle_bucket(row: CensusRow) -> str:
    if row.library_status is LibraryStatus.HALTED:
        return "halted"
    if row.instance_status is InstanceStatus.OUTDATED:
        return "outdated"
    return "up_to_date"


def aggregate(results: Iterable[ScanResult]) -> AggregateReport:
    """Fold scan results into cross-tabulated counts."""
    counts = {key: 0 for key in CELL_KEYS}
    for result in results:
        counts["trees"] += 1
        if result.include_non_deployed:
            counts["trees_include_non_deployed"] += 1
        for row in result.census:
            vuln = "vuln" if row.vulnerable else "safe"
            position = "direct" if row.direct else "transitive"
            counts[f"all/{vuln}/{position}"] += 1
            if row.unknown_history:
                counts["unknown_history"] += 1
            if not row.deployed:
                continue
            counts[f"deployed/{vuln}/{position}"] += 1
            counts[f"grouped/{vuln}/{row.responsibility.value}"] += 1
            bucket = _lifecycle_bucket(row)
            counts[f"lifecycle/{vuln}/{bucket}"] += 1
            if row.via_halted:
                counts[f"via_halted/{vuln}/{bucket}"] += 1
        for path in result.paths:
            counts[f"paths/grouped/{path.responsibility.value}"] += 1
            ungrouped = classify_responsibility(path.raw_path, result.root)
            counts[f"paths/ungrouped/{ungrouped.value}"] += 1
    return AggregateReport(counts)


# --- rendering ----------------------------------------------------------------


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _pct(numerator: int, denominator: int) -> str:
    if denominator == 0:
        return "n/a"
    return f"{100.0 * numerator / denominator:.1f}%"


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(cell) for cell in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = []
    for cells in [header] + rows:
        padded = [cells[0].ljust(widths[0])] + [
            cell.rjust(width) for cell, width in zip(cells[1:], widths[1:])
        ]
        lines.append("  " + "  ".join(padded).rstrip())
    return lines


def _result_text(result: ScanResult) -> str:
    deployed_rows = [row for row in result.census if row.deployed]
    halted = sum(1 for row in deployed_rows if row.library_status is LibraryStatus.HALTED)
    via = sum(1 for row in deployed_rows if row.via_halted)
    vulnerable = sum(1 for row in result.census if row.vulnerable)
    mode = "including non-deployed" if result.include_non_deployed else "deployed-only"
    lines = [
        f"tree {result.root}",
        f"  analysis time: {result.analysis_time.isoformat()}  mode: {mode}",
        f"  dependencies: {len(result.census)} "
        f"(deployed {len(deployed_rows)}, vulnerable {vulnerable}, "
        f"halted {halted}, via-halted {via})",
        f"  vulnerable paths: {len(result.paths)}",
    ]
    for path in result.paths:
        marker = ", via halted" if path.via_halted else ""
        lines.append(
            f"    - {path.vuln_id} in {path.raw_path[0]} [{path.responsibility.value}{marker}]"
        )
        lines.append("      grouped: " + " -> ".join(str(g) for g in path.grouped_path))
        lines.append("      full:    " + " -> ".join(str(g) for g in path.raw_path))
    return "\n".join(lines) + "\n"


def _aggregate_text(report: AggregateReport) -> str:
    c = report.cells
    lines = [f"aggregate report over {c['trees']} tree(s)"]
    if c["trees_include_non_deployed"]:
        lines[0] += f" ({c['trees_include_non_deployed']} scanned including non-deployed)"
    lines.append("")

    lines.append("scope filtering (dependency instances)")
    header = ["", "safe:direct", "safe:transitive", "vuln:direct", "vuln:transitive"]
    rows = [[key] + [str(c[f"{key}/{v}/{p}"]) for v in ("safe", "vuln") for p in _POSITION_AXES]
            for key in ("deployed", "all")]
    lines += _table(header, rows)
    lines.append("")

    lines.append("project grouping (deployed dependency instances)")
    header = [
        "",
        "safe:direct", "safe:transitive", "safe:own", "safe:3rd-party",
        "vuln:direct", "vuln:transitive", "vuln:own", "vuln:3rd-party",
    ]
    grouped_row, ungrouped_row = ["grouped"], ["ungrouped"]
    for v in ("safe", "vuln"):
        direct = c[f"grouped/{v}/direct"]
        transitive = c[f"grouped/{v}/transitive"]
        own = c[f"grouped/{v}/own"]
        grouped_row += [str(direct), str(transitive), str(own), str(direct + transitive)]
        ungrouped_row += [str(c[f"deployed/{v}/direct"]), str(c[f"deployed/{v}/transitive"]), "n/a", "n/a"]
    lines += _table(header, [grouped_row, ungrouped_row])
    lines.append("")

    lines.append("lifecycle (deployed dependency instances)")
    header = [
        "",
        "safe:halted", "safe:outdated", "safe:up-to-date",
        "vuln:halted", "vuln:outdated", "vuln:up-to-date",
    ]
    rows = [[label] + [str(c[f"{key}/{v}/{s}"]) for v in ("safe", "vuln") for s in _LIFE_AXES]
            for label, key in (("via-halted", "via_halted"), ("all", "lifecycle"))]
    lines += _table(header, rows)
    lines.append("")

    lines.append("vulnerable paths (per instance-vulnerability pair)")
    header = ["", "own", "direct", "transitive", "controlled"]
    rows = []
    for stage in ("grouped", "ungrouped"):
        own = c[f"paths/{stage}/own"]
        direct = c[f"paths/{stage}/direct"]
        transitive = c[f"paths/{stage}/transitive"]
        total = own + direct + transitive
        rows.append(
            [stage, str(own), str(direct), str(transitive),
             f"{own + direct} ({_pct(own + direct, total)})"]
        )
    lines += _table(header, rows)
    lines.append("")

    all_vuln = sum(c[f"all/vuln/{p}"] for p in _POSITION_AXES)
    deployed_vuln = sum(c[f"deployed/vuln/{p}"] for p in _POSITION_AXES)
    deployed_total = sum(c[f"deployed/{v}/{p}"] for v in _VULN_AXES for p in _POSITION_AXES)
    halted_total = sum(c[f"lifecycle/{v}/halted"] for v in _VULN_AXES)
    controlled_grouped = c["grouped/vuln/own"] + c["grouped/vuln/direct"]
    lines.append("shares")
    lines.append(
        f"  non-deployed among vulnerable instances: "
        f"{_pct(all_vuln - deployed_vuln, all_vuln)} ({all_vuln - deployed_vuln} of {all_vuln})"
    )
    lines.append(
        f"  controlled by developers, grouped (of deployed vulnerable): "
        f"{_pct(controlled_grouped, deployed_vuln)} ({controlled_grouped} of {deployed_vuln})"
    )
    lines.append(
        f"  controlled by developers, ungrouped (of deployed vulnerable): "
        f"{_pct(c['deployed/vuln/direct'], deployed_vuln)} ({c['deployed/vuln/direct']} of {deployed_vuln})"
    )
    lines.append(
        f"  halted among deployed instances: "
        f"{_pct(halted_total, deployed_total)} ({halted_total} of {deployed_total})"
    )
    if c["unknown_history"]:
        lines.append(f"  instances without release history: {c['unknown_history']}")
    return "\n".join(lines) + "\n"


_CENSUS_CSV_HEADER = [
    "root", "gav", "group_id", "artifact_id", "version", "depth", "direct",
    "deployed", "vulnerable", "vuln_ids", "own", "responsibility",
    "library_status", "instance_status", "via_halted", "unknown_history",
]


def _result_csv(result: ScanResult) -> str:
    return csv_rows(
        [
            str(result.root), str(row.gav), row.gav.group_id,
            row.gav.artifact_id, row.gav.version, row.depth,
            _bool(row.direct), _bool(row.deployed), _bool(row.vulnerable),
            ";".join(row.vuln_ids), _bool(row.own),
            row.responsibility.value, row.library_status.value,
            row.instance_status.value, _bool(row.via_halted),
            _bool(row.unknown_history),
        ]
        for row in result.census
    )


_encode = json.encoder.encode_basestring_ascii  # the string encoder json_text uses


def _json_list(items, pad: str) -> str:
    """A JSON array of already encoded ``items`` as :func:`json_text` indents
    it when the array's own line starts with ``pad``."""
    if not items:
        return "[]"
    inner = f",\n{pad}  "
    return f"[\n{pad}  " + inner.join(items) + f"\n{pad}]"


_ROW_JSON = (
    '{\n      "deployed": %s,\n      "depth": %d,\n      "direct": %s,\n      "gav": %s,\n'
    '      "instance_status": "%s",\n      "library_status": "%s",\n      "own": %s,\n'
    '      "responsibility": "%s",\n      "unknown_history": %s,\n      "via_halted": %s,\n'
    '      "vuln_ids": %s\n    }'
)
_PATH_JSON = (
    '{\n      "grouped_path": %s,\n      "raw_path": %s,\n      "responsibility": "%s",\n'
    '      "via_halted": %s,\n      "vuln_id": %s\n    }'
)
_RESULT_JSON = (
    '{\n  "analysis_time": "%s",\n  "census": %s,\n  "include_non_deployed": %s,\n  "paths": %s,\n'
    '  "root": %s\n}'
)


def _result_json(result: ScanResult) -> str:
    """The result as :func:`json_text` writes its JSON object, without the
    final newline: from the fixed templates above, because with an indent
    ``json.dumps`` runs its pure-Python encoder. Keys are in sorted order.
    Strings that may hold any character go through the C string encoder
    that ``json.dumps`` uses; enum values and dates need no escaping."""
    census = [
        _ROW_JSON % (
            _bool(row.deployed), row.depth, _bool(row.direct), _encode(str(row.gav)),
            row.instance_status.value, row.library_status.value, _bool(row.own),
            row.responsibility.value, _bool(row.unknown_history), _bool(row.via_halted),
            _json_list([_encode(vuln_id) for vuln_id in row.vuln_ids], "      "),
        )
        for row in result.census
    ]
    paths = [
        _PATH_JSON % (
            _json_list([_encode(str(gav)) for gav in path.grouped_path], "      "),
            _json_list([_encode(str(gav)) for gav in path.raw_path], "      "),
            path.responsibility.value, _bool(path.via_halted), _encode(path.vuln_id),
        )
        for path in result.paths
    ]
    return _RESULT_JSON % (
        result.analysis_time.isoformat(), _json_list(census, "  "),
        _bool(result.include_non_deployed), _json_list(paths, "  "), _encode(str(result.root)),
    )


def render_chunks(obj, format: str = "text") -> Iterator[str]:
    """:func:`render`'s output in pieces, one per scan result of a list, so a
    caller can write each as it is made instead of holding the whole text."""
    if format not in ("text", "csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    if isinstance(obj, AggregateReport):
        if format == "text":
            yield _aggregate_text(obj)
        elif format == "csv":
            yield csv_text(["cell", "count"], obj.cells.items())
        else:
            yield json_text({"cells": obj.cells})
        return
    results = (obj,) if isinstance(obj, ScanResult) else obj
    if format == "text":
        for i, result in enumerate(results):
            yield "\n" * (i > 0) + _result_text(result)
    elif format == "csv":
        yield csv_text(_CENSUS_CSV_HEADER, ())
        for result in results:
            yield _result_csv(result)
    elif isinstance(obj, ScanResult):
        yield _result_json(obj) + "\n"
    else:
        # each element is its own document indented one level; the string
        # encoder escapes every newline inside a string, so each raw one is layout
        opener = "[\n"
        for result in results:
            yield opener + "  " + _result_json(result).replace("\n", "\n  ")
            opener = ",\n"
        yield "[]\n" if opener == "[\n" else "\n]\n"


def render(obj, format: str = "text") -> str:
    """Render a scan result, a list of scan results, or an aggregate report.

    All formats are deterministic: rendering the same value twice yields
    byte-identical output.
    """
    return "".join(render_chunks(obj, format))


# --- report JSON round trip -----------------------------------------------------


_RESULT_KEYS = frozenset({"root", "analysis_time", "include_non_deployed", "paths", "census"})
_PATH_KEYS = frozenset({"raw_path", "grouped_path", "vuln_id", "responsibility", "via_halted"})
_ROW_KEYS = frozenset(
    {"gav", "depth", "direct", "deployed", "vuln_ids", "own", "responsibility", "library_status",
     "instance_status", "via_halted", "unknown_history"}
)


# value -> member per enum: a dict lookup costs a tenth of an Enum call
_MEMBERS = {cls: {m.value: m for m in cls} for cls in (Responsibility, LibraryStatus, InstanceStatus)}


def _enum_field(enum_cls, obj: dict, key: str, pointer: str):
    try:
        return _MEMBERS[enum_cls][obj[key]]
    except (KeyError, TypeError):  # not a member's value, or unhashable
        raise SchemaViolation(f"{pointer}/{key}", f"invalid value {obj[key]!r}") from None


def _gavs(obj: dict, key: str, pointer: str) -> tuple[Gav, ...]:
    field = f"{pointer}/{key}"
    return tuple(parse_gav_at(text, field) for text in json_typed(obj, key, list, pointer))


def _path_from_dict(entry, p: str) -> VulnerablePath:
    json_object(entry, p, _PATH_KEYS)
    try:
        return VulnerablePath(
            raw_path=_gavs(entry, "raw_path", p),
            grouped_path=_gavs(entry, "grouped_path", p),
            vuln_id=json_typed(entry, "vuln_id", str, p),
            responsibility=_enum_field(Responsibility, entry, "responsibility", p),
            via_halted=json_typed(entry, "via_halted", bool, p),
        )
    except ValueError as exc:  # an empty path, or grouping that lost the instance
        raise SchemaViolation(p, str(exc)) from None


def _row_from_dict(entry, p: str) -> CensusRow:
    json_object(entry, p, _ROW_KEYS)
    vuln_ids = tuple(json_typed(entry, "vuln_ids", list, p))
    if not all(type(vuln_id) is str for vuln_id in vuln_ids):
        raise SchemaViolation(f"{p}/vuln_ids", "must be an array of strings")
    own = json_typed(entry, "own", bool, p)
    direct = json_typed(entry, "direct", bool, p)
    row = CensusRow(
        gav=parse_gav_at(entry["gav"], f"{p}/gav"),
        depth=json_typed(entry, "depth", int, p),
        deployed=json_typed(entry, "deployed", bool, p),
        vuln_ids=vuln_ids,
        responsibility=_enum_field(Responsibility, entry, "responsibility", p),
        library_status=_enum_field(LibraryStatus, entry, "library_status", p),
        instance_status=_enum_field(InstanceStatus, entry, "instance_status", p),
        via_halted=json_typed(entry, "via_halted", bool, p),
        unknown_history=json_typed(entry, "unknown_history", bool, p),
    )
    # a row is a dependency, so below the root; own and direct are derived
    if row.depth < 1:
        raise SchemaViolation(f"{p}/depth", f"{row.depth} is not a dependency's depth")
    if direct is not row.direct:
        raise SchemaViolation(f"{p}/direct", f"{direct} disagrees with depth {row.depth}")
    if own is not row.own:
        raise SchemaViolation(f"{p}/own", f"{own} disagrees with responsibility {row.responsibility.value!r}")
    return row


def _result_from_dict(data, pointer: str = "") -> ScanResult:
    json_object(data, pointer, _RESULT_KEYS)
    paths = json_typed(data, "paths", list, pointer)
    census = json_typed(data, "census", list, pointer)
    return ScanResult(
        root=parse_gav_at(data["root"], f"{pointer}/root"),
        analysis_time=parse_date_at(data["analysis_time"], f"{pointer}/analysis_time"),
        include_non_deployed=json_typed(data, "include_non_deployed", bool, pointer),
        paths=tuple(_path_from_dict(e, f"{pointer}/paths/{i}") for i, e in enumerate(paths)),
        census=tuple(_row_from_dict(e, f"{pointer}/census/{i}") for i, e in enumerate(census)),
    )


def parse_scan_results_json(doc: str) -> list[ScanResult]:
    """Parse a scan result object or array as rendered by :func:`render`."""
    data = parse_json(doc)
    if isinstance(data, list):
        return [_result_from_dict(entry, f"/{i}") for i, entry in enumerate(data)]
    return [_result_from_dict(data)]


def parse_aggregate_json(doc: str) -> AggregateReport:
    cells = json_typed(json_object(parse_json(doc), "", frozenset({"cells"})), "cells", dict, "")
    for key in cells:
        if json_typed(cells, key, int, "/cells") < 0 and key in CELL_KEYS:  # else unknown, below
            raise SchemaViolation(json_pointer("/cells", key), "must not be negative")
    try:
        return AggregateReport(cells)
    except ValueError as exc:
        raise SchemaViolation("/cells", str(exc)) from None
