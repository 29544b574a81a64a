"""Per-tree scan results and corpus-level aggregate reports.

A scan produces one census row per dependency (every non-root node of the
unfiltered tree) plus the vulnerable paths. Aggregation folds scan results
into pure cross-tabulated counts; percentages exist only at render time.
Census-shaped tables count per instance, path tables count per
(instance, vulnerability) pair — the two senses of "vulnerable dependency"
are kept apart and named explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from fnmatch import fnmatchcase
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from depscope.analysis import classify_group_ids, classify_responsibility, group_path
from depscope.errors import MalformedCoordinate, MissingHistory, SchemaViolation
from depscope.ingest import (
    csv_rows,
    csv_text,
    json_object,
    json_pointer,
    json_string,
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
    parse_gav,
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
    for row, step in census_rows(tree.root, kb, verdict_table(histories, time, cfg),
                                 lenient=lenient, include_non_deployed=include_non_deployed):
        rows.append(row)
        if row.vuln_ids:
            chain = chain_of(step)
            grouped = tuple(group_path(chain))
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
) -> Iterator[tuple[CensusRow, tuple]]:
    """``(row, step)`` for each dependency below ``root``, ``step`` being
    its step of :func:`depscope.model.walk`, which drops a repeated library
    with its subtree; raises as :func:`scan` does, at the first offending
    node. No chain is built here: a caller that prints a row's path follows
    the step's parent links (:func:`depscope.model.chain_of`). Every row's
    class comes from the group ids the walk carries
    (:func:`depscope.analysis.classify_group_ids`)."""
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
        yield CensusRow(
            gav=gav,
            depth=depth,
            deployed=deployed,
            vuln_ids=vuln_ids,
            responsibility=classify_group_ids(gav.group_id, above, root_group),
            library_status=lib_status,
            instance_status=inst_status,
            via_halted=deployed and depth > 1 and direct is not None
            and direct.status is LibraryStatus.HALTED,
            unknown_history=verdict is None,
        ), step


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


def _section(title: str, header: list[str], rows: list[list[str]]) -> list[str]:
    return [title, *_table(header, rows), ""]


def _share(label: str, part: int, whole: int) -> str:
    return f"  {label}: {_pct(part, whole)} ({part} of {whole})"


def _aggregate_text(report: AggregateReport) -> str:
    c = report.cells
    lines = [f"aggregate report over {c['trees']} tree(s)"]
    if c["trees_include_non_deployed"]:
        lines[0] += f" ({c['trees_include_non_deployed']} scanned including non-deployed)"
    lines.append("")

    header = ["", "safe:direct", "safe:transitive", "vuln:direct", "vuln:transitive"]
    rows = [[key] + [str(c[f"{key}/{v}/{p}"]) for v in ("safe", "vuln") for p in _POSITION_AXES]
            for key in ("deployed", "all")]
    lines += _section("scope filtering (dependency instances)", header, rows)

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
    lines += _section("project grouping (deployed dependency instances)", header,
                      [grouped_row, ungrouped_row])

    header = [
        "",
        "safe:halted", "safe:outdated", "safe:up-to-date",
        "vuln:halted", "vuln:outdated", "vuln:up-to-date",
    ]
    rows = [[label] + [str(c[f"{key}/{v}/{s}"]) for v in ("safe", "vuln") for s in _LIFE_AXES]
            for label, key in (("via-halted", "via_halted"), ("all", "lifecycle"))]
    lines += _section("lifecycle (deployed dependency instances)", header, rows)

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
    lines += _section("vulnerable paths (per instance-vulnerability pair)", header, rows)

    all_vuln = sum(c[f"all/vuln/{p}"] for p in _POSITION_AXES)
    deployed_vuln = sum(c[f"deployed/vuln/{p}"] for p in _POSITION_AXES)
    deployed_total = sum(c[f"deployed/{v}/{p}"] for v in _VULN_AXES for p in _POSITION_AXES)
    halted_total = sum(c[f"lifecycle/{v}/halted"] for v in _VULN_AXES)
    controlled_grouped = c["grouped/vuln/own"] + c["grouped/vuln/direct"]
    lines += [
        "shares",
        _share("non-deployed among vulnerable instances", all_vuln - deployed_vuln, all_vuln),
        _share("controlled by developers, grouped (of deployed vulnerable)",
               controlled_grouped, deployed_vuln),
        _share("controlled by developers, ungrouped (of deployed vulnerable)",
               c["deployed/vuln/direct"], deployed_vuln),
        _share("halted among deployed instances", halted_total, deployed_total),
    ]
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
    Strings that may hold any character go through :func:`json_string`;
    enum values and dates need no escaping."""
    census = [
        _ROW_JSON % (
            _bool(row.deployed), row.depth, _bool(row.direct), json_string(str(row.gav)),
            row.instance_status.value, row.library_status.value, _bool(row.own),
            row.responsibility.value, _bool(row.unknown_history), _bool(row.via_halted),
            _json_list([json_string(vuln_id) for vuln_id in row.vuln_ids], "      "),
        )
        for row in result.census
    ]
    paths = [
        _PATH_JSON % (
            _json_list([json_string(str(gav)) for gav in path.grouped_path], "      "),
            _json_list([json_string(str(gav)) for gav in path.raw_path], "      "),
            path.responsibility.value, _bool(path.via_halted), json_string(path.vuln_id),
        )
        for path in result.paths
    ]
    return _RESULT_JSON % (
        result.analysis_time.isoformat(), _json_list(census, "  "),
        _bool(result.include_non_deployed), _json_list(paths, "  "), json_string(str(result.root)),
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


# the keys the JSON writer renders: each type's fields, and a row's derived flags
_RESULT_KEYS = frozenset(f.name for f in fields(ScanResult))
_PATH_KEYS = frozenset(f.name for f in fields(VulnerablePath))
_ROW_KEYS = frozenset(CensusRow._fields + ("direct", "own"))


# value -> member per enum: a dict lookup costs a tenth of an Enum call
_MEMBERS = {cls: {m.value: m for m in cls} for cls in (Responsibility, LibraryStatus, InstanceStatus)}
_RESPONSIBILITIES, _LIBRARY_STATUSES, _INSTANCE_STATUSES = _MEMBERS.values()
_OWN = Responsibility.OWN  # a global costs a tenth of an Enum attribute


def _enum_field(enum_cls, obj: dict, key: str, pointer: str):
    try:
        return _MEMBERS[enum_cls][obj[key]]
    except (KeyError, TypeError):  # not a member's value, or unhashable
        raise SchemaViolation(f"{pointer}/{key}", f"invalid value {obj[key]!r}") from None


def _gavs(obj: dict, key: str, pointer: str) -> tuple[Gav, ...]:
    return tuple(parse_gav_at(text, f"{pointer}/{key}/{i}")
                 for i, text in enumerate(json_typed(obj, key, list, pointer)))


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


class _Gavs(dict):
    """A document's coordinates by their text, each parsed on its first
    lookup, which takes a ``str`` only and raises :class:`MalformedCoordinate`."""

    def __missing__(self, text: str) -> Gav:
        gav = self[text] = parse_gav(text)
        return gav


# the values of a well-formed entry, in field order, and their JSON types
_path_values = itemgetter(*(f.name for f in fields(VulnerablePath)))
_PATH_TYPES = (list, list, str, str, bool)
_row_values = itemgetter(*CensusRow._fields, "direct", "own")
_ROW_TYPES = (str, int, bool, list, str, str, str, bool, bool, bool, bool)


def _decoded_path(entry, gavs: _Gavs) -> VulnerablePath | None:
    """The path a well-formed ``entry`` holds, else None: the same value as
    :func:`_path_from_dict`, which alone names a fault."""
    if type(entry) is not dict or entry.keys() != _PATH_KEYS:
        return None
    values = _path_values(entry)
    if tuple(map(type, values)) != _PATH_TYPES:
        return None
    raw_path, grouped_path, vuln_id, responsibility, via_halted = values
    responsibility = _RESPONSIBILITIES.get(responsibility)
    if responsibility is None or {*map(type, raw_path), *map(type, grouped_path)} != {str}:
        return None
    try:
        return VulnerablePath(tuple(map(gavs.__getitem__, raw_path)),
                              tuple(map(gavs.__getitem__, grouped_path)),
                              vuln_id, responsibility, via_halted)
    except (MalformedCoordinate, ValueError):  # a bad coordinate, or a path VulnerablePath rejects
        return None


def _decoded_row(entry, gavs: _Gavs) -> CensusRow | None:
    """The row a well-formed ``entry`` holds, else None: the same value as
    :func:`_row_from_dict`, which alone names a fault."""
    if type(entry) is not dict or entry.keys() != _ROW_KEYS:
        return None
    values = _row_values(entry)
    if tuple(map(type, values)) != _ROW_TYPES:
        return None
    gav, depth, deployed, vuln_ids, responsibility, library_status, instance_status, \
        via_halted, unknown_history, direct, own = values
    responsibility = _RESPONSIBILITIES.get(responsibility)
    library_status = _LIBRARY_STATUSES.get(library_status)
    instance_status = _INSTANCE_STATUSES.get(instance_status)
    if (responsibility is None or library_status is None or instance_status is None
            or depth < 1 or direct is not (depth == 1)
            or own is not (responsibility is _OWN)
            or not {*map(type, vuln_ids)} <= {str}):
        return None
    try:
        gav = gavs[gav]
    except MalformedCoordinate:
        return None
    # the tuple's own constructor: NamedTuple's __new__ is a Python call
    return tuple.__new__(CensusRow, (gav, depth, deployed, tuple(vuln_ids), responsibility,
                                     library_status, instance_status, via_halted, unknown_history))


def _result_from_dict(data, pointer: str, gavs: _Gavs) -> ScanResult:
    json_object(data, pointer, _RESULT_KEYS)
    paths = json_typed(data, "paths", list, pointer)
    census = json_typed(data, "census", list, pointer)
    root = data["root"]
    if type(root) is not str or root not in gavs:  # parse_gav_at raises for any other type
        gavs[root] = parse_gav_at(root, f"{pointer}/root")
    # a faulty entry fails its straight decoder, and its checked one raises at the fault
    return ScanResult(
        root=gavs[root],
        analysis_time=parse_date_at(data["analysis_time"], f"{pointer}/analysis_time"),
        include_non_deployed=json_typed(data, "include_non_deployed", bool, pointer),
        paths=tuple(_decoded_path(e, gavs) or _path_from_dict(e, f"{pointer}/paths/{i}")
                    for i, e in enumerate(paths)),
        census=tuple(_decoded_row(e, gavs) or _row_from_dict(e, f"{pointer}/census/{i}")
                     for i, e in enumerate(census)),
    )


def parse_scan_results_json(doc: str) -> list[ScanResult]:
    """Parse a scan result object or array as rendered by :func:`render`.
    One :class:`Gav` is built per distinct coordinate of the document."""
    data, gavs = parse_json(doc), _Gavs()
    if isinstance(data, list):
        return [_result_from_dict(entry, f"/{i}", gavs) for i, entry in enumerate(data)]
    return [_result_from_dict(data, "", gavs)]


# identities that every aggregate of scan results keeps, whatever the results:
# (left, right, equal), each side the sum of the cells its pattern matches
_CELL_RELATIONS = (
    *((f"deployed/{v}/{p}", f"all/{v}/{p}", False) for v in _VULN_AXES for p in _POSITION_AXES),
    *((f"grouped/{v}/*", f"{row}/{v}/*", True) for v in _VULN_AXES for row in ("deployed", "lifecycle")),
    *((f"via_halted/{v}/{s}", f"lifecycle/{v}/{s}", False) for v in _VULN_AXES for s in _LIFE_AXES),
    ("trees_include_non_deployed", "trees", False),
    ("unknown_history", "all/*/*", False),
    ("paths/grouped/*", "paths/ungrouped/*", True),
)


def parse_aggregate_json(doc: str) -> AggregateReport:
    cells = json_typed(json_object(parse_json(doc), "", frozenset({"cells"})), "cells", dict, "")
    for key in cells:
        count = json_typed(cells, key, int, "/cells")
        if key in CELL_KEYS and not 0 <= count <= 2**53:  # else unknown, below; the shares are floats
            reason = "must not be negative" if count < 0 else "must not exceed 2**53"
            raise SchemaViolation(json_pointer("/cells", key), reason)
    try:
        report = AggregateReport(cells)
    except ValueError as exc:
        raise SchemaViolation("/cells", str(exc)) from None
    for left, right, equal in _CELL_RELATIONS:
        a, b = (sum(n for key, n in cells.items() if fnmatchcase(key, side)) for side in (left, right))
        if a > b or equal and a != b:
            relation = "equal" if equal else "not exceed"
            raise SchemaViolation("/cells", f"{left} ({a}) must {relation} {right} ({b})")
    return report
