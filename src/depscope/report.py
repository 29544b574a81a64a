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
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from depscope.analysis import census_walk, classify_responsibility, group_path
from depscope.errors import MissingHistory, SchemaViolation, UnknownVersion
from depscope.ingest import (
    check_fields,
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
    schema_parts,
)
from depscope.lifecycle import SmoothingConfig, verdict_table
from depscope.model import (
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
)

# the JSON text of each boolean and enum member a result holds, read without
# an enum.property call
_TEXT = {True: "true", False: "false",
         **{m: m.value for cls in (Responsibility, LibraryStatus, InstanceStatus) for m in cls}}
# a global costs a tenth of an Enum attribute
_OWN = Responsibility.OWN
_HALTED = LibraryStatus.HALTED

# each axis of the cell keys as (what a census row or path holds, its text):
# whether it is vulnerable, direct or grouped, else an enum member
_VULN_AXIS = ((True, "vuln"), (False, "safe"))
_POSITION_AXIS = ((True, "direct"), (False, "transitive"))
_RESP_AXIS = tuple((m, _TEXT[m]) for m in Responsibility)
_LIFE_AXIS = tuple((m, _TEXT[m]) for m in (_HALTED, *InstanceStatus))
_VULN_AXES, _POSITION_AXES, _LIFE_AXES = (
    tuple(text for _, text in axis) for axis in (_VULN_AXIS, _POSITION_AXIS, _LIFE_AXIS))


def _cells(row: str, axis, other) -> dict[tuple, str]:
    """``row``'s cell keys by the pair of values they count."""
    return {(a, b): f"{row}/{x}/{y}" for a, x in axis for b, y in other}


_DEPLOYED, _ALL = (_cells(row, _VULN_AXIS, _POSITION_AXIS) for row in ("deployed", "all"))
_GROUPED = _cells("grouped", _VULN_AXIS, _RESP_AXIS)
_LIFECYCLE, _VIA_HALTED = (_cells(row, _VULN_AXIS, _LIFE_AXIS) for row in ("lifecycle", "via_halted"))
_PATHS = _cells("paths", ((True, "grouped"), (False, "ungrouped")), _RESP_AXIS)
CELL_KEYS: tuple[str, ...] = (
    *(key for table in (_DEPLOYED, _ALL, _GROUPED, _LIFECYCLE, _VIA_HALTED, _PATHS)
      for key in table.values()),
    "unknown_history", "trees", "trees_include_non_deployed",
)


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

    A row's class comes from :func:`depscope.analysis.census_walk` under
    the root's group, the walk this loop runs. Only a vulnerable node's
    chain is built, from the walk's current path, and grouped.
    """
    cfg = cfg or SmoothingConfig()
    time = time or tree.analysis_time or date.today()
    verdicts = verdict_table(histories, time, cfg)
    if not isinstance(kb, VulnerabilityKb):
        kb = VulnerabilityKb(kb)
    ids_by_gav = kb.ids_by_gav
    root = tree.root.gav
    # the root ships, so it is matched in both modes; its paths are own
    paths = [VulnerablePath((root,), (root,), vuln_id, _OWN, False)
             for vuln_id in ids_by_gav.get(root, ())]
    rows = []
    path = [root]  # the coordinates of the walk's current path by depth, the root first
    direct = None  # the verdict of the latest depth-1 node: in preorder, the current one's ancestor
    for node, depth, deployed, responsibility in census_walk(root[0], tree.root.children):
        gav = node.gav
        verdict = verdicts[gav[:2]]
        if verdict is None:
            if not lenient:
                raise MissingHistory(gav.ga)
        elif gav[2] not in verdict.statuses:
            raise UnknownVersion(gav)
        if depth == 1:
            direct = verdict
        vuln_ids = ids_by_gav.get(gav, ()) if deployed or include_non_deployed else ()
        if verdict is None:
            lib_status, inst_status = LibraryStatus.ALIVE, InstanceStatus.UP_TO_DATE
        else:
            lib_status, inst_status = verdict.status, verdict.statuses[gav[2]]
        via_halted = deployed and depth > 1 and direct is not None and direct.status is _HALTED
        # the tuple's own constructor: NamedTuple's __new__ is a Python call
        rows.append(tuple.__new__(CensusRow, (gav, depth, deployed, vuln_ids, responsibility,
                                              lib_status, inst_status, via_halted, verdict is None)))
        if vuln_ids:
            chain = (gav, *path[depth - 1::-1])
            grouped = tuple(group_path(chain))
            for vuln_id in vuln_ids:
                paths.append(VulnerablePath(chain, grouped, vuln_id, responsibility, via_halted))
        if node.children:
            path[depth:] = (gav,)

    return ScanResult(
        root=root,
        analysis_time=time,
        include_non_deployed=include_non_deployed,
        paths=tuple(paths),
        census=tuple(rows),
    )


def aggregate(results: Iterable[ScanResult]) -> AggregateReport:
    """Fold scan results into cross-tabulated counts."""
    counts = dict.fromkeys(CELL_KEYS, 0)
    for result in results:
        counts["trees"] += 1
        counts["trees_include_non_deployed"] += result.include_non_deployed
        for _, depth, deployed, vuln_ids, responsibility, library_status, instance_status, \
                via_halted, unknown_history in result.census:
            vulnerable = bool(vuln_ids)
            counts[_ALL[vulnerable, depth == 1]] += 1
            counts["unknown_history"] += unknown_history
            if not deployed:
                continue
            counts[_DEPLOYED[vulnerable, depth == 1]] += 1
            counts[_GROUPED[vulnerable, responsibility]] += 1
            bucket = vulnerable, library_status if library_status is _HALTED else instance_status
            counts[_LIFECYCLE[bucket]] += 1
            if via_halted:
                counts[_VIA_HALTED[bucket]] += 1
        for path in result.paths:
            counts[_PATHS[True, path.responsibility]] += 1
            counts[_PATHS[False, classify_responsibility(path.raw_path, result.root)]] += 1
    return AggregateReport(counts)


# --- rendering ----------------------------------------------------------------


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
    root = ":".join(result.root)
    return csv_rows(
        [
            root, ":".join(gav), *gav, depth, _TEXT[depth == 1], _TEXT[deployed],
            _TEXT[bool(vuln_ids)], ";".join(vuln_ids), _TEXT[responsibility is _OWN],
            _TEXT[responsibility], _TEXT[library_status], _TEXT[instance_status],
            _TEXT[via_halted], _TEXT[unknown_history],
        ]
        for gav, depth, deployed, vuln_ids, responsibility, library_status, instance_status,
        via_halted, unknown_history in result.census
    )


def _json_list(items, pad: str) -> str:
    """A JSON array of already encoded ``items`` as :func:`json_text` indents
    it when the array's own line starts with ``pad``."""
    if not items:
        return "[]"
    inner = f",\n{pad}  "
    return f"[\n{pad}  " + inner.join(items) + f"\n{pad}]"


_RESULT_JSON = (
    '{\n  "analysis_time": "%s",\n  "census": %s,\n  "include_non_deployed": %s,\n  "paths": %s,\n'
    '  "root": %s\n}'
)


def _result_json(result: ScanResult) -> str:
    """The result as :func:`json_text` writes its JSON object, without the
    final newline: from fixed templates, because with an indent ``json.dumps``
    runs its pure-Python encoder. Keys are in sorted order.
    Strings that may hold any character go through :func:`json_string`;
    enum values and dates need no escaping."""
    census = [
        _ROW_JSON % (
            _TEXT[deployed], depth, _TEXT[depth == 1], json_string(":".join(gav)),
            _TEXT[instance_status], _TEXT[library_status], _TEXT[responsibility is _OWN],
            _TEXT[responsibility], _TEXT[unknown_history], _TEXT[via_halted],
            _json_list(list(map(json_string, vuln_ids)), "      ") if vuln_ids else "[]",
        )
        for gav, depth, deployed, vuln_ids, responsibility, library_status, instance_status,
        via_halted, unknown_history in result.census
    ]
    paths = [
        _PATH_JSON % (
            _json_list([json_string(":".join(gav)) for gav in path.grouped_path], "      "),
            _json_list([json_string(":".join(gav)) for gav in path.raw_path], "      "),
            _TEXT[path.responsibility], _TEXT[path.via_halted], json_string(path.vuln_id),
        )
        for path in result.paths
    ]
    return _RESULT_JSON % (
        result.analysis_time.isoformat(), _json_list(census, "  "),
        _TEXT[result.include_non_deployed], _json_list(paths, "  "),
        json_string(":".join(result.root)),
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


_RESULT_KEYS = frozenset(f.name for f in fields(ScanResult))  # the keys the JSON writer renders

# value -> member per enum: a dict lookup costs a tenth of an Enum call
_RESPONSIBILITIES, _LIBRARY_STATUSES, _INSTANCE_STATUSES = (
    {m.value: m for m in cls} for cls in (Responsibility, LibraryStatus, InstanceStatus))


def _coordinate(obj, key, kind, pointer):  # names any value but a g:a:v string, of whatever type
    parse_gav_at(obj[key], json_pointer(pointer, key))


def _coordinates(obj, key, kind, pointer):
    for i in range(len(json_typed(obj, key, kind, pointer))):
        _coordinate(obj[key], i, str, json_pointer(pointer, key))


def _strings(obj, key, kind, pointer):
    if not all(type(text) is str for text in json_typed(obj, key, kind, pointer)):
        raise SchemaViolation(json_pointer(pointer, key), "must be an array of strings")


# each saved entry kind's (key, JSON type, check) triples in checking order: a
# path's fields are its type's, a row's add the derived direct and own flags
_PATH_FIELDS = (("raw_path", list, _coordinates), ("grouped_path", list, _coordinates),
                ("vuln_id", str, None), ("responsibility", str, _RESPONSIBILITIES),
                ("via_halted", bool, None))
_ROW_FIELDS = (("vuln_ids", list, _strings), ("own", bool, None),
               ("direct", bool, None), ("gav", str, _coordinate),
               ("depth", int, None), ("deployed", bool, None),
               ("responsibility", str, _RESPONSIBILITIES), ("library_status", str, _LIBRARY_STATUSES),
               ("instance_status", str, _INSTANCE_STATUSES), ("via_halted", bool, None),
               ("unknown_history", bool, None))
_PATH_KEYS, _path_values, _PATH_TYPES = schema_parts(_PATH_FIELDS)
_ROW_KEYS, _row_values, _ROW_TYPES = schema_parts(_ROW_FIELDS)
# _result_json's row and path templates, keys sorted; an enum's value goes in quoted as it stands
_ROW_JSON, _PATH_JSON = ("{\n" + ",\n".join(
    f'      "{key}": ' + ('"%s"' if type(check) is dict else "%s") for key, _, check in sorted(schema)
) + "\n    }" for schema in (_ROW_FIELDS, _PATH_FIELDS))


class _Gavs(dict):
    """A document's coordinates by their text, one :class:`Gav` per text:
    split on its first lookup, which takes a ``str`` only (None when it is
    malformed), or added by a census's column pass through ``setdefault``."""

    def __missing__(self, text: str) -> Gav | None:
        segments = text.split(":")
        if len(segments) == 3 and "" not in segments:
            return self.setdefault(text, tuple.__new__(Gav, segments))
        return None


def _path(entry, gavs: _Gavs, p: str, i: int) -> VulnerablePath:
    """Path ``i`` of the saved result at ``p``, in one straight pass; only a rejected entry is walked."""
    if type(entry) is dict and entry.keys() == _PATH_KEYS:
        values = raw_path, grouped_path, vuln_id, responsibility, via_halted = _path_values(entry)
        if (tuple(map(type, values)) == _PATH_TYPES and responsibility in _RESPONSIBILITIES
                and {*map(type, raw_path), *map(type, grouped_path)} <= {str}):
            raw_path, grouped_path = (tuple(map(gavs.__getitem__, raw_path)),
                                      tuple(map(gavs.__getitem__, grouped_path)))
            if None not in raw_path and None not in grouped_path:
                try:
                    return VulnerablePath(raw_path, grouped_path, vuln_id,
                                          _RESPONSIBILITIES[responsibility], via_halted)
                except ValueError as exc:  # an empty path, or grouping that lost the instance
                    raise SchemaViolation(f"{p}/paths/{i}", str(exc)) from None
    check_fields(entry, f"{p}/paths/{i}", _PATH_FIELDS, _PATH_KEYS)


def _census(entries: list, gavs: _Gavs, p: str) -> tuple[CensusRow, ...]:
    """The census of the saved result at ``p``: a pass per column, and a walk on doubt."""
    if not entries:
        return ()
    try:
        columns = ({*map(type, entries)} == {dict} and {*map(len, entries)} == {len(_ROW_KEYS)}
                   and [*zip(*map(_row_values, entries))])
    except KeyError:  # a key renamed
        columns = None
    if columns and [{*map(type, column)} for column in columns] == [{kind} for kind in _ROW_TYPES]:
        vuln_ids, own, direct, gav, depth, deployed, responsibility, library_status, \
            instance_status, via_halted, unknown_history = columns
        segments = [*map(str.split, gav, repeat(":"))]
        # a row is a dependency, so below the root, and own and direct are derived
        if ({*map(type, chain.from_iterable(vuln_ids))} <= {str}
                and {*responsibility}.issubset(_RESPONSIBILITIES)
                and {*library_status}.issubset(_LIBRARY_STATUSES)
                and {*instance_status}.issubset(_INSTANCE_STATUSES)
                and {*map(len, segments)} == {3} and "" not in chain.from_iterable(segments)
                and min(depth) >= 1 and direct == tuple(map((1).__eq__, depth))
                and own == tuple(map("own".__eq__, responsibility))):
            # tuples' own constructor: NamedTuple's __new__ is a Python call
            return tuple(map(tuple.__new__, repeat(CensusRow), zip(
                map(gavs.setdefault, gav, map(tuple.__new__, repeat(Gav), segments)), depth,
                deployed, map(tuple, vuln_ids), map(_RESPONSIBILITIES.__getitem__, responsibility),
                map(_LIBRARY_STATUSES.__getitem__, library_status),
                map(_INSTANCE_STATUSES.__getitem__, instance_status), via_halted, unknown_history)))
    for i, entry in enumerate(entries):
        pointer = f"{p}/census/{i}"
        check_fields(entry, pointer, _ROW_FIELDS, _ROW_KEYS)
        depth, direct, own, responsibility = map(entry.get, ("depth", "direct", "own", "responsibility"))
        if depth < 1:
            raise SchemaViolation(f"{pointer}/depth", f"{depth} is not a dependency's depth")
        if direct is not (depth == 1):
            raise SchemaViolation(f"{pointer}/direct", f"{direct} disagrees with depth {depth}")
        if own is not (responsibility == "own"):
            raise SchemaViolation(f"{pointer}/own", f"{own} disagrees with responsibility {responsibility!r}")
    raise AssertionError(f"{p}/census: a column broke a rule that no row breaks")


def _result_from_dict(data, pointer: str, gavs: _Gavs) -> ScanResult:
    json_object(data, pointer, _RESULT_KEYS)
    paths = json_typed(data, "paths", list, pointer)
    census = json_typed(data, "census", list, pointer)
    root = data["root"]
    if type(root) is not str or gavs[root] is None:  # parse_gav_at raises for any other
        parse_gav_at(root, f"{pointer}/root")
    return ScanResult(
        root=gavs[root],
        analysis_time=parse_date_at(data["analysis_time"], f"{pointer}/analysis_time"),
        include_non_deployed=json_typed(data, "include_non_deployed", bool, pointer),
        paths=tuple(_path(e, gavs, pointer, i) for i, e in enumerate(paths)),
        census=_census(census, gavs, pointer),
    )


def parse_scan_results_json(doc: str) -> list[ScanResult]:
    """Parse a scan result object or array as rendered by :func:`render`.
    A census is read column by column, each rule tested once per column in
    set and ``map`` passes. Only a census where a rule fails is walked, row
    by row in document order, each row's fields and then its derived rules,
    so the fault named is the first, as a walk of every entry would name it.
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
