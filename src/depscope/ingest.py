"""Parsers for the three external inputs, and the one output encoding.

* dependency trees, either as the text dump of a resolved-tree listing or as
  the BoM JSON interchange format,
* release histories as CSV,
* the vulnerability knowledge base as JSON.

All parsers are pure functions from document text to model values.
:func:`csv_text` and :func:`json_text` fix the encoding of every CSV and JSON
output the package renders.
"""

from __future__ import annotations

import csv
import io
import json
import re
from datetime import date

from depscope.errors import (
    DuplicateGa,
    DuplicateVersion,
    EmptyAffectedSet,
    EmptyInput,
    MalformedCoordinate,
    MalformedRow,
    MalformedTreeLine,
    SchemaViolation,
)
from depscope.model import (
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    Release,
    ReleaseHistory,
    Scope,
    VulnerabilityKb,
    VulnerabilityRecord,
    parse_gav,
)


def csv_text(header, rows) -> str:
    """A header row and data rows as CSV with LF line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def json_text(data) -> str:
    """Indented, sorted-key JSON ending in a newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def parse_json(doc: str):
    """The value of a JSON document. Malformed JSON, and nesting deeper than
    the stdlib decoder follows, are schema violations at the document."""
    try:
        return json.loads(doc)
    except json.JSONDecodeError as exc:
        raise SchemaViolation("", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaViolation("", "invalid JSON: nested too deeply to decode") from None


# --- tree text ---------------------------------------------------------------

_INFO_PREFIX = "[INFO] "
_INDENT_UNITS = ("+- ", "\\- ", "|  ", "   ")
_BRANCH_UNITS = ("+- ", "\\- ")
# scope names both tree formats accept; the text form maps any other to UNKNOWN
_SCOPES = {s.value: s for s in Scope if s is not Scope.UNKNOWN}


class _NodeBuilder:
    __slots__ = ("gav", "scope", "children", "node")

    def __init__(self, gav: Gav, scope: Scope):
        self.gav = gav
        self.scope = scope
        self.children: list[_NodeBuilder] = []


def _parse_coordinate(text: str, line_no: int, is_root: bool) -> tuple[Gav, Scope]:
    if not text or any(ch.isspace() for ch in text):
        raise MalformedTreeLine(line_no, f"bad coordinate {text!r}")
    segments = text.split(":")
    if any(not s for s in segments):
        raise MalformedTreeLine(line_no, f"empty segment in {text!r}")
    if len(segments) == 3:
        return Gav(segments[0], segments[1], segments[2]), Scope.COMPILE
    if is_root and len(segments) == 4:
        return Gav(segments[0], segments[1], segments[3]), Scope.COMPILE
    if not is_root and len(segments) == 5:
        scope = _SCOPES.get(segments[4], Scope.UNKNOWN)
        return Gav(segments[0], segments[1], segments[3]), scope
    raise MalformedTreeLine(line_no, f"wrong segment count in {text!r}")


def parse_tree_text(text: str) -> DependencyTree:
    """Parse the text dump of a resolved dependency tree.

    The first content line is the root coordinate (``g:a:v`` or
    ``g:a:packaging:v``). Every other line carries indentation built from
    three-character units drawn from ``+- ``, ``\\- ``, ``|  `` and three
    spaces, the last unit being a branch marker, followed by a coordinate.
    Node depth is the unit count; the parent is the nearest preceding node
    one level up. A leading ``[INFO] `` per line is stripped, so both raw
    dumps and log captures parse.
    """
    in_order = []  # every node in file order: each parent before its children
    seen: set[Ga] = set()
    # stack of (depth, builder) for ancestor resolution
    stack: list[tuple[int, _NodeBuilder]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if line.startswith(_INFO_PREFIX):
            line = line[len(_INFO_PREFIX) :]
        elif line.strip() == "[INFO]":
            line = ""
        line = line.rstrip()
        if not line:
            continue

        pos = 0
        units: list[str] = []
        while line[pos : pos + 3] in _INDENT_UNITS:
            units.append(line[pos : pos + 3])
            pos += 3
        coordinate = line[pos:]
        depth = len(units)
        if units and units[-1] not in _BRANCH_UNITS:
            raise MalformedTreeLine(line_no, "indentation does not end with a branch marker")

        if not in_order:
            if depth != 0:
                raise MalformedTreeLine(line_no, "first content line must be the unindented root")
            gav, scope = _parse_coordinate(coordinate, line_no, is_root=True)
            root = _NodeBuilder(gav, scope)
            in_order.append(root)
            seen.add(gav.ga)
            stack = [(0, root)]
            continue

        if depth == 0:
            raise MalformedTreeLine(line_no, "second root line")
        gav, scope = _parse_coordinate(coordinate, line_no, is_root=False)
        if gav.ga in seen:
            raise DuplicateGa(gav.ga)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack or stack[-1][0] != depth - 1:
            raise MalformedTreeLine(line_no, f"no parent at depth {depth - 1}")
        node = _NodeBuilder(gav, scope)
        stack[-1][1].children.append(node)
        stack.append((depth, node))
        in_order.append(node)
        seen.add(gav.ga)

    if not in_order:
        raise EmptyInput()
    # freezing in reverse file order builds every subtree before its parent,
    # without recursion, so no tree depth exhausts the stack
    for item in reversed(in_order):
        item.node = DependencyNode(item.gav, item.scope, tuple(c.node for c in item.children))
    return DependencyTree(in_order[0].node)


# --- tree JSON ---------------------------------------------------------------


def _require_keys(obj: dict, allowed: set[str], required: set[str], pointer: str) -> None:
    for key in required:
        if key not in obj:
            raise SchemaViolation(pointer, f"missing key {key!r}")
    for key in obj:
        if key not in allowed:
            raise SchemaViolation(pointer, f"unexpected key {key!r}")


def _parse_json_node(obj, pointer: str, seen: set[Ga]) -> DependencyNode:
    if not isinstance(obj, dict):
        raise SchemaViolation(pointer, "node must be an object")
    _require_keys(obj, {"gav", "scope", "children"}, {"gav", "scope", "children"}, pointer)
    gav = parse_gav_at(obj["gav"], f"{pointer}/gav")
    if gav.ga in seen:
        raise SchemaViolation(f"{pointer}/gav", f"duplicate library {gav.ga}")
    seen.add(gav.ga)
    scope_text = obj["scope"]
    if not isinstance(scope_text, str) or scope_text not in _SCOPES:
        raise SchemaViolation(f"{pointer}/scope", f"not a valid scope: {scope_text!r}")
    children_obj = obj["children"]
    if not isinstance(children_obj, list):
        raise SchemaViolation(f"{pointer}/children", "must be an array")
    # a loop, not a generator, so each level costs one frame: the decoder
    # spends two per level and so always runs out of stack first
    children = []
    for i, child in enumerate(children_obj):
        children.append(_parse_json_node(child, f"{pointer}/children/{i}", seen))
    return DependencyNode(gav, _SCOPES[scope_text], children)


def parse_gav_at(value, pointer: str) -> Gav:
    """:func:`parse_gav` for a JSON value; failures name ``pointer``."""
    if isinstance(value, str):
        try:
            return parse_gav(value)
        except MalformedCoordinate:
            pass
    raise SchemaViolation(pointer, f"not a g:a:v coordinate: {value!r}")


_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


def parse_date_at(text, pointer: str) -> date:
    """A strict ``YYYY-MM-DD`` date; failures name ``pointer``."""
    if not isinstance(text, str) or not _ISO_DATE.match(text):
        raise SchemaViolation(pointer, f"not a YYYY-MM-DD date: {text!r}")
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise SchemaViolation(pointer, str(exc)) from None


def parse_tree_json(doc: str) -> DependencyTree:
    """Parse the BoM JSON interchange form of a dependency tree."""
    data = parse_json(doc)
    if not isinstance(data, dict):
        raise SchemaViolation("", "document root must be an object")
    _require_keys(data, {"analysis_time", "root"}, {"root"}, "")
    analysis_time = None
    if "analysis_time" in data:
        analysis_time = parse_date_at(data["analysis_time"], "/analysis_time")
    root = _parse_json_node(data["root"], "/root", set())
    if root.scope is not Scope.COMPILE:
        raise SchemaViolation("/root/scope", "root scope must be compile")
    return DependencyTree(root, analysis_time)


def _node_to_dict(node: DependencyNode) -> dict:
    return {
        "gav": str(node.gav),
        "scope": node.scope.value,
        "children": [_node_to_dict(child) for child in node.children],
    }


def render_tree_json(tree: DependencyTree) -> str:
    """Canonical BoM JSON rendering; inverse of :func:`parse_tree_json`."""
    data: dict = {"root": _node_to_dict(tree.root)}
    if tree.analysis_time is not None:
        data["analysis_time"] = tree.analysis_time.isoformat()
    return json_text(data)


# --- release histories -------------------------------------------------------

_HISTORY_HEADER = ["group_id", "artifact_id", "version", "release_date"]


def load_release_history(doc: str) -> dict[Ga, ReleaseHistory]:
    """Load release histories from CSV keyed by library.

    Rows are grouped by library and sorted ascending by date; equal dates
    keep file order. Header must be exactly
    ``group_id,artifact_id,version,release_date``.
    """
    reader = csv.reader(io.StringIO(doc))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRow(1, "missing header") from None
    if header != _HISTORY_HEADER:
        raise MalformedRow(1, f"bad header {header!r}")

    rows: dict[Ga, list[Release]] = {}
    seen: set[tuple[Ga, str]] = set()
    for row in reader:
        line_no = reader.line_num
        if len(row) != 4:
            raise MalformedRow(line_no, f"expected 4 fields, got {len(row)}")
        group, artifact, version, date_text = row
        if not group or not artifact or not version:
            raise MalformedRow(line_no, "empty field")
        try:
            released = parse_date_at(date_text, "")
        except SchemaViolation:
            raise MalformedRow(line_no, f"bad date {date_text!r}") from None
        try:
            ga = Ga(group, artifact)
        except ValueError as exc:  # a ':' inside group_id or artifact_id
            raise MalformedRow(line_no, str(exc)) from None
        if (ga, version) in seen:
            raise DuplicateVersion(ga, version)
        seen.add((ga, version))
        rows.setdefault(ga, []).append(Release(version, released))

    return {
        ga: ReleaseHistory(ga, tuple(sorted(releases, key=lambda r: r.released)))
        for ga, releases in rows.items()
    }


# --- vulnerability knowledge base --------------------------------------------


def _require_nonempty_str(value, pointer: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaViolation(pointer, "must be a non-empty string")
    return value


def _require_segment(value, pointer: str) -> str:
    if ":" in _require_nonempty_str(value, pointer):
        raise SchemaViolation(pointer, "must not contain ':'")
    return value


def load_vuln_kb(doc: str) -> VulnerabilityKb:
    """Load the vulnerability knowledge base.

    The document is an array of ``{"id", "affected"}`` records; each
    affected entry names a library and the versions it applies to, and is
    expanded into explicit instances.
    """
    data = parse_json(doc)
    if not isinstance(data, list):
        raise SchemaViolation("", "document root must be an array")

    records = []
    for i, entry in enumerate(data):
        pointer = f"/{i}"
        if not isinstance(entry, dict):
            raise SchemaViolation(pointer, "record must be an object")
        _require_keys(entry, {"id", "affected"}, {"id", "affected"}, pointer)
        vuln_id = _require_nonempty_str(entry["id"], f"{pointer}/id")
        affected_obj = entry["affected"]
        if not isinstance(affected_obj, list):
            raise SchemaViolation(f"{pointer}/affected", "must be an array")
        if not affected_obj:
            raise EmptyAffectedSet(vuln_id)
        affected: set[Gav] = set()
        for j, lib in enumerate(affected_obj):
            lib_pointer = f"{pointer}/affected/{j}"
            if not isinstance(lib, dict):
                raise SchemaViolation(lib_pointer, "entry must be an object")
            _require_keys(lib, {"group", "artifact", "versions"}, {"group", "artifact", "versions"}, lib_pointer)
            group = _require_segment(lib["group"], f"{lib_pointer}/group")
            artifact = _require_segment(lib["artifact"], f"{lib_pointer}/artifact")
            versions = lib["versions"]
            if not isinstance(versions, list):
                raise SchemaViolation(f"{lib_pointer}/versions", "must be an array")
            if not versions:
                raise EmptyAffectedSet(vuln_id)
            for k, version in enumerate(versions):
                _require_segment(version, f"{lib_pointer}/versions/{k}")
                affected.add(Gav(group, artifact, version))
        records.append(VulnerabilityRecord(vuln_id, frozenset(affected)))
    return VulnerabilityKb(records)
