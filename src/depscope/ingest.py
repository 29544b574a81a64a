"""Parsers for the three external inputs, and the one output encoding.

* dependency trees, either as the text dump of a resolved-tree listing or as
  the BoM JSON interchange format,
* release histories as CSV,
* the vulnerability knowledge base as JSON.

All parsers are pure functions from document text to model values.
:func:`csv_rows`, :func:`csv_text`, :func:`json_text` and :func:`json_string`
fix the encoding of every CSV and JSON output the package renders.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import re
from contextlib import contextmanager
from datetime import date
from itertools import chain
from json.encoder import encode_basestring_ascii as json_string  # the string encoder json_text uses

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
    DependencyTree,
    Ga,
    Gav,
    Release,
    ReleaseHistories,
    ReleaseHistory,
    Scope,
    VulnerabilityKb,
    VulnerabilityRecord,
    build_tree,
    parse_gav,
)


def csv_rows(rows) -> str:
    """Rows as CSV with LF line ends."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def csv_text(header, rows) -> str:
    """A header row and data rows as CSV with LF line ends."""
    return csv_rows(chain((header,), rows))


def json_text(data) -> str:
    """Indented, sorted-key JSON ending in a newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@contextmanager
def _collector_held_off():
    """Turn the cyclic garbage collector off while a loader runs, and restore
    its earlier state on return or on an error.

    The loaders build only values that cannot form cycles: JSON dicts and
    lists, ``Gav`` tuples, frozensets and frozen ``Release``,
    ``VulnerabilityRecord`` and ``ReleaseHistory`` instances. Yet CPython (up
    to 3.13) runs a full collection over every live container each time the
    oldest generation grows by a quarter, so a large KB would pay for many
    walks of a heap that holds no garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(doc: str):
    """The value of a JSON document. Malformed JSON, an integer literal too
    long to convert, and nesting deeper than the stdlib decoder follows are
    schema violations at the document; a string holding a lone surrogate is
    one at the string."""
    try:
        value = json.loads(doc)
    except RecursionError:
        raise SchemaViolation("", "invalid JSON: nested too deeply to decode") from None
    except ValueError as exc:  # JSONDecodeError, or the integer digit limit
        raise SchemaViolation("", f"invalid JSON: {exc}") from None
    # a decoded surrogate comes from an escape in its range or from the text
    # itself; most documents have neither, and isascii is O(1)
    if _SURROGATE_ESCAPE.search(doc) or not doc.isascii() and _SURROGATE.search(doc):
        _reject_lone_surrogates(value)
    return value


def json_pointer(pointer: str, key) -> str:
    """``pointer`` extended by the key or index ``key``, escaped as RFC 6901 asks."""
    return f"{pointer}/{str(key).replace('~', '~0').replace('/', '~1')}"


def _check_surrogates(text: str, pointer: str) -> None:
    found = not text.isascii() and _SURROGATE.search(text)
    if found:
        raise SchemaViolation(pointer, f"unpaired surrogate {found.group()!r}")


def _reject_lone_surrogates(value) -> None:
    """Raise at the first string in preorder holding a surrogate code point:
    an escape such as ``"\\ud800"`` that no other half pairs. No UTF-8
    output can encode it, so it fails here, where its pointer is known,
    instead of mid-write. Keys are checked with their object, which a
    pointer names."""
    stack = [("", value)]
    while stack:
        pointer, value = stack.pop()
        if isinstance(value, str):
            _check_surrogates(value, pointer)
        elif isinstance(value, dict):
            for name in value:
                _check_surrogates(name, pointer)
            stack.extend((json_pointer(pointer, name), child)
                         for name, child in reversed(value.items()))
        elif isinstance(value, list):
            stack.extend((f"{pointer}/{i}", value[i]) for i in reversed(range(len(value))))


def json_object(value, pointer: str, required: frozenset, optional: frozenset = frozenset()) -> dict:
    """``value`` when it is an object holding every key in ``required`` and
    no key outside ``required`` and ``optional``. Failures name ``pointer``
    and the smallest missing, else unexpected, key."""
    if not isinstance(value, dict):
        raise SchemaViolation(pointer, "must be an object")
    keys = value.keys()
    # the first test is the cheap one; the second admits optional keys
    if keys == required or keys - optional == required:
        return value
    if not required <= keys:
        raise SchemaViolation(pointer, f"missing key {min(required - keys)!r}")
    raise SchemaViolation(pointer, f"unexpected key {min(keys - required - optional)!r}")


_JSON_TYPE_NAMES = {bool: "a boolean", int: "an integer", str: "a string", list: "an array",
                    dict: "an object"}


def json_typed(obj, key, kind: type, pointer: str):
    """``obj[key]`` when it has exactly the JSON type ``kind``; ``obj`` is an
    object or an array. Failures name ``pointer`` extended by ``key``."""
    value = obj[key]
    if type(value) is not kind:
        raise SchemaViolation(json_pointer(pointer, key), f"must be {_JSON_TYPE_NAMES[kind]}")
    return value


# --- tree text ---------------------------------------------------------------

_INFO_PREFIX = "[INFO] "
_INDENT_UNITS = ("+- ", "\\- ", "|  ", "   ")
_BRANCH_UNITS = ("+- ", "\\- ")
# scope names both tree formats accept, ``unknown`` included so that a parsed
# text tree renders to JSON that parses back; the text form maps any other
# name to UNKNOWN
_SCOPES = {s.value: s for s in Scope}


def _parse_coordinate(text: str, line_no: int, is_root: bool) -> tuple[Gav, Scope]:
    if text.split() != [text]:  # empty, or holding whitespace
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
    one level up. A leading ``[INFO] `` per line is stripped and a bare
    ``[INFO]`` line is blank; any other log line, such as ``[INFO] Scanning
    for projects...``, raises :class:`MalformedTreeLine`. A library on a
    second line raises :class:`DuplicateGa` naming that line.
    """
    preorder: list[tuple[Gav, Scope, int]] = []  # file order: each parent first
    ancestors: list[int] = []  # preorder positions of the open nodes, one per depth
    seen = set()  # group and artifact as plain tuples; a Ga only for the error
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
        while line[pos : pos + 3] in _INDENT_UNITS:
            pos += 3
        coordinate = line[pos:]
        depth = pos // 3
        if depth and line[pos - 3 : pos] not in _BRANCH_UNITS:
            raise MalformedTreeLine(line_no, "indentation does not end with a branch marker")

        if not preorder and depth:
            raise MalformedTreeLine(line_no, "first content line must be the unindented root")
        if preorder and not depth:
            raise MalformedTreeLine(line_no, "second root line")
        gav, scope = _parse_coordinate(coordinate, line_no, is_root=not preorder)
        ga = gav[:2]
        if ga in seen:
            raise DuplicateGa(gav.ga, line_no)
        seen.add(ga)
        del ancestors[depth:]
        if len(ancestors) != depth:
            raise MalformedTreeLine(line_no, f"no parent at depth {depth - 1}")
        ancestors.append(len(preorder))
        preorder.append((gav, scope, ancestors[-2] if depth else -1))

    if not preorder:
        raise EmptyInput()
    return DependencyTree(build_tree(preorder))


# --- tree JSON ---------------------------------------------------------------


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


_TREE_KEYS = frozenset({"root"})
_NODE_KEYS = frozenset({"gav", "scope", "children"})


def parse_tree_json(doc: str) -> DependencyTree:
    """Parse the BoM JSON interchange form of a dependency tree.

    Nodes are checked in preorder from an explicit stack, so the error
    reported is the first in document order, and no nesting the decoder
    accepts exhausts the stack.
    """
    data = json_object(parse_json(doc), "", _TREE_KEYS, frozenset({"analysis_time"}))
    analysis_time = None
    if "analysis_time" in data:
        analysis_time = parse_date_at(data["analysis_time"], "/analysis_time")
    preorder: list[tuple[Gav, Scope, int]] = []
    seen = set()  # group and artifact as plain tuples; a Ga only for the error
    stack = [(data["root"], "/root", -1)]
    while stack:
        obj, pointer, parent = stack.pop()
        json_object(obj, pointer, _NODE_KEYS)
        gav = parse_gav_at(obj["gav"], f"{pointer}/gav")
        ga = gav[:2]
        if ga in seen:
            raise SchemaViolation(f"{pointer}/gav", f"duplicate library {gav.ga}")
        seen.add(ga)
        scope_text = obj["scope"]
        if not isinstance(scope_text, str) or scope_text not in _SCOPES:
            raise SchemaViolation(f"{pointer}/scope", f"not a valid scope: {scope_text!r}")
        children = json_typed(obj, "children", list, pointer)
        for i in reversed(range(len(children))):
            stack.append((children[i], f"{pointer}/children/{i}", len(preorder)))
        preorder.append((gav, _SCOPES[scope_text], parent))
    if preorder[0][1] is not Scope.COMPILE:
        raise SchemaViolation("/root/scope", "root scope must be compile")
    return DependencyTree(build_tree(preorder), analysis_time)


def render_tree_json(tree: DependencyTree) -> str:
    """Canonical BoM JSON rendering; inverse of :func:`parse_tree_json`.

    The bytes are those of :func:`json_text` on the nested node objects
    (keys ``children``, ``gav``, ``scope``), written from an explicit stack
    so that no depth exhausts the interpreter's.
    """
    out = ["{\n"]
    if tree.analysis_time is not None:
        out.append(f'  "analysis_time": "{tree.analysis_time.isoformat()}",\n')
    out.append('  "root": ')
    stack: list = ["\n}\n", (tree.root, 1)]  # literal text, or a node and its level
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        pad, inner = "  " * level, "  " * (level + 1)
        rest = (f'{inner}"gav": {json_string(str(node.gav))},\n'
                f'{inner}"scope": {json_string(node.scope.value)}\n{pad}}}')
        if not node.children:
            out.append(f'{{\n{inner}"children": [],\n{rest}')
            continue
        out.append(f'{{\n{inner}"children": [\n')
        stack.append(f"\n{inner}],\n{rest}")
        child_pad = "  " * (level + 2)
        for i in reversed(range(len(node.children))):
            stack.append((node.children[i], level + 2))
            stack.append(f",\n{child_pad}" if i else child_pad)
    return "".join(out)


# --- release histories -------------------------------------------------------

_HISTORY_HEADER = ["group_id", "artifact_id", "version", "release_date"]


@_collector_held_off()
def load_release_history(doc: str) -> ReleaseHistories:
    """Load release histories from CSV keyed by library.

    Rows are grouped by library and sorted ascending by date; equal dates
    keep file order. Header must be exactly
    ``group_id,artifact_id,version,release_date``. A repeated release
    raises :class:`DuplicateVersion` naming its second row. The result is
    read-only and keeps its lifecycle verdict tables (see
    :class:`ReleaseHistories`).
    """
    reader = csv.reader(io.StringIO(doc))
    rows: dict[Ga, dict[str, Release]] = {}  # by library, then version
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedRow(1, "missing header")
        if header != _HISTORY_HEADER:
            raise MalformedRow(1, f"bad header {header!r}")
        for row in reader:
            line_no = reader.line_num
            if len(row) != 4:
                raise MalformedRow(line_no, f"expected 4 fields, got {len(row)}")
            group, artifact, version, date_text = row
            try:
                gav = Gav(group, artifact, version)
            except ValueError as exc:  # an empty segment or one holding ':'
                raise MalformedRow(line_no, str(exc)) from None
            try:
                released = parse_date_at(date_text, "")
            except SchemaViolation:
                raise MalformedRow(line_no, f"bad date {date_text!r}") from None
            ga = gav.ga
            releases = rows.setdefault(ga, {})
            if version in releases:
                raise DuplicateVersion(ga, version, line_no)
            releases[version] = Release(version, released)
    except csv.Error as exc:  # a record the reader cannot split, e.g. one over its field limit
        raise MalformedRow(reader.line_num, str(exc)) from None

    return ReleaseHistories(
        (ga, ReleaseHistory(ga, tuple(sorted(releases.values(), key=lambda r: r.released))))
        for ga, releases in rows.items()
    )


# --- vulnerability knowledge base --------------------------------------------


_RECORD_KEYS = frozenset({"id", "affected"})
_AFFECTED_KEYS = frozenset({"group", "artifact", "versions"})


def _kb_text(obj, key, pointer: str, segment: bool = True) -> str:
    """``obj[key]`` when it is a non-empty string, without ':' when it is a
    coordinate ``segment``."""
    value = json_typed(obj, key, str, pointer)
    if not value or segment and ":" in value:
        raise SchemaViolation(f"{pointer}/{key}", "must be a non-empty string" + " without ':'" * segment)
    return value


def _record_from_dict(entry, pointer: str) -> VulnerabilityRecord:
    json_object(entry, pointer, _RECORD_KEYS)
    vuln_id = _kb_text(entry, "id", pointer, segment=False)
    affected_obj = json_typed(entry, "affected", list, pointer)
    if not affected_obj:
        raise EmptyAffectedSet(vuln_id)
    affected: set[Gav] = set()
    for j, lib in enumerate(affected_obj):
        lib_pointer = f"{pointer}/affected/{j}"
        json_object(lib, lib_pointer, _AFFECTED_KEYS)
        group = _kb_text(lib, "group", lib_pointer)
        artifact = _kb_text(lib, "artifact", lib_pointer)
        versions = json_typed(lib, "versions", list, lib_pointer)
        if not versions:
            raise EmptyAffectedSet(vuln_id)
        for k in range(len(versions)):
            affected.add(Gav(group, artifact, _kb_text(versions, k, f"{lib_pointer}/versions")))
    return VulnerabilityRecord(vuln_id, frozenset(affected))


def _decoded_record(entry) -> VulnerabilityRecord | None:
    """The record a well-formed ``entry`` holds, else None: the same value as
    :func:`_record_from_dict`, which alone names a fault."""
    if type(entry) is not dict or entry.keys() != _RECORD_KEYS:
        return None
    vuln_id, libs = entry["id"], entry["affected"]
    if type(vuln_id) is not str or not vuln_id or type(libs) is not list or not libs:
        return None
    affected: set[Gav] = set()
    for lib in libs:
        if type(lib) is not dict or lib.keys() != _AFFECTED_KEYS:
            return None
        group, artifact, versions = lib["group"], lib["artifact"], lib["versions"]
        if type(versions) is not list or not versions:
            return None
        try:  # Gav takes exactly a non-empty str without ':' per segment, as _kb_text does
            affected.update([Gav(group, artifact, version) for version in versions])
        except ValueError:
            return None
    return VulnerabilityRecord(vuln_id, frozenset(affected))


@_collector_held_off()
def load_vuln_kb(doc: str) -> VulnerabilityKb:
    """Load the vulnerability knowledge base.

    The document is an array of ``{"id", "affected"}`` records; each
    affected entry names a library and the versions it applies to, and is
    expanded into explicit instances. The KB comes with its index built.
    """
    data = parse_json(doc)
    if not isinstance(data, list):
        raise SchemaViolation("", "document root must be an array")

    records = []
    for i in range(len(data)):
        entry, data[i] = data[i], None  # the parsed entry goes once its record is built
        # a faulty entry fails its straight decoder, and its checked one raises at the fault
        records.append(_decoded_record(entry) or _record_from_dict(entry, f"/{i}"))
    kb = VulnerabilityKb(records)
    kb.ids_by_gav  # built under the collector hold, so no first match pays for it
    return kb
