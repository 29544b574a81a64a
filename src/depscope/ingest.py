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
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as json_string  # the string encoder json_text uses
from operator import itemgetter

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


def check_fields(entry, pointer: str, schema, keys: frozenset) -> None:
    """Raise at the first fault of ``entry``, an object of exactly ``keys``, in
    the order of ``schema``'s ``(key, JSON type, check)`` triples. A dict
    check maps the values allowed, and names any other of whatever type; any
    other check is called as :func:`json_typed`, the check of a field without
    one, is."""
    json_object(entry, pointer, keys)
    for key, kind, check in schema:
        if type(check) is not dict:
            (check or json_typed)(entry, key, kind, pointer)
        elif type(entry[key]) is not kind or entry[key] not in check:
            raise SchemaViolation(json_pointer(pointer, key), f"invalid value {entry[key]!r}")


def schema_parts(schema) -> tuple[frozenset, itemgetter, tuple]:
    """What a straight decoder reads of ``schema``: its key set, a getter of
    an entry's values in checking order, and their JSON types."""
    keys = [key for key, _, _ in schema]
    return frozenset(keys), itemgetter(*keys), tuple(kind for _, kind, _ in schema)


# --- tree text ---------------------------------------------------------------

_INFO_PREFIX = "[INFO] "
_INDENT_UNITS = ("+- ", "\\- ", "|  ", "   ")
_BRANCH_UNITS = ("+- ", "\\- ")
# the indentation of a dependency line: units, the last a branch marker
_indentation = re.compile(r"(?:[+\\]- |[| ]  )*[+\\]- ").match
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


def _checked_text_nodes(lines: list[str]) -> list[tuple[Gav, Scope, int]]:
    """The nodes of a tree dump's lines, each checked: raises at the first fault in file order."""
    preorder: list[tuple[Gav, Scope, int]] = []  # file order: each parent first
    ancestors: list[int] = []  # preorder positions of the open nodes, one per depth
    seen = set()  # group and artifact as plain tuples; a Ga only for the error
    for line_no, line in enumerate(lines, start=1):
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
    return preorder


def parse_tree_text(text: str) -> DependencyTree:
    """Parse the text dump of a resolved dependency tree.

    The first content line is the root coordinate (``g:a:v`` or
    ``g:a:packaging:v``). Every other line carries indentation built from
    three-character units drawn from ``+- ``, ``\\- ``, ``|  `` and three
    spaces, the last unit being a branch marker, followed by a coordinate.
    Node depth is the unit count; the parent is the nearest preceding node
    one level up. Lines end only at LF, CRLF or CR; any other separator is
    whitespace. A leading ``[INFO] `` per line is stripped and a bare
    ``[INFO]`` line is blank; any other log line, such as ``[INFO] Scanning
    for projects...``, raises :class:`MalformedTreeLine`. A library on a
    second line raises :class:`DuplicateGa` naming that line. Each line is
    read in one straight pass; only a rejected document is read again, with
    every check, to name its first fault.
    """
    # lines end only at LF, CRLF or CR, as a universal-newline read ends them
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if "[INFO]" in text:  # a log prefix goes, and a bare [INFO] line is blank
        lines = [line[len(_INFO_PREFIX):] if line.startswith(_INFO_PREFIX)
                 else "" if line.strip() == "[INFO]" else line for line in lines]
    preorder: list[tuple[Gav, Scope, int]] = []
    ancestors: list[int] = []
    seen = set()  # group and artifact; a repeat shows as a set smaller than the tree
    for line in lines:
        line = line.rstrip()
        if not line:
            continue
        indentation = _indentation(line)
        pos = indentation.end() if indentation else 0
        coordinate, depth = line[pos:], pos // 3
        segments = coordinate.split(":")
        n = len(segments)
        # every whitespace character but the space is unprintable
        if (" " in coordinate or not coordinate.isprintable() or "" in segments or n != 3
                and n != (5 if depth else 4) or depth > len(ancestors) or preorder and not depth):
            break
        del ancestors[depth:]
        ancestors.append(len(preorder))
        seen.add((segments[0], segments[1]))
        preorder.append((tuple.__new__(Gav, (segments[0], segments[1], segments[3 if n > 3 else 2])),
                         _SCOPES.get(segments[4], Scope.UNKNOWN) if n == 5 else Scope.COMPILE,
                         ancestors[-2] if depth else -1))
    else:
        if preorder and len(seen) == len(preorder):
            return DependencyTree._parsed(build_tree(preorder))
    return DependencyTree._parsed(build_tree(_checked_text_nodes(lines)))


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
_node_values = itemgetter("gav", "scope", "children")


def _checked_json_nodes(root) -> list[tuple[Gav, Scope, int]]:
    """The nodes below a JSON tree's root, each checked: raises at the first fault in preorder."""
    preorder: list[tuple[Gav, Scope, int]] = []
    seen = set()  # group and artifact as plain tuples; a Ga only for the error
    stack = [(root, "/root", -1)]
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
    return preorder


def parse_tree_json(doc: str) -> DependencyTree:
    """Parse the BoM JSON interchange form of a dependency tree.

    Each node is read in one straight pass, which builds no pointer. Only a
    rejected document is read again, with every check, in preorder from an
    explicit stack, so the error reported is the first in document order and
    no nesting the decoder accepts exhausts the stack.
    """
    data = json_object(parse_json(doc), "", _TREE_KEYS, frozenset({"analysis_time"}))
    analysis_time = None
    if "analysis_time" in data:
        analysis_time = parse_date_at(data["analysis_time"], "/analysis_time")
    preorder: list[tuple[Gav, Scope, int]] = []
    seen = set()  # group and artifact; a repeat shows as a set smaller than the tree
    stack = [(data["root"], -1)]
    while stack:
        obj, parent = stack.pop()
        if type(obj) is not dict or obj.keys() != _NODE_KEYS:
            break
        gav, scope, children = _node_values(obj)
        segments = gav.split(":") if type(gav) is str else ()
        scope = _SCOPES.get(scope) if type(scope) is str else None
        if len(segments) != 3 or "" in segments or scope is None or type(children) is not list:
            break
        seen.add((segments[0], segments[1]))
        if children:
            stack += zip(reversed(children), repeat(len(preorder)))
        preorder.append((tuple.__new__(Gav, segments), scope, parent))
    else:
        if len(seen) == len(preorder) and preorder[0][1] is Scope.COMPILE:
            return DependencyTree._parsed(build_tree(preorder), analysis_time)
    return DependencyTree._parsed(build_tree(_checked_json_nodes(data["root"])), analysis_time)


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


def _kb_text(obj, key, kind, pointer: str, segment: bool = True) -> None:
    """The check that ``obj[key]`` is a non-empty string, without ':' in a coordinate ``segment``."""
    value = json_typed(obj, key, kind, pointer)
    if not value or segment and ":" in value:
        raise SchemaViolation(f"{pointer}/{key}", "must be a non-empty string" + " without ':'" * segment)


def _versions(obj, key, kind, pointer: str) -> None:
    for k in range(len(json_typed(obj, key, kind, pointer))):
        _kb_text(obj[key], k, str, json_pointer(pointer, key))


# a KB entry and each of its affected entries: (key, JSON type, check) in checking order
_RECORD_FIELDS = (("id", str, partial(_kb_text, segment=False)), ("affected", list, None))
_AFFECTED_FIELDS = (("group", str, _kb_text), ("artifact", str, _kb_text), ("versions", list, _versions))
_RECORD_KEYS, _record_values, _RECORD_TYPES = schema_parts(_RECORD_FIELDS)
_AFFECTED_KEYS, _affected_values, _AFFECTED_TYPES = schema_parts(_AFFECTED_FIELDS)


def _record(entry, i: int) -> VulnerabilityRecord:
    """KB entry ``i``, read in one straight pass. Only a rejected entry has
    its pointer built: the walk of its fields names its first fault."""
    if type(entry) is dict and entry.keys() == _RECORD_KEYS:
        vuln_id, libs = _record_values(entry)
        # the types as a tuple of two or three: a map over them costs more than the test
        if (type(vuln_id), type(libs)) == _RECORD_TYPES and vuln_id and libs:
            affected: set[Gav] = set()
            for lib in libs:
                if type(lib) is not dict or lib.keys() != _AFFECTED_KEYS:
                    break
                group, artifact, versions = _affected_values(lib)
                if (type(group), type(artifact), type(versions)) != _AFFECTED_TYPES or not versions:
                    break
                try:  # Gav takes exactly a non-empty str without ':' per segment, as _kb_text does
                    affected.update([Gav(group, artifact, version) for version in versions])
                except ValueError:
                    break
            else:
                return VulnerabilityRecord(vuln_id, frozenset(affected))
    pointer = f"/{i}"
    check_fields(entry, pointer, _RECORD_FIELDS, _RECORD_KEYS)
    if not entry["affected"]:
        raise EmptyAffectedSet(entry["id"])
    for j, lib in enumerate(entry["affected"]):
        check_fields(lib, f"{pointer}/affected/{j}", _AFFECTED_FIELDS, _AFFECTED_KEYS)
        if not lib["versions"]:
            raise EmptyAffectedSet(entry["id"])


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
        records.append(_record(entry, i))
    kb = VulnerabilityKb(records)
    kb.ids_by_gav  # built under the collector hold, so no first match pays for it
    return kb
