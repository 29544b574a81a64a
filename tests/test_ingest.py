from __future__ import annotations

import csv
import gc
import inspect
import json
import random
import sys
from datetime import date
from itertools import combinations, groupby
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from depscope import ingest as ingest_module
from depscope.errors import (
    DepscopeError,
    DuplicateGa,
    DuplicateVersion,
    EmptyAffectedSet,
    EmptyInput,
    MalformedRow,
    MalformedTreeLine,
    SchemaViolation,
)
from depscope.ingest import (
    csv_rows,
    json_text,
    json_typed,
    load_release_history,
    load_vuln_kb,
    parse_json,
    parse_tree_json,
    parse_tree_text,
    render_tree_json,
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
)
from depscope.simulate import SimulationPool

from conftest import (
    SAMPLE_KB_JSON,
    SAMPLE_TREE_JSON,
    SAMPLE_TREE_TEXT,
    build_synthetic_pool,
    deep_chain_tree,
    every_single_change,
    history_csv,
    mutate_json,
    reference_load_release_history,
    reference_load_vuln_kb,
    reference_parse_tree_json,
    reference_parse_tree_text,
    stalled_history,
    trees,
)


# --- tree text -----------------------------------------------------------------


def test_parse_root_only():
    tree = parse_tree_text("com.acme:m:1.0\n")
    assert tree.root.gav == Gav("com.acme", "m", "1.0")
    assert tree.root.children == ()


def test_parse_sample_tree_structure(sample_tree):
    root = sample_tree.root
    assert root.gav == Gav("com.acme", "app-core", "1.0")
    assert [c.gav.artifact_id for c in root.children] == [
        "app-util", "http-client", "stream-core",
    ]
    http_client = root.children[1]
    assert [c.gav.artifact_id for c in http_client.children] == ["io-buffers"]
    stream_core = root.children[2]
    assert stream_core.children[0].gav.artifact_id == "stream-codec"
    assert stream_core.children[0].children[0].gav.artifact_id == "compress"
    assert all(node.scope is Scope.COMPILE for node, _ in sample_tree.nodes())


def test_parse_strips_info_prefix():
    prefixed = "".join(f"[INFO] {line}\n" for line in SAMPLE_TREE_TEXT.splitlines())
    assert parse_tree_text(prefixed) == parse_tree_text(SAMPLE_TREE_TEXT)


def test_parse_accepts_crlf_and_blank_lines():
    doc = "com.acme:m:1.0\r\n\r\n+- g:a:jar:1:test\r\n"
    tree = parse_tree_text(doc)
    assert tree.root.children[0].scope is Scope.TEST


def test_parse_scope_variants():
    doc = (
        "com.acme:m:1.0\n"
        "+- g:a:jar:1:runtime\n"
        "+- g2:b:jar:1:exotic\n"
        "+- g3:c:1\n"
    )
    tree = parse_tree_text(doc)
    assert [c.scope for c in tree.root.children] == [
        Scope.RUNTIME, Scope.UNKNOWN, Scope.COMPILE,
    ]


def test_parse_rejects_orphan_depth():
    doc = "com.acme:m:1.0\n|  +- g:a:jar:1:compile\n"
    with pytest.raises(MalformedTreeLine) as exc:
        parse_tree_text(doc)
    assert exc.value.line_no == 2


def test_parse_rejects_bad_indent_width():
    doc = "com.acme:m:1.0\n +- g:a:jar:1:compile\n"
    with pytest.raises(MalformedTreeLine):
        parse_tree_text(doc)


def test_parse_rejects_indented_first_line():
    with pytest.raises(MalformedTreeLine):
        parse_tree_text("+- com.acme:m:1.0\n")


def test_parse_rejects_second_root():
    with pytest.raises(MalformedTreeLine):
        parse_tree_text("com.acme:m:1.0\ncom.other:n:1.0\n")


def test_parse_rejects_bad_coordinate():
    with pytest.raises(MalformedTreeLine):
        parse_tree_text("com.acme:m:1.0\n+- g:a:jar:1\n")


def test_parse_rejects_empty_segment():
    with pytest.raises(MalformedTreeLine, match="line 1: empty segment in 'com.a::1'"):
        parse_tree_text("com.a::1\n")


def test_parse_reads_a_bare_info_line_as_blank():
    doc = "[INFO]\ncom.acme:m:1.0\n[INFO]\n+- g:a:jar:1:compile\n"
    assert parse_tree_text(doc) == parse_tree_text("com.acme:m:1.0\n+- g:a:jar:1:compile\n")


def test_parse_rejects_indentation_without_a_branch_marker():
    with pytest.raises(MalformedTreeLine) as exc:
        parse_tree_text("com.acme:m:1.0\n|  com.x:y:jar:1:compile\n")
    assert str(exc.value) == "malformed tree line 2: indentation does not end with a branch marker"


def test_parse_rejects_duplicate_library():
    doc = "com.acme:m:1.0\n+- g:a:jar:1:compile\n+- g:a:jar:2:compile\n"
    with pytest.raises(DuplicateGa) as exc:
        parse_tree_text(doc)
    assert exc.value.ga == Ga("g", "a")


@pytest.mark.parametrize("tail", ["", "+- bad line\n"], ids=["alone", "before-bad-line"])
def test_parse_duplicate_library_names_its_line(tail):
    # the first error in file order, as the JSON parser reports the first in document order
    doc = "g:root:1\n+- g:a:jar:1:compile\n+- g:a:jar:2:compile\n" + tail
    with pytest.raises(DuplicateGa) as exc:
        parse_tree_text(doc)
    assert (exc.value.ga, exc.value.line_no) == (Ga("g", "a"), 3)
    assert str(exc.value) == "library g:a appears more than once in the tree, again at line 3"


def test_parse_duplicate_of_the_root_library_names_its_line():
    with pytest.raises(DuplicateGa) as exc:
        parse_tree_text("[INFO] g:a:1\n[INFO] +- h:b:jar:1:compile\n\n[INFO] |  \\- g:a:jar:2:compile\n")
    assert (exc.value.ga, exc.value.line_no) == (Ga("g", "a"), 4)


@given(st.text())
@example("")
@example("g:a:jar:1:compile")
@example("g:a\x1cb")  # separators that str.isspace also counts
@example("\u2028")
@example("g:a\x85")
@example("g:a\u200b")  # a zero-width space is no whitespace
def test_coordinate_whitespace_check_equals_per_character_scan(text):
    assert (text.split() != [text]) == (not text or any(ch.isspace() for ch in text))


def test_parse_empty_input():
    with pytest.raises(EmptyInput):
        parse_tree_text("\n\n")


# separators that str.splitlines also breaks a line at
_OTHER_LINE_SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", _OTHER_LINE_SEPARATORS, ids=ascii)
def test_parse_counts_only_lf_crlf_and_cr_as_line_ends(separator):
    # the separator is whitespace at the end of line 2, so the bad line is line 3, as grep -n counts
    doc = f"g:root:1\n+- g:a:jar:1:compile{separator}\n+- bad line\n"
    with pytest.raises(MalformedTreeLine) as exc:
        parse_tree_text(doc)
    assert str(exc.value) == "malformed tree line 3: bad coordinate 'bad line'"
    assert parse_tree_text(doc.replace("+- bad line\n", "")) == parse_tree_text("g:root:1\n+- g:a:jar:1:compile\n")


@pytest.mark.parametrize("separator", _OTHER_LINE_SEPARATORS, ids=ascii)
def test_parse_rejects_a_line_separator_inside_a_coordinate(separator):
    with pytest.raises(MalformedTreeLine, match="^malformed tree line 2: bad coordinate"):
        parse_tree_text(f"g:root:1\n+- g:a{separator}:jar:1:compile\n")


def test_parse_counts_cr_and_crlf_as_one_line_end_each():
    doc = "g:root:1\r+- g:a:jar:1:compile\r\n\r\n+- bad line\n"
    with pytest.raises(MalformedTreeLine) as exc:
        parse_tree_text(doc)
    assert exc.value.line_no == 4


# --- tree JSON -------------------------------------------------------------------


def test_parse_json_root_only():
    tree = parse_tree_json('{"root":{"gav":"com.acme:m1:1.0","scope":"compile","children":[]}}')
    assert tree.root.gav == Gav("com.acme", "m1", "1.0")
    assert tree.root.children == ()
    assert tree.analysis_time is None


def test_json_and_text_forms_agree(sample_tree):
    assert parse_tree_json(SAMPLE_TREE_JSON) == sample_tree


def test_parse_json_analysis_time():
    doc = json.dumps(
        {
            "analysis_time": "2018-06-01",
            "root": {"gav": "g:a:1", "scope": "compile", "children": []},
        }
    )
    assert parse_tree_json(doc).analysis_time == date(2018, 6, 1)


def test_parse_json_impossible_date_names_its_pointer():
    doc = '{"analysis_time": "2021-02-30", "root": {"gav": "g:a:1", "scope": "compile", "children": []}}'
    with pytest.raises(SchemaViolation) as exc:
        parse_tree_json(doc)
    assert exc.value.pointer == "/analysis_time"  # the reason is the stdlib's, which varies by version


@pytest.mark.parametrize("text", ["\uff12\uff10\uff11\uff18-01-01", "2018-01-01\n"],
                         ids=["fullwidth-digits", "trailing-newline"])
def test_parse_json_analysis_time_takes_only_ascii_digits_and_nothing_after(text):
    doc = json.dumps({"analysis_time": text, "root": {"gav": "g:a:1", "scope": "compile", "children": []}})
    with pytest.raises(SchemaViolation) as exc:
        parse_tree_json(doc)
    assert (exc.value.pointer, exc.value.reason) == ("/analysis_time", f"not a YYYY-MM-DD date: {text!r}")


def test_parse_json_bad_scope_pointer():
    doc = json.dumps(
        {
            "root": {
                "gav": "g:a:1",
                "scope": "compile",
                "children": [{"gav": "g2:b:1", "scope": "testt", "children": []}],
            }
        }
    )
    with pytest.raises(SchemaViolation) as exc:
        parse_tree_json(doc)
    assert exc.value.pointer == "/root/children/0/scope"


def test_parse_json_rejects_unknown_key():
    doc = '{"root":{"gav":"g:a:1","scope":"compile","children":[],"extra":1}}'
    with pytest.raises(SchemaViolation):
        parse_tree_json(doc)


def test_parse_json_names_smallest_missing_key():
    with pytest.raises(SchemaViolation) as exc:
        parse_tree_json('{"root": {}}')
    assert (exc.value.pointer, exc.value.reason) == ("/root", "missing key 'children'")


def test_parse_json_rejects_non_compile_root():
    doc = '{"root":{"gav":"g:a:1","scope":"runtime","children":[]}}'
    with pytest.raises(SchemaViolation) as exc:
        parse_tree_json(doc)
    assert exc.value.pointer == "/root/scope"


def test_parse_json_rejects_duplicate_library():
    doc = json.dumps(
        {
            "root": {
                "gav": "g:root:1",
                "scope": "compile",
                "children": [
                    {"gav": "g2:a:1", "scope": "compile", "children": []},
                    {"gav": "g2:a:2", "scope": "compile", "children": []},
                ],
            }
        }
    )
    with pytest.raises(SchemaViolation) as exc:
        parse_tree_json(doc)
    assert exc.value.pointer == "/root/children/1/gav"


def test_tree_json_round_trip(sample_tree):
    rendered = render_tree_json(sample_tree)
    assert parse_tree_json(rendered) == sample_tree
    assert render_tree_json(parse_tree_json(rendered)) == rendered


@settings(deadline=None)
@given(tree=trees())
def test_parse_tree_json_inverts_render_tree_json(tree):
    assert parse_tree_json(render_tree_json(tree)) == tree


def test_unknown_scope_survives_the_json_round_trip():
    tree = parse_tree_text("com.acme:m:1.0\n+- g2:b:jar:1:exotic\n")
    assert parse_tree_json(render_tree_json(tree)) == tree
    assert tree.root.children[0].scope is Scope.UNKNOWN


def _node_to_dict(node) -> dict:
    return {
        "gav": str(node.gav),
        "scope": node.scope.value,
        "children": [_node_to_dict(child) for child in node.children],
    }


@settings(deadline=None)
@given(tree=trees())
def test_render_tree_json_is_json_text_of_the_nested_nodes(tree):
    data = {"root": _node_to_dict(tree.root)}
    if tree.analysis_time is not None:
        data["analysis_time"] = tree.analysis_time.isoformat()
    assert render_tree_json(tree) == json_text(data)


def test_render_tree_json_deeper_than_recursion_limit():
    rendered = render_tree_json(deep_chain_tree(1500))
    assert rendered.count('"gav"') == 1501
    # the chain's node at depth d sits at nesting level 2d + 1, its keys one deeper
    assert "\n" + "  " * 3002 + '"gav": "org.deep1500:lib1500:1.0",\n' in rendered
    assert rendered.endswith("\n  }\n}\n")


def test_parse_tree_text_tolerates_trailing_whitespace():
    tree = parse_tree_text("com.acme:m:1.0   \n+- g:a:jar:1:compile  \n")
    assert tree.root.children[0].gav == Gav("g", "a", "1")


# --- release histories ------------------------------------------------------------


def test_load_history_two_releases_ordered():
    doc = (
        "group_id,artifact_id,version,release_date\n"
        "commons-logging,commons-logging,1.1.2,2013-03-16\n"
        "commons-logging,commons-logging,1.1.1,2007-11-26\n"
    )
    histories = load_release_history(doc)
    history = histories[Ga("commons-logging", "commons-logging")]
    assert [r.version for r in history.releases] == ["1.1.1", "1.1.2"]
    assert history.last_release.released == date(2013, 3, 16)


def test_load_history_single_row():
    doc = "group_id,artifact_id,version,release_date\ng,a,1.0,2020-01-01\n"
    histories = load_release_history(doc)
    assert len(histories[Ga("g", "a")].releases) == 1


def test_load_history_duplicate_version():
    doc = (
        "group_id,artifact_id,version,release_date\n"
        "g,a,1.0,2020-01-01\n"
        "g,a,1.0,2020-02-01\n"
    )
    with pytest.raises(DuplicateVersion) as exc:
        load_release_history(doc)
    assert (exc.value.ga, exc.value.version, exc.value.line_no) == (Ga("g", "a"), "1.0", 3)
    assert str(exc.value) == "duplicate release g:a:1.0 in history at line 3"


def test_load_history_duplicate_version_names_its_later_row():
    doc = (
        "group_id,artifact_id,version,release_date\n"
        "g,a,1.0,2020-01-01\n"
        "h,b,1.0,2020-01-01\n"
        "g,a,2.0,2020-03-01\n"
        "h,b,1.0,2019-01-01\n"
        "g,a,1.0,2020-02-01\n"
    )
    with pytest.raises(DuplicateVersion) as exc:
        load_release_history(doc)
    assert (exc.value.ga, exc.value.version, exc.value.line_no) == (Ga("h", "b"), "1.0", 5)


def test_conftest_histories_round_trip_through_csv(sample_histories, halted_fixture):
    _, halted_histories = halted_fixture
    fixtures = [
        sample_histories,
        halted_histories,
        build_synthetic_pool().histories,
        {history.library: history for history in [stalled_history(Ga("org.legacy", "old"))]},
    ]
    for histories in fixtures:
        assert load_release_history(history_csv(histories.values())) == histories


def test_load_history_tie_dates_keep_file_order():
    doc = (
        "group_id,artifact_id,version,release_date\n"
        "g,a,1.0b,2020-01-01\n"
        "g,a,1.0a,2020-01-01\n"
    )
    history = load_release_history(doc)[Ga("g", "a")]
    assert [r.version for r in history.releases] == ["1.0b", "1.0a"]


def test_load_history_bad_header():
    with pytest.raises(MalformedRow) as exc:
        load_release_history("group,artifact,version,date\n")
    assert exc.value.line_no == 1


def test_load_history_malformed_row_line_number():
    doc = "group_id,artifact_id,version,release_date\ng,a,1.0,2020-01-01\ng,a,2.0\n"
    with pytest.raises(MalformedRow) as exc:
        load_release_history(doc)
    assert exc.value.line_no == 3


@pytest.mark.parametrize("row, reason", [
    ("g,a,1:0,2018-01-01", "version must not contain ':'"),
    ("g,a,,2018-01-01", "version must be a non-empty string"),
    (",a,1.0,2018-01-01", "group_id must be a non-empty string"),
])
def test_load_history_checks_each_segment_as_a_coordinate(row, reason):
    doc = "group_id,artifact_id,version,release_date\ng,b,1.0,2018-01-01\n" + row + "\n"
    with pytest.raises(MalformedRow) as exc:
        load_release_history(doc)
    assert (exc.value.line_no, str(exc.value)) == (3, f"malformed CSV row at line 3: {reason}")


def test_load_history_bad_date():
    doc = "group_id,artifact_id,version,release_date\ng,a,1.0,01/02/2020\n"
    with pytest.raises(MalformedRow):
        load_release_history(doc)


def test_load_history_accepts_crlf():
    doc = "group_id,artifact_id,version,release_date\r\ng,a,1.0,2020-01-01\r\n"
    assert Ga("g", "a") in load_release_history(doc)


# --- vulnerability KB ----------------------------------------------------------------


def test_load_kb_expands_versions():
    records = load_vuln_kb(SAMPLE_KB_JSON)
    assert [r.vuln_id for r in records] == ["VULN-0001", "VULN-0002"]
    assert records[0].affected == frozenset({Gav("org.webkit", "http-client", "2.3")})


def test_load_kb_multiple_versions_expand():
    doc = json.dumps(
        [{"id": "V1", "affected": [{"group": "g", "artifact": "a", "versions": ["1.0", "1.1"]}]}]
    )
    records = load_vuln_kb(doc)
    assert records[0].affected == frozenset({Gav("g", "a", "1.0"), Gav("g", "a", "1.1")})


def test_load_kb_empty_versions():
    doc = json.dumps([{"id": "V1", "affected": [{"group": "g", "artifact": "a", "versions": []}]}])
    with pytest.raises(EmptyAffectedSet) as exc:
        load_vuln_kb(doc)
    assert exc.value.vuln_id == "V1"


def test_load_kb_empty_affected():
    doc = json.dumps([{"id": "V1", "affected": []}])
    with pytest.raises(EmptyAffectedSet):
        load_vuln_kb(doc)


def test_load_kb_schema_pointer():
    doc = json.dumps([{"id": "V1", "affected": [{"group": "g", "artifact": "a"}]}])
    with pytest.raises(SchemaViolation) as exc:
        load_vuln_kb(doc)
    assert exc.value.pointer == "/0/affected/0"


# --- lone surrogates -----------------------------------------------------------------


@pytest.mark.parametrize(
    "doc, pointer",
    [
        ('"\\ud800"', ""),
        ('{"a": ["x", "\\udc00y"]}', "/a/1"),
        ('{"a/b~c": "\\ud83d"}', "/a~1b~0c"),
        ('{"a": {"b": 1, "\\ud800": 2}}', "/a"),  # a key has no pointer: its object is named
        ('{"a": {"b": "\\ud800"}, "c": "\\udfff"}', "/a/b"),  # the first in preorder
        ('["ok", "\ud800"]', "/1"),  # an unescaped surrogate in library input
    ],
)
def test_parse_json_rejects_lone_surrogate_at_its_pointer(doc, pointer):
    with pytest.raises(SchemaViolation) as exc:
        parse_json(doc)
    assert exc.value.pointer == pointer
    assert "surrogate" in exc.value.reason


def test_json_typed_names_the_escaped_key():
    # the same escaping as a lone surrogate's pointer, so one value has one pointer
    with pytest.raises(SchemaViolation) as exc:
        json_typed({"a/b~c": 1}, "a/b~c", str, "/x")
    assert (exc.value.pointer, exc.value.reason) == ("/x/a~1b~0c", "must be a string")


def test_parse_json_accepts_paired_surrogates():
    assert parse_json('["\\ud83d\\ude00", "\\u00e9"]') == ["\U0001f600", "\u00e9"]


def test_lone_surrogate_in_tree_and_kb_is_schema_violation():
    tree = '{"root": {"gav": "g:a:\\ud800", "scope": "compile", "children": []}}'
    with pytest.raises(SchemaViolation) as exc:
        parse_tree_json(tree)
    assert exc.value.pointer == "/root/gav"
    kb = '[{"id": "V\\udc00", "affected": [{"group": "g", "artifact": "a", "versions": ["1"]}]}]'
    with pytest.raises(SchemaViolation) as exc:
        load_vuln_kb(kb)
    assert exc.value.pointer == "/0/id"


def test_load_kb_rejects_non_array():
    with pytest.raises(SchemaViolation):
        load_vuln_kb('{"id": "V1"}')


# --- the straight tree parsers -----------------------------------------------------


def _tree_outcome(parse, doc: str):
    """The parsed tree with the types its nodes are made of, or the error as
    ``(type, message, line, pointer)``."""
    try:
        tree = parse(doc)
    except DepscopeError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None), getattr(exc, "pointer", None)
    kinds = {(type(node.gav), type(node.scope), type(node.children)) for node, _ in tree.nodes()}
    return tree, kinds


def _same_json_outcomes(docs) -> set:
    """Assert that each document parses as the frozen checked parser parses
    it; the kinds of outcome met."""
    outcomes = set()
    for text in docs:
        checked = _tree_outcome(reference_parse_tree_json, text)
        assert _tree_outcome(parse_tree_json, text) == checked, text
        outcomes.add(checked[0] if isinstance(checked[0], type) else "parsed")
    return outcomes


def test_straight_json_parser_changes_no_outcome_of_any_single_change():
    """Every single change to the sample tree (a key or child dropped, a
    value of the wrong type or a malformed coordinate, a key added) parses
    to the same tree, or fails with the same error at the same pointer, as
    the frozen checked parser."""
    outcomes = _same_json_outcomes(every_single_change(json.loads(SAMPLE_TREE_JSON)))
    assert outcomes == {"parsed", SchemaViolation}


@settings(max_examples=20, deadline=None)
@given(tree=trees(max_nodes=6))
def test_straight_json_parser_changes_no_outcome_of_a_rendered_tree(tree):
    _same_json_outcomes(every_single_change(json.loads(render_tree_json(tree))))


@settings(max_examples=300, deadline=None)
@given(tree=trees(), data=st.data())
def test_mutated_tree_json_parses_as_the_reference_parses_it(tree, data):
    # a second mutation may break a second rule, at the same node or another
    doc = json.loads(render_tree_json(tree))
    for _ in range(data.draw(st.integers(1, 2))):
        if doc:  # a dropped root leaves nothing more to change
            mutate_json(doc, data)
    _same_json_outcomes([json.dumps(doc)])


_INSERTED = "+-\\| :\n\t\x0c[]INFO\x00\ufeff"


@pytest.mark.parametrize("tail", ["", "\\- com.acme:app-utils:jar:1.0:test\n"], ids=["sample", "near-repeat"])
def test_straight_text_parser_changes_no_outcome_of_any_one_character_edit(tail):
    """Every one-character deletion from the sample dump, and every insertion
    of an indentation, separator, whitespace or log-prefix character at each
    position, parses as the frozen checked parser parses it. The unprintable
    characters that are not whitespace make lines the straight test doubts
    but the rules accept. The second dump adds a library that one deletion
    makes a repeat."""
    base = SAMPLE_TREE_TEXT + tail
    docs = [base[:i] + base[i + 1:] for i in range(len(base))]
    docs += [base[:i] + ch + base[i:] for i in range(len(base) + 1) for ch in _INSERTED]
    outcomes = set()
    for text in docs:
        checked = _tree_outcome(reference_parse_tree_text, text)
        assert _tree_outcome(parse_tree_text, text) == checked, repr(text)
        outcomes.add(checked[0] if isinstance(checked[0], type) else "parsed")
    assert outcomes == {"parsed", MalformedTreeLine, *[DuplicateGa] * bool(tail)}


def _one_character_edit(text: str, rng: random.Random) -> str:
    """``text`` with one character deleted, or one of ``_INSERTED`` inserted."""
    if text and rng.random() < 0.5:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    i = rng.randrange(len(text) + 1)
    return text[:i] + rng.choice(_INSERTED) + text[i:]


@pytest.mark.parametrize("tail", ["", "\\- com.acme:app-utils:jar:1.0:test\n"], ids=["sample", "near-repeat"])
def test_straight_text_parser_changes_no_outcome_of_two_one_character_edits(tail):
    """Two random one-character edits of the sample dump, which often break
    two rules, on one line or two, parse as the frozen checked parser parses
    them: the rule named first is the one it names."""
    rng = random.Random(29)
    outcomes = set()
    for _ in range(3000):
        text = _one_character_edit(_one_character_edit(SAMPLE_TREE_TEXT + tail, rng), rng)
        checked = _tree_outcome(reference_parse_tree_text, text)
        assert _tree_outcome(parse_tree_text, text) == checked, repr(text)
        outcomes.add(checked[0] if isinstance(checked[0], type) else "parsed")
    assert outcomes == {"parsed", MalformedTreeLine, *[DuplicateGa] * bool(tail)}


# one fault each for a JSON node: its keys, its coordinate, its library, its scope, its children
_NODE_FAULTS = {"keys": ("extra", 1), "gav": ("gav", "g:b"), "duplicate": ("gav", "com.acme:app-util:2.0"),
                "scope": ("scope", "bogus"), "children": ("children", {})}


@pytest.mark.parametrize("first, second", [pair for pair in combinations(_NODE_FAULTS, 2)
                                           if _NODE_FAULTS[pair[0]][0] != _NODE_FAULTS[pair[1]][0]])
def test_a_node_with_two_faults_is_named_by_the_first_rule(first, second):
    doc = json.loads(SAMPLE_TREE_JSON)
    doc["root"]["children"][1].update([_NODE_FAULTS[first], _NODE_FAULTS[second]])
    assert _same_json_outcomes([json.dumps(doc)]) == {SchemaViolation}


@pytest.mark.parametrize("text", [
    "g:root:1\n+- g:a:jar:1:compile\n|  |  \\- g:a:jar:2:compile\n",
    "|  g:root:1\n",
], ids=["repeat-without-parent", "indented-root-without-branch"])
def test_a_line_with_two_faults_is_named_by_the_first_rule(text):
    assert _tree_outcome(parse_tree_text, text) == _tree_outcome(reference_parse_tree_text, text)


def _tree_text(tree: DependencyTree) -> str:
    """The text dump of a tree whose coordinates hold no whitespace."""
    lines = [str(tree.root.gav)]
    stack = [(child, "", i == len(tree.root.children) - 1)
             for i, child in reversed(list(enumerate(tree.root.children)))]
    while stack:
        node, prefix, last = stack.pop()
        gav, branch = node.gav, "\\- " if last else "+- "
        lines.append(f"{prefix}{branch}{gav.group_id}:{gav.artifact_id}:jar:{gav.version}:{node.scope.value}")
        stack += [(child, prefix + ("   " if last else "|  "), i == len(node.children) - 1)
                  for i, child in reversed(list(enumerate(node.children)))]
    return "\n".join(lines) + "\n"


def _record_pointers(monkeypatch) -> list:
    """Each JSON node pointer built, which happens only when a node is rejected."""
    built = []
    build = ingest_module._node_pointer
    monkeypatch.setattr(ingest_module, "_node_pointer", lambda *args: built.append(build(*args)) or built[-1])
    return built


def test_well_formed_trees_are_never_walked(monkeypatch):
    # a well-formed tree parses as the frozen checked parser parses it, and
    # builds no pointer
    built = _record_pointers(monkeypatch)
    sample = parse_tree_text(SAMPLE_TREE_TEXT)
    deep = deep_chain_tree(400, Scope.TEST)  # within the JSON decoder's nesting limit
    texts = [SAMPLE_TREE_TEXT, _tree_text(sample), _tree_text(deep),
             SAMPLE_TREE_TEXT.replace("\n", "\r\n"), SAMPLE_TREE_TEXT.replace("\n", "\n\n"),
             "[INFO]\n" + "".join(f"[INFO] {line}  \n" for line in SAMPLE_TREE_TEXT.splitlines()),
             "com.acme:m:jar:1.0\n+- g:a:1\n+- g2:b:jar:1:exotic\n"]
    for text in texts:
        assert parse_tree_text(text) == reference_parse_tree_text(text)
    jsons = [SAMPLE_TREE_JSON, render_tree_json(deep),
             render_tree_json(DependencyTree(sample.root, date(2018, 6, 1)))]
    for doc in jsons:
        assert parse_tree_json(doc) == reference_parse_tree_json(doc)
    assert parse_tree_text(_tree_text(deep)) == deep
    assert built == []


def test_a_doubted_entry_alone_is_checked(monkeypatch):
    built = _record_pointers(monkeypatch)
    lines = SAMPLE_TREE_TEXT.splitlines(keepends=True)
    # a coordinate holding NUL, which is not whitespace, is accepted by the rules
    accepted = "".join(lines[:3] + [lines[3].replace(":jar:", ":j\x00r:")] + lines[4:])
    assert parse_tree_text(accepted) == reference_parse_tree_text(accepted)
    rejected = "".join(lines[:3] + [lines[3].replace(":jar:", ":jar :")] + lines[4:])
    with pytest.raises(MalformedTreeLine) as exc:
        parse_tree_text(rejected)
    assert exc.value.line_no == 4
    doc = json.loads(SAMPLE_TREE_JSON)  # the root's third child gets a faulty second child
    doc["root"]["children"][2]["children"].append({"gav": "g:b", "scope": "compile", "children": []})
    with pytest.raises(SchemaViolation) as exc:
        parse_tree_json(json.dumps(doc))
    pointer = "/root/children/2/children/1"
    assert exc.value.pointer == f"{pointer}/gav" and built == [pointer]


def test_the_pointer_of_a_late_fault_among_many_siblings():
    children = [{"gav": f"g:a{i}:1", "scope": "compile", "children": []} for i in range(9999)]
    children.append({"gav": "g:bad", "scope": "compile", "children": []})
    doc = json.dumps({"root": {"gav": "g:root:1", "scope": "compile", "children": children}})
    with pytest.raises(SchemaViolation) as exc:
        parse_tree_json(doc)
    assert str(exc.value) == "schema violation at /root/children/9999/gav: not a g:a:v coordinate: 'g:bad'"


def test_a_parsed_tree_is_not_checked_twice(monkeypatch):
    # the parsers check the root's scope and that each library is distinct, so
    # their trees skip the constructor's walk; a tree built directly takes it
    checks = []
    check = DependencyTree.__post_init__
    monkeypatch.setattr(DependencyTree, "__post_init__", lambda tree: checks.append(tree) or check(tree))
    sample = parse_tree_text(SAMPLE_TREE_TEXT)
    assert parse_tree_json(SAMPLE_TREE_JSON) == sample
    assert checks == []
    twice = DependencyNode(Gav("g", "root", "1"), Scope.COMPILE, (
        DependencyNode(Gav("g", "a", "1"), Scope.COMPILE), DependencyNode(Gav("g", "a", "2"), Scope.COMPILE)))
    with pytest.raises(DuplicateGa):
        DependencyTree(twice)
    assert len(checks) == 1


def test_parsed_nodes_are_as_small_as_constructed_ones():
    """A parsed node's fields are set as its constructor sets them, so its
    ``__dict__`` shares its keys with every other node's and is as small."""
    for tree in (parse_tree_text(SAMPLE_TREE_TEXT), parse_tree_json(SAMPLE_TREE_JSON)):
        for node, _ in tree.nodes():
            built = DependencyNode(node.gav, node.scope, node.children)
            assert sys.getsizeof(node.__dict__) == sys.getsizeof(built.__dict__)
            assert list(node.__dict__) == list(built.__dict__) == ["gav", "scope", "children"]


# --- the straight KB decoder and the load-time index ------------------------------------

# a repeated id, an instance in two records, and entries of one and of two versions
_SMALL_KB = [
    {"id": "V1", "affected": [{"group": "g", "artifact": "a", "versions": ["1.0", "1.1"]},
                              {"group": "h", "artifact": "b", "versions": ["2"]}]},
    {"id": "V2", "affected": [{"group": "g", "artifact": "a", "versions": ["1.1"]}]},
    {"id": "V1", "affected": [{"group": "k", "artifact": "c", "versions": ["3"]}]},
]


def _kb_outcome(doc: str, load=load_vuln_kb):
    """The loaded records and index, or the error as ``(type, pointer, message)``."""
    try:
        kb = load(doc)
    except DepscopeError as exc:
        return type(exc), getattr(exc, "pointer", None), str(exc)
    return list(kb), kb.ids_by_gav


def test_straight_kb_decoder_changes_no_outcome_of_any_single_change():
    """Every single change to a small KB (a key or element dropped, a value
    of the wrong type, empty or holding ':', a key added) loads to the same
    records and index, or fails with the same error, as the frozen reference
    loads it."""
    outcomes = set()
    for text in every_single_change(_SMALL_KB):
        checked = _kb_outcome(text, reference_load_vuln_kb)
        assert _kb_outcome(text) == checked, text
        outcomes.add(checked[0] if isinstance(checked[0], type) else "loaded")
    assert outcomes == {"loaded", SchemaViolation, EmptyAffectedSet}


def test_well_formed_kb_entries_are_never_walked(monkeypatch):
    # only a rejected entry is walked, so a well-formed one builds no pointer
    walked = []
    monkeypatch.setattr(ingest_module, "check_fields", lambda entry, pointer, *_: walked.append(pointer))
    doc = json.dumps(_SMALL_KB)
    assert list(load_vuln_kb(doc)) == list(reference_load_vuln_kb(doc))
    assert walked == []


# KB documents of few ids, groups, artifacts and versions, so that entries
# repeat an id or an instance
_KB_DOCS = st.lists(st.fixed_dictionaries({
    "id": st.sampled_from(["V1", "V2", "V3"]),
    "affected": st.lists(st.fixed_dictionaries({
        "group": st.sampled_from(["g", "h"]),
        "artifact": st.sampled_from(["a", "b"]),
        "versions": st.lists(st.sampled_from(["1", "2", "3"]), min_size=1, max_size=3),
    }), min_size=1, max_size=3),
}), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(kb=_KB_DOCS, data=st.data())
def test_mutated_kb_loads_as_the_reference_loads_it(kb, data):
    mutate_json(kb, data)
    text = json.dumps(kb)
    assert _kb_outcome(text) == _kb_outcome(text, reference_load_vuln_kb), text


_KB_GAVS = [Gav(g, a, v) for g in ("g", "h") for a in ("a", "b") for v in ("1", "2")]


@given(st.lists(st.builds(VulnerabilityRecord, st.sampled_from(["V1", "V2", "V3"]),
                          st.frozensets(st.sampled_from(_KB_GAVS), min_size=1)), max_size=8))
def test_loaded_kb_carries_the_index_of_its_records(records):
    # few ids and instances, so ids repeat and records share instances
    doc = json.dumps([{"id": r.vuln_id, "affected": [
        {"group": g, "artifact": a, "versions": [v for _, _, v in sorted(gavs)]}
        for (g, a), gavs in groupby(sorted(r.affected), key=lambda gav: gav[:2])]}
        for r in records])
    loaded = load_vuln_kb(doc)
    assert "ids_by_gav" in vars(loaded)  # built by the loader, not on first use
    assert list(loaded) == records
    expected = {gav: tuple(sorted({r.vuln_id for r in records if gav in r.affected}))
                for r in records for gav in r.affected}
    assert loaded.ids_by_gav == VulnerabilityKb(tuple(records)).ids_by_gav == expected
    pool = SimulationPool(trees=(), histories={}, kb=tuple(loaded))  # as the benchmark passes it
    assert pool.kb == loaded and pool.kb.ids_by_gav == loaded.ids_by_gav


def test_kb_of_many_records_on_one_instance_loads_in_linear_time():
    # 40,000 records all affecting one instance: growing its id tuple by one
    # per record copies it each time, which is quadratic in the records
    doc = json.dumps([{"id": f"V{i:05}", "affected": [
        {"group": "org.log4j", "artifact": "log4j", "versions": ["1.2.17"]}]} for i in range(40_000)])
    start = perf_counter()
    kb = load_vuln_kb(doc)
    assert perf_counter() - start < 1.0
    assert kb.ids_by_gav == {Gav("org.log4j", "log4j", "1.2.17"): tuple(f"V{i:05}" for i in range(40_000))}


# --- the cyclic collector during loads -------------------------------------------------

_HISTORY_DOC = "group_id,artifact_id,version,release_date\ng,a,1.0,2020-01-01\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("load, doc, error", [
    (load_release_history, _HISTORY_DOC, None),
    (load_release_history, _HISTORY_DOC + "g,a,2.0\n", MalformedRow),
    (load_vuln_kb, SAMPLE_KB_JSON, None),
    (load_vuln_kb, '[{"id": "V1"}]', SchemaViolation),
    (load_vuln_kb, '[{"id": ', SchemaViolation),
], ids=["history", "history-malformed-row", "kb", "kb-schema-violation", "kb-invalid-json"])
def test_loaders_restore_the_collector_state(load, doc, error, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            load(doc)
        else:
            with pytest.raises(error):
                load(doc)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _large_kb_doc() -> str:
    return json.dumps([{"id": f"V{i}", "affected": [{"group": f"g{i % 50}", "artifact": f"a{i}",
                                                      "versions": ["1.0", "1.1"]}]}
                       for i in range(3000)])


def _large_history_doc() -> str:
    return _HISTORY_DOC + "".join(f"g{i % 50},a{i // 3},1.{i % 3},2020-01-01\n" for i in range(6000))


@pytest.mark.parametrize("load, make_doc", [(load_vuln_kb, _large_kb_doc),
                                            (load_release_history, _large_history_doc)],
                         ids=["kb", "history"])
def test_no_collection_starts_while_a_loader_runs(load, make_doc):
    # a collection may start once the loader has turned the collector back
    # on, so only one started from within the loader's own body counts
    doc, body = make_doc(), inspect.unwrap(load).__code__
    started_inside = []

    def on_collection(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not body:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            started_inside.append(info["generation"])

    gc.callbacks.append(on_collection)
    try:
        load(doc)
    finally:
        gc.callbacks.remove(on_collection)
    assert started_inside == []


# --- the straight history loader ----------------------------------------------------

# two libraries, rows out of date order, and a tie of dates
_HISTORY_ROWS = [
    ["group_id", "artifact_id", "version", "release_date"],
    ["g", "a", "1.0", "2018-01-01"],
    ["h", "b", "2.0", "2018-03-01"],
    ["g", "a", "1.1", "2017-12-01"],
    ["g", "a", "1.2", "2018-01-01"],
]
# dates the strict YYYY-MM-DD test refuses: a day its month lacks, the basic
# and week forms, a time, non-ASCII digits, short fields and whitespace;
# date.fromisoformat takes several of them on 3.11 and later
_ODD_DATES = ["2018-02-30", "2018-13-01", "20180601", "2018-W01-1", "2018-06-01T00:00",
              "２０１８-０６-０１", "²018-06-01", "2018-6-1",
              " 2018-06-01", "2018-06-01 ", "2018-06-01\n", "2018_06_01"]
# one cell value of each kind: valid or repeating another row's, empty, holding
# ':' or a line end (a quoted field spanning lines), and one over the reader's
# field limit
_CELL_VALUES = ["g", "h", "a", "1.0", "1.1", "2.0", "2018-01-01", "0001-01-01", "",
                ":", "g:a", "a\nb", "x" * (csv.field_size_limit() + 1), *_ODD_DATES]


def _history_outcome(doc: str, load=load_release_history):
    """The loaded histories with their key types in order, or the error as
    ``(type, message, line)``."""
    try:
        histories = load(doc)
    except DepscopeError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return [(ga, type(ga), type(history.library), history) for ga, history in histories.items()]


def _single_changes(rows):
    """``rows`` with one change each: a cell given each of ``_CELL_VALUES``,
    a cell dropped or added, a row repeated or dropped, or a blank line."""
    for i, row in enumerate(rows):
        for j in range(len(row)):
            for value in _CELL_VALUES:
                yield rows[:i] + [row[:j] + [value] + row[j + 1:]] + rows[i + 1:]
            yield rows[:i] + [row[:j] + row[j + 1:]] + rows[i + 1:]
        yield rows[:i] + [row + ["x"]] + rows[i + 1:]
        yield rows[:i + 1] + [row] + rows[i + 1:]
        yield rows[:i] + rows[i + 1:]
        yield rows[:i] + [[]] + rows[i:]


def test_straight_history_loader_changes_no_outcome_of_any_single_change():
    """Every single change to a small history loads to the same histories, in
    the same order, or fails with the same error at the same line, as the
    frozen row-by-row loader."""
    outcomes = set()
    for rows in _single_changes(_HISTORY_ROWS):
        doc = csv_rows(rows)
        checked = _history_outcome(doc, reference_load_release_history)
        assert _history_outcome(doc) == checked, doc[:200]
        outcomes.add(checked[0] if isinstance(checked[0], type) else "loaded")
    assert outcomes == {"loaded", MalformedRow, DuplicateVersion}


_HISTORY_CELLS = st.sampled_from(["g", "h", "", ":", "g:a", "a b", "1", "2", "１"])
_HISTORY_DATES = st.dates().map(date.isoformat) | st.sampled_from(_ODD_DATES)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(
    st.tuples(st.sampled_from(["g", "h", "g.x"]), st.sampled_from(["a", "b"]),
              st.sampled_from(["1", "2", "3"]), st.sampled_from(["2018-01-01", "2018-01-02"])).map(list)
    | st.tuples(_HISTORY_CELLS, _HISTORY_CELLS, _HISTORY_CELLS, _HISTORY_DATES).map(list)
    | st.lists(_HISTORY_CELLS | _HISTORY_DATES, max_size=6), max_size=8))
def test_random_history_rows_load_as_the_reference_loads_them(rows):
    # few names, versions and dates, so releases repeat and dates tie
    doc = csv_rows([_HISTORY_ROWS[0], *rows])
    assert _history_outcome(doc) == _history_outcome(doc, reference_load_release_history), doc


def test_well_formed_histories_reach_no_checked_path(monkeypatch):
    # a loaded history or record takes no constructor check
    docs = [csv_rows(_HISTORY_ROWS), _large_history_doc(),
            history_csv(build_synthetic_pool().histories.values())]
    checked = []
    for cls in (ReleaseHistory, VulnerabilityRecord):
        monkeypatch.setattr(cls, "__post_init__", lambda value: checked.append(value))
    for doc in docs:
        loaded = load_release_history(doc)
        assert checked == []
        assert list(loaded.items()) == list(reference_load_release_history(doc).items())
        checked.clear()  # the reference's constructors ran the patched checks
    load_vuln_kb(json.dumps(_SMALL_KB))
    assert checked == []
    with pytest.raises(MalformedRow) as exc:
        load_release_history(_HISTORY_DOC + "g,a,2.0,2020-02-30\ng,a,3.0\n")
    assert exc.value.line_no == 3 and str(exc.value).endswith("bad date '2020-02-30'")


def test_loaded_values_equal_constructed_ones():
    """A loaded release, history and record equal the ones their constructors
    build, with the same hash and repr, and a ``__dict__`` of the same keys
    and size."""
    loaded = load_release_history(csv_rows(_HISTORY_ROWS))
    history = loaded[Ga("g", "a")]
    built = ReleaseHistory(Ga("g", "a"), tuple(Release(r.version, r.released) for r in history.releases))
    record = load_vuln_kb(json.dumps(_SMALL_KB))[0]
    pairs = [(history, built), (history.releases[0], built.releases[0]),
             (record, VulnerabilityRecord(record.vuln_id, set(record.affected)))]
    for value, constructed in pairs:
        assert value == constructed and hash(value) == hash(constructed)
        assert repr(value) == repr(constructed)
        assert list(value.__dict__) == list(constructed.__dict__)
        assert sys.getsizeof(value.__dict__) == sys.getsizeof(constructed.__dict__)
    assert [type(gav) for gav in record.affected] == [Gav] * len(record.affected)
    assert type(history.library) is Ga and type(history.releases) is tuple
