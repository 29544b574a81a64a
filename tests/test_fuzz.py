"""Fuzzing of the four input parsers and of the two parsers of saved
output: whatever the document, the only exception that escapes is a
DepscopeError, and a saved aggregate that parses renders in every format."""

from __future__ import annotations

import json

from hypothesis import example, given, settings, strategies as st

from depscope.errors import DepscopeError
from depscope.ingest import load_release_history, load_vuln_kb, parse_tree_json, parse_tree_text
from depscope.report import aggregate, parse_aggregate_json, parse_scan_results_json, render, scan

from conftest import (
    ANALYSIS_TIME,
    SAMPLE_GAVS,
    SAMPLE_KB_JSON,
    SAMPLE_TREE_JSON,
    SAMPLE_TREE_TEXT,
    alive_history,
    history_csv,
    mutate_json,
)


def _parse_and_render_aggregate(doc: str) -> None:
    report = parse_aggregate_json(doc)
    for format in ("text", "csv", "json"):
        render(report, format)


PARSERS = {
    "tree text": parse_tree_text,
    "tree JSON": parse_tree_json,
    "KB": load_vuln_kb,
    "history": load_release_history,
    "scan results": parse_scan_results_json,
    "aggregate": _parse_and_render_aggregate,
}
_HISTORY = history_csv(alive_history(gav) for gav in SAMPLE_GAVS)
# the worked example's scan, whose renders are the valid saved outputs
_RESULT = scan(parse_tree_text(SAMPLE_TREE_TEXT), load_vuln_kb(SAMPLE_KB_JSON),
               load_release_history(_HISTORY), time=ANALYSIS_TIME)
VALID = {
    "tree text": SAMPLE_TREE_TEXT,
    "tree JSON": SAMPLE_TREE_JSON,
    "KB": SAMPLE_KB_JSON,
    "history": _HISTORY,
    "scan results": render(_RESULT, "json"),
    "aggregate": render(aggregate([_RESULT]), "json"),
}
# a JSON integer literal longer than the decoder converts, and a CSV field
# longer than the reader's field limit
HUGE_INT = "1" * 5000
HUGE_FIELD = "x" * 131073
# a saved aggregate whose cell no float holds, as the text render's shares need
HUGE_CELL = json.dumps({"cells": {**json.loads(VALID["aggregate"])["cells"], "all/vuln/direct": 10**400}})

# any text, and text made of the characters the formats give meaning to
_DOCUMENT_TEXT = st.text(max_size=200) | st.text(',:."\\|+- \n\r[]{}01gav', max_size=200)


def _raises_only_depscope_errors(parser, doc: str) -> None:
    try:
        parser(doc)
    except DepscopeError:
        pass


@settings(deadline=None)
@given(name=st.sampled_from(sorted(PARSERS)), doc=_DOCUMENT_TEXT)
@example(name="tree JSON", doc='{"root": ' + HUGE_INT + "}")
@example(name="KB", doc="[" + HUGE_INT + "]")
@example(name="history", doc="group_id,artifact_id,version,release_date\n" + HUGE_FIELD + "\n")
@example(name="history", doc=HUGE_FIELD)
@example(name="history", doc="group_id,artifact_id,version,release_date\ng,a\r,1,2020-01-01\n")
@example(name="aggregate", doc=HUGE_CELL)
def test_arbitrary_text_raises_only_depscope_errors(name, doc):
    _raises_only_depscope_errors(PARSERS[name], doc)


@settings(deadline=None)
@given(
    name=st.sampled_from(sorted(PARSERS)),
    position=st.integers(0, 10**6),
    cut=st.integers(0, 8),
    insert=_DOCUMENT_TEXT,
)
def test_spliced_valid_document_raises_only_depscope_errors(name, position, cut, insert):
    doc = VALID[name]
    position %= len(doc) + 1
    _raises_only_depscope_errors(PARSERS[name], doc[:position] + insert + doc[position + cut :])


@settings(deadline=None)
@given(name=st.sampled_from(["tree JSON", "KB", "scan results", "aggregate"]), data=st.data())
def test_mutated_valid_json_raises_only_depscope_errors(name, data):
    doc = json.loads(VALID[name])
    mutate_json(doc, data)
    _raises_only_depscope_errors(PARSERS[name], json.dumps(doc))
