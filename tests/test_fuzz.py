"""Fuzzing of the four input parsers: whatever the document, the only
exception that escapes is a DepscopeError."""

from __future__ import annotations

import json

from hypothesis import example, given, settings, strategies as st

from depscope.errors import DepscopeError
from depscope.ingest import load_release_history, load_vuln_kb, parse_tree_json, parse_tree_text

from conftest import (
    SAMPLE_GAVS,
    SAMPLE_KB_JSON,
    SAMPLE_TREE_JSON,
    SAMPLE_TREE_TEXT,
    alive_history,
    history_csv,
    mutate_json,
)

PARSERS = {
    "tree text": parse_tree_text,
    "tree JSON": parse_tree_json,
    "KB": load_vuln_kb,
    "history": load_release_history,
}
VALID = {
    "tree text": SAMPLE_TREE_TEXT,
    "tree JSON": SAMPLE_TREE_JSON,
    "KB": SAMPLE_KB_JSON,
    "history": history_csv(alive_history(gav) for gav in SAMPLE_GAVS),
}
# a JSON integer literal longer than the decoder converts, and a CSV field
# longer than the reader's field limit
HUGE_INT = "1" * 5000
HUGE_FIELD = "x" * 131073

# any text, and text made of the characters the four formats give meaning to
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
@given(name=st.sampled_from(["tree JSON", "KB"]), data=st.data())
def test_mutated_valid_json_raises_only_depscope_errors(name, data):
    doc = json.loads(VALID[name])
    mutate_json(doc, data)
    _raises_only_depscope_errors(PARSERS[name], json.dumps(doc))
