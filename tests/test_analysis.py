from __future__ import annotations

import json
import random

from hypothesis import example, given, strategies as st

from depscope.analysis import (
    classify_responsibility,
    extract_vulnerable_paths,
    filter_non_deployed,
    group_path,
    match_vulnerabilities,
)
from depscope.ingest import load_vuln_kb, parse_tree_text
from depscope.model import (
    DependencyNode,
    DependencyTree,
    Gav,
    Responsibility,
    Scope,
    VulnerabilityKb,
    VulnerabilityRecord,
    same_project,
)

from conftest import VULN_ID_POOL, deep_chain_tree, random_tree_case

ROOT = Gav("com.acme", "app-core", "1.0")
HTTP_CLIENT = Gav("org.webkit", "http-client", "2.3")
COMPRESS = Gav("org.ziplib", "compress", "1.4")
STREAM_CORE = Gav("org.dataflow", "stream-core", "5.1")
STREAM_CODEC = Gav("org.dataflow", "stream-codec", "5.1")
APP_UTIL = Gav("com.acme", "app-util", "1.0")


def _tree(text: str) -> DependencyTree:
    return parse_tree_text(text)


# --- filtering -----------------------------------------------------------------


def test_filter_removes_test_child():
    tree = _tree("com.acme:m:1.0\n+- g:a:jar:1:test\n")
    assert filter_non_deployed(tree).root.children == ()


def test_filter_keeps_all_compile_tree(sample_tree):
    assert filter_non_deployed(sample_tree) == sample_tree


def test_filter_removes_whole_subtree():
    tree = _tree("com.acme:m:1.0\n+- g:a:jar:1:test\n|  \\- g2:b:jar:1:compile\n")
    filtered = filter_non_deployed(tree)
    assert filtered.root.children == ()


def test_filter_keeps_order_of_survivors():
    tree = _tree(
        "com.acme:m:1.0\n"
        "+- g1:a:jar:1:compile\n"
        "+- g2:b:jar:1:provided\n"
        "+- g3:c:jar:1:runtime\n"
    )
    filtered = filter_non_deployed(tree)
    assert [c.gav.group_id for c in filtered.root.children] == ["g1", "g3"]


def test_filter_idempotent_and_monotone_on_random_trees():
    rng = random.Random(1001)
    for _ in range(300):
        tree, _ = random_tree_case(rng)
        filtered = filter_non_deployed(tree)
        assert filter_non_deployed(filtered) == filtered
        assert filtered.gavs() <= tree.gavs()
        # no survivor sits below a non-deployed node
        for node, _depth in filtered.nodes():
            assert node is filtered.root or node.scope.deployed


def test_filter_compares_chains_deeper_than_recursion_limit():
    tree = deep_chain_tree(1500)
    assert filter_non_deployed(tree) == tree
    # a test-scoped leaf is dropped, leaving the 1499-deep chain
    assert filter_non_deployed(deep_chain_tree(1500, Scope.TEST)) == deep_chain_tree(1499)


# --- matching -------------------------------------------------------------------


def test_match_flags_affected_instances(sample_tree, sample_kb):
    annotated = match_vulnerabilities(filter_non_deployed(sample_tree), sample_kb)
    assert annotated.vulnerable == {
        HTTP_CLIENT: frozenset({"VULN-0001"}),
        COMPRESS: frozenset({"VULN-0002"}),
    }


def test_match_empty_kb(sample_tree):
    assert match_vulnerabilities(sample_tree, []).vulnerable == {}


def test_match_ignores_absent_instances(sample_tree):
    kb = [VulnerabilityRecord("V9", frozenset({Gav("not", "here", "1")}))]
    assert match_vulnerabilities(sample_tree, kb).vulnerable == {}


def test_match_wrong_version_not_flagged(sample_tree):
    kb = [VulnerabilityRecord("V9", frozenset({Gav("org.ziplib", "compress", "9.9")}))]
    assert match_vulnerabilities(sample_tree, kb).vulnerable == {}


def test_match_may_flag_root(sample_tree):
    kb = [VulnerabilityRecord("V9", frozenset({ROOT}))]
    assert match_vulnerabilities(sample_tree, kb).vulnerable == {ROOT: frozenset({"V9"})}


def _kb_json(records) -> str:
    return json.dumps([
        {
            "id": r.vuln_id,
            "affected": [
                {"group": g.group_id, "artifact": g.artifact_id, "versions": [g.version]}
                for g in sorted(r.affected)
            ],
        }
        for r in records
    ])


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_match_on_loaded_kb_equals_plain_records(seed, data):
    tree, _ = random_tree_case(random.Random(seed))
    # instances of the tree (the root included) and one the tree lacks; ids
    # from a small pool, so one instance sits in several records and one id
    # names several records
    candidates = sorted(tree.gavs()) + [Gav("not.in", "tree", "1")]
    records = data.draw(st.lists(
        st.builds(
            VulnerabilityRecord,
            st.sampled_from(VULN_ID_POOL),
            st.frozensets(st.sampled_from(candidates), min_size=1),
        ),
        max_size=6,
    ))
    loaded = load_vuln_kb(_kb_json(records))
    assert isinstance(loaded, VulnerabilityKb) and list(loaded) == records
    expected = {}
    for gav in tree.gavs():
        ids = frozenset(r.vuln_id for r in records if gav in r.affected)
        if ids:
            expected[gav] = ids
    assert match_vulnerabilities(tree, loaded).vulnerable == expected
    assert match_vulnerabilities(tree, records).vulnerable == expected


def test_match_on_indexed_kb_reads_no_record(sample_tree, sample_kb, monkeypatch):
    match_vulnerabilities(sample_tree, sample_kb)  # a loaded KB comes indexed
    reads = []

    def read(record):
        reads.append(record)
        return record.__dict__["affected"]

    monkeypatch.setattr(VulnerabilityRecord, "affected", property(read), raising=False)
    assert match_vulnerabilities(sample_tree, sample_kb).vulnerable
    assert reads == []  # one lookup per node, no pass over the KB
    match_vulnerabilities(sample_tree, list(sample_kb))  # a plain list is indexed on the spot
    assert len(reads) == len(sample_kb)


# --- path extraction --------------------------------------------------------------


def test_extract_paths_sample(sample_tree, sample_kb):
    annotated = match_vulnerabilities(filter_non_deployed(sample_tree), sample_kb)
    paths = extract_vulnerable_paths(annotated)
    assert [(p.vuln_id, p.raw_path) for p in paths] == [
        ("VULN-0001", (HTTP_CLIENT, ROOT)),
        ("VULN-0002", (COMPRESS, STREAM_CODEC, STREAM_CORE, ROOT)),
    ]


def test_extract_no_vulnerabilities(sample_tree):
    annotated = match_vulnerabilities(sample_tree, [])
    assert extract_vulnerable_paths(annotated) == []


def test_extract_two_ids_on_one_instance(sample_tree):
    kb = [
        VulnerabilityRecord("VB", frozenset({HTTP_CLIENT})),
        VulnerabilityRecord("VA", frozenset({HTTP_CLIENT})),
    ]
    annotated = match_vulnerabilities(sample_tree, kb)
    paths = extract_vulnerable_paths(annotated)
    # brute-force expectation: one path per (node, id) pair, ids sorted
    assert [(p.vuln_id, p.raw_path) for p in paths] == [
        ("VA", (HTTP_CLIENT, ROOT)),
        ("VB", (HTTP_CLIENT, ROOT)),
    ]


def test_extract_root_path_length_one(sample_tree):
    kb = [VulnerabilityRecord("V9", frozenset({ROOT}))]
    annotated = match_vulnerabilities(sample_tree, kb)
    paths = extract_vulnerable_paths(annotated)
    assert len(paths) == 1
    assert paths[0].raw_path == (ROOT,)


# --- grouping ---------------------------------------------------------------------


def test_group_collapses_same_project_onto_nearest():
    assert group_path([COMPRESS, STREAM_CODEC, STREAM_CORE, ROOT]) == [
        COMPRESS, STREAM_CODEC, ROOT,
    ]


def test_group_identity_when_projects_distinct():
    assert group_path([HTTP_CLIENT, ROOT]) == [HTTP_CLIENT, ROOT]


def test_group_absorbs_root_into_nearer_member():
    assert group_path([APP_UTIL, STREAM_CORE, ROOT]) == [APP_UTIL, STREAM_CORE]


def test_group_handles_non_adjacent_members():
    a = Gav("org.p", "one", "1")
    b = Gav("org.q", "two", "1")
    c = Gav("org.p.sub", "three", "1")
    assert group_path([a, b, c]) == [a, b]


def test_group_idempotent_on_random_paths():
    rng = random.Random(77)
    groups = ["com.a", "com.a.x", "com.a.x.y", "com.b", "org.c"]
    for _ in range(500):
        path = [
            Gav(rng.choice(groups), f"a{i}", "1") for i in range(rng.randint(1, 8))
        ]
        once = group_path(path)
        assert group_path(once) == once
        assert once[0] == path[0]
        assert len(once) <= len(path)
        # order-preserving subsequence
        positions = [path.index(g) for g in once]
        assert positions == sorted(positions)


def _reference_group_path(raw_path):
    """Grouping as first written: a member is dropped when it shares a
    project with any member kept before it."""
    kept = []
    for gav in raw_path:
        if any(same_project(anchor.group_id, gav.group_id) for anchor in kept):
            continue
        kept.append(gav)
    return kept


# groups from a dot-heavy alphabet, so that dot-prefix relatives, string-prefix
# decoys and non-transitive triples (a.b ~ a ~ a.c, a.b !~ a.c) come up
_dotted_groups = st.lists(st.text(alphabet="ab.", min_size=1, max_size=5), min_size=1, max_size=8)


@given(groups=_dotted_groups)
@example(groups=["com.foobar", "com.foo", "com.foo.sub", "com.foobar.x"])
@example(groups=["a.b", "a.c", "a", "a.b.c"])
@example(groups=["a", "a.b", "a.c"])
def test_group_path_matches_the_any_anchor_reference(groups):
    path = [Gav(group, f"x{i}", "1") for i, group in enumerate(groups)]
    assert group_path(path) == _reference_group_path(path)


def test_group_path_keeps_string_prefix_decoys_apart():
    foobar, foo, foo_sub = (Gav("com.foobar", "x", "1"), Gav("com.foo", "y", "1"),
                            Gav("com.foo.sub", "z", "1"))
    assert group_path([foobar, foo, foo_sub]) == [foobar, foo]
    assert group_path([foo, foobar, foo_sub]) == [foo, foobar]


# --- responsibility ------------------------------------------------------------------


def test_direct_when_grouped_length_two():
    assert classify_responsibility([HTTP_CLIENT, ROOT], ROOT) is Responsibility.DIRECT


def test_transitive_when_longer():
    assert (
        classify_responsibility([COMPRESS, STREAM_CODEC, ROOT], ROOT)
        is Responsibility.TRANSITIVE
    )


def test_own_when_first_element_shares_project():
    assert classify_responsibility([APP_UTIL, STREAM_CORE], ROOT) is Responsibility.OWN


def test_own_for_vulnerable_root():
    assert classify_responsibility([ROOT], ROOT) is Responsibility.OWN


# --- pipeline invariants ---------------------------------------------------------------


def test_path_count_invariant_under_grouping():
    rng = random.Random(2002)
    for _ in range(200):
        tree, kb = random_tree_case(rng)
        annotated = match_vulnerabilities(filter_non_deployed(tree), kb)
        paths = extract_vulnerable_paths(annotated)
        grouped = [group_path(p.raw_path) for p in paths]
        assert len(grouped) == len(paths)
        for raw, short in zip(paths, grouped):
            assert len(short) <= len(raw.raw_path)
            assert short[0] == raw.raw_path[0]


def test_kb_index_holds_sorted_distinct_ids():
    other = Gav("org.other", "lib", "1")
    kb = VulnerabilityKb([
        VulnerabilityRecord("V2", frozenset({COMPRESS})),
        VulnerabilityRecord("V1", frozenset({COMPRESS, other})),
        VulnerabilityRecord("V2", frozenset({COMPRESS})),  # the loader accepts a repeated id
    ])
    assert kb.ids_by_gav == {COMPRESS: ("V1", "V2"), other: ("V1",)}
