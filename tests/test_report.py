from __future__ import annotations

import json
import random
import sys
from datetime import date
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from depscope.analysis import (
    classify_responsibility,
    extract_vulnerable_paths,
    filter_non_deployed,
    group_path,
    match_vulnerabilities,
)
from depscope.errors import DepscopeError, MissingHistory, SchemaViolation
from depscope.ingest import csv_text, json_text, load_vuln_kb, parse_tree_text
from depscope.lifecycle import SmoothingConfig, verdict_table
from depscope.model import (
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    InstanceStatus,
    LibraryStatus,
    Release,
    ReleaseHistory,
    Responsibility,
    Scope,
    VulnerabilityKb,
    VulnerabilityRecord,
    VulnerablePath,
)
from depscope.report import (
    CELL_KEYS,
    AggregateReport,
    CensusRow,
    ScanResult,
    aggregate,
    parse_aggregate_json,
    parse_scan_results_json,
    render,
    render_chunks,
    scan,
)
from depscope import report as report_module
from depscope.report import _CENSUS_CSV_HEADER, _result_text

from conftest import (
    ANALYSIS_TIME,
    GROUP_POOL,
    NON_TRANSITIVE,
    SAMPLE_GAVS,
    SAMPLE_KB_JSON,
    SAMPLE_TREE_TEXT,
    SCAN_RESULTS,
    VULN_ID_POOL,
    alive_history,
    census_with_chains,
    chain_tree,
    deep_chain_tree,
    every_single_change,
    grouped_trees,
    mutate_json,
    random_tree_case,
    reference_aggregate,
    reference_census_rows,
    reference_chain_of,
    reference_group_path,
    reference_parse_scan_results_json,
    result_to_dict,
    row_chains,
    stalled_history,
)

ROOT = Gav("com.acme", "app-core", "1.0")


def _scan_sample(sample_tree, sample_kb, sample_histories, **kwargs):
    return scan(sample_tree, sample_kb, sample_histories, time=ANALYSIS_TIME, **kwargs)


# --- census -----------------------------------------------------------------------


def test_census_sample_tree(sample_tree, sample_kb, sample_histories):
    result = _scan_sample(sample_tree, sample_kb, sample_histories)
    assert result.root == ROOT
    assert len(result.census) == 6  # every non-root node exactly once
    assert sum(1 for row in result.census if row.vulnerable) == 2
    assert [(p.vuln_id, p.grouped_path, p.responsibility) for p in result.paths] == [
        (
            "VULN-0001",
            (Gav("org.webkit", "http-client", "2.3"), ROOT),
            Responsibility.DIRECT,
        ),
        (
            "VULN-0002",
            (
                Gav("org.ziplib", "compress", "1.4"),
                Gav("org.dataflow", "stream-codec", "5.1"),
                ROOT,
            ),
            Responsibility.TRANSITIVE,
        ),
    ]


def test_census_root_only():
    tree = parse_tree_text("com.acme:solo:1.0\n")
    result = scan(tree, [], {}, time=ANALYSIS_TIME)
    assert result.paths == ()
    assert result.census == ()


def test_census_flags(sample_tree, sample_kb, sample_histories):
    result = _scan_sample(sample_tree, sample_kb, sample_histories)
    by_artifact = {row.gav.artifact_id: row for row in result.census}
    assert by_artifact["app-util"].own
    assert by_artifact["app-util"].responsibility is Responsibility.OWN
    assert by_artifact["http-client"].direct
    assert not by_artifact["compress"].direct
    assert by_artifact["compress"].responsibility is Responsibility.TRANSITIVE
    assert all(row.deployed for row in result.census)
    assert all(row.library_status is LibraryStatus.ALIVE for row in result.census)


def test_census_mode_difference_for_non_deployed_vulnerability(sample_histories):
    tree = parse_tree_text(
        "com.acme:app-core:jar:1.0\n"
        "+- com.acme:app-util:jar:1.0:compile\n"
        "+- org.webkit:http-client:jar:2.3:compile\n"
        "|  \\- org.tinyio:io-buffers:jar:0.9:compile\n"
        "\\- org.dataflow:stream-core:jar:5.1:test\n"
        "   \\- org.dataflow:stream-codec:jar:5.1:test\n"
        "      \\- org.ziplib:compress:jar:1.4:compile\n"
    )
    from depscope.ingest import load_vuln_kb
    import json

    kb = load_vuln_kb(
        json.dumps(
            [{"id": "V1", "affected": [{"group": "org.ziplib", "artifact": "compress", "versions": ["1.4"]}]}]
        )
    )
    deployed_mode = scan(tree, kb, sample_histories, time=ANALYSIS_TIME)
    assert deployed_mode.paths == ()
    assert not any(row.vulnerable for row in deployed_mode.census)

    include_mode = scan(tree, kb, sample_histories, time=ANALYSIS_TIME, include_non_deployed=True)
    assert len(include_mode.paths) == 1
    assert include_mode.paths[0].raw_path[0] == Gav("org.ziplib", "compress", "1.4")
    assert not include_mode.has_deployed_finding()
    # census keeps one row per node in both modes; only the flags differ
    assert len(deployed_mode.census) == len(include_mode.census) == 6


def test_census_strict_missing_history(sample_tree, sample_kb, sample_histories):
    broken = dict(sample_histories)
    del broken[Ga("org.ziplib", "compress")]
    with pytest.raises(MissingHistory):
        _scan_sample(sample_tree, sample_kb, broken)
    result = _scan_sample(sample_tree, sample_kb, broken, lenient=True)
    row = next(r for r in result.census if r.gav.artifact_id == "compress")
    assert row.unknown_history
    assert row.library_status is LibraryStatus.ALIVE


def test_census_consistency_on_random_corpus():
    rng = random.Random(31337)
    for _ in range(150):
        tree, kb = random_tree_case(rng)
        histories, halted = {}, set()
        for gav in tree.gavs():
            if rng.random() < 0.3:
                histories[gav.ga] = stalled_history(gav.ga, versions=("0.1", "0.2", gav.version))
                halted.add(gav)
            else:
                histories[gav.ga] = alive_history(gav)
        result = scan(tree, kb, histories, time=ANALYSIS_TIME)
        assert len(result.census) == len(list(tree.nodes())) - 1
        # brute force: each row's chain of nodes from the root, by preorder depth
        chain, chain_of = [], {}
        for node, depth in tree.nodes():
            chain[depth:] = [node]
            chain_of[node.gav] = list(chain)
        for row in result.census:
            nodes = chain_of[row.gav]
            deployed = all(n.scope not in (Scope.TEST, Scope.PROVIDED) for n in nodes[1:])
            assert row.depth == len(nodes) - 1
            assert row.deployed == deployed
            assert row.via_halted == (deployed and row.depth > 1 and nodes[1].gav in halted)
        deployed_rows = {row.gav for row in result.census if row.deployed}
        vulnerable_deployed = {row.gav for row in result.census if row.deployed and row.vulnerable}
        path_instances = {p.raw_path[0] for p in result.paths}
        assert path_instances - {result.root} == vulnerable_deployed
        assert vulnerable_deployed <= deployed_rows


@settings(max_examples=400, deadline=None)
@given(case=grouped_trees())
# the leaf's class needs the third grouped member: org.a.c survives grouping
@example(case=(chain_tree(["com.app", "org.a.c", "org.a", "org.a.b"]), []))
# the leaf's class needs each repeated group at its nearest occurrence: org.a
# absorbs org.a.c and org.a.b only when it is met before them (direct);
# taken where each group first occurs from the root, org.a.b and org.a.c
# both survive (transitive)
@example(case=(chain_tree(["org.a.c", "org.gamma", "org.a", "org.a.b", "org.a.c", "org.a",
                           "org.gamma"]), []))
# the leaf's nearest ancestor outside its project, com.a, shares the root's
# project and has org.q above it outside its own; org.q is in the leaf's
# project, so the leaf is still direct
@example(case=(chain_tree(["com", "org.q", "com.a", "org"]), []))
def test_every_census_row_is_classified_as_its_grouped_chain(case):
    # safe rows are classified without building their chain; the stepwise
    # definition groups the whole chain and classifies the result
    tree, kb = case
    root = tree.root.gav
    chain_of, path = {}, []
    for node, depth in tree.nodes():
        path[depth:] = [node.gav]
        chain_of[node.gav] = tuple(reversed(path))
    for include in (False, True):
        result = scan(tree, kb, {}, time=ANALYSIS_TIME, lenient=True, include_non_deployed=include)
        assert len(result.census) == len(chain_of) - 1
        for row in result.census:
            expected = classify_responsibility(group_path(chain_of[row.gav]), root)
            assert row.responsibility is expected


# chains of four shapes: dot-prefix relatives, string-prefix decoys, distinct
# org.p<i> alternating with org (each org row absorbs every org.p<i> above
# it), and two unrelated namespaces alternating, with relatives in each
_RELATIVES = ["org", "org.a", "org.a.b", "org.a.b.c", "org.a.c", "org.b", "com.app"]
_DECOYS = ["com", "com.fo", "com.foo", "com.foob", "com.foobar", "com.foo.bar", "com.foobar.x"]


@st.composite
def _group_chains(draw) -> list[str]:
    n = draw(st.integers(1, 30))
    shape = draw(st.sampled_from(["relatives", "decoys", "org.p<i> and org", "two namespaces"]))
    if shape in ("relatives", "decoys"):
        return draw(st.lists(st.sampled_from(_RELATIVES if shape == "relatives" else _DECOYS),
                             min_size=n, max_size=n))
    first = draw(st.integers(0, 1))
    if shape == "org.p<i> and org":
        return ["org" if (i + first) % 2 else f"org.p{i}" for i in range(n)]
    subs = draw(st.lists(st.sampled_from(["", ".p1", ".p1.x", ".p2"]), min_size=n, max_size=n))
    return [("org" if (i + first) % 2 else "net") + subs[i] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(groups=_group_chains(), root_group=st.sampled_from(["com.app", "com.foo", "org", "net"]),
       data=st.data())
def test_classify_group_ids_classifies_each_step_as_its_grouped_chain(groups, root_group, data):
    # on chains of dot-prefix relatives, string-prefix decoys and both
    # quadratic shapes of the distinct-id walk, scan classifies each row, from
    # its parent's context, as grouping its whole chain does; parents near the
    # node, so chains run deep and branch
    groups = [root_group, *groups]
    parents = [data.draw(st.integers(max(0, i - 2), i - 1)) for i in range(1, len(groups))]
    children: list[list[DependencyNode]] = [[] for _ in groups]
    for i in reversed(range(len(groups))):
        node = DependencyNode(Gav(groups[i], f"lib{i}", "1.0"), Scope.COMPILE, children[i][::-1])
        if i:
            children[parents[i - 1]].append(node)
    for row, chain in census_with_chains(node):
        expected = classify_responsibility(group_path(chain), node.gav)
        assert row.responsibility is expected


def test_same_project_calls_grow_linearly_in_depth_on_one_project(same_project_budget):
    # a chain of one project (two alternating groups) under a root of
    # another: each node's class needs the root, so grouping that rescans
    # the chain per node makes about depth**2 / 2 calls
    for depth in (5_000, 10_000):
        tree = chain_tree(["com.app"] + ["org.one" if i % 2 else "org.one.sub" for i in range(depth)])
        same_project_budget(5 * depth)
        result = scan(tree, [], {}, time=ANALYSIS_TIME, lenient=True)
        assert len(result.census) == depth
        assert {row.responsibility for row in result.census} == {Responsibility.DIRECT}


def test_same_project_calls_grow_linearly_in_depth_on_alternating_relatives(same_project_budget):
    # distinct org.p<i> alternating with org below a com.app root: each org
    # row takes the class of the org two levels up, each org.p<i> row stops at
    # the org.p<i> two levels up, which is outside its project and the root's.
    # Passing every org.p<i> above an org row, as grouping the distinct group
    # ids above it does, makes about depth**2 / 4 calls
    for depth in (5_000, 10_000):
        tree = chain_tree(["com.app"] + [f"org.p{i}" if i % 2 == 0 else "org" for i in range(depth)])
        same_project_budget(5 * depth)
        result = scan(tree, [], {}, time=ANALYSIS_TIME, lenient=True)
        assert [row.responsibility for row in result.census] == [Responsibility.DIRECT] * 2 + [
            Responsibility.TRANSITIVE if i % 2 == 0 else Responsibility.DIRECT for i in range(2, depth)]


def test_same_project_calls_grow_linearly_in_depth_on_a_repeated_run(same_project_budget):
    # k distinct, unrelated groups, then the same k again: a row of the second
    # run stops at its parent, outside its project and the root's. Relinking
    # the distinct group ids above each node, which takes no same_project
    # call, costs about k steps per node of the second run, over a second
    # at depth 10,000
    for depth in (5_000, 10_000):
        k = depth // 2
        tree = chain_tree(["com.app"] + [f"org.g{i % k}" for i in range(depth)])
        same_project_budget(5 * depth)
        start = perf_counter()
        result = scan(tree, [], {}, time=ANALYSIS_TIME, lenient=True)
        assert perf_counter() - start < 1.0
        assert [row.responsibility for row in result.census] == [Responsibility.DIRECT] + [
            Responsibility.TRANSITIVE] * (depth - 1)


def test_tuple_elements_grow_linearly_in_depth_on_distinct_projects(monkeypatch, same_project_budget):
    # only a vulnerable node's chain is built and grouped, here the leaf's; a
    # scan that built each node's whole chain would build about depth**2 / 2
    # elements, and grouping that compares each member with every project
    # kept so far makes about depth**2 / 2 same_project calls
    elements = [0]

    def counted(chain):
        elements[0] += len(chain)
        assert elements[0] <= depth + 1, f"over {depth + 1} chain elements"
        return group_path(chain)

    monkeypatch.setattr("depscope.report.group_path", counted)
    for depth in (5_000, 10_000):
        tree = deep_chain_tree(depth)
        leaf = Gav(f"org.deep{depth}", f"lib{depth}", "1.0")
        kb = VulnerabilityKb([VulnerabilityRecord("V1", frozenset({leaf}))])
        same_project_budget(5 * depth)
        elements[0] = 0
        result = scan(tree, kb, {}, time=ANALYSIS_TIME, lenient=True)
        assert len(result.census) == depth
        elements[0] += sum(len(path.grouped_path) for path in result.paths)
        # the chain up from the leaf, root included, and its grouping, which keeps every member
        assert elements[0] == 2 * (depth + 1)


def _random_case(seed: int):
    """A random tree and KB, with histories that halt about a third of the
    libraries, so rows below a halted direct dependency occur."""
    rng = random.Random(seed)
    tree, kb = random_tree_case(rng)
    histories = {
        gav.ga: stalled_history(gav.ga, versions=("0.1", "0.2", gav.version))
        if rng.random() < 0.3 else alive_history(gav)
        for gav in tree.gavs()
    }
    return tree, kb, histories


def _path_key(path: VulnerablePath):
    return path.raw_path, path.grouped_path, path.vuln_id, path.responsibility


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scan_matches_the_stepwise_reference(seed):
    # scan matches, groups and extracts in its one walk; the stepwise
    # pipeline that acceptance criterion 4's oracle checks is the reference:
    # filter -> match -> extract by default, match -> extract with
    # include_non_deployed
    tree, kb, histories = _random_case(seed)
    for include, matched in ((False, filter_non_deployed(tree)), (True, tree)):
        annotated = match_vulnerabilities(matched, kb)
        result = scan(tree, kb, histories, time=ANALYSIS_TIME, include_non_deployed=include)
        reference = extract_vulnerable_paths(annotated)
        assert [_path_key(p) for p in result.paths] == [_path_key(p) for p in reference]
        row_of = {row.gav: row for row in result.census}
        for path in result.paths:
            row = row_of.get(path.raw_path[0])  # None for the root, whose paths are never via-halted
            assert path.via_halted == (row is not None and row.via_halted)
        for row in result.census:
            assert row.vuln_ids == tuple(sorted(annotated.vulnerable.get(row.gav, ())))


def test_scan_walks_each_tree_once_and_builds_no_tree(monkeypatch, sample_tree, sample_kb,
                                                      sample_histories):
    cases = [(sample_tree, sample_kb, sample_histories)] + [_random_case(s) for s in range(40)]
    expected = [scan(t, kb, h, time=ANALYSIS_TIME, include_non_deployed=include)
                for t, kb, h in cases for include in (False, True)]

    def forbidden(*args, **kwargs):
        raise AssertionError("scan must not call this")

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "depscope"]
    for name in ("filter_non_deployed", "match_vulnerabilities", "extract_vulnerable_paths"):
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(DependencyTree, "__post_init__", forbidden)
    monkeypatch.setattr(DependencyTree, "nodes", forbidden)

    got = [scan(t, kb, h, time=ANALYSIS_TIME, include_non_deployed=include)
           for t, kb, h in cases for include in (False, True)]
    assert got == expected


def test_scan_builds_and_groups_each_vulnerable_chain_once(monkeypatch, sample_tree, sample_kb,
                                                           sample_histories):
    # each chain scan builds goes to grouping once, as it is
    chains = []

    def counted_group_path(raw_path):
        chains.append(raw_path)
        return group_path(raw_path)

    monkeypatch.setattr("depscope.report.group_path", counted_group_path)
    cases = [(sample_tree, sample_kb, sample_histories)] + [_random_case(s) for s in range(40)]
    for tree, kb, histories in cases:
        for include in (False, True):
            del chains[:]
            result = scan(tree, kb, histories, time=ANALYSIS_TIME, include_non_deployed=include)
            vulnerable = [row.gav for row in result.census if row.vuln_ids]
            assert [chain[0] for chain in chains] == vulnerable
            assert {path.raw_path for path in result.paths if len(path.raw_path) > 1} == set(chains)
            assert all(type(chain) is tuple for chain in chains)


# release dates that make a library alive or halted at ANALYSIS_TIME; the
# alive one ends past it, so a version released then is not yet seen
_CADENCES = {
    "alive": [date(2018, 3, 1), date(2018, 4, 1), date(2018, 5, 1), date(2018, 7, 1)],
    "halted": [date(2005, 1, 1), date(2006, 1, 1), date(2007, 1, 1), date(2007, 6, 1)],
}


@st.composite
def _census_cases(draw):
    """A tree of one library per node, whose groups recur (the root's
    too); random scopes, so edges that do not ship occur; histories that
    are missing, alive or halted and that may lack the version the tree
    holds; and a KB marking some of the nodes."""
    n = draw(st.integers(1, 30))
    groups = draw(st.lists(st.sampled_from(GROUP_POOL + NON_TRANSITIVE), min_size=n, max_size=n))
    versions = draw(st.lists(st.sampled_from("123"), min_size=n, max_size=n))
    gavs = [Gav(group, f"lib{k}", version) for k, (group, version) in enumerate(zip(groups, versions))]
    scopes = [Scope.COMPILE] + draw(st.lists(st.sampled_from(list(Scope)), min_size=n - 1,
                                             max_size=n - 1))
    parents = [draw(st.integers(max(0, i - 3), i - 1)) for i in range(1, n)]
    children: list[list[DependencyNode]] = [[] for _ in range(n)]
    for i in reversed(range(n)):
        node = DependencyNode(gavs[i], scopes[i], children[i][::-1])
        if i:
            children[parents[i - 1]].append(node)
    # at most one library without history and one version missing from one,
    # so most cases reach deep rows before any error
    no_history = draw(st.none() | st.integers(0, n - 1))
    unreleased = draw(st.none() | st.tuples(st.integers(0, n - 1), st.sampled_from("123")))
    histories = {}
    for k, gav in enumerate(gavs):
        released = [v for v in draw(st.permutations("1234")) if (k, v) != unreleased]
        if k != no_history:
            histories[gav.ga] = ReleaseHistory(gav.ga, tuple(
                Release(v, d) for v, d in zip(released, _CADENCES[draw(st.sampled_from(list(_CADENCES)))])))
    marked = draw(st.lists(st.sampled_from(gavs), unique=True))
    kb = VulnerabilityKb(
        VulnerabilityRecord(draw(st.sampled_from(VULN_ID_POOL)), frozenset({gav})) for gav in marked)
    return DependencyTree(node), kb, histories


def _reference_scan(tree, kb, histories, **modes):
    """The rows, their chains and the paths the frozen stepwise census gives
    ``scan`` of ``tree``, each path grouped by the frozen pairwise loop;
    else the type and args of the error that stops it."""
    root = tree.root.gav
    rows, chains = [], []
    paths = [VulnerablePath((root,), (root,), vuln_id, Responsibility.OWN, False)
             for vuln_id in kb.ids_by_gav.get(root, ())]
    try:
        for row, step in reference_census_rows(
                tree.root, kb, verdict_table(histories, ANALYSIS_TIME, SmoothingConfig()), **modes):
            chain = reference_chain_of(step)
            grouped = tuple(reference_group_path(chain))
            rows.append(row)
            chains.append(chain)
            paths += [VulnerablePath(chain, grouped, vuln_id, row.responsibility, row.via_halted)
                      for vuln_id in row.vuln_ids]
    except DepscopeError as exc:
        return type(exc), exc.args
    return rows, chains, paths


@settings(max_examples=300, deadline=None)
@given(case=_census_cases())
def test_scan_yields_the_frozen_reference_rows_and_paths(case):
    # scan's one census loop against the stepwise walk it replaced: the same
    # rows in the same order, the same ancestor chains, the same paths, and
    # the same error at the same node, in every mode
    tree, kb, histories = case
    for lenient in (False, True):
        for include in (False, True):
            modes = dict(lenient=lenient, include_non_deployed=include)
            try:
                result = scan(tree, kb, histories, time=ANALYSIS_TIME, **modes)
            except DepscopeError as exc:
                got = type(exc), exc.args
            else:
                got = (list(result.census), list(row_chains(tree.root.gav, result.census)),
                       list(result.paths))
            assert got == _reference_scan(tree, kb, histories, **modes)


@pytest.mark.parametrize("include", [False, True])
def test_repeated_id_on_one_instance_gives_one_census_id_and_one_path(
        sample_tree, sample_histories, include):
    compress = {"group": "org.ziplib", "artifact": "compress", "versions": ["1.4"]}
    kb = load_vuln_kb(json.dumps([{"id": "V1", "affected": [compress]}] * 2))
    result = scan(sample_tree, kb, sample_histories, time=ANALYSIS_TIME,
                  include_non_deployed=include)
    assert [row.vuln_ids for row in result.census if row.vulnerable] == [("V1",)]
    assert [(p.raw_path[0].artifact_id, p.vuln_id) for p in result.paths] == [("compress", "V1")]


# --- aggregation ------------------------------------------------------------------


def test_aggregate_empty_is_all_zero():
    report = aggregate([])
    assert all(report.cells[key] == 0 for key in CELL_KEYS)


def test_aggregate_matches_flat_recount():
    rng = random.Random(40404)
    results = []
    for _ in range(10):
        tree, kb = random_tree_case(rng)
        histories = {gav.ga: alive_history(gav) for gav in tree.gavs()}
        results.append(scan(tree, kb, histories, time=ANALYSIS_TIME))
    report = aggregate(results)

    # independent flat recount straight off the census rows
    from depscope.analysis import classify_responsibility

    expected = {key: 0 for key in CELL_KEYS}
    expected["trees"] = len(results)
    for result in results:
        for row in result.census:
            vuln = "vuln" if row.vuln_ids else "safe"
            pos = "direct" if row.depth == 1 else "transitive"
            expected[f"all/{vuln}/{pos}"] += 1
            if row.deployed:
                expected[f"deployed/{vuln}/{pos}"] += 1
                expected[f"grouped/{vuln}/{row.responsibility.value}"] += 1
                if row.library_status.value == "halted":
                    bucket = "halted"
                elif row.instance_status.value == "outdated":
                    bucket = "outdated"
                else:
                    bucket = "up_to_date"
                expected[f"lifecycle/{vuln}/{bucket}"] += 1
                if row.via_halted:
                    expected[f"via_halted/{vuln}/{bucket}"] += 1
        for path in result.paths:
            expected[f"paths/grouped/{path.responsibility.value}"] += 1
            raw_cls = classify_responsibility(path.raw_path, result.root)
            expected[f"paths/ungrouped/{raw_cls.value}"] += 1
    assert dict(report.cells) == expected


def test_aggregate_directional_invariants():
    rng = random.Random(50505)
    results = []
    for _ in range(100):
        tree, kb = random_tree_case(rng)
        histories = {gav.ga: alive_history(gav) for gav in tree.gavs()}
        results.append(scan(tree, kb, histories, time=ANALYSIS_TIME, include_non_deployed=True))
    report = aggregate(results)
    for vuln in ("vuln", "safe"):
        for pos in ("direct", "transitive"):
            assert report.cells[f"deployed/{vuln}/{pos}"] <= report.cells[f"all/{vuln}/{pos}"]
    grouped_controlled = report.cells["paths/grouped/own"] + report.cells["paths/grouped/direct"]
    raw_controlled = report.cells["paths/ungrouped/own"] + report.cells["paths/ungrouped/direct"]
    assert grouped_controlled >= raw_controlled
    assert report.cells["paths/grouped/direct"] >= report.cells["paths/ungrouped/direct"]
    # grouped classification partitions the deployed dependencies
    for vuln in ("vuln", "safe"):
        grouped_total = sum(report.cells[f"grouped/{vuln}/{r}"] for r in ("own", "direct", "transitive"))
        deployed_total = sum(report.cells[f"deployed/{vuln}/{p}"] for p in ("direct", "transitive"))
        assert grouped_total == deployed_total


@settings(deadline=None)
@given(results=st.lists(SCAN_RESULTS, max_size=6))
def test_aggregate_equals_the_reference_fold(results):
    """The fold that finds each cell key in the tables built from the axes
    counts what the frozen fold, which spells each key, counts, cell by cell
    and in the same order."""
    cells = aggregate(results).cells
    expected = reference_aggregate(results).cells
    assert list(cells.items()) == list(expected.items())
    assert all(type(count) is int for count in cells.values())


def test_aggregate_rejects_unknown_cell():
    with pytest.raises(ValueError):
        AggregateReport({"bogus": 1})


# --- rendering ----------------------------------------------------------------------


def test_render_deterministic(sample_tree, sample_kb, sample_histories):
    result = _scan_sample(sample_tree, sample_kb, sample_histories)
    report = aggregate([result])
    for fmt in ("text", "csv", "json"):
        assert render(result, fmt) == render(result, fmt)
        assert render(report, fmt) == render(report, fmt)


def test_render_zero_report_skeleton():
    text = render(aggregate([]), "text")
    assert "aggregate report over 0 tree(s)" in text
    assert "scope filtering" in text
    assert "project grouping" in text
    assert "lifecycle" in text
    assert "n/a" in text  # shares have no denominators


# every cell distinct, so a cell written in another's place shows
_NUMBERED_TEXT = """\
aggregate report over 33 tree(s) (34 scanned including non-deployed)

scope filtering (dependency instances)
            safe:direct  safe:transitive  vuln:direct  vuln:transitive
  deployed            2                3            0                1
  all                 6                7            4                5

project grouping (deployed dependency instances)
             safe:direct  safe:transitive  safe:own  safe:3rd-party  vuln:direct  vuln:transitive  vuln:own  vuln:3rd-party
  grouped             12               13        11              25            9               10         8              19
  ungrouped            2                3       n/a             n/a            0                1       n/a             n/a

lifecycle (deployed dependency instances)
              safe:halted  safe:outdated  safe:up-to-date  vuln:halted  vuln:outdated  vuln:up-to-date
  via-halted           23             24               25           20             21               22
  all                  17             18               19           14             15               16

vulnerable paths (per instance-vulnerability pair)
             own  direct  transitive  controlled
  grouped     26      27          28  53 (65.4%)
  ungrouped   29      30          31  59 (65.6%)

shares
  non-deployed among vulnerable instances: 88.9% (8 of 9)
  controlled by developers, grouped (of deployed vulnerable): 1700.0% (17 of 1)
  controlled by developers, ungrouped (of deployed vulnerable): 0.0% (0 of 1)
  halted among deployed instances: 516.7% (31 of 6)
  instances without release history: 32
"""


def test_render_aggregate_text_places_every_cell():
    report = AggregateReport({key: i for i, key in enumerate(CELL_KEYS)})
    assert render(report, "text") == _NUMBERED_TEXT
    # the suffix and the last share line appear only when their cells count something
    lines = render(aggregate([]), "text").splitlines()
    assert lines[0] == "aggregate report over 0 tree(s)"
    assert lines[-1] == "  halted among deployed instances: n/a (0 of 0)"


@pytest.mark.parametrize("obj", [aggregate([]), ScanResult(ROOT, ANALYSIS_TIME, False, (), ())],
                         ids=["aggregate", "scan result"])
def test_render_rejects_an_unknown_format(obj):
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        list(render_chunks(obj, "xml"))


def test_render_text_shows_paths(sample_tree, sample_kb, sample_histories):
    result = _scan_sample(sample_tree, sample_kb, sample_histories)
    text = render(result, "text")
    assert "VULN-0001" in text and "[direct]" in text
    assert "VULN-0002" in text and "[transitive]" in text
    assert "org.ziplib:compress:1.4 -> org.dataflow:stream-codec:5.1 -> com.acme:app-core:1.0" in text


def test_render_csv_one_row_per_dependency(sample_tree, sample_kb, sample_histories):
    result = _scan_sample(sample_tree, sample_kb, sample_histories)
    lines = render(result, "csv").splitlines()
    assert lines[0].startswith("root,gav,group_id")
    assert len(lines) == 1 + 6


def test_scan_result_json_round_trip(sample_tree, sample_kb, sample_histories):
    result = _scan_sample(sample_tree, sample_kb, sample_histories)
    rendered = render(result, "json")
    parsed = parse_scan_results_json(rendered)
    assert parsed == [result]
    assert render(parsed[0], "json") == rendered


def test_scan_result_list_json_round_trip(sample_tree, sample_kb, sample_histories):
    result = _scan_sample(sample_tree, sample_kb, sample_histories)
    rendered = render([result, result], "json")
    parsed = parse_scan_results_json(rendered)
    assert parsed == [result, result]


def test_aggregate_json_round_trip(sample_tree, sample_kb, sample_histories):
    report = aggregate([_scan_sample(sample_tree, sample_kb, sample_histories)])
    rendered = render(report, "json")
    assert parse_aggregate_json(rendered).cells == report.cells
    assert render(parse_aggregate_json(rendered), "json") == rendered


def test_saved_own_must_agree_with_responsibility(sample_tree, sample_kb, sample_histories):
    result = _scan_sample(sample_tree, sample_kb, sample_histories)
    assert [row.own for row in result.census] == [
        row.responsibility is Responsibility.OWN for row in result.census
    ]
    data = json.loads(render(result, "json"))
    data["census"][0]["own"] = not data["census"][0]["own"]
    with pytest.raises(SchemaViolation) as exc:
        parse_scan_results_json(json.dumps(data))
    assert exc.value.pointer == "/census/0/own"


@pytest.mark.parametrize("fields, key", [
    ({"depth": 1, "direct": False}, "direct"),
    ({"depth": 2, "direct": True}, "direct"),
    ({"depth": 0, "direct": False}, "depth"),
    ({"depth": -3, "direct": False}, "depth"),
], ids=["depth-1-not-direct", "depth-2-direct", "depth-0", "negative-depth"])
def test_saved_direct_must_agree_with_a_dependency_depth(sample_tree, sample_kb, sample_histories,
                                                         fields, key):
    data = json.loads(render(_scan_sample(sample_tree, sample_kb, sample_histories), "json"))
    data["census"][0].update(fields)
    with pytest.raises(SchemaViolation) as exc:
        parse_scan_results_json(json.dumps(data))
    assert exc.value.pointer == f"/census/0/{key}"


@pytest.mark.parametrize("text", ["\uff12\uff10\uff11\uff18-01-01", "2018-01-01\n"],
                         ids=["fullwidth-digits", "trailing-newline"])
def test_saved_analysis_time_takes_only_ascii_digits_and_nothing_after(sample_tree, sample_kb,
                                                                       sample_histories, text):
    data = json.loads(render(_scan_sample(sample_tree, sample_kb, sample_histories), "json"))
    data["analysis_time"] = text
    with pytest.raises(SchemaViolation) as exc:
        parse_scan_results_json(json.dumps(data))
    assert (exc.value.pointer, exc.value.reason) == ("/analysis_time", f"not a YYYY-MM-DD date: {text!r}")


def test_saved_row_needs_direct(sample_tree, sample_kb, sample_histories):
    data = json.loads(render(_scan_sample(sample_tree, sample_kb, sample_histories), "json"))
    del data["census"][0]["direct"]
    with pytest.raises(SchemaViolation) as exc:
        parse_scan_results_json(json.dumps(data))
    assert (exc.value.pointer, exc.value.reason) == ("/census/0", "missing key 'direct'")


@pytest.mark.parametrize("key", ["raw_path", "grouped_path"])
def test_saved_path_names_a_bad_coordinate_at_its_element(sample_tree, sample_kb, sample_histories,
                                                          key):
    data = json.loads(render(_scan_sample(sample_tree, sample_kb, sample_histories), "json"))
    gavs = data["paths"][1][key]
    gavs[-1] = "g:a"
    with pytest.raises(SchemaViolation) as exc:
        parse_scan_results_json(json.dumps(data))
    assert (exc.value.pointer, exc.value.reason) == (
        f"/paths/1/{key}/{len(gavs) - 1}", "not a g:a:v coordinate: 'g:a'")


@pytest.mark.parametrize("value", [["own"], {}, 1, None, "OWN"])
@pytest.mark.parametrize(
    "section, key",
    [("census", "responsibility"), ("census", "library_status"),
     ("census", "instance_status"), ("paths", "responsibility")],
)
def test_saved_enum_fields_reject_other_values(sample_tree, sample_kb, sample_histories,
                                               section, key, value):
    data = json.loads(render(_scan_sample(sample_tree, sample_kb, sample_histories), "json"))
    data[section][0][key] = value
    with pytest.raises(SchemaViolation) as exc:
        parse_scan_results_json(json.dumps(data))
    assert exc.value.pointer == f"/{section}/0/{key}"
    assert exc.value.reason == f"invalid value {value!r}"


def test_saved_aggregate_cells_must_be_integers():
    with pytest.raises(SchemaViolation) as exc:
        parse_aggregate_json('{"cells": {"trees": [1]}}')
    assert exc.value.pointer == "/cells/trees"


def _saved_aggregate(cell: str, value) -> str:
    """The saved aggregate of no results, with ``cell`` set to ``value``."""
    return json.dumps({"cells": {**aggregate([]).cells, cell: value}})


@pytest.mark.parametrize("cell, pointer, reason", [
    ("trees", "/cells/trees", "must not be negative"),
    ("paths/grouped/own", "/cells/paths~1grouped~1own", "must not be negative"),
    ("bogus", "/cells", "unknown cell 'bogus'"),  # a cell that does not exist is named as such
])
def test_saved_aggregate_cells_must_not_be_negative(cell, pointer, reason):
    with pytest.raises(SchemaViolation) as exc:
        parse_aggregate_json(_saved_aggregate(cell, -4))
    assert (exc.value.pointer, exc.value.reason) == (pointer, reason)


@pytest.mark.parametrize("value", [10**400, 2**53 + 1], ids=["1e400", "2**53+1"])
def test_saved_aggregate_cells_must_be_exact_as_floats(value):
    # the text render's shares convert counts to float, exact only up to 2**53
    with pytest.raises(SchemaViolation) as exc:
        parse_aggregate_json(_saved_aggregate("all/vuln/direct", value))
    assert (exc.value.pointer, exc.value.reason) == ("/cells/all~1vuln~1direct", "must not exceed 2**53")


def test_saved_aggregate_cell_of_2_to_the_53_renders_in_every_format():
    report = parse_aggregate_json(_saved_aggregate("all/vuln/direct", 2**53))
    assert report.cells["all/vuln/direct"] == 2**53
    assert "non-deployed among vulnerable instances: 100.0% (9007199254740992 of 9007199254740992)" in render(report, "text")
    assert "all/vuln/direct,9007199254740992\n" in render(report, "csv")
    assert parse_aggregate_json(render(report, "json")) == report


def test_saved_aggregate_cell_pointers_are_escaped():
    with pytest.raises(SchemaViolation) as exc:
        parse_aggregate_json(_saved_aggregate("deployed/vuln/direct", "1"))
    assert exc.value.pointer == "/cells/deployed~1vuln~1direct"


def test_saved_aggregate_must_hold_every_cell():
    with pytest.raises(SchemaViolation) as exc:
        parse_aggregate_json('{"cells": {"trees": 3}}')
    assert (exc.value.pointer, exc.value.reason) == ("/cells", "missing cell 'all/safe/direct'")


@pytest.mark.parametrize("cells, reason", [
    ({"deployed/vuln/direct": 1}, "deployed/vuln/direct (1) must not exceed all/vuln/direct (0)"),
    ({"all/safe/direct": 1, "deployed/safe/direct": 1},
     "grouped/safe/* (0) must equal deployed/safe/* (1)"),
    ({"all/vuln/direct": 1, "deployed/vuln/direct": 1, "grouped/vuln/direct": 1},
     "grouped/vuln/* (1) must equal lifecycle/vuln/* (0)"),
    ({"via_halted/safe/halted": 1}, "via_halted/safe/halted (1) must not exceed lifecycle/safe/halted (0)"),
    ({"trees_include_non_deployed": 1}, "trees_include_non_deployed (1) must not exceed trees (0)"),
    ({"unknown_history": 1}, "unknown_history (1) must not exceed all/*/* (0)"),
    ({"paths/ungrouped/own": 1}, "paths/grouped/* (0) must equal paths/ungrouped/* (1)"),
    # the cells test_render_aggregate_text_places_every_cell renders
    ({key: i for i, key in enumerate(CELL_KEYS)}, "grouped/vuln/* (27) must equal deployed/vuln/* (1)"),
], ids=["deployed-over-all", "grouped-vs-deployed", "grouped-vs-lifecycle", "via-halted-over-lifecycle",
        "include-non-deployed-over-trees", "unknown-history-over-all", "paths-grouped-vs-ungrouped",
        "every-cell-distinct"])
def test_saved_aggregate_cells_must_agree(cells, reason):
    with pytest.raises(SchemaViolation) as exc:
        parse_aggregate_json(json.dumps({"cells": {**aggregate([]).cells, **cells}}))
    assert (exc.value.pointer, exc.value.reason) == ("/cells", reason)


@settings(deadline=None)
@given(results=st.lists(SCAN_RESULTS, max_size=4))
def test_saved_aggregate_of_any_results_parses(results):
    report = aggregate(results)
    assert parse_aggregate_json(render(report, "json")) == report


def test_aggregate_report_holds_exactly_the_cells_it_is_given():
    cells = {key: value for value, key in enumerate(reversed(CELL_KEYS))}
    assert list(AggregateReport(cells).cells.items()) == [(key, cells[key]) for key in CELL_KEYS]
    assert AggregateReport({**cells, "trees": 2.9}).cells["trees"] == 2.9
    with pytest.raises(ValueError, match="missing cell 'via_halted/vuln/up_to_date'"):
        AggregateReport({key: 0 for key in CELL_KEYS if key != "via_halted/vuln/up_to_date"})


def _render_whole(results: list, format: str) -> str:
    """A list of results rendered as one value: one text join, one CSV table
    or one JSON array, the reference for the chunked rendering."""
    if format == "text":
        return "\n".join(_result_text(result) for result in results)
    if format == "csv":
        flag = {True: "true", False: "false"}
        return csv_text(_CENSUS_CSV_HEADER, [
            [str(result.root), str(row.gav), row.gav.group_id, row.gav.artifact_id,
             row.gav.version, row.depth, flag[row.direct], flag[row.deployed],
             flag[row.vulnerable], ";".join(row.vuln_ids), flag[row.own],
             row.responsibility.value, row.library_status.value, row.instance_status.value,
             flag[row.via_halted], flag[row.unknown_history]]
            for result in results
            for row in result.census
        ])
    return json_text([result_to_dict(result) for result in results])


# strings the JSON writer must escape: quotes, backslashes, controls, non-ASCII
# (one outside the basic plane) and the line separators JavaScript rejects
_ODD_GAV = Gav('q"\\', "t\n\x00\x7f", "é\u2028😀")
_ODD_RESULT = ScanResult(
    root=_ODD_GAV,
    analysis_time=date(1, 1, 1),
    include_non_deployed=True,
    paths=(VulnerablePath((_ODD_GAV,), (_ODD_GAV,), "\\u0041 \"/", Responsibility.OWN, True),),
    census=(CensusRow(_ODD_GAV, 1, False, ("", "ü", "\t"), Responsibility.DIRECT,
                      LibraryStatus.HALTED, InstanceStatus.OUTDATED, False, True),),
)
_EMPTY_RESULT = ScanResult(Gav("g", "a", "1"), date(9999, 12, 31), False, (), ())


@settings(deadline=None)
@given(results=st.lists(SCAN_RESULTS, max_size=4), format=st.sampled_from(["text", "csv", "json"]))
@example(results=[_ODD_RESULT, _EMPTY_RESULT], format="json")
@example(results=[_EMPTY_RESULT], format="json")
@example(results=[_EMPTY_RESULT, _ODD_RESULT], format="text")
@example(results=[_ODD_RESULT], format="csv")
def test_chunks_join_to_the_whole_rendering(results, format):
    """The JSON writer equals json_text of the reference dict, whole and in
    chunks; the other formats equal their whole renderings."""
    chunks = list(render_chunks(results, format))
    assert "".join(chunks) == render(results, format) == _render_whole(results, format)
    # one chunk per result, plus the CSV header or the JSON array's close
    assert len(chunks) == len(results) + (format != "text")
    if results:
        single = "".join(render_chunks(results[0], format))
        assert single == render(results[0], format)
        assert single == (json_text(result_to_dict(results[0])) if format == "json"
                          else _render_whole(results[:1], format))


@settings(deadline=None)
@given(results=st.lists(SCAN_RESULTS, max_size=4))
@example(results=[_ODD_RESULT])
@example(results=[_EMPTY_RESULT])
def test_generated_results_json_round_trip(results):
    rendered = render(results, "json")
    parsed = parse_scan_results_json(rendered)
    assert parsed == results
    assert render(parsed, "json") == rendered
    if results:
        one = render(results[0], "json")
        assert parse_scan_results_json(one) == results[:1]
        assert render(parse_scan_results_json(one)[0], "json") == one


def test_json_paths_carry_responsibilities(sample_tree, sample_kb, sample_histories):
    import json

    result = _scan_sample(sample_tree, sample_kb, sample_histories)
    data = json.loads(render(result, "json"))
    assert [p["responsibility"] for p in data["paths"]] == ["direct", "transitive"]
    assert len(data["paths"]) == 2


# --- malformed saved results -----------------------------------------------------------


def _rendered_results() -> str:
    tree = parse_tree_text(SAMPLE_TREE_TEXT)
    histories = {gav.ga: alive_history(gav) for gav in SAMPLE_GAVS}
    kb = load_vuln_kb(SAMPLE_KB_JSON)
    results = [
        scan(tree, kb, histories, time=ANALYSIS_TIME, include_non_deployed=mode)
        for mode in (False, True)
    ]
    return render(results, "json")


_RENDERED = _rendered_results()


@given(data=st.data())
def test_mutated_scan_result_raises_only_depscope_errors(data):
    doc = json.loads(_RENDERED)
    mutate_json(doc, data)
    try:
        results = parse_scan_results_json(json.dumps(doc))
    except DepscopeError:
        return
    aggregate(results)
    render(results, "json")


def _outcome(doc: str, parse=parse_scan_results_json):
    """The parsed results, or the error as ``(type, pointer, reason)``."""
    try:
        return parse(doc)
    except SchemaViolation as exc:
        return type(exc), exc.pointer, exc.reason


def _checked_outcome(doc: str):
    """:func:`_outcome` of the frozen field-by-field reference decoder."""
    return _outcome(doc, reference_parse_scan_results_json)


@settings(max_examples=300, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2),
       include=st.booleans(), data=st.data())
def test_straight_decoders_change_no_outcome(seeds, include, data):
    """A mutated saved result parses to the same value, or fails with the
    same error, as the frozen reference decodes it."""
    results = [scan(*_random_case(seed), time=ANALYSIS_TIME, include_non_deployed=include)
               for seed in seeds]
    doc = json.loads(render(results if len(seeds) > 1 else results[0], "json"))
    mutate_json(doc, data)
    text = json.dumps(doc)
    assert _outcome(text) == _checked_outcome(text)


def test_straight_decoders_change_no_outcome_of_any_single_change():
    """The property above, on every single change to the worked example's
    two saved results."""
    for text in every_single_change(json.loads(_RENDERED)):
        assert _outcome(text) == _checked_outcome(text), text


def _edited(*edits) -> str:
    """The worked example's two saved results with each ``(result, row, key,
    value)`` edit made; a value of None renames the key, keeping 11."""
    doc = json.loads(_RENDERED)
    for result, row, key, value in edits:
        entry = doc[result]["census"][row]
        if value is None:
            entry[key + "_renamed"] = entry.pop(key)
        else:
            entry[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("edits, pointer", [
    # two faults: the first in document order is named, whichever rule a
    # column pass would meet first
    (((1, 3, "depth", 0), (0, 4, "own", True)), "/0/census/4/own"),
    (((0, 5, "gav", "g:a"), (0, 1, "direct", False)), "/0/census/1/direct"),
    (((0, 2, "depth", True), (0, 2, "own", True)), "/0/census/2/depth"),
    (((1, 4, "library_status", "dead"), (1, 4, "vuln_ids", [1])), "/1/census/4/vuln_ids"),
    # three segments, one of them empty
    (((0, 3, "gav", "org.ziplib::1.4"), (1, 0, "gav", ":a:1")), "/0/census/3/gav"),
    # a key renamed, so the row still holds 11 keys
    (((1, 2, "instance_status", None),), "/1/census/2"),
    (((0, 0, "depth", None), (0, 3, "direct", "no")), "/0/census/0"),
])
def test_straight_decoders_change_no_outcome_of_census_faults(edits, pointer):
    """A census with several faults, an empty coordinate segment or a renamed
    key fails as the frozen reference decodes it."""
    text = _edited(*edits)
    assert _outcome(text) == _checked_outcome(text)
    assert _outcome(text)[1] == pointer


def test_straight_decoders_change_no_outcome_of_an_empty_census():
    """An empty census next to a non-empty one parses, or fails, as the
    frozen reference decodes it."""
    for emptied in (0, 1):
        doc = json.loads(_RENDERED)
        doc[emptied]["census"] = []
        text = json.dumps(doc)
        assert _outcome(text) == _checked_outcome(text)
        assert [len(result.census) for result in parse_scan_results_json(text)] == [
            0 if i == emptied else 6 for i in (0, 1)]
        doc[1 - emptied]["census"][5]["depth"] = 1
        text = json.dumps(doc)
        assert _outcome(text) == _checked_outcome(text)
        assert _outcome(text)[1] == f"/{1 - emptied}/census/5/direct"


def test_well_formed_results_are_never_walked(monkeypatch):
    """Only a census that a column rule rejects is walked, so a well-formed
    one builds no pointer; a rule that two valid fields break is named all
    the same, and the walk stops there."""
    walked = []
    monkeypatch.setattr(report_module, "check_fields", lambda entry, pointer, *_: walked.append(pointer))
    assert render(parse_scan_results_json(_RENDERED), "json") == _RENDERED
    assert walked == []
    doc = json.loads(_RENDERED)
    doc[1]["census"][2]["direct"] = not doc[1]["census"][2]["direct"]
    with pytest.raises(SchemaViolation) as exc:
        parse_scan_results_json(json.dumps(doc))
    assert exc.value.pointer == "/1/census/2/direct"
    # result 0's census is not walked, and result 1's only up to the fault
    assert walked == ["/1/census/0", "/1/census/1", "/1/census/2"]


def test_parse_builds_one_gav_per_distinct_coordinate():
    # two results of one tree: each coordinate is the root, a row or a path
    # member, and occurs several times
    doc = json.loads(_RENDERED)
    texts = [result["root"] for result in doc]
    texts += [row["gav"] for result in doc for row in result["census"]]
    texts += [gav for result in doc for path in result["paths"]
              for gav in path["raw_path"] + path["grouped_path"]]
    assert len(texts) > len(set(texts))
    results = parse_scan_results_json(_RENDERED)
    gavs = [result.root for result in results]
    gavs += [row.gav for result in results for row in result.census]
    gavs += [gav for result in results for path in result.paths
             for gav in path.raw_path + path.grouped_path]
    assert [":".join(gav) for gav in gavs] == texts and {type(gav) for gav in gavs} == {Gav}
    # as many objects as distinct texts, so one per text; the parsed values
    # hold them all, so no id is reused
    assert len({*map(id, gavs)}) == len(set(texts))
    assert render(results, "json") == _RENDERED
