from __future__ import annotations

import copy
import itertools
import pickle
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from depscope.errors import DuplicateGa, DuplicateVersion, MalformedCoordinate
from depscope.ingest import parse_tree_text
from depscope.model import (
    NON_DEPLOYED_SCOPES,
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    Release,
    ReleaseHistory,
    Scope,
    VulnerabilityRecord,
    build_tree,
    chain_of,
    parse_gav,
    same_project,
    walk,
)

from conftest import deep_chain_tree, grouped_trees, trees


def test_parse_gav_three_segments():
    assert parse_gav("org.slf4j:slf4j-api:1.7.25") == Gav("org.slf4j", "slf4j-api", "1.7.25")


def test_parse_gav_five_segment_tree_form():
    # the tree-dump form is the text-tree parser's, not a coordinate
    line = "org.apache.httpcomponents:httpclient:jar:4.5.2:compile"
    tree = parse_tree_text(f"com.acme:m:1.0\n+- {line}\n")
    child = tree.root.children[0]
    assert child.gav == Gav("org.apache.httpcomponents", "httpclient", "4.5.2")
    assert child.scope is Scope.COMPILE
    with pytest.raises(MalformedCoordinate):
        parse_gav(line)


def test_parse_gav_rejects_wrong_segment_count():
    with pytest.raises(MalformedCoordinate):
        parse_gav("only-two:segments")
    with pytest.raises(MalformedCoordinate):
        parse_gav("g:a:p:v")


def test_parse_gav_rejects_empty_segment():
    with pytest.raises(MalformedCoordinate):
        parse_gav("g::1.0")


def test_gav_fields_reject_separator():
    with pytest.raises(ValueError):
        Gav("g:x", "a", "1")


class _Text(str):
    pass


def test_gav_accepts_exactly_non_empty_strings_without_the_separator():
    """str subclasses included; the first bad segment is the one named."""
    values = ["a", "", "a:", ":", _Text("a"), _Text(""), _Text("a:"), None, 1, b"a"]
    for segments in itertools.product(values, repeat=3):
        for name, value in zip(("group_id", "artifact_id", "version"), segments):
            if not isinstance(value, str) or not value:
                reason = f"{name} must be a non-empty string"
                break
            if ":" in value:
                reason = f"{name} must not contain ':'"
                break
        else:
            gav = Gav(*segments)
            assert type(gav) is Gav and tuple(gav) == segments
            continue
        with pytest.raises(ValueError) as exc:
            Gav(*segments)
        assert str(exc.value) == reason


def test_ga_projection():
    assert Gav("g", "a", "1").ga == Ga("g", "a")


def test_same_project_subgroup():
    assert same_project("org.apache.activemq", "org.apache.activemq.tooling")


def test_same_project_reflexive_on_equal_groups():
    assert same_project("org.slf4j", "org.slf4j")


def test_same_project_needs_dot_boundary():
    assert not same_project("com.foo", "com.foobar")


_group_text = st.text(
    alphabet=st.sampled_from("abc."), min_size=1, max_size=12
).filter(lambda s: "." != s[0] and "." != s[-1])


@given(a=_group_text, b=_group_text)
def test_same_project_symmetric(a, b):
    assert same_project(a, b) == same_project(b, a)


@given(a=_group_text)
def test_same_project_reflexive(a):
    assert same_project(a, a)


@given(a=_group_text, b=_group_text)
def test_same_project_matches_segment_prefix_oracle(a, b):
    sa, sb = a.split("."), b.split(".")
    n = min(len(sa), len(sb))
    expected = sa[:n] == sb[:n] and (len(sa) == n or len(sb) == n)
    assert same_project(a, b) == expected


def test_deployed_partition():
    assert NON_DEPLOYED_SCOPES == {Scope.TEST, Scope.PROVIDED}
    for scope in Scope:
        assert scope.deployed == (scope not in (Scope.TEST, Scope.PROVIDED))


_segment = st.text(
    alphabet=st.characters(blacklist_characters=":", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=10,
)


@given(group=_segment, artifact=_segment, version=_segment)
def test_render_parse_round_trip(group, artifact, version):
    gav = Gav(group, artifact, version)
    assert parse_gav(str(gav)) == gav


# --- value semantics of the tuple-backed coordinates --------------------------------


# a small alphabet, so that equal fields and ties in ordering come up
_short_segment = st.text(alphabet="ab.", min_size=1, max_size=3)
_gav_fields = st.tuples(_short_segment, _short_segment, _short_segment)


@given(x=_gav_fields, y=_gav_fields)
def test_coordinates_order_hash_and_compare_as_their_field_tuples(x, y):
    for cls, fx, fy in ((Gav, x, y), (Ga, x[:2], y[:2])):
        a, b = cls(*fx), cls(*fy)
        assert (a == b) == (fx == fy) and (a != b) == (fx != fy)
        assert (a < b) == (fx < fy) and (a <= b) == (fx <= fy)
        assert (a > b) == (fx > fy) and (a >= b) == (fx >= fy)
        assert hash(a) == hash(fx) and a == fx
        assert tuple(a) == fx
    gav = Gav(*x)
    assert parse_gav(str(gav)) == gav
    assert gav.ga == Ga(*x[:2]) and type(gav.ga) is Ga


def test_coordinates_unpack_into_their_fields():
    g, a, v = Gav("org.p", "lib", "1.0")
    assert (g, a, v) == ("org.p", "lib", "1.0")
    assert Gav(group_id="g", artifact_id="a", version="1") == Gav("g", "a", "1")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Gav("g", "a", "1")._replace(version="x:y"),
        lambda: Gav("g", "a", "1")._replace(group_id=""),
        lambda: Gav._make(["g", "a", "x:y"]),
        lambda: Gav._make(["g", "a", 1]),
        lambda: Ga._make(["g:x", "a"]),
        lambda: Ga._make(["g", ""]),
    ],
)
def test_derived_constructors_validate_segments(build):
    with pytest.raises(ValueError):
        build()


def test_derived_constructors_keep_the_type():
    gav = Gav("g", "a", "1")
    assert type(gav._replace(version="2")) is Gav and gav._replace(version="2") == ("g", "a", "2")
    assert type(Gav._make(["g", "a", "1"])) is Gav
    assert type(Ga._make(["g", "a"])) is Ga


@pytest.mark.parametrize("value", [Gav("org.p", "lib", "1.0"), Ga("org.p", "lib")])
def test_coordinates_survive_pickle_and_deepcopy(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert copied == value and type(copied) is type(value)
        assert hash(copied) == hash(value)


def test_gav_never_equals_its_ga():
    gav = Gav("org.p", "lib", "1.0")
    assert gav != gav.ga and gav.ga != gav
    assert {gav.ga: 1}.get(gav) is None and {gav: 1}.get(gav.ga) is None


def test_coordinate_repr_names_each_field():
    assert repr(Gav("a", "b", "c")) == "Gav(group_id='a', artifact_id='b', version='c')"
    assert repr(Ga("a", "b")) == "Ga(group_id='a', artifact_id='b')"


def test_tree_rejects_duplicate_library():
    child_a = DependencyNode(Gav("g", "a", "1"), Scope.COMPILE)
    child_b = DependencyNode(Gav("g", "a", "2"), Scope.COMPILE)
    root = DependencyNode(Gav("g", "root", "1"), Scope.COMPILE, (child_a, child_b))
    with pytest.raises(DuplicateGa):
        DependencyTree(root)


def test_history_rejects_repeated_version():
    ga = Ga("g", "a")
    releases = (Release("1.0", date(2020, 1, 1)), Release("1.1", date(2020, 2, 1)),
                Release("1.0", date(2020, 3, 1)))
    with pytest.raises(DuplicateVersion) as exc:
        ReleaseHistory(ga, releases)
    assert (exc.value.ga, exc.value.version) == (ga, "1.0")


@pytest.mark.parametrize("releases, reason", [
    ((), "history of g:a has no releases"),
    ((Release("2.0", date(2020, 2, 1)), Release("1.0", date(2020, 1, 1))),
     "history of g:a is not sorted by date"),
])
def test_history_rejects_no_releases_and_unsorted_dates(releases, reason):
    with pytest.raises(ValueError) as exc:
        ReleaseHistory(Ga("g", "a"), releases)
    assert str(exc.value) == reason


@pytest.mark.parametrize("vuln_id, affected, reason", [
    ("", {Gav("g", "a", "1")}, "vulnerability id must be non-empty"),
    ("V-1", set(), "vulnerability V-1 affects no instances"),
])
def test_vulnerability_record_needs_an_id_and_an_instance(vuln_id, affected, reason):
    with pytest.raises(ValueError) as exc:
        VulnerabilityRecord(vuln_id, affected)
    assert str(exc.value) == reason


def test_tree_rejects_non_compile_root():
    with pytest.raises(ValueError):
        DependencyTree(DependencyNode(Gav("g", "a", "1"), Scope.TEST))


def test_ancestor_chains(sample_tree):
    steps = list(walk(sample_tree.root))
    assert [step[0] for step in steps] == [node for node, _ in sample_tree.nodes()]
    chains = {step[0].gav: chain_of(step) for step in steps}
    compress = Gav("org.ziplib", "compress", "1.4")
    assert chains[compress] == (
        compress,
        Gav("org.dataflow", "stream-codec", "5.1"),
        Gav("org.dataflow", "stream-core", "5.1"),
        Gav("com.acme", "app-core", "1.0"),
    )
    root = sample_tree.root.gav
    assert chains[root] == (root,)
    assert all(step[2] for step in steps)


def test_chains_deployed_needs_every_edge_to_ship():
    leaf = DependencyNode(Gav("g", "leaf", "1"), Scope.COMPILE)
    tested = DependencyNode(Gav("g", "tested", "1"), Scope.TEST, (leaf,))
    runtime = DependencyNode(Gav("g", "runtime", "1"), Scope.RUNTIME)
    tree = DependencyTree(
        DependencyNode(Gav("g", "root", "1"), Scope.COMPILE, (tested, runtime))
    )
    deployed = {node.gav.artifact_id: flag for node, _, flag, _, _ in walk(tree.root)}
    assert deployed == {"root": True, "tested": False, "leaf": False, "runtime": True}


def _node(artifact: str, *children: DependencyNode, version: str = "1") -> DependencyNode:
    return DependencyNode(Gav("g", artifact, version), Scope.COMPILE, children)


def test_chains_skips_a_repeated_library_with_its_subtree():
    # b's second occurrence (another version) brings c, which must not be walked
    root = _node("root", _node("a", _node("b")), _node("b", _node("c"), version="2"), _node("d"))
    order = [(step[0].gav.artifact_id, step[0].gav.version) for step in walk(root)]
    assert order == [("root", "1"), ("a", "1"), ("b", "1"), ("d", "1")]


def test_chains_never_skips_the_root():
    # the root's library recurs below it; the root is walked, the repeat is not
    root = _node("root", _node("a", _node("root", _node("x"), version="2")))
    assert [(step[0].gav.artifact_id, chain_of(step)) for step in walk(root)] == [
        ("root", (root.gav,)),
        ("a", (Gav("g", "a", "1"), root.gav)),
    ]


def test_chains_is_preorder_with_children_in_order():
    root = _node("r", _node("a", _node("a1"), _node("a2", _node("a21"))), _node("b"),
                 _node("c", _node("c1")))
    order = [step[0].gav.artifact_id for step in walk(root)]
    assert order == ["r", "a", "a1", "a2", "a21", "b", "c", "c1"]


@given(trees())
def test_chains_of_a_tree_yields_every_node(tree):
    steps = list(walk(tree.root))
    assert [step[0] for step in steps] == [node for node, _ in tree.nodes()]
    assert [len(chain_of(step)) - 1 for step in steps] == [depth for _, depth in tree.nodes()]


@given(grouped_trees())
def test_walk_carries_each_distinct_group_above_a_node_at_its_nearest(case):
    tree, _ = case
    for step in walk(tree.root):
        _, depth, _, _, above = step
        chain = chain_of(step)
        groups = []
        while above:
            group, above = above
            groups.append(group)
        assert groups == list(dict.fromkeys(gav.group_id for gav in chain[1:]))
        assert depth == len(chain) - 1


def test_build_tree_inverts_the_preorder_walk(sample_tree):
    positions = {}
    preorder = []
    for step in walk(sample_tree.root):
        node, chain = step[0], chain_of(step)
        positions[node.gav] = len(preorder)
        parent = positions[chain[1]] if len(chain) > 1 else -1
        preorder.append((node.gav, node.scope, parent))
    assert build_tree(preorder) == sample_tree.root
    deep = deep_chain_tree(1500)
    rebuilt = build_tree([(n.gav, n.scope, i - 1) for i, (n, _) in enumerate(deep.nodes())])
    assert rebuilt == deep.root


def test_nodes_preorder(sample_tree):
    order = [node.gav.artifact_id for node, _ in sample_tree.nodes()]
    assert order == [
        "app-core", "app-util", "http-client", "io-buffers",
        "stream-core", "stream-codec", "compress",
    ]


def test_node_equality_and_hash_deeper_than_recursion_limit():
    a, b = deep_chain_tree(1500), deep_chain_tree(1500)
    assert a.root is not b.root
    assert a == b and hash(a) == hash(b)
    assert {a.root: 1}[b.root] == 1
    assert a != deep_chain_tree(1500, Scope.TEST)  # differs only at the deepest node
    assert a != deep_chain_tree(1499)


def test_node_equality_defers_to_other_types():
    node = DependencyNode(Gav("g", "a", "1"), Scope.COMPILE)
    assert node.__eq__("g:a:1") is NotImplemented
    assert node != "g:a:1"
    assert node == mock.ANY  # only when the node defers does ANY get to answer


class _Uncomparable(Gav):
    """A coordinate that fails on ``!=``, the test node equality puts to each pair of nodes."""

    __slots__ = ()

    def __ne__(self, other):
        raise AssertionError("a node shared by both trees was compared")


def test_roots_sharing_a_child_node_compare_it_by_identity():
    leaf = DependencyNode(Gav("g", "leaf", "1"), Scope.COMPILE)
    shared = DependencyNode(_Uncomparable("g", "shared", "1"), Scope.COMPILE, (leaf,))
    a = DependencyNode(Gav("g", "root", "1"), Scope.COMPILE, (shared,))
    b = DependencyNode(Gav("g", "root", "1"), Scope.COMPILE, (shared,))
    assert a is not b and a == b
