from __future__ import annotations

import math
from collections import Counter

import pytest

from depscope.errors import EmptyPool, InsufficientLibraries, ReservedGroup
from depscope.model import (
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    Scope,
    VulnerabilityKb,
    VulnerabilityRecord,
)
from depscope.report import scan
from depscope.simulate import (
    SYNTHETIC_GROUP,
    SimulationConfig,
    SimulationPool,
    project_tree,
    render_simulation,
    simulate,
)

from conftest import ANALYSIS_TIME, build_synthetic_pool, deep_chain_tree


def _tiny_pool(n: int) -> SimulationPool:
    trees = tuple(
        DependencyTree(DependencyNode(Gav(f"org.t{i}", f"a{i}", "1.0"), Scope.COMPILE))
        for i in range(n)
    )
    histories = {}
    for tree in trees:
        gav = tree.root.gav
        from conftest import alive_history

        histories[gav.ga] = alive_history(gav)
    return SimulationPool(trees=trees, histories=histories, kb=())


def test_degenerate_pool_single_composition():
    pool = _tiny_pool(12)
    cfg = SimulationConfig(projects=1, deps_per_project=12, seed=5, time=ANALYSIS_TIME)
    outcomes = simulate(pool, cfg)
    assert len(outcomes) == 1
    tree = project_tree(pool, cfg, 0)
    assert tree.root.gav.group_id == SYNTHETIC_GROUP
    assert len(tree.root.children) == 12
    assert {c.gav.ga for c in tree.root.children} == {t.root.gav.ga for t in pool.trees}


def test_empty_pool_raises():
    pool = SimulationPool(trees=(), histories={}, kb=())
    with pytest.raises(EmptyPool):
        simulate(pool, SimulationConfig(projects=1, deps_per_project=1, time=ANALYSIS_TIME))


def test_pool_rejects_duplicate_roots():
    tree = DependencyTree(DependencyNode(Gav("org.t", "a", "1.0"), Scope.COMPILE))
    other = DependencyTree(
        DependencyNode(
            Gav("org.t", "a", "1.0"), Scope.COMPILE,
            (DependencyNode(Gav("org.u", "b", "2.0"), Scope.COMPILE),),
        )
    )
    with pytest.raises(ValueError, match="duplicate pool tree for org.t:a:1.0"):
        SimulationPool(trees=(tree, other), histories={}, kb=())


def test_pool_keeps_kb_indexed_once():
    record = VulnerabilityRecord("V1", frozenset({Gav("org.t", "a", "1.0")}))
    pool = SimulationPool(trees=(), histories={}, kb=(record,))
    assert isinstance(pool.kb, VulnerabilityKb) and pool.kb == (record,)
    kb = VulnerabilityKb((record,))
    assert SimulationPool(trees=(), histories={}, kb=kb).kb is kb


def test_simulate_pool_chain_deeper_than_recursion_limit():
    leaf = VulnerabilityRecord("V-DEEP", frozenset({Gav("org.deep1500", "lib1500", "1.0")}))
    pool = SimulationPool(trees=(deep_chain_tree(1500),), histories={}, kb=(leaf,))
    cfg = SimulationConfig(projects=1, deps_per_project=1, time=ANALYSIS_TIME, lenient=True)
    tree = project_tree(pool, cfg, 0)
    assert max(depth for _, depth in tree.nodes()) == 1501
    assert tree.root.children[0] == pool.trees[0].root
    (outcome,) = simulate(pool, cfg)
    assert (outcome.all_vulnerable, outcome.deployed_vulnerable) == (1, 1)
    assert (outcome.controlled_standard, outcome.controlled_proposed) == (0, 0)


def test_insufficient_libraries_raises():
    pool = _tiny_pool(3)
    with pytest.raises(InsufficientLibraries):
        simulate(pool, SimulationConfig(projects=1, deps_per_project=4, time=ANALYSIS_TIME))


def test_determinism_byte_identical():
    cfg = SimulationConfig(projects=20, deps_per_project=8, seed=42, time=ANALYSIS_TIME)
    first = render_simulation(simulate(build_synthetic_pool(), cfg), cfg, "csv")
    second = render_simulation(simulate(build_synthetic_pool(), cfg), cfg, "csv")
    assert first == second
    json_first = render_simulation(simulate(build_synthetic_pool(), cfg), cfg, "json")
    json_second = render_simulation(simulate(build_synthetic_pool(), cfg), cfg, "json")
    assert json_first == json_second


def test_different_seeds_differ():
    pool = build_synthetic_pool()
    a = simulate(pool, SimulationConfig(projects=10, deps_per_project=8, seed=1, time=ANALYSIS_TIME))
    b = simulate(pool, SimulationConfig(projects=10, deps_per_project=8, seed=2, time=ANALYSIS_TIME))
    assert a != b


def test_filter_and_dominance_directions():
    pool = build_synthetic_pool()
    cfg = SimulationConfig(projects=60, deps_per_project=10, seed=7, time=ANALYSIS_TIME)
    for outcome in simulate(pool, cfg):
        assert outcome.deployed_vulnerable <= outcome.all_vulnerable
        assert outcome.controlled_proposed >= outcome.controlled_standard
        assert outcome.halted_vulnerable <= outcome.deployed_vulnerable


def test_replay_against_direct_pipeline():
    pool = build_synthetic_pool()
    cfg = SimulationConfig(projects=5, deps_per_project=9, seed=11, time=ANALYSIS_TIME)
    outcomes = simulate(pool, cfg)
    for index, outcome in enumerate(outcomes):
        tree = project_tree(pool, cfg, index)
        assert tree.root.gav == outcome.root
        result = scan(
            tree, pool.kb, pool.histories,
            time=ANALYSIS_TIME, include_non_deployed=True,
        )
        assert outcome.all_vulnerable == sum(1 for r in result.census if r.vulnerable)
        assert outcome.deployed_vulnerable == sum(
            1 for r in result.census if r.vulnerable and r.deployed
        )
        assert outcome.controlled_standard == sum(
            1 for r in result.census if r.vulnerable and r.direct
        )


def test_conflicting_libraries_keep_first_drawn():
    # two pool trees both carry org.shared:dup; the synthetic tree keeps one node
    shared = Gav("org.shared", "dup", "1.0")
    tree_a = DependencyTree(
        DependencyNode(
            Gav("org.a", "first", "1.0"), Scope.COMPILE,
            (DependencyNode(shared, Scope.COMPILE),),
        )
    )
    tree_b = DependencyTree(
        DependencyNode(
            Gav("org.b", "second", "1.0"), Scope.COMPILE,
            (DependencyNode(shared, Scope.COMPILE),),
        )
    )
    from conftest import alive_history

    histories = {
        gav.ga: alive_history(gav)
        for gav in (tree_a.root.gav, tree_b.root.gav, shared)
    }
    pool = SimulationPool(trees=(tree_a, tree_b), histories=histories, kb=())
    cfg = SimulationConfig(projects=1, deps_per_project=2, seed=0, time=ANALYSIS_TIME)
    tree = project_tree(pool, cfg, 0)
    duplicates = [node.gav for node, _ in tree.nodes() if node.gav.ga == shared.ga]
    assert duplicates == [shared]
    first_child = tree.root.children[0]
    assert first_child.children and first_child.children[0].gav == shared


def test_sampling_close_to_uniform():
    pool = _tiny_pool(10)
    libraries = sorted(t.root.gav.ga for t in pool.trees)
    draws = 1500
    deps = 3
    counts: Counter[Ga] = Counter()
    cfg = SimulationConfig(projects=draws, deps_per_project=deps, seed=2024, time=ANALYSIS_TIME)
    for index in range(draws):
        tree = project_tree(pool, cfg, index)
        for child in tree.root.children:
            counts[child.gav.ga] += 1
    p = deps / len(libraries)
    sigma = math.sqrt(draws * p * (1 - p))
    for ga in libraries:
        assert abs(counts[ga] - draws * p) <= 3 * sigma, (ga, counts[ga])


def _pool_with_library_in(group: str) -> SimulationPool:
    """Pool trees ``org.a:b:1.0 -> <group>:x:1.0`` (vulnerable) and
    ``org.c:d:1.0``."""
    from conftest import alive_history

    inner = Gav(group, "x", "1.0")
    trees = (
        DependencyTree(DependencyNode(Gav("org.a", "b", "1.0"), Scope.COMPILE,
                                      (DependencyNode(inner, Scope.COMPILE),))),
        DependencyTree(DependencyNode(Gav("org.c", "d", "1.0"), Scope.COMPILE)),
    )
    histories = {gav.ga: alive_history(gav)
                 for gav in (inner, trees[0].root.gav, trees[1].root.gav)}
    return SimulationPool(trees=trees, histories=histories,
                          kb=(VulnerabilityRecord("V1", frozenset({inner})),))


@pytest.mark.parametrize("group", ["sim", "sim.depscope", "sim.depscope.evil"])
def test_pool_rejects_libraries_in_the_synthetic_project(group):
    # grouping would absorb the synthetic root into the library's project and
    # count its transitive finding as own
    message = rf"pool library {group}:x shares a project with the synthetic roots' group sim\.depscope"
    with pytest.raises(ReservedGroup, match=message):
        _pool_with_library_in(group)


@pytest.mark.parametrize("group", ["simx", "sim.depscopex", "org.sim.depscope"])
def test_pool_accepts_string_prefix_decoys_of_the_synthetic_group(group):
    pool = _pool_with_library_in(group)
    cfg = SimulationConfig(projects=1, deps_per_project=2, seed=0, time=ANALYSIS_TIME)
    (outcome,) = simulate(pool, cfg)
    assert (outcome.controlled_standard, outcome.controlled_proposed) == (0, 0)
