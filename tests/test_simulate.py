from __future__ import annotations

import importlib
import math
from collections import Counter
from dataclasses import replace
from datetime import date, timedelta
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from depscope.errors import (
    DepscopeError,
    EmptyPool,
    InsufficientLibraries,
    MissingHistory,
    ReservedGroup,
    UnknownVersion,
)
from depscope.model import (
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    LibraryStatus,
    Release,
    ReleaseHistories,
    ReleaseHistory,
    Responsibility,
    Scope,
    VulnerabilityKb,
    VulnerabilityRecord,
    build_tree,
)
from depscope import analysis, report
from depscope.analysis import classify_responsibility
from depscope.report import aggregate, scan
from depscope.simulate import (
    _CONTROLLED,
    _DEPLOYED,
    _VULNERABLE,
    SYNTHETIC_GROUP,
    ProjectOutcome,
    SimulationConfig,
    SimulationPool,
    render_simulation,
    simulate,
)

from conftest import (
    ANALYSIS_TIME,
    GROUP_POOL,
    NON_TRANSITIVE,
    alive_history,
    build_synthetic_pool,
    chain_tree,
    deep_chain_tree,
    pool_libraries,
    project_tree,
    reference_group_path,
)

simulate_module = importlib.import_module("depscope.simulate")  # the package's ``simulate`` is the function


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


def _deep_pool() -> SimulationPool:
    """Pool trees ``org.early:e:1.0 -> org.deep1000:lib1000:1.0`` and
    ``com.app:app:1.0`` over a chain ``org.deep1 -> ... -> org.deep1500``
    (library ``i`` at depth ``i``) followed by a sibling
    ``com.app.after:after:1.0``. The KB hits ``org.deep300``, the leaf and
    the sibling, and ``org.deep1200`` has no history."""
    chain = [Gav(f"org.deep{i}", f"lib{i}", "1.0") for i in range(1, 1501)]
    app, after = Gav("com.app", "app", "1.0"), Gav("com.app.after", "after", "1.0")
    deep = build_tree([(app, Scope.COMPILE, -1)]
                      + [(gav, Scope.COMPILE, i) for i, gav in enumerate(chain)]
                      + [(after, Scope.COMPILE, 0)])
    early = DependencyNode(Gav("org.early", "e", "1.0"), Scope.COMPILE,
                           (DependencyNode(chain[999], Scope.COMPILE),))
    histories = {gav.ga: alive_history(gav) for gav in (app, after, early.gav, *chain)
                 if gav != chain[1199]}
    kb = [VulnerabilityRecord("V1", frozenset({chain[299], chain[1499], after}))]
    return SimulationPool(trees=(DependencyTree(early), DependencyTree(deep)), histories=histories, kb=kb)


@pytest.mark.parametrize("lenient", [False, True])
def test_simulate_skips_a_deep_subtree_that_an_earlier_pick_holds(lenient):
    # the walk skips org.deep1000's subtree, 500 levels past the recursion
    # limit and below depth 255, then keeps the sibling after it; drawn the
    # other way round, the whole chain is kept, and strict mode refuses the
    # library without history
    pool = _deep_pool()
    for picks in (("e", "app"), ("app", "e")):
        cfg = _seed_drawing(pool, picks, lenient)
        expected = _outcomes_or_error(_scanned_outcomes, pool, cfg)
        assert _outcomes_or_error(simulate, pool, cfg) == expected
        if picks == ("e", "app"):  # org.deep300 and the sibling, which shares com.app's project
            assert [(o.all_vulnerable, o.deployed_vulnerable, o.controlled_standard,
                     o.controlled_proposed) for o in expected] == [(2, 2, 0, 1)]
        elif lenient:  # the leaf too
            assert [o.all_vulnerable for o in expected] == [3]
        else:
            assert expected == (MissingHistory, MissingHistory(Ga("org.deep1200", "lib1200")).args)


def test_insufficient_libraries_raises():
    pool = _tiny_pool(3)
    with pytest.raises(InsufficientLibraries):
        simulate(pool, SimulationConfig(projects=1, deps_per_project=4, time=ANALYSIS_TIME))


@pytest.mark.parametrize("field, value, reason", [
    ("projects", 0, "projects must be positive"),
    ("projects", -1, "projects must be positive"),
    ("deps_per_project", 0, "deps_per_project must be positive"),
])
def test_config_rejects_no_projects_and_no_dependencies(field, value, reason):
    with pytest.raises(ValueError) as exc:
        SimulationConfig(**{field: value})
    assert str(exc.value) == reason


def test_render_simulation_has_no_text_format():
    cfg = SimulationConfig(projects=1, deps_per_project=1, time=ANALYSIS_TIME)
    outcomes = simulate(_tiny_pool(1), cfg)
    with pytest.raises(ValueError, match="unknown format 'text'"):
        render_simulation(outcomes, cfg, "text")


def test_determinism_byte_identical():
    cfg = SimulationConfig(projects=20, deps_per_project=8, seed=42, time=ANALYSIS_TIME)
    first = render_simulation(simulate(build_synthetic_pool(), cfg), cfg, "csv")
    second = render_simulation(simulate(build_synthetic_pool(), cfg), cfg, "csv")
    assert first == second
    json_first = render_simulation(simulate(build_synthetic_pool(), cfg), cfg, "json")
    json_second = render_simulation(simulate(build_synthetic_pool(), cfg), cfg, "json")
    assert json_first == json_second


# the groups of the grouping tests, with a string-prefix decoy of com.alpha
_PLAN_GROUPS = GROUP_POOL + NON_TRANSITIVE + ["com.alphabet"]


@st.composite
def _grouped_pools(draw) -> SimulationPool:
    """Pool trees of one library per node, whose groups come from a few of
    :data:`_PLAN_GROUPS`, so they recur along deep chains and non-transitive
    relatives meet; with random scopes and a KB that hits some of the nodes."""
    few = st.sampled_from(draw(st.lists(st.sampled_from(_PLAN_GROUPS), min_size=1, max_size=4, unique=True)))
    trees, gavs = [], []
    for t in range(draw(st.integers(1, 4))):
        groups = draw(st.lists(few, min_size=1, max_size=12))
        # parents near the node, so chains run deep
        preorder = [(Gav(groups[0], f"t{t}lib0", "1"), Scope.COMPILE, -1)] + [
            (Gav(group, f"t{t}lib{i}", "1"), draw(st.sampled_from(list(Scope))),
             draw(st.integers(max(0, i - 2), i - 1)))
            for i, group in enumerate(groups) if i]
        trees.append(DependencyTree(build_tree(preorder)))
        gavs += [gav for gav, _, _ in preorder]
    hit = draw(st.sets(st.sampled_from(gavs)))
    kb = [VulnerabilityRecord("V1", frozenset(hit))] if hit else []
    return SimulationPool(trees=trees, histories={}, kb=kb)


def _chain_pool(*groups: str) -> SimulationPool:
    """One pool tree: a chain of ``groups`` from the pool root down, every node vulnerable."""
    gavs = [Gav(group, f"lib{i}", "1") for i, group in enumerate(groups)]
    tree = DependencyTree(build_tree([(gav, Scope.COMPILE, i - 1) for i, gav in enumerate(gavs)]))
    return SimulationPool(trees=(tree,), histories={}, kb=[VulnerabilityRecord("V1", frozenset(gavs))])


@settings(max_examples=300, deadline=None)
@given(pool=_grouped_pools())
# each leaf shares a project with both ancestors, which share none with each
# other, or the other way round; and a string-prefix decoy between relatives
@example(pool=_chain_pool("org.a.c", "org.a", "org.a.b"))
@example(pool=_chain_pool("org.a.b", "org.a.c", "org.a"))
@example(pool=_chain_pool("com.alpha", "com.alphabet", "com.alpha.io"))
def test_pool_plan_flags_are_the_grouped_class_of_each_chain(pool):
    # a deployed vulnerable node is controlled exactly when grouping its
    # chain, up to its pool root and then a synthetic root, leaves it own or
    # direct; no other node is classified
    synthetic_root = Gav(SYNTHETIC_GROUP, "project", "1.0")
    # each pool library has one version, and the pool orders libraries by coordinates
    plans = [plan for (plan,) in pool.plans]
    for tree, plan in zip(sorted(pool.trees, key=lambda tree: tree.root.gav), plans):
        gavs, _, depths, flags = zip(*plan)
        expected, path = [], []
        for node, depth in tree.nodes():
            path[depth:] = (node,)
            if node.gav not in pool.kb.ids_by_gav:
                expected.append(0)
            elif not all(n.scope.deployed for n in path):
                expected.append(_VULNERABLE)
            else:
                grouped = reference_group_path((*(n.gav for n in reversed(path)), synthetic_root))
                controlled = classify_responsibility(grouped, synthetic_root) is not Responsibility.TRANSITIVE
                expected.append(_VULNERABLE | _DEPLOYED | _CONTROLLED * controlled)
        assert list(gavs) == [node.gav for node, _ in tree.nodes()]
        assert list(depths) == [depth for _, depth in tree.nodes()]
        assert list(flags) == expected


def test_pool_build_is_linear_on_a_deep_chain_of_vulnerable_projects():
    # a chain of distinct projects, every node in the KB: each node's class
    # is settled by its parent alone, so the build is linear in the depth
    tree = deep_chain_tree(4000)
    kb = VulnerabilityKb([VulnerabilityRecord("V1", frozenset(tree.gavs()))])
    start = perf_counter()
    pool = SimulationPool(trees=(tree,), histories={}, kb=kb)
    assert perf_counter() - start < 1.0
    ((plan,),) = pool.plans
    # only the pool root, which a project draws as a direct dependency, is controlled
    assert [flags for _, _, _, flags in plan] == \
        [_VULNERABLE | _DEPLOYED | _CONTROLLED] + [_VULNERABLE | _DEPLOYED] * 4000


def test_pool_build_makes_same_project_calls_linear_in_depth_on_one_project(same_project_budget):
    # a chain of one project, org.one alternating with org.one.sub, every
    # node in the KB: each node takes the solo of the node two levels up, in
    # its own group. Checking every pool ancestor for the node's project
    # makes about depth**2 / 2 calls
    for depth in (5_000, 10_000):
        tree = chain_tree(["org.one" if i % 2 else "org.one.sub" for i in range(depth + 1)])
        kb = VulnerabilityKb([VulnerabilityRecord("V1", frozenset(tree.gavs()))])
        same_project_budget(5 * depth)
        ((plan,),) = SimulationPool(trees=(tree,), histories={}, kb=kb).plans
        assert [flags for _, _, _, flags in plan] == [_VULNERABLE | _DEPLOYED | _CONTROLLED] * (depth + 1)


def test_pool_plans_share_one_library_key_per_library():
    # every row of one library, in every plan of the pool, carries the same
    # Ga object, equal to the row's gav.ga: a project's seen set and the
    # verdict table then match the pool's own keys by identity
    pool = build_synthetic_pool()
    keys: dict[Ga, Ga] = {}
    rows = 0
    for versions in pool.plans:
        for plan in versions:
            for gav, library, _, _ in plan:
                assert type(library) is Ga and library == gav.ga
                assert keys.setdefault(library, library) is library
                rows += 1
    assert rows > len(keys) == len({gav.ga for tree in pool.trees for gav in tree.gavs()})


def test_simulate_classifies_groups_and_builds_nothing_per_project(monkeypatch):
    # a project walks the plans its pool compiled: no plan is compiled, no
    # chain is grouped or classified, no census row is made and no node is
    # built for it
    pool = build_synthetic_pool()

    def forbidden(*args, **kwargs):
        raise AssertionError("simulate must not call this")

    for module in (simulate_module, analysis, report):
        for name in ("_plan", "same_project", "group_path", "classify_responsibility"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(DependencyNode, "__init__", forbidden)
    cfg = SimulationConfig(projects=20, deps_per_project=8, seed=42, time=ANALYSIS_TIME)
    outcomes = simulate(pool, cfg)
    assert sum(outcome.controlled_proposed for outcome in outcomes) > 0
    monkeypatch.undo()
    assert outcomes == simulate(pool, cfg)


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
        deployed = [r for r in result.census if r.vulnerable and r.deployed]
        assert outcome.controlled_proposed == sum(
            1 for r in deployed if r.responsibility is not Responsibility.TRANSITIVE
        )
        assert outcome.halted_vulnerable == sum(
            1 for r in deployed if r.library_status is LibraryStatus.HALTED
        )
    assert sum(o.controlled_proposed for o in outcomes) and sum(o.halted_vulnerable for o in outcomes)


def _loaded_synthetic_pool() -> SimulationPool:
    """The synthetic pool over loaded histories, as the CLI passes them."""
    plain = build_synthetic_pool()
    return SimulationPool(plain.trees, ReleaseHistories(plain.histories), plain.kb)


def test_outcomes_do_not_depend_on_the_order_of_calls():
    # the pool's histories keep their verdict tables from call to call
    cfgs = [SimulationConfig(projects=3, deps_per_project=8, seed=seed, time=ANALYSIS_TIME, lenient=lenient)
            for seed in range(12) for lenient in (False, True)]
    used = _loaded_synthetic_pool()
    first = [simulate(used, cfg) for cfg in cfgs]
    assert [time for time, _ in used.histories.verdicts] == [ANALYSIS_TIME]
    assert [simulate(used, cfg) for cfg in cfgs] == first
    fresh = _loaded_synthetic_pool()
    assert [simulate(fresh, cfg) for cfg in reversed(cfgs)] == first[::-1]


def test_pool_keeps_the_histories_it_is_given():
    # loaded histories keep a verdict table per date from call to call; a
    # plain dict is kept as it is and gets a fresh table per call
    plain = build_synthetic_pool()
    loaded = SimulationPool(plain.trees, ReleaseHistories(plain.histories), plain.kb)
    assert type(plain.histories) is dict
    cfgs = [SimulationConfig(projects=3, deps_per_project=8, seed=seed, time=time, lenient=True)
            for seed in range(4) for time in (ANALYSIS_TIME, date(2006, 6, 1), ANALYSIS_TIME)]
    assert [simulate(loaded, cfg) for cfg in cfgs] == [simulate(plain, cfg) for cfg in cfgs]
    assert sorted(time for time, _ in loaded.histories.verdicts) == [date(2006, 6, 1), ANALYSIS_TIME]


# --- simulate against a scan of each project tree --------------------------------

# same-project (org.a, org.a.sub) and string-prefix (org.ab) relatives
_GROUPS = ("org.a", "org.a.sub", "org.ab", "com.b", "com.b.x")
_LIBRARIES = tuple(Ga(group, artifact) for group in _GROUPS for artifact in ("x", "y"))
_VERSIONS = ("1", "2", "3")
_EDGE_SCOPES = (Scope.COMPILE, Scope.RUNTIME, Scope.TEST, Scope.PROVIDED)


@st.composite
def _pool_trees(draw):
    """Pool trees of distinct libraries, each node under a random earlier
    one; trees share libraries, and their roots are distinct instances."""
    trees, roots = [], set()
    for _ in range(draw(st.integers(1, 6))):
        libraries = draw(st.lists(st.sampled_from(_LIBRARIES), min_size=1, max_size=6, unique=True))
        gavs = [Gav(*ga, draw(st.sampled_from(_VERSIONS))) for ga in libraries]
        if gavs[0] in roots:
            continue
        roots.add(gavs[0])
        # a node comes after its parent, which is all build_tree needs
        preorder = [(gavs[0], Scope.COMPILE, -1)] + [
            (gav, draw(st.sampled_from(_EDGE_SCOPES)), draw(st.integers(0, i - 1)))
            for i, gav in enumerate(gavs) if i]
        trees.append(DependencyTree(build_tree(preorder)))
    return trees


@st.composite
def _history(draw, ga: Ga) -> ReleaseHistory | None:
    """No history, or one that lacks some versions, or a full one; stalled
    or recent."""
    kind = draw(st.sampled_from(["full", "full", "full", "partial", "missing"]))
    if kind == "missing":
        return None
    versions = _VERSIONS if kind == "full" else draw(
        st.lists(st.sampled_from(_VERSIONS), min_size=1, max_size=2, unique=True))
    start = draw(st.sampled_from([date(2017, 9, 1), date(2005, 1, 1)]))
    step = draw(st.integers(0, 120))
    return ReleaseHistory(ga, tuple(Release(v, start + timedelta(days=step * k))
                                    for k, v in enumerate(versions)))


@st.composite
def _pools(draw) -> SimulationPool:
    histories = {ga: history for ga in _LIBRARIES if (history := draw(_history(ga))) is not None}
    gavs = [Gav(*ga, version) for ga in _LIBRARIES for version in _VERSIONS]
    kb = draw(st.lists(st.builds(VulnerabilityRecord, st.sampled_from(["V1", "V2", "V3"]),
                                 st.frozensets(st.sampled_from(gavs), min_size=1, max_size=8)),
                       max_size=4))
    return SimulationPool(trees=draw(_pool_trees()), histories=histories, kb=kb)


def _scanned_outcomes(pool: SimulationPool, cfg: SimulationConfig) -> list[ProjectOutcome]:
    """``simulate``'s outcomes, each from a scan of its project tree, as
    aggregated cells."""
    outcomes = []
    for index in range(cfg.projects):
        tree = project_tree(pool, cfg, index)
        result = scan(tree, pool.kb, pool.histories, time=cfg.time, cfg=cfg.smoothing,
                      lenient=cfg.lenient, include_non_deployed=True)
        count = aggregate([result]).cells.__getitem__
        outcomes.append(ProjectOutcome(
            index=index,
            root=tree.root.gav,
            all_vulnerable=count("all/vuln/direct") + count("all/vuln/transitive"),
            deployed_vulnerable=count("deployed/vuln/direct") + count("deployed/vuln/transitive"),
            controlled_standard=count("all/vuln/direct"),
            controlled_proposed=count("grouped/vuln/own") + count("grouped/vuln/direct"),
            halted_vulnerable=count("lifecycle/vuln/halted"),
        ))
    return outcomes


def _outcomes_or_error(run, pool, cfg):
    try:
        return run(pool, cfg)
    except DepscopeError as exc:
        return type(exc), exc.args


@settings(max_examples=150, deadline=None)
@given(pool=_pools(), data=st.data())
def test_simulate_equals_a_scan_of_each_project_tree(pool, data):
    deps = data.draw(st.integers(1, len(pool_libraries(pool))))
    for seed in data.draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3)):
        # the pool's histories are a plain dict, so every run and reference
        # scan fills a fresh verdict table; the loaded-histories variant
        # below covers the tables that loaded histories keep
        for lenient in (True, False):
            cfg = SimulationConfig(projects=data.draw(st.integers(1, 4)), deps_per_project=deps, seed=seed,
                                   time=data.draw(st.sampled_from([ANALYSIS_TIME, date(2006, 6, 1)])),
                                   lenient=lenient)
            expected = _outcomes_or_error(_scanned_outcomes, pool, cfg)
            assert _outcomes_or_error(simulate, pool, cfg) == expected


@settings(max_examples=150, deadline=None)
@given(pool=_pools(), data=st.data())
def test_simulate_on_loaded_histories_equals_a_scan_of_each_project_tree(pool, data):
    # loaded histories, as the CLI passes them: one pool throughout, so runs
    # in both modes and at two dates, and the reference scans, share the
    # verdict tables it keeps, including the None kept for a missing history
    loaded = SimulationPool(pool.trees, ReleaseHistories(pool.histories), pool.kb)
    deps = data.draw(st.integers(1, len(pool_libraries(pool))))
    times = set()
    for seed in data.draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3)):
        for lenient in data.draw(st.permutations([True, False])):
            cfg = SimulationConfig(projects=data.draw(st.integers(1, 4)), deps_per_project=deps, seed=seed,
                                   time=data.draw(st.sampled_from([ANALYSIS_TIME, date(2006, 6, 1)])),
                                   lenient=lenient)
            times.add(cfg.time)
            expected = _outcomes_or_error(_scanned_outcomes, pool, cfg)
            assert _outcomes_or_error(_scanned_outcomes, loaded, cfg) == expected
            assert _outcomes_or_error(simulate, loaded, cfg) == expected
    assert {time for time, _ in loaded.histories.verdicts} == times


def _pool_with_an_unknown_version() -> tuple[SimulationPool, Gav, Gav]:
    """Pool trees ``org.a:first:1 -> org.s:shared:1``,
    ``org.b:second:1 -> org.s:shared:2`` and ``org.c:third:1 -> org.m:none:1``,
    where version 2 of the shared library has no release and the safe
    ``org.m:none`` no history: a project fails only when it keeps such a
    node, and at ``org.m:none`` only in strict mode."""
    from conftest import alive_history

    shared, unknown = Gav("org.s", "shared", "1"), Gav("org.s", "shared", "2")
    no_history = Gav("org.m", "none", "1")
    trees = tuple(
        DependencyTree(DependencyNode(root, Scope.COMPILE, (DependencyNode(child, Scope.COMPILE),)))
        for root, child in ((Gav("org.a", "first", "1"), shared), (Gav("org.b", "second", "1"), unknown),
                            (Gav("org.c", "third", "1"), no_history))
    )
    histories = {gav.ga: alive_history(gav) for gav in (*(tree.root.gav for tree in trees), shared)}
    kb = (VulnerabilityRecord("V1", frozenset({shared})),)
    return SimulationPool(trees=trees, histories=histories, kb=kb), unknown, no_history


def _seed_drawing(pool: SimulationPool, artifacts: tuple[str, str], lenient: bool) -> SimulationConfig:
    cfg = SimulationConfig(projects=1, deps_per_project=2, time=ANALYSIS_TIME, lenient=lenient)
    return next(c for c in (replace(cfg, seed=seed) for seed in range(100))
                if tuple(child.gav.artifact_id for child in project_tree(pool, c, 0).root.children) == artifacts)


@pytest.mark.parametrize("lenient", [False, True])
def test_simulate_succeeds_when_mediation_drops_the_unknown_version(lenient):
    pool, _, _ = _pool_with_an_unknown_version()
    cfg = _seed_drawing(pool, ("first", "second"), lenient)
    with pytest.raises(UnknownVersion):  # the second pick on its own
        scan(DependencyTree(pool_libraries(pool)[1][0]), pool.kb, pool.histories, time=ANALYSIS_TIME)
    (outcome,) = simulate(pool, cfg)
    assert [outcome] == _scanned_outcomes(pool, cfg)
    assert (outcome.all_vulnerable, outcome.controlled_standard, outcome.controlled_proposed) == (1, 0, 0)


@pytest.mark.parametrize("lenient", [False, True])
def test_simulate_raises_when_the_unknown_version_is_kept(lenient):
    pool, unknown, no_history = _pool_with_an_unknown_version()
    with pytest.raises(UnknownVersion) as raised:
        simulate(pool, _seed_drawing(pool, ("second", "first"), lenient))
    assert raised.value.args == UnknownVersion(unknown).args
    # a kept safe node with no history gets no row, but is looked up first
    cfg = _seed_drawing(pool, ("third", "first"), lenient)
    if lenient:
        assert simulate(pool, cfg) == _scanned_outcomes(pool, cfg)
    else:
        with pytest.raises(MissingHistory) as raised:
            simulate(pool, cfg)
        assert raised.value.args == MissingHistory(no_history.ga).args


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


def test_pool_names_the_first_reserved_library_its_build_meets():
    # trees in the order given, each in preorder: sim.depscope:z comes before
    # sim:y and sim:x, though the pool's libraries sort the other way
    trees = (
        DependencyTree(DependencyNode(Gav("org.a", "b", "1.0"), Scope.COMPILE, (
            DependencyNode(Gav("sim.depscope", "z", "1.0"), Scope.TEST),
            DependencyNode(Gav("sim", "y", "1.0"), Scope.COMPILE)))),
        DependencyTree(DependencyNode(Gav("sim", "x", "1.0"), Scope.COMPILE)),
    )
    with pytest.raises(ReservedGroup, match=r"pool library sim\.depscope:z shares a project"):
        SimulationPool(trees=trees, histories={}, kb=())


@pytest.mark.parametrize("group", ["simx", "sim.depscopex", "org.sim.depscope"])
def test_pool_accepts_string_prefix_decoys_of_the_synthetic_group(group):
    pool = _pool_with_library_in(group)
    cfg = SimulationConfig(projects=1, deps_per_project=2, seed=0, time=ANALYSIS_TIME)
    (outcome,) = simulate(pool, cfg)
    assert (outcome.controlled_standard, outcome.controlled_proposed) == (0, 0)
