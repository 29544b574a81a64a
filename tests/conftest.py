"""Shared fixtures: the worked-example tree, release histories, a halted-direct
fixture, a random tree generator for oracle tests, a synthetic simulation
pool, a JSON mutator for parser fuzzing, Hypothesis strategies for trees
and scan results, the reference JSON object of a scan result, frozen
field-by-field reference decoders of saved results and of the KB, the
frozen row-by-row history loader, the frozen checked tree parsers, the frozen pairwise grouping loop, the frozen
aggregate fold, census rows with their chains, the frozen stepwise census walk with its
classification of a row from the distinct group ids above it, chains of given group ids, a
``same_project`` call budget and the replay of a simulated project's tree over the pool's own
version index, and a warm-up of Hypothesis's character tables at session start."""

from __future__ import annotations

import csv
import io
import json
import random
import sys
from dataclasses import fields
from datetime import date, timedelta

import pytest
from hypothesis import strategies as st

from depscope.analysis import classify_responsibility
from depscope.errors import (
    DuplicateGa,
    DuplicateVersion,
    EmptyAffectedSet,
    EmptyInput,
    EmptyPool,
    InsufficientLibraries,
    MalformedRow,
    MalformedTreeLine,
    MissingHistory,
    SchemaViolation,
)
from depscope.ingest import json_object, json_typed, parse_date_at, parse_gav_at, parse_json
from depscope.model import (
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    InstanceStatus,
    LibraryStatus,
    Release,
    ReleaseHistories,
    ReleaseHistory,
    Responsibility,
    Scope,
    VulnerabilityKb,
    VulnerabilityRecord,
    VulnerablePath,
    prune,
    same_project,
)
from depscope.report import CELL_KEYS, AggregateReport, CensusRow, ScanResult, scan
from depscope.simulate import SYNTHETIC_GROUP, SimulationPool, _sub_rng

ANALYSIS_TIME = date(2018, 6, 1)


def pytest_sessionstart(session):
    # Hypothesis builds its character tables when it first validates a text
    # strategy, which takes over a second without a .hypothesis/ cache; paid
    # inside a test's first draw, that counts as input generation and can
    # fail the too_slow health check of whichever test draws text first
    st.text().validate()


# Seven-node tree: the root and an own library share a project, one direct
# dependency brings a transitive one, another direct dependency brings two
# levels of its own project plus a third-party leaf.
SAMPLE_TREE_TEXT = """\
com.acme:app-core:jar:1.0
+- com.acme:app-util:jar:1.0:compile
+- org.webkit:http-client:jar:2.3:compile
|  \\- org.tinyio:io-buffers:jar:0.9:compile
\\- org.dataflow:stream-core:jar:5.1:compile
   \\- org.dataflow:stream-codec:jar:5.1:compile
      \\- org.ziplib:compress:jar:1.4:compile
"""

SAMPLE_TREE_JSON = json.dumps(
    {
        "root": {
            "gav": "com.acme:app-core:1.0",
            "scope": "compile",
            "children": [
                {"gav": "com.acme:app-util:1.0", "scope": "compile", "children": []},
                {
                    "gav": "org.webkit:http-client:2.3",
                    "scope": "compile",
                    "children": [
                        {"gav": "org.tinyio:io-buffers:0.9", "scope": "compile", "children": []}
                    ],
                },
                {
                    "gav": "org.dataflow:stream-core:5.1",
                    "scope": "compile",
                    "children": [
                        {
                            "gav": "org.dataflow:stream-codec:5.1",
                            "scope": "compile",
                            "children": [
                                {
                                    "gav": "org.ziplib:compress:1.4",
                                    "scope": "compile",
                                    "children": [],
                                }
                            ],
                        }
                    ],
                },
            ],
        }
    }
)

SAMPLE_KB_JSON = json.dumps(
    [
        {
            "id": "VULN-0001",
            "affected": [
                {"group": "org.webkit", "artifact": "http-client", "versions": ["2.3"]}
            ],
        },
        {
            "id": "VULN-0002",
            "affected": [
                {"group": "org.ziplib", "artifact": "compress", "versions": ["1.4"]}
            ],
        },
    ]
)

SAMPLE_GAVS = [
    Gav("com.acme", "app-core", "1.0"),
    Gav("com.acme", "app-util", "1.0"),
    Gav("org.webkit", "http-client", "2.3"),
    Gav("org.tinyio", "io-buffers", "0.9"),
    Gav("org.dataflow", "stream-core", "5.1"),
    Gav("org.dataflow", "stream-codec", "5.1"),
    Gav("org.ziplib", "compress", "1.4"),
]


def alive_history(gav: Gav, last: date = date(2018, 5, 20)) -> ReleaseHistory:
    """Monthly cadence ending in ``gav.version``; alive at ANALYSIS_TIME. The
    three earlier versions are fillers other than ``gav.version``."""
    dates = [last - timedelta(days=d) for d in (89, 61, 30, 0)]
    versions = [v for v in ("0.1", "0.2", "0.3", "0.4") if v != gav.version][:3] + [gav.version]
    return ReleaseHistory(gav.ga, tuple(Release(v, d) for v, d in zip(versions, dates)))


def history_csv(histories) -> str:
    lines = ["group_id,artifact_id,version,release_date"]
    for history in histories:
        for release in history.releases:
            lines.append(
                f"{history.library.group_id},{history.library.artifact_id},"
                f"{release.version},{release.released.isoformat()}"
            )
    return "\n".join(lines) + "\n"


@pytest.fixture
def sample_tree():
    from depscope.ingest import parse_tree_text

    return parse_tree_text(SAMPLE_TREE_TEXT)


@pytest.fixture
def sample_kb():
    from depscope.ingest import load_vuln_kb

    return load_vuln_kb(SAMPLE_KB_JSON)


@pytest.fixture
def sample_histories():
    return {gav.ga: alive_history(gav) for gav in SAMPLE_GAVS}


def stalled_history(ga: Ga, versions=("1.0", "2.0", "3.0")) -> ReleaseHistory:
    """Annual cadence that stopped in 2007; halted long before ANALYSIS_TIME."""
    dates = [date(2005, 11, 26), date(2006, 11, 26), date(2007, 11, 26)]
    return ReleaseHistory(ga, tuple(Release(v, d) for v, d in zip(versions, dates)))


def halted_direct_tree() -> DependencyTree:
    """Root with one halted direct dependency carrying a subtree, and one
    alive direct dependency carrying a subtree."""
    return DependencyTree(
        DependencyNode(
            Gav("com.acme", "app-core", "1.0"),
            Scope.COMPILE,
            (
                DependencyNode(
                    Gav("org.legacy", "old-parser", "3.0"),
                    Scope.COMPILE,
                    (
                        DependencyNode(
                            Gav("org.tinyio", "io-buffers", "0.9"),
                            Scope.COMPILE,
                            (DependencyNode(Gav("org.tinyio2", "io-extras", "0.2"), Scope.COMPILE),),
                        ),
                    ),
                ),
                DependencyNode(
                    Gav("org.fresh", "web-core", "7.1"),
                    Scope.COMPILE,
                    (DependencyNode(Gav("org.fresh2", "web-util", "7.1"), Scope.COMPILE),),
                ),
            ),
        )
    )


@pytest.fixture
def halted_fixture():
    tree = halted_direct_tree()
    histories = {gav.ga: alive_history(gav) for gav in tree.gavs()}
    legacy = Ga("org.legacy", "old-parser")
    histories[legacy] = stalled_history(legacy, versions=("1.0", "2.0", "3.0"))
    return tree, histories


# --- random tree cases for oracle tests ---------------------------------------

GROUP_POOL = [
    "com.alpha",
    "com.alpha.io",
    "com.alpha.io.ext",
    "com.beta",
    "com.beta.core",
    "org.gamma",
    "org.delta",
]
VULN_ID_POOL = ["VX-1", "VX-2", "VX-3"]
_ALL_SCOPES = list(Scope)


def random_tree_case(rng: random.Random):
    """A random tree of up to 12 nodes with random scopes, projects and
    vulnerability marks, plus the matching knowledge base."""
    n = rng.randint(1, 12)
    gavs = [Gav(rng.choice(GROUP_POOL), f"lib{i}", str(rng.randint(1, 3))) for i in range(n)]
    scopes = [Scope.COMPILE] + [rng.choice(_ALL_SCOPES) for _ in range(n - 1)]
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        children[rng.randrange(i)].append(i)

    def freeze(i: int) -> DependencyNode:
        return DependencyNode(gavs[i], scopes[i], tuple(freeze(k) for k in children[i]))

    tree = DependencyTree(freeze(0))
    affected: dict[str, set[Gav]] = {}
    for gav in gavs:
        if rng.random() < 0.35:
            for vuln_id in rng.sample(VULN_ID_POOL, rng.randint(1, 2)):
                affected.setdefault(vuln_id, set()).add(gav)
    kb = [VulnerabilityRecord(vid, frozenset(g)) for vid, g in sorted(affected.items())]
    return tree, kb


def deep_chain_tree(depth: int, leaf_scope: Scope = Scope.COMPILE) -> DependencyTree:
    """A root over a chain of ``depth`` dependencies, each its own project
    (group ``org.deep<i>``), built without recursion."""
    node = DependencyNode(Gav(f"org.deep{depth}", f"lib{depth}", "1.0"), leaf_scope)
    for i in range(depth - 1, 0, -1):
        node = DependencyNode(Gav(f"org.deep{i}", f"lib{i}", "1.0"), Scope.COMPILE, (node,))
    return DependencyTree(DependencyNode(Gav("com.app", "app", "1.0"), Scope.COMPILE, (node,)))


def chain_tree(groups) -> DependencyTree:
    """A chain with one node per group id, root first, built without recursion."""
    node = None
    for i in reversed(range(len(groups))):
        node = DependencyNode(Gav(groups[i], f"lib{i}", "1.0"), Scope.COMPILE, (node,) if node else ())
    return DependencyTree(node)


@pytest.fixture
def same_project_budget(monkeypatch):
    """Counts ``same_project`` calls from every depscope module; a call past
    ``budget[0]`` fails at once, so a quadratic walk fails fast."""
    budget, calls = [0], [0]

    def counted(a, b):
        calls[0] += 1
        if calls[0] > budget[0]:
            raise AssertionError(f"more than {budget[0]} same_project calls")
        return same_project(a, b)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "depscope"]:
        if hasattr(module, "same_project"):
            monkeypatch.setattr(module, "same_project", counted)

    def set_budget(limit):
        budget[0], calls[0] = limit, 0

    return set_budget


# --- synthetic simulation pool -------------------------------------------------


def build_synthetic_pool(n_libraries: int = 50, seed: int = 987654) -> SimulationPool:
    """A deterministic pool: shared project groups, mixed scopes, a blend of
    halted and alive cadences, and a sprinkling of vulnerable instances."""
    rng = random.Random(seed)
    libraries: list[tuple[Ga, list[str]]] = []
    for i in range(n_libraries):
        ga = Ga(f"org.pool{i % 11}", f"art{i}")
        versions = [f"{v}.0" for v in range(1, rng.randint(2, 4) + 1)]
        libraries.append((ga, versions))

    histories = {}
    for ga, versions in libraries:
        if rng.random() < 0.3:  # long-stalled cadence
            last = date(2008, 3, 1)
            step = 120
        else:  # recent cadence, alive at ANALYSIS_TIME
            last = date(2018, 5, 15)
            step = 40
        dates = [last - timedelta(days=step * k) for k in range(len(versions) - 1, -1, -1)]
        histories[ga] = ReleaseHistory(ga, tuple(Release(v, d) for v, d in zip(versions, dates)))

    scope_choices = [Scope.COMPILE, Scope.COMPILE, Scope.RUNTIME, Scope.TEST, Scope.PROVIDED]
    trees = []
    for index, (ga, versions) in enumerate(libraries):
        for version in versions:
            used = {index}
            children = []
            for _ in range(rng.randint(0, 3)):
                j = rng.choice([x for x in range(n_libraries) if x not in used])
                used.add(j)
                child_ga, child_versions = libraries[j]
                grand = ()
                if rng.random() < 0.4:
                    k = rng.choice([x for x in range(n_libraries) if x not in used])
                    used.add(k)
                    grand_ga, grand_versions = libraries[k]
                    grand = (
                        DependencyNode(
                            Gav(grand_ga.group_id, grand_ga.artifact_id, grand_versions[0]),
                            rng.choice(scope_choices),
                        ),
                    )
                children.append(
                    DependencyNode(
                        Gav(child_ga.group_id, child_ga.artifact_id, child_versions[0]),
                        rng.choice(scope_choices),
                        grand,
                    )
                )
            root = DependencyNode(
                Gav(ga.group_id, ga.artifact_id, version), Scope.COMPILE, tuple(children)
            )
            trees.append(DependencyTree(root))

    affected: dict[str, set[Gav]] = {}
    vuln_counter = 0
    for ga, versions in libraries:
        for version in versions:
            if rng.random() < 0.25:
                vuln_counter += 1
                vuln_id = f"VP-{vuln_counter:03d}"
                affected.setdefault(vuln_id, set()).add(
                    Gav(ga.group_id, ga.artifact_id, version)
                )
    kb = tuple(
        VulnerabilityRecord(vid, frozenset(gavs)) for vid, gavs in sorted(affected.items())
    )
    return SimulationPool(trees=tuple(trees), histories=histories, kb=kb)


# --- mutated JSON documents for parser fuzzing -----------------------------------

WRONG_JSON_VALUES = [None, 0, -1, 1.5, True, "", "x", ":", "g:a", "g:a:v", [], {}, [1], {"k": 1}]


def _json_locations(node, here=()):
    """Every position inside a JSON value, as its key path."""
    yield here
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _json_locations(child, here + (key,))


def mutate_json(doc, data) -> None:
    """Apply one mutation, drawn with Hypothesis ``data``, at one position
    inside the JSON value ``doc``: drop the value, give it a wrong type,
    empty it, or add an unknown key to the object holding it."""
    where = data.draw(st.sampled_from(list(_json_locations(doc))[1:]))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    key = where[-1]
    mutation = data.draw(st.sampled_from(["drop", "wrong type", "empty", "extra key"]))
    if mutation == "drop":
        del parent[key]
    elif mutation == "wrong type":
        parent[key] = data.draw(st.sampled_from(WRONG_JSON_VALUES))
    elif mutation == "extra key" and isinstance(parent, dict):
        parent[data.draw(st.text(max_size=5))] = 1
    elif isinstance(parent[key], (list, dict)):
        parent[key].clear()
    else:
        parent[key] = ""


def every_single_change(doc):
    """``doc`` as text with one change at each position: the value dropped,
    replaced by each of ``WRONG_JSON_VALUES``, or, for an object, given an
    unknown key."""
    for where in list(_json_locations(doc))[1:]:
        for change in ("drop", "extra key", *range(len(WRONG_JSON_VALUES))):
            changed = json.loads(json.dumps(doc))
            parent = changed
            for key in where[:-1]:
                parent = parent[key]
            if change == "drop":
                del parent[where[-1]]
            elif change == "extra key":
                if not isinstance(parent[where[-1]], dict):
                    continue
                parent[where[-1]]["extra"] = 1
            else:
                parent[where[-1]] = WRONG_JSON_VALUES[change]
            yield json.dumps(changed)


# --- Hypothesis strategies for trees and scan results ------------------------------

# any text but lone surrogates, which the JSON parsers reject; coordinate
# segments add only the model's own rule, no ':'
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
SEGMENTS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=":"),
                   min_size=1, max_size=4)
GAVS = st.builds(Gav, SEGMENTS, SEGMENTS, SEGMENTS)


@st.composite
def trees(draw, max_nodes: int = 15) -> DependencyTree:
    """A tree of distinct libraries, each node under a random earlier one,
    with random scopes below the root and an optional analysis time."""
    gavs = draw(st.lists(GAVS, min_size=1, max_size=max_nodes, unique_by=lambda gav: gav.ga))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, len(gavs))]
    scopes = [Scope.COMPILE] + draw(st.lists(st.sampled_from(Scope), min_size=len(parents),
                                             max_size=len(parents)))
    children: list[list[DependencyNode]] = [[] for _ in gavs]
    for i in reversed(range(len(gavs))):  # every child index exceeds its parent's
        node = DependencyNode(gavs[i], scopes[i], tuple(reversed(children[i])))
        if i:
            children[parents[i - 1]].append(node)
    return DependencyTree(node, draw(st.none() | st.dates()))


# org.a shares a project with org.a.b and with org.a.c, which share none
NON_TRANSITIVE = ["org.a", "org.a.b", "org.a.c"]


@st.composite
def grouped_trees(draw):
    """A tree and a KB that marks some of its nodes. The groups come from a
    few of the pool's, so groups repeat on a chain and non-transitive
    relatives meet."""
    pool = draw(st.lists(st.sampled_from(GROUP_POOL + NON_TRANSITIVE), min_size=1, max_size=5,
                         unique=True))
    n = draw(st.integers(1, 20))
    groups = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    scopes = [Scope.COMPILE] + draw(st.lists(st.sampled_from(list(Scope)), min_size=n - 1,
                                             max_size=n - 1))
    # parents near the node, so chains run deep
    parents = [draw(st.integers(max(0, i - 2), i - 1)) for i in range(1, n)]
    children: list[list[DependencyNode]] = [[] for _ in range(n)]
    for i in reversed(range(n)):
        node = DependencyNode(Gav(groups[i], f"lib{i}", "1.0"), scopes[i], children[i][::-1])
        if i:
            children[parents[i - 1]].append(node)
    vulnerable = draw(st.sets(st.integers(0, n - 1)))
    kb = [VulnerabilityRecord("V1", frozenset(Gav(groups[i], f"lib{i}", "1.0") for i in vulnerable))
          ] if vulnerable else []
    return DependencyTree(node), kb


_CENSUS_ROWS = st.builds(
    CensusRow,
    gav=GAVS,
    depth=st.integers(1, 40),
    deployed=st.booleans(),
    vuln_ids=st.lists(TEXT, max_size=3).map(tuple),
    responsibility=st.sampled_from(Responsibility),
    library_status=st.sampled_from(LibraryStatus),
    instance_status=st.sampled_from(InstanceStatus),
    via_halted=st.booleans(),
    unknown_history=st.booleans(),
)
_PATHS = st.builds(
    lambda raw, grouped_tail, **fields: VulnerablePath(raw, raw[:1] + grouped_tail, **fields),
    st.lists(GAVS, min_size=1, max_size=4).map(tuple),
    st.lists(GAVS, max_size=3).map(tuple),
    vuln_id=TEXT,
    responsibility=st.sampled_from(Responsibility),
    via_halted=st.booleans(),
)
SCAN_RESULTS = st.builds(
    ScanResult,
    root=GAVS,
    analysis_time=st.dates(),
    include_non_deployed=st.booleans(),
    paths=st.lists(_PATHS, max_size=3).map(tuple),
    census=st.lists(_CENSUS_ROWS, max_size=5).map(tuple),
)


def result_to_dict(result: ScanResult) -> dict:
    """The JSON object of a scan result, the reference for what ``render``
    writes: ``json_text(result_to_dict(r)) == render(r, "json")``."""
    return {
        "analysis_time": result.analysis_time.isoformat(),
        "census": [
            {
                "gav": str(row.gav),
                "depth": row.depth,
                "direct": row.direct,
                "deployed": row.deployed,
                "vuln_ids": list(row.vuln_ids),
                "own": row.own,
                "responsibility": row.responsibility.value,
                "library_status": row.library_status.value,
                "instance_status": row.instance_status.value,
                "via_halted": row.via_halted,
                "unknown_history": row.unknown_history,
            }
            for row in result.census
        ],
        "include_non_deployed": result.include_non_deployed,
        "paths": [
            {
                "vuln_id": path.vuln_id,
                "raw_path": [str(g) for g in path.raw_path],
                "grouped_path": [str(g) for g in path.grouped_path],
                "responsibility": path.responsibility.value,
                "via_halted": path.via_halted,
            }
            for path in result.paths
        ],
        "root": str(result.root),
    }


# --- frozen reference decoders ----------------------------------------------------
#
# The field-by-field decoders that read saved results and KB entries before
# each entry kind's shape became one table. They build every value and name
# the first fault they meet; the decoders under test must give the same value
# or the same error for every document.

_RESULT_KEYS = frozenset(f.name for f in fields(ScanResult))
_PATH_KEYS = frozenset(f.name for f in fields(VulnerablePath))
_ROW_KEYS = frozenset(CensusRow._fields + ("direct", "own"))
_MEMBERS = {cls: {m.value: m for m in cls} for cls in (Responsibility, LibraryStatus, InstanceStatus)}


def _enum_field(enum_cls, obj: dict, key: str, pointer: str):
    try:
        return _MEMBERS[enum_cls][obj[key]]
    except (KeyError, TypeError):  # not a member's value, or unhashable
        raise SchemaViolation(f"{pointer}/{key}", f"invalid value {obj[key]!r}") from None


def _gavs(obj: dict, key: str, pointer: str) -> tuple[Gav, ...]:
    return tuple(parse_gav_at(text, f"{pointer}/{key}/{i}")
                 for i, text in enumerate(json_typed(obj, key, list, pointer)))


def _path_from_dict(entry, p: str) -> VulnerablePath:
    json_object(entry, p, _PATH_KEYS)
    try:
        return VulnerablePath(
            raw_path=_gavs(entry, "raw_path", p),
            grouped_path=_gavs(entry, "grouped_path", p),
            vuln_id=json_typed(entry, "vuln_id", str, p),
            responsibility=_enum_field(Responsibility, entry, "responsibility", p),
            via_halted=json_typed(entry, "via_halted", bool, p),
        )
    except ValueError as exc:  # an empty path, or grouping that lost the instance
        raise SchemaViolation(p, str(exc)) from None


def _row_from_dict(entry, p: str) -> CensusRow:
    json_object(entry, p, _ROW_KEYS)
    vuln_ids = tuple(json_typed(entry, "vuln_ids", list, p))
    if not all(type(vuln_id) is str for vuln_id in vuln_ids):
        raise SchemaViolation(f"{p}/vuln_ids", "must be an array of strings")
    own = json_typed(entry, "own", bool, p)
    direct = json_typed(entry, "direct", bool, p)
    row = CensusRow(
        gav=parse_gav_at(entry["gav"], f"{p}/gav"),
        depth=json_typed(entry, "depth", int, p),
        deployed=json_typed(entry, "deployed", bool, p),
        vuln_ids=vuln_ids,
        responsibility=_enum_field(Responsibility, entry, "responsibility", p),
        library_status=_enum_field(LibraryStatus, entry, "library_status", p),
        instance_status=_enum_field(InstanceStatus, entry, "instance_status", p),
        via_halted=json_typed(entry, "via_halted", bool, p),
        unknown_history=json_typed(entry, "unknown_history", bool, p),
    )
    # a row is a dependency, so below the root; own and direct are derived
    if row.depth < 1:
        raise SchemaViolation(f"{p}/depth", f"{row.depth} is not a dependency's depth")
    if direct is not row.direct:
        raise SchemaViolation(f"{p}/direct", f"{direct} disagrees with depth {row.depth}")
    if own is not row.own:
        raise SchemaViolation(f"{p}/own", f"{own} disagrees with responsibility {row.responsibility.value!r}")
    return row


def _result_from_dict(data, pointer: str) -> ScanResult:
    json_object(data, pointer, _RESULT_KEYS)
    paths = json_typed(data, "paths", list, pointer)
    census = json_typed(data, "census", list, pointer)
    return ScanResult(
        root=parse_gav_at(data["root"], f"{pointer}/root"),
        analysis_time=parse_date_at(data["analysis_time"], f"{pointer}/analysis_time"),
        include_non_deployed=json_typed(data, "include_non_deployed", bool, pointer),
        paths=tuple(_path_from_dict(e, f"{pointer}/paths/{i}") for i, e in enumerate(paths)),
        census=tuple(_row_from_dict(e, f"{pointer}/census/{i}") for i, e in enumerate(census)),
    )


def reference_parse_scan_results_json(doc: str) -> list[ScanResult]:
    """``parse_scan_results_json`` as the frozen reference decodes a document."""
    data = parse_json(doc)
    if isinstance(data, list):
        return [_result_from_dict(entry, f"/{i}") for i, entry in enumerate(data)]
    return [_result_from_dict(data, "")]


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


def reference_load_vuln_kb(doc: str) -> VulnerabilityKb:
    """``load_vuln_kb`` as the frozen reference decodes a document."""
    data = parse_json(doc)
    if not isinstance(data, list):
        raise SchemaViolation("", "document root must be an array")
    return VulnerabilityKb(_record_from_dict(entry, f"/{i}") for i, entry in enumerate(data))


# --- frozen reference history loader -------------------------------------------------
#
# The history loader as it was before each row got a straight pass: it checks
# every row field by field, builds a Gav per row, and builds each release and
# history through its constructor.


def reference_load_release_history(doc: str) -> ReleaseHistories:
    """``load_release_history`` as the frozen row-by-row loader reads a document."""
    reader = csv.reader(io.StringIO(doc))
    rows: dict[Ga, dict[str, Release]] = {}
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedRow(1, "missing header")
        if header != ["group_id", "artifact_id", "version", "release_date"]:
            raise MalformedRow(1, f"bad header {header!r}")
        for row in reader:
            line_no = reader.line_num
            if len(row) != 4:
                raise MalformedRow(line_no, f"expected 4 fields, got {len(row)}")
            group, artifact, version, date_text = row
            try:
                gav = Gav(group, artifact, version)
            except ValueError as exc:
                raise MalformedRow(line_no, str(exc)) from None
            try:
                released = parse_date_at(date_text, "")
            except SchemaViolation:
                raise MalformedRow(line_no, f"bad date {date_text!r}") from None
            releases = rows.setdefault(gav.ga, {})
            if version in releases:
                raise DuplicateVersion(gav.ga, version, line_no)
            releases[version] = Release(version, released)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None
    return ReleaseHistories(
        (ga, ReleaseHistory(ga, tuple(sorted(releases.values(), key=lambda r: r.released))))
        for ga, releases in rows.items()
    )


# --- frozen reference grouping ----------------------------------------------------


def reference_group_path(raw_path):
    """``group_path`` as a loop comparing each member with every project kept
    so far: the same members in the same order, in time quadratic in the
    projects a chain crosses."""
    kept: dict[str, Gav] = {}  # the members kept so far, by group id
    for gav in raw_path:
        group = gav.group_id
        for anchor in kept:
            if same_project(anchor, group):
                break
        else:
            kept[group] = gav
    return list(kept.values())


# --- frozen reference tree parsers --------------------------------------------------
#
# The checked tree parsers as they were before each line and node got a
# straight pass: they check every field as they go and name the first fault
# in document order. The parsers under test must give an equal tree, or the
# same error with the same line or pointer, for every document.

_INDENT_UNITS = ("+- ", "\\- ", "|  ", "   ")
_BRANCH_UNITS = ("+- ", "\\- ")
_SCOPES = {s.value: s for s in Scope}


def _reference_tree(preorder, analysis_time=None) -> DependencyTree:
    """The tree of ``(gav, scope, parent)`` entries in preorder, each node
    built through its constructor."""
    children: list[list[DependencyNode]] = [[] for _ in preorder]
    for i in reversed(range(len(preorder))):
        gav, scope, parent = preorder[i]
        node = DependencyNode(gav, scope, tuple(reversed(children[i])))
        if parent >= 0:
            children[parent].append(node)
    return DependencyTree(node, analysis_time)


def _reference_coordinate(text: str, line_no: int, is_root: bool):
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
        return Gav(segments[0], segments[1], segments[3]), _SCOPES.get(segments[4], Scope.UNKNOWN)
    raise MalformedTreeLine(line_no, f"wrong segment count in {text!r}")


def reference_parse_tree_text(text: str) -> DependencyTree:
    """``parse_tree_text`` as the frozen checked loop reads a document: lines
    end only at LF, CRLF and CR."""
    preorder = []
    ancestors: list[int] = []
    seen = set()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, line in enumerate(lines, start=1):
        if line.startswith("[INFO] "):
            line = line[len("[INFO] "):]
        elif line.strip() == "[INFO]":
            line = ""
        line = line.rstrip()
        if not line:
            continue
        pos = 0
        while line[pos : pos + 3] in _INDENT_UNITS:
            pos += 3
        depth = pos // 3
        if depth and line[pos - 3 : pos] not in _BRANCH_UNITS:
            raise MalformedTreeLine(line_no, "indentation does not end with a branch marker")
        if not preorder and depth:
            raise MalformedTreeLine(line_no, "first content line must be the unindented root")
        if preorder and not depth:
            raise MalformedTreeLine(line_no, "second root line")
        gav, scope = _reference_coordinate(line[pos:], line_no, is_root=not preorder)
        if gav.ga in seen:
            raise DuplicateGa(gav.ga, line_no)
        seen.add(gav.ga)
        del ancestors[depth:]
        if len(ancestors) != depth:
            raise MalformedTreeLine(line_no, f"no parent at depth {depth - 1}")
        ancestors.append(len(preorder))
        preorder.append((gav, scope, ancestors[-2] if depth else -1))
    if not preorder:
        raise EmptyInput()
    return _reference_tree(preorder)


_TREE_KEYS = frozenset({"root"})
_NODE_KEYS = frozenset({"gav", "scope", "children"})


def reference_parse_tree_json(doc: str) -> DependencyTree:
    """``parse_tree_json`` as the frozen checked loop reads a document."""
    data = json_object(parse_json(doc), "", _TREE_KEYS, frozenset({"analysis_time"}))
    analysis_time = None
    if "analysis_time" in data:
        analysis_time = parse_date_at(data["analysis_time"], "/analysis_time")
    preorder = []
    seen = set()
    stack = [(data["root"], "/root", -1)]
    while stack:
        obj, pointer, parent = stack.pop()
        json_object(obj, pointer, _NODE_KEYS)
        gav = parse_gav_at(obj["gav"], f"{pointer}/gav")
        if gav.ga in seen:
            raise SchemaViolation(f"{pointer}/gav", f"duplicate library {gav.ga}")
        seen.add(gav.ga)
        scope_text = obj["scope"]
        if not isinstance(scope_text, str) or scope_text not in _SCOPES:
            raise SchemaViolation(f"{pointer}/scope", f"not a valid scope: {scope_text!r}")
        children = json_typed(obj, "children", list, pointer)
        for i in reversed(range(len(children))):
            stack.append((children[i], f"{pointer}/children/{i}", len(preorder)))
        preorder.append((gav, _SCOPES[scope_text], parent))
    if preorder[0][1] is not Scope.COMPILE:
        raise SchemaViolation("/root/scope", "root scope must be compile")
    return _reference_tree(preorder, analysis_time)


# --- frozen reference aggregate fold ------------------------------------------------


def _reference_bucket(row: CensusRow) -> str:
    if row.library_status is LibraryStatus.HALTED:
        return "halted"
    if row.instance_status is InstanceStatus.OUTDATED:
        return "outdated"
    return "up_to_date"


def reference_aggregate(results) -> AggregateReport:
    """``aggregate`` as a fold that spells each cell key from a row's
    properties and enum values."""
    counts = {key: 0 for key in CELL_KEYS}
    for result in results:
        counts["trees"] += 1
        if result.include_non_deployed:
            counts["trees_include_non_deployed"] += 1
        for row in result.census:
            vuln = "vuln" if row.vulnerable else "safe"
            position = "direct" if row.direct else "transitive"
            counts[f"all/{vuln}/{position}"] += 1
            if row.unknown_history:
                counts["unknown_history"] += 1
            if not row.deployed:
                continue
            counts[f"deployed/{vuln}/{position}"] += 1
            counts[f"grouped/{vuln}/{row.responsibility.value}"] += 1
            bucket = _reference_bucket(row)
            counts[f"lifecycle/{vuln}/{bucket}"] += 1
            if row.via_halted:
                counts[f"via_halted/{vuln}/{bucket}"] += 1
        for path in result.paths:
            counts[f"paths/grouped/{path.responsibility.value}"] += 1
            ungrouped = classify_responsibility(path.raw_path, result.root)
            counts[f"paths/ungrouped/{ungrouped.value}"] += 1
    return AggregateReport(counts)


# --- the census walk and its frozen stepwise reference --------------------------------


def row_chains(root: Gav, rows):
    """Each census row's chain, from the row up to ``root`` inclusive,
    rebuilt from the rows' depths: in preorder, a row's ancestors are the
    latest rows met at each smaller depth."""
    path = [root]
    for row in rows:
        path[row.depth:] = (row.gav,)
        yield tuple(reversed(path))


def census_with_chains(root: DependencyNode):
    """``(row, chain)`` for each dependency below ``root``, in ``scan``'s
    order: lenient, over no histories and an empty KB, so every node has a
    row; ``chain`` runs from the row up to the root (:func:`row_chains`)."""
    result = scan(DependencyTree(root), VulnerabilityKb(), {}, time=ANALYSIS_TIME, lenient=True,
                  include_non_deployed=True)
    return zip(result.census, row_chains(root.gav, result.census))


def reference_walk(root: DependencyNode):
    """Depth-first preorder walk from ``root`` yielding one step
    ``(node, depth, deployed, parent, above)`` per node, as the census walked
    a tree before it became one loop.

    ``deployed`` is true when every edge from the node up to the root ships.
    ``parent`` is the step of the node's parent (``None`` for the root), so
    :func:`reference_chain_of` rebuilds the chain. ``above`` holds the
    distinct group ids of the node's ancestors, each at its nearest
    occurrence, nearest first, as links ``(group, rest)`` ending in ``()``.
    A library met before in preorder is skipped with its subtree; the root
    is never skipped.
    """
    seen = set()
    present = set()  # the groups in ``above`` of the node being expanded
    firsts = []  # (depth, group) where each of those first occurs, root first
    stack = [(root, 0, True, None, ())]
    while stack:
        step = stack.pop()
        node, depth, deployed, _, above = step
        ga = node.gav[:2]
        if ga in seen:
            continue
        seen.add(ga)
        yield step
        if not node.children:
            continue
        while firsts and firsts[-1][0] >= depth:
            present.discard(firsts.pop()[1])
        group = node.gav[0]
        if group not in present:
            present.add(group)
            firsts.append((depth, group))
            above = (group, above)
        elif above[0] != group:
            nearer = []
            while above[0] != group:
                head, above = above
                nearer.append(head)
            above = above[1]
            for head in reversed(nearer):
                above = (head, above)
            above = (group, above)
        depth += 1
        stack.extend(
            (child, depth, deployed and child.scope.deployed, step, above)
            for child in reversed(node.children)
        )


def reference_chain_of(step) -> tuple[Gav, ...]:
    """The coordinates from a :func:`reference_walk` step's node up to the root, inclusive."""
    gavs = []
    while step is not None:
        gavs.append(step[0].gav)
        step = step[3]
    return tuple(gavs)


def classify_group_ids(group: str, above: tuple, root_group: str) -> Responsibility:
    """:func:`depscope.analysis.classify_responsibility` of the grouped chain
    of a node in ``group`` below the distinct group ids ``above`` (links,
    nearest first, as :func:`reference_walk` carries them). A group met
    again farther up a chain is absorbed, by its nearer occurrence or by
    whatever absorbed that, so grouping the distinct ids keeps as many
    members as grouping the chain; only up to three matter."""
    if same_project(group, root_group):
        return Responsibility.OWN
    kept = [group]
    while above:
        other, above = above
        for anchor in kept:
            if same_project(anchor, other):
                break
        else:
            kept.append(other)
            if len(kept) == 3:
                return Responsibility.TRANSITIVE
    return Responsibility.DIRECT if len(kept) == 2 else Responsibility.TRANSITIVE


def reference_census_rows(root: DependencyNode, kb: VulnerabilityKb, verdicts, *, lenient: bool,
                          include_non_deployed: bool):
    """``(row, step)`` for each dependency below ``root``, ``step`` being its
    :func:`reference_walk` step: the census of ``report.scan`` as the frozen
    reference yields its rows, raising at the same node with the same error."""
    ids_by_gav = kb.ids_by_gav
    root_group = root.gav.group_id
    direct = None  # the verdict of the latest depth-1 node
    walk = reference_walk(root)
    next(walk)  # the root has no row
    for step in walk:
        node, depth, deployed, _, above = step
        gav = node.gav
        vuln_ids = ids_by_gav.get(gav, ()) if deployed or include_non_deployed else ()
        verdict = verdicts[gav.ga]
        if verdict is not None:
            lib_status, inst_status = verdict.status, verdict.instance_status(gav)
        elif lenient:
            lib_status, inst_status = LibraryStatus.ALIVE, InstanceStatus.UP_TO_DATE
        else:
            raise MissingHistory(gav.ga)
        if depth == 1:
            direct = verdict
        yield CensusRow(
            gav, depth, deployed, vuln_ids, classify_group_ids(gav[0], above, root_group),
            lib_status, inst_status,
            deployed and depth > 1 and direct is not None and direct.status is LibraryStatus.HALTED,
            verdict is None,
        ), step


# --- replay of a simulated project's tree ---------------------------------------------


def pool_libraries(pool: SimulationPool) -> list[list[DependencyNode]]:
    """For each pool library in sorted order, its pool tree roots by version
    string (``1.10`` before ``1.9``): the order ``simulate`` draws from."""
    by_library: dict[Ga, dict[str, DependencyNode]] = {}
    for tree in pool.trees:
        by_library.setdefault(tree.root.gav.ga, {})[tree.root.gav.version] = tree.root
    return [[versions[v] for v in sorted(versions)] for _, versions in sorted(by_library.items())]


def project_root(pool: SimulationPool, cfg, index: int) -> DependencyNode:
    """Project ``index``'s synthetic root over its picks, in draw order:
    ``simulate`` draws the same pool trees, as plans, with the same calls to
    the project's generator, and raises the same errors before it draws."""
    libraries = pool_libraries(pool)
    if not libraries:
        raise EmptyPool()
    if cfg.deps_per_project > len(libraries):
        raise InsufficientLibraries(cfg.deps_per_project, len(libraries))
    rng = _sub_rng(cfg.seed, index)
    drawn = rng.sample(libraries, cfg.deps_per_project)
    picks = [rng.choice(versions) for versions in drawn]
    return DependencyNode(Gav(SYNTHETIC_GROUP, f"project-{index}", "1.0"), Scope.COMPILE, picks)


def project_tree(pool: SimulationPool, cfg, index: int) -> DependencyTree:
    """The synthetic tree that project ``index`` of a simulation analyzes:
    its drawn subtrees under its synthetic root, as a build tool mediates
    them. When two drawn subtrees share a library, the first-drawn
    occurrence wins and the later node is dropped with its subtree. A scan
    of it replays the project's census."""
    root = project_root(pool, cfg, index)
    seen = {root.gav.ga}

    def first_of_library(node: DependencyNode) -> bool:
        if node.gav.ga in seen:
            return False
        seen.add(node.gav.ga)
        return True

    return DependencyTree(prune(root, first_of_library))
