"""Synthetic-project experiment comparing the standard and the refined
dependency-study methodology.

Each simulated project draws a fixed number of distinct libraries from the
pool (one uniformly-chosen version each), attaches their resolved subtrees
under a fresh synthetic root, and counts what both pipelines would find:

* standard: no deployment filter, no grouping, direct means depth-1;
* proposed: deployment filter, project grouping, release-cadence model.

Randomness comes from the Mersenne Twister (``random.Random``), sub-seeded
per project with SHA-256 of ``"<seed>:<index>"``, so runs are reproducible
across platforms and projects are independent of each other. All counts are
per instance.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from datetime import date
from typing import Mapping, Sequence

from depscope.errors import EmptyPool, InsufficientLibraries, MissingHistory, ReservedGroup, UnknownVersion
from depscope.ingest import csv_text, json_text
from depscope.lifecycle import SmoothingConfig, verdict_table
from depscope.model import (
    NON_DEPLOYED_SCOPES,
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    LibraryStatus,
    ReleaseHistory,
    VulnerabilityKb,
    same_project,
)

#: group id reserved for synthetic roots so they never share a project with
#: pool libraries
SYNTHETIC_GROUP = "sim.depscope"

# a plan node's flag bits: the KB hits it; and, for such a node only, every
# edge from it up to the pool root ships, and its grouped class is own or direct
_VULNERABLE, _DEPLOYED, _CONTROLLED = 1, 2, 4
_HALTED = LibraryStatus.HALTED
# a tuple tests a scope by identity first, without the Python-level Enum hash
_NOT_SHIPPED = tuple(NON_DEPLOYED_SCOPES)


#: A pool tree compiled for the projects that draw it: a row per node, in
#: depth-first preorder, children in order. A row is a plain tuple
#: ``(gav, library, depth, flags)``: the node's coordinates; the pool's one
#: :class:`Ga` for its library, shared by every row of that library in every
#: plan of the pool; its depth below the pool root, which is 0; and its flag
#: bits, 0 for a node the KB misses. A plain tuple, not a named one, as only
#: an exact tuple takes the interpreter's fast path when a loop unpacks it.
Plan = tuple[tuple[Gav, Ga, int, int], ...]


def _plan(root: DependencyNode, ids_by_gav: Mapping[Gav, tuple[str, ...]],
          libraries: dict[tuple[str, str], Ga]) -> Plan:
    """``root``'s plan, in one walk that keys each library met for the first
    time in ``libraries``.

    A node's class is that of its chain up to the pool root, then up to a
    synthetic root: :data:`SYNTHETIC_GROUP` shares a project with no pool
    library (:class:`ReservedGroup`), so grouping keeps that root, never
    finds the node own, and leaves two members, hence direct, exactly when
    every pool ancestor shares the node's project. That holds whichever
    project draws the tree. Each expanded node keeps that answer, its
    ``solo``, so a node walks up its ancestors only while they share its
    project and takes the ``solo`` of the first in its own group. Only a
    deployed vulnerable node is classified, as only its class is counted."""
    rows = []
    # by depth, the group and solo of each node the walk is below, the pool root first
    groups, solos = [], []
    stack = [(root, 0, True)]
    while stack:
        node, depth, deployed = stack.pop()
        gav = node.gav
        group = gav[0]
        key = gav[:2]
        library = libraries.get(key)
        if library is None:
            library = libraries[key] = gav.ga
        vulnerable = gav in ids_by_gav
        children = node.children
        if children or vulnerable and deployed:
            up = depth
            while up:
                above = groups[up - 1]
                if above == group:
                    solo = solos[up - 1]
                    break
                if not same_project(above, group):
                    solo = False
                    break
                up -= 1
            else:
                solo = True
        if not vulnerable:
            flags = 0
        elif not deployed:
            flags = _VULNERABLE
        else:
            flags = _VULNERABLE | _DEPLOYED | _CONTROLLED * solo
        rows.append((gav, library, depth, flags))
        if children:
            groups[depth:] = (group,)
            solos[depth:] = (solo,)
            depth += 1
            for child in reversed(children):
                stack.append((child, depth, deployed and child.scope not in _NOT_SHIPPED))
    return tuple(rows)


@dataclass(frozen=True)
class SimulationPool:
    """The corpus a simulation draws from: trees, histories, vulnerabilities.

    ``kb`` is kept as a :class:`VulnerabilityKb`, so its index is built once
    for all projects, and ``histories`` as given: only loaded ones keep verdict
    tables between calls. ``plans`` holds, for each pool library in sorted
    order, the :data:`Plan` of each of its pool trees by version string
    (``1.10`` before ``1.9``). The plans share one :class:`Ga` per distinct
    pool library, made on its first sight, so a project's set of the
    libraries it met and the verdict table match a row's key by identity.
    Each of those libraries then has its group checked: the first in the
    project of :data:`SYNTHETIC_GROUP` raises :class:`ReservedGroup`, as
    grouping would absorb the synthetic root into it and count its
    third-party findings as ``own``.
    """

    trees: tuple[DependencyTree, ...]
    histories: Mapping[Ga, ReleaseHistory]
    kb: VulnerabilityKb
    plans: tuple[tuple[Plan, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if not isinstance(self.kb, VulnerabilityKb):
            object.__setattr__(self, "kb", VulnerabilityKb(self.kb))
        ids_by_gav = self.kb.ids_by_gav
        by_library: dict[Ga, dict[str, Plan]] = {}
        libraries: dict[tuple[str, str], Ga] = {}  # each distinct pool library's one key
        for tree in self.trees:
            root = tree.root.gav
            versions = by_library.setdefault(root.ga, {})
            if root.version in versions:
                raise ValueError(f"duplicate pool tree for {root}")
            versions[root.version] = _plan(tree.root, ids_by_gav, libraries)
        for library in libraries.values():  # in the order the walk first met them
            if same_project(library.group_id, SYNTHETIC_GROUP):
                raise ReservedGroup(library, SYNTHETIC_GROUP)
        object.__setattr__(self, "plans", tuple(tuple(versions[v] for v in sorted(versions))
                                                for _, versions in sorted(by_library.items())))


@dataclass(frozen=True)
class SimulationConfig:
    projects: int = 100
    deps_per_project: int = 12
    seed: int = 0
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    time: date | None = None
    lenient: bool = False

    def __post_init__(self):
        if self.projects <= 0:
            raise ValueError("projects must be positive")
        if self.deps_per_project <= 0:
            raise ValueError("deps_per_project must be positive")


@dataclass(frozen=True)
class ProjectOutcome:
    """Per-project comparison record between the two methodologies."""

    index: int
    root: Gav
    all_vulnerable: int
    deployed_vulnerable: int
    controlled_standard: int
    controlled_proposed: int
    halted_vulnerable: int


def _sub_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def simulate(pool: SimulationPool, cfg: SimulationConfig) -> list[ProjectOutcome]:
    """Run the synthetic-project experiment; deterministic given (pool, cfg).

    Each project counts the vulnerable instances of its drawn subtrees under
    a synthetic root, scanned with non-deployed instances matched: the
    standard counts ignore deployment and grouping, the proposed ones honor
    both. It walks the plans of its picks in draw order, each in preorder,
    and skips a library met before together with its subtree, as a build
    tool mediates duplicates; so no project tree is built, and a kept node's
    class is its plan's. Every kept node, safe or not, has its history and
    its version looked up, so a project raises where a scan of its tree
    would: at a missing history in strict mode, or at an unknown version.
    """
    if not pool.plans:
        raise EmptyPool()
    if cfg.deps_per_project > len(pool.plans):
        raise InsufficientLibraries(cfg.deps_per_project, len(pool.plans))
    time = cfg.time or date.today()
    verdicts = verdict_table(pool.histories, time, cfg.smoothing)
    lenient = cfg.lenient
    outcomes = []
    for index in range(cfg.projects):
        rng = _sub_rng(cfg.seed, index)
        drawn = rng.sample(pool.plans, cfg.deps_per_project)
        picks = [rng.choice(versions) for versions in drawn]
        seen = set()  # the pool's library keys, so a lookup matches by identity
        vulnerable = deployed = standard = proposed = halted = 0
        for plan in picks:
            # the depth of the library being skipped, whose subtree is the run of
            # deeper nodes after it; while none is, a depth no node has
            cut = no_cut = len(plan)
            for gav, library, depth, flag in plan:
                if depth > cut:
                    continue
                if library in seen:
                    cut = depth
                    continue
                cut = no_cut
                seen.add(library)
                verdict = verdicts[library]
                if verdict is None:
                    if not lenient:
                        raise MissingHistory(library)
                elif gav[2] not in verdict.statuses:
                    raise UnknownVersion(gav)
                if flag:
                    vulnerable += 1
                    standard += depth == 0  # the pool root, a direct dependency
                    if flag & _DEPLOYED:
                        deployed += 1
                        if flag & _CONTROLLED:
                            proposed += 1
                        halted += verdict is not None and verdict.status is _HALTED
        outcomes.append(ProjectOutcome(
            index=index,
            root=Gav(SYNTHETIC_GROUP, f"project-{index}", "1.0"),
            all_vulnerable=vulnerable,
            deployed_vulnerable=deployed,
            controlled_standard=standard,
            controlled_proposed=proposed,
            halted_vulnerable=halted,
        ))
    return outcomes


_CSV_HEADER = [
    "project", "root", "all_vulnerable", "deployed_vulnerable",
    "controlled_standard", "controlled_proposed", "halted_vulnerable",
]

#: recorded in JSON output so consumers know what each methodology counted
METHODOLOGY = {
    "standard": "no deployment filter, no grouping; controlled = vulnerable depth-1 instances",
    "proposed": "deployment filter, project grouping; controlled = deployed vulnerable "
    "instances classified own or direct after grouping",
}


def render_simulation(
    outcomes: Sequence[ProjectOutcome], cfg: SimulationConfig, format: str = "csv"
) -> str:
    rows = [
        [
            o.index, str(o.root), o.all_vulnerable, o.deployed_vulnerable,
            o.controlled_standard, o.controlled_proposed, o.halted_vulnerable,
        ]
        for o in outcomes
    ]
    if format == "csv":
        return csv_text(_CSV_HEADER, rows)
    if format == "json":
        data = {
            "config": {
                "projects": cfg.projects,
                "deps_per_project": cfg.deps_per_project,
                "seed": cfg.seed,
                "time": cfg.time.isoformat() if cfg.time else None,
                "alpha": cfg.smoothing.alpha,
                "default_interval_days": cfg.smoothing.default_interval_days,
                "min_releases": cfg.smoothing.min_releases,
            },
            "methodology": METHODOLOGY,
            "projects": [dict(zip(_CSV_HEADER, row)) for row in rows],
        }
        return json_text(data)
    raise ValueError(f"unknown format {format!r}")
