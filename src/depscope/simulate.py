"""Synthetic-project experiment comparing the standard and the refined
dependency-study methodology.

Each simulated project draws a fixed number of distinct libraries from the
pool (one uniformly-chosen version each), attaches their resolved subtrees
under a fresh synthetic root, and runs both pipelines:

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

from depscope.errors import EmptyPool, InsufficientLibraries, ReservedGroup
from depscope.ingest import csv_text, json_text
from depscope.lifecycle import SmoothingConfig, verdict_table
from depscope.model import (
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    LibraryStatus,
    ReleaseHistories,
    ReleaseHistory,
    Responsibility,
    Scope,
    VulnerabilityKb,
    prune,
    same_project,
)
from depscope.report import census_rows

#: group id reserved for synthetic roots so they never share a project with
#: pool libraries
SYNTHETIC_GROUP = "sim.depscope"


@dataclass(frozen=True)
class SimulationPool:
    """The corpus a simulation draws from: trees, histories, vulnerabilities.

    ``kb`` is kept as a :class:`VulnerabilityKb`, so its index is built once
    for all projects, and ``histories`` as :class:`ReleaseHistories`, so
    their lifecycle verdicts are too. ``libraries`` is derived once as well:
    for each pool library in sorted order, the roots of its pool trees in
    version order. A pool library in the project of :data:`SYNTHETIC_GROUP`
    raises :class:`ReservedGroup`: grouping would absorb the synthetic root
    into it and count its third-party findings as ``own``.
    """

    trees: tuple[DependencyTree, ...]
    histories: Mapping[Ga, ReleaseHistory]
    kb: VulnerabilityKb
    libraries: tuple[tuple[DependencyNode, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if not isinstance(self.kb, VulnerabilityKb):
            object.__setattr__(self, "kb", VulnerabilityKb(self.kb))
        if not isinstance(self.histories, ReleaseHistories):
            object.__setattr__(self, "histories", ReleaseHistories(self.histories))
        by_library: dict[Ga, dict[str, DependencyNode]] = {}
        library_of_group: dict[str, Gav] = {}  # each distinct pool group, checked once
        for tree in self.trees:
            for node, _ in tree.nodes():
                library_of_group.setdefault(node.gav.group_id, node.gav)
            root = tree.root.gav
            versions = by_library.setdefault(root.ga, {})
            if root.version in versions:
                raise ValueError(f"duplicate pool tree for {root}")
            versions[root.version] = tree.root
        for group, gav in library_of_group.items():
            if same_project(group, SYNTHETIC_GROUP):
                raise ReservedGroup(gav.ga, SYNTHETIC_GROUP)
        libraries = tuple(
            tuple(versions[v] for v in sorted(versions))
            for _, versions in sorted(by_library.items())
        )
        object.__setattr__(self, "libraries", libraries)


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


def _picks(pool: SimulationPool, cfg: SimulationConfig, index: int) -> list[DependencyNode]:
    """The pool roots project ``index`` draws, in draw order."""
    if not pool.libraries:
        raise EmptyPool()
    if cfg.deps_per_project > len(pool.libraries):
        raise InsufficientLibraries(cfg.deps_per_project, len(pool.libraries))
    rng = _sub_rng(cfg.seed, index)
    drawn = rng.sample(pool.libraries, cfg.deps_per_project)
    return [rng.choice(versions) for versions in drawn]


def project_tree(pool: SimulationPool, cfg: SimulationConfig, index: int) -> DependencyTree:
    """The synthetic tree the given project iteration analyzes: the drawn
    subtrees under a fresh synthetic root.

    When two drawn subtrees share a library, the first-drawn occurrence wins
    and the later node is dropped with its subtree, mirroring how a build
    tool mediates duplicate libraries in a resolved tree. Deterministic in
    (pool, cfg, index); exposed so results can be replayed against a direct
    run of the analysis pipeline.
    """
    root_gav = Gav(SYNTHETIC_GROUP, f"project-{index}", "1.0")
    seen = {root_gav.ga}

    def first_of_library(node: DependencyNode) -> bool:
        if node.gav.ga in seen:
            return False
        seen.add(node.gav.ga)
        return True

    root = DependencyNode(root_gav, Scope.COMPILE, tuple(_picks(pool, cfg, index)))
    return DependencyTree(prune(root, first_of_library))


def simulate(pool: SimulationPool, cfg: SimulationConfig) -> list[ProjectOutcome]:
    """Run the synthetic-project experiment; deterministic given (pool, cfg).

    Each project counts the census of its tree (:func:`project_tree`),
    scanned with non-deployed instances matched: the standard counts ignore
    deployment and grouping, the proposed ones honor both. The census rows
    come from the walk of a root over the picks, which drops what mediation
    drops, so no project tree is built, and it raises where a scan of the
    tree would.
    """
    time = cfg.time or date.today()
    verdicts = verdict_table(pool.histories, time, cfg.smoothing)
    outcomes = []
    for index in range(cfg.projects):
        root = Gav(SYNTHETIC_GROUP, f"project-{index}", "1.0")
        node = DependencyNode(root, Scope.COMPILE, _picks(pool, cfg, index))
        vulnerable = [row for row, _, _ in census_rows(node, pool.kb, verdicts, lenient=cfg.lenient,
                                                       include_non_deployed=True) if row.vuln_ids]
        deployed = [row for row in vulnerable if row.deployed]
        outcomes.append(ProjectOutcome(
            index=index,
            root=root,
            all_vulnerable=len(vulnerable),
            deployed_vulnerable=len(deployed),
            controlled_standard=sum(row.depth == 1 for row in vulnerable),
            controlled_proposed=sum(row.responsibility is not Responsibility.TRANSITIVE for row in deployed),
            halted_vulnerable=sum(row.library_status is LibraryStatus.HALTED for row in deployed),
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
