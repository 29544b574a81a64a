"""Tree post-processing: scope filtering, vulnerability annotation, path
extraction, project grouping and responsibility attribution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from depscope.model import (
    DependencyTree,
    Gav,
    Responsibility,
    VulnerabilityKb,
    VulnerabilityRecord,
    VulnerablePath,
    chain_of,
    prune,
    same_project,
    walk,
)


@dataclass(frozen=True)
class AnnotatedTree:
    """A tree plus the vulnerability ids found on its nodes: the stepwise
    reference that :func:`depscope.report.scan`, which matches in its one
    walk, is tested against. Keys of ``vulnerable`` always occur in ``tree``.
    """

    tree: DependencyTree
    vulnerable: Mapping[Gav, frozenset[str]]


def filter_non_deployed(tree: DependencyTree) -> DependencyTree:
    """Drop every test- or provided-scoped node together with its subtree.

    In a resolved tree the children of a non-deployed node exist only to
    serve it, so the whole subtree goes. The root is never removed. Sibling
    order is preserved; the operation is idempotent.
    """
    return DependencyTree(prune(tree.root, lambda node: node.scope.deployed), tree.analysis_time)


def match_vulnerabilities(
    tree: DependencyTree, kb: Iterable[VulnerabilityRecord]
) -> AnnotatedTree:
    """Annotate tree nodes with the vulnerability ids affecting them.

    Only instances present in the tree are annotated; the root itself may be
    flagged. Each node is looked up in the KB's index, so a
    :class:`VulnerabilityKb` is matched in O(tree); any other iterable of
    records is indexed on the spot.
    """
    if not isinstance(kb, VulnerabilityKb):
        kb = VulnerabilityKb(kb)
    ids_by_gav = kb.ids_by_gav
    vulnerable = {}
    for node, _ in tree.nodes():
        ids = ids_by_gav.get(node.gav)
        if ids:
            vulnerable[node.gav] = frozenset(ids)
    return AnnotatedTree(tree, vulnerable)


def extract_vulnerable_paths(annotated: AnnotatedTree) -> list[VulnerablePath]:
    """One path per (vulnerable node, vulnerability id) pair.

    The raw path runs from the vulnerable instance up to the root inclusive;
    the grouped path and the responsibility come from :func:`group_path` and
    :func:`classify_responsibility`. No path is flagged ``via_halted``: that
    takes release histories, which only a scan has. Paths are ordered by the
    depth-first position of the vulnerable node, then by vulnerability id.
    """
    root = annotated.tree.root.gav
    paths = []
    for step in walk(annotated.tree.root):
        ids = annotated.vulnerable.get(step[0].gav)
        if not ids:
            continue
        raw = chain_of(step)
        grouped = tuple(group_path(raw))
        responsibility = classify_responsibility(grouped, root)
        for vuln_id in sorted(ids):
            paths.append(VulnerablePath(raw, grouped, vuln_id, responsibility, False))
    return paths


def group_path(raw_path: Sequence[Gav]) -> list[Gav]:
    """Collapse same-project members of a path onto the one nearest the
    vulnerable instance.

    Scanning from position 0 upward, each element is dropped when it shares
    a project with an already-kept element (the anchor for its project is
    therefore the first-encountered, vulnerable-closest member — this also
    resolves the non-transitivity of the dot-boundary prefix rule
    deterministically). Members need not be adjacent to be grouped. The
    first element is always preserved and the operation is idempotent.
    """
    kept: dict[str, Gav] = {}  # the members kept so far, by group id
    for gav in raw_path:
        group = gav.group_id
        for anchor in kept:
            if same_project(anchor, group):
                break
        else:
            kept[group] = gav
    return list(kept.values())


def classify_group_ids(group: str, above: tuple, root_group: str) -> Responsibility:
    """:func:`classify_responsibility` of the grouped chain of a node in
    ``group`` below the distinct group ids ``above`` (links, nearest first,
    as :func:`depscope.model.walk` carries them). A group met again farther
    up a chain is absorbed, by its nearer occurrence or by whatever absorbed
    that, so grouping the distinct ids keeps as many members as grouping the
    chain; only up to three matter."""
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


def classify_responsibility(grouped_path: Sequence[Gav], root: Gav) -> Responsibility:
    """Attribute a path: own code, a direct dependency, or transitive.

    A path whose vulnerable instance shares a project with the root is own
    code regardless of length (a vulnerable root is the length-1 case). A
    two-element grouped path means the fix is one version bump away, hence
    direct; anything longer is controlled by another project upstream.
    """
    if same_project(grouped_path[0].group_id, root.group_id):
        return Responsibility.OWN
    if len(grouped_path) == 2:
        return Responsibility.DIRECT
    return Responsibility.TRANSITIVE
