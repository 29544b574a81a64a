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
    prune,
    same_project,
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
    chain: list[Gav] = []  # the coordinates of the walk's current path by depth, root first
    for node, depth in annotated.tree.nodes():
        chain[depth:] = (node.gav,)
        ids = annotated.vulnerable.get(node.gav)
        if not ids:
            continue
        raw = tuple(reversed(chain))
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

    Two groups share a project when one is a dot-prefix of the other or
    equals it, so a set of the kept ids' dot-prefixes makes the pass linear
    in the chain, however many projects it crosses.
    """
    kept: dict[str, Gav] = {}  # the members kept so far, by group id
    covered: set[str] = set()  # every dot-prefix of every kept group id, the id included
    for gav in raw_path:
        group = gav.group_id
        if group in covered:  # a kept id equals it or has it as a dot-prefix
            continue
        prefixes = [group]
        dot = group.find(".")
        while dot >= 0:
            prefix = group[:dot]
            if prefix in kept:  # it is under a kept id
                break
            prefixes.append(prefix)
            dot = group.find(".", dot + 1)
        else:
            kept[group] = gav
            covered.update(prefixes)
    return list(kept.values())


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
