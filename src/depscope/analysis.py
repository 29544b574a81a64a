"""Tree post-processing: scope filtering, vulnerability annotation, path
extraction, project grouping and responsibility attribution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from depscope.model import (
    NON_DEPLOYED_SCOPES,
    DependencyNode,
    DependencyTree,
    Gav,
    Responsibility,
    VulnerabilityKb,
    VulnerabilityRecord,
    VulnerablePath,
    prune,
    same_project,
)

# a tuple tests a scope by identity first, without the Python-level Enum hash
_NOT_SHIPPED = tuple(NON_DEPLOYED_SCOPES)
# a global costs a tenth of an Enum attribute
_OWN, _DIRECT, _TRANSITIVE = Responsibility.OWN, Responsibility.DIRECT, Responsibility.TRANSITIVE


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


def census_walk(top_group: str, nodes: Sequence[DependencyNode]
                ) -> Iterator[tuple[DependencyNode, int, bool, Responsibility]]:
    """``(node, depth, deployed, responsibility)`` for every node of the
    subtrees ``nodes``, in one depth-first preorder walk over an explicit
    stack, as children of a top node in group ``top_group`` at depth 0.

    ``deployed`` says every edge from the node up to ``nodes`` ships, and
    ``responsibility`` is the class of grouping the node's chain up to the
    top (:func:`group_path`, :func:`classify_responsibility`). A node's class
    takes its group ``g``, its nearest ancestor outside ``g``'s project
    (``x1``) and whether an ancestor lies outside both projects. A node is
    ``own`` when ``g`` shares the top's project, tested by a set lookup and
    one ``startswith``. Each expanded node pushes one context its children
    share: its group, its class, the group of its own ``x1`` (None when
    every ancestor shares its project) and its parent's context. A node walks
    up the contexts while they share its project: the first in its own
    group lends its class; else, at ``x1``, the node is transitive when
    ``x1`` is not own, and otherwise direct unless :func:`_outside_both`
    finds an ancestor in neither project. So a node costs O(1) unless
    distinct relatives of its group lie above it, as ``org`` below a spine
    of distinct ``org.p<i>``, which it passes one by one.
    """
    # a group shares the top's project when it is the top's group or a
    # dot-prefix of it, or when it lies under it
    top_prefixes = {top_group[:i] for i, c in enumerate(top_group) if c == "."} | {top_group}
    below_top = top_group + "."
    top = (top_group, _OWN, None, None)  # the top's context: (group, class, x1's group, parent's)
    stack = [(node, 1, node.scope not in _NOT_SHIPPED, top) for node in reversed(nodes)]
    while stack:
        node, depth, deployed, parent = stack.pop()
        group = node.gav[0]
        if group in top_prefixes or group.startswith(below_top):
            responsibility = _OWN
        else:
            # up while the contexts share the node's project; the top does not
            context = parent
            while (x1 := context[0]) != group:
                if not same_project(x1, group):
                    # a non-own x1 leaves the top in neither project
                    responsibility = (_DIRECT if context[1] is _OWN and not _outside_both(group, context)
                                      else _TRANSITIVE)
                    break
                context = context[3]
            else:  # a context in the node's group, with nothing outside its project in between
                _, responsibility, x1, _ = context
        yield node, depth, deployed, responsibility
        children = node.children
        if not children:
            continue
        if responsibility is _OWN:
            x1 = _outside(group, parent)
        parent = (group, responsibility, x1, parent)
        depth += 1
        for child in reversed(children):
            stack.append((child, depth, deployed and child.scope not in _NOT_SHIPPED, parent))


def _outside(group: str, context) -> str | None:
    """The group of the nearest context from ``context`` up outside
    ``group``'s project, None when every one shares it. A context with the
    group itself answers for all above it."""
    while context is not None:
        other = context[0]
        if other == group:
            return context[2]
        if not same_project(other, group):
            return other
        context = context[3]
    return None


def _outside_both(group: str, context) -> bool:
    """Whether a context from ``context`` up lies outside both ``group``'s
    project and the project of ``context``'s own group, ``x1``, the nearest
    outside ``group``'s. A context in ``x1`` with nothing outside its
    project above it, or one in ``group`` whose own ``x1`` is ``x1``,
    answers for all above it."""
    x1 = context[0]
    while context is not None:
        other = context[0]
        if other == x1:
            if context[2] is None:
                return False
        elif other == group:
            if context[2] == x1:
                return context[1] is _TRANSITIVE
        elif not (same_project(other, group) or same_project(other, x1)):
            return True
        context = context[3]
    return False


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
