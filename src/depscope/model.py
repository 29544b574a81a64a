"""Core domain model: coordinates, dependency trees, release histories, vulnerabilities.

All types are immutable values; every operation in the package is a pure
function over them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

from depscope.errors import DuplicateGa, DuplicateVersion, MalformedCoordinate


class Scope(str, Enum):
    """Dependency scope as declared in a resolved tree.

    ``unknown`` covers scope strings outside the standard set; such
    dependencies are treated as deployed because the non-deployed set is
    enumerated (test, provided), not inferred.
    """

    COMPILE = "compile"
    PROVIDED = "provided"
    RUNTIME = "runtime"
    TEST = "test"
    SYSTEM = "system"
    IMPORT = "import"
    UNKNOWN = "unknown"

    @property
    def deployed(self) -> bool:
        """True when instances with this scope ship with the released artifact."""
        return self not in NON_DEPLOYED_SCOPES


NON_DEPLOYED_SCOPES = frozenset({Scope.TEST, Scope.PROVIDED})


def _check_segment(name: str, value: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string")
    if ":" in value:
        raise ValueError(f"{name} must not contain ':'")


class _GaFields(NamedTuple):
    group_id: str
    artifact_id: str


class Ga(_GaFields):
    """A library: group and artifact, across all versions. A tuple of its
    fields, so hashing, equality and field-wise ordering run in C."""

    __slots__ = ()

    def __new__(cls, group_id: str, artifact_id: str):
        _check_segment("group_id", group_id)
        _check_segment("artifact_id", artifact_id)
        return tuple.__new__(cls, (group_id, artifact_id))

    @classmethod
    def _make(cls, iterable):  # NamedTuple's own skips __new__, and so the checks
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.group_id}:{self.artifact_id}"


class _GavFields(NamedTuple):
    group_id: str
    artifact_id: str
    version: str


class Gav(_GavFields):
    """A library instance: group, artifact and version; a tuple of its
    fields like :class:`Ga`, which it never equals."""

    __slots__ = ()

    def __new__(cls, group_id: str, artifact_id: str, version: str):
        # the common case in one expression; the segment checks name a
        # failure, and pass a non-empty ``str`` subclass without ':'
        if not (type(group_id) is type(artifact_id) is type(version) is str
                and group_id and artifact_id and version
                and ":" not in group_id and ":" not in artifact_id and ":" not in version):
            _check_segment("group_id", group_id)
            _check_segment("artifact_id", artifact_id)
            _check_segment("version", version)
        return tuple.__new__(cls, (group_id, artifact_id, version))

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)

    @property
    def ga(self) -> Ga:
        return tuple.__new__(Ga, self[:2])  # segments already checked

    def __str__(self) -> str:
        return f"{self.group_id}:{self.artifact_id}:{self.version}"


def parse_gav(text: str) -> Gav:
    """Parse exactly ``g:a:v``; the inverse of ``str(gav)``."""
    try:
        return Gav(*text.split(":"))
    except (TypeError, ValueError):  # not three segments, or an empty one
        raise MalformedCoordinate(text) from None


def same_project(a: str, b: str) -> bool:
    """Whether two group ids name the same project.

    Groups are the same project when equal or when one is a dot-boundary
    prefix of the other (``org.apache.activemq`` vs
    ``org.apache.activemq.tooling``). Plain string prefixes do not match:
    ``com.foo`` and ``com.foobar`` are distinct projects.
    """
    if a == b:
        return True
    if len(a) > len(b):
        a, b = b, a
    return len(a) < len(b) and b[len(a)] == "." and b.startswith(a)


@dataclass(frozen=True, eq=False)
class DependencyNode:
    """One library instance in a resolved tree, with the scope of its edge.

    Equality compares whole subtrees by value, as the generated dataclass
    method would, but walks them without recursion so no tree depth
    exhausts the stack.
    """

    gav: Gav
    scope: Scope
    children: tuple[DependencyNode, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (
                a.__class__ is not b.__class__
                or a.gav != b.gav
                or a.scope != b.scope
                or len(a.children) != len(b.children)
            ):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        # shallow, so O(children); equal subtrees still hash equal
        return hash((self.gav, self.scope, tuple(c.gav for c in self.children)))


def build_tree(preorder: Sequence[tuple[Gav, Scope, int]]) -> DependencyNode:
    """The root of the tree whose nodes ``preorder`` lists as
    ``(gav, scope, parent)`` entries, ``parent`` being the position of the
    node's parent in ``preorder`` (-1 for the root, which comes first).

    Each parent comes before its children and siblings keep their order, so
    freezing in reverse builds every subtree before its parent: no
    recursion, and so no tree depth exhausts the stack. Fields are set in
    ``__init__``'s order, so every node's ``__dict__`` shares its keys.
    """
    children: list[list[DependencyNode]] = [[] for _ in preorder]
    new, set_field = object.__new__, object.__setattr__
    for i in reversed(range(len(preorder))):
        gav, scope, parent = preorder[i]
        node = new(DependencyNode)
        set_field(node, "gav", gav)
        set_field(node, "scope", scope)
        kids = children[i]
        set_field(node, "children", tuple(reversed(kids)) if kids else ())
        if parent >= 0:
            children[parent].append(node)
    return node


def prune(root: DependencyNode, keep: Callable[[DependencyNode], bool]) -> DependencyNode:
    """``root`` rebuilt without the nodes ``keep`` rejects, each dropped with
    its subtree.

    The root is always kept. ``keep`` is asked about the other nodes in
    depth-first preorder, children in order, and never about a node below a
    dropped one, so it may track what it has kept so far. Sibling order is
    preserved, and the walk and rebuild use no recursion.
    """
    kept = [(root.gav, root.scope, -1)]
    stack = [(child, 0) for child in reversed(root.children)]
    while stack:
        node, parent = stack.pop()
        if keep(node):
            stack.extend((child, len(kept)) for child in reversed(node.children))
            kept.append((node.gav, node.scope, parent))
    return build_tree(kept)


@dataclass(frozen=True)
class DependencyTree:
    """A resolved dependency tree: acyclic, each library appears once.

    Depth-1 children of the root are the direct dependencies; every deeper
    node is transitive. ``analysis_time`` carries the reference date of the
    analysis when the source document provides one.
    """

    root: DependencyNode
    analysis_time: date | None = None

    def __post_init__(self):
        if self.root.scope is not Scope.COMPILE:
            raise ValueError("tree root must have compile scope")
        seen = set()  # group and artifact as plain tuples; a Ga only for the error
        stack = [self.root]
        while stack:  # preorder, so the first repeat in it is the one named
            node = stack.pop()
            ga = node.gav[:2]
            if ga in seen:
                raise DuplicateGa(node.gav.ga)
            seen.add(ga)
            stack.extend(reversed(node.children))

    @classmethod
    def _parsed(cls, root: DependencyNode, analysis_time: date | None = None) -> DependencyTree:
        """A tree whose parser has checked its root's scope and its libraries distinct."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "root", root)
        object.__setattr__(tree, "analysis_time", analysis_time)
        return tree

    def nodes(self) -> Iterator[tuple[DependencyNode, int]]:
        """Depth-first preorder walk yielding (node, depth)."""
        stack: list[tuple[DependencyNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            for child in reversed(node.children):
                stack.append((child, depth + 1))

    def gavs(self) -> set[Gav]:
        return {node.gav for node, _ in self.nodes()}


def walk(root: DependencyNode) -> Iterator[tuple]:
    """Depth-first preorder walk from ``root`` yielding one step
    ``(node, depth, deployed, parent, above)`` per node.

    ``deployed`` is true when every edge from the node up to the root ships.
    ``parent`` is the step of the node's parent (``None`` for the root), so
    :func:`chain_of` rebuilds the chain only when it is asked for. ``above``
    holds the distinct group ids of the node's ancestors, each at its
    nearest occurrence, nearest first, as links ``(group, rest)`` ending in
    ``()``. A library met before in preorder is skipped with its subtree, as
    a build tool mediates duplicates, so the walk of a
    :class:`DependencyTree`'s root, whose libraries are distinct, skips
    nothing. The root is never skipped.

    A step costs O(1) at any depth, except when a node's group already
    occurs higher up but not at the front of ``above``: then the groups met
    since its previous occurrence are relinked.
    """
    seen = set()  # group and artifact as plain tuples: cheaper than building Ga
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
        # whatever was entered at this depth or deeper lies off the path now
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


def chain_of(step: tuple) -> tuple[Gav, ...]:
    """The coordinates from a :func:`walk` step's node up to the root, inclusive."""
    gavs = []
    while step is not None:
        gavs.append(step[0].gav)
        step = step[3]
    return tuple(gavs)


@dataclass(frozen=True)
class Release:
    version: str
    released: date


@dataclass(frozen=True)
class ReleaseHistory:
    """Dated release sequence of one library, ascending by release date.

    Equal dates keep their input order; the interval between them is zero
    days. Each version is released once.
    """

    library: Ga
    releases: tuple[Release, ...]

    def __post_init__(self):
        object.__setattr__(self, "releases", tuple(self.releases))
        if not self.releases:
            raise ValueError(f"history of {self.library} has no releases")
        dates = [r.released for r in self.releases]
        if any(b < a for a, b in zip(dates, dates[1:])):
            raise ValueError(f"history of {self.library} is not sorted by date")
        versions: set[str] = set()
        for release in self.releases:
            if release.version in versions:
                raise DuplicateVersion(self.library, release.version)
            versions.add(release.version)

    @property
    def last_release(self) -> Release:
        return self.releases[-1]


class ReleaseHistories(Mapping):
    """Release histories keyed by library, as the loader returns them.

    The mapping is read-only, like the KB, and keeps a lifecycle verdict
    table per analysis time and smoothing config asked of it
    (:func:`depscope.lifecycle.verdict_table`), so the scans of a run share
    one table per date and no verdict outlives its history. Other histories
    make a new mapping: ``ReleaseHistories({**histories, ga: history})``.
    """

    def __init__(self, histories=()):
        self._histories = dict(histories)
        self.verdicts = {}

    def __getitem__(self, ga):
        return self._histories[ga]

    def __iter__(self):
        return iter(self._histories)

    def __len__(self):
        return len(self._histories)

    def __repr__(self):
        return repr(self._histories)


@dataclass(frozen=True)
class VulnerabilityRecord:
    """One known vulnerability and the library instances it affects."""

    vuln_id: str
    affected: frozenset[Gav]

    def __post_init__(self):
        if not self.vuln_id:
            raise ValueError("vulnerability id must be non-empty")
        object.__setattr__(self, "affected", frozenset(self.affected))
        if not self.affected:
            raise ValueError(f"vulnerability {self.vuln_id} affects no instances")


class VulnerabilityKb(tuple):
    """The vulnerability knowledge base: its records in order, plus the
    inverted index from each affected instance to its sorted, distinct ids,
    so matching a tree costs one lookup per node instead of a pass over
    every record.

    The index is built once per KB, on first use. :func:`load_vuln_kb`
    builds it before it returns, once the parsed document is released.
    """

    @cached_property
    def ids_by_gav(self) -> dict[Gav, tuple[str, ...]]:
        index: dict[Gav, tuple[str, ...]] = {}
        for record in self:
            for gav in record.affected:
                index[gav] = index.get(gav, ()) + (record.vuln_id,)
        for gav, ids in index.items():  # in place, so no second index is held
            if len(ids) > 1:  # a single id is sorted and distinct already
                index[gav] = tuple(sorted(set(ids)))
        return index


class Responsibility(str, Enum):
    """Who can act on a vulnerable path: the project itself (own), a direct
    version bump (direct), or another project upstream (transitive)."""

    OWN = "own"
    DIRECT = "direct"
    TRANSITIVE = "transitive"


class LibraryStatus(str, Enum):
    HALTED = "halted"
    ALIVE = "alive"


class InstanceStatus(str, Enum):
    OUTDATED = "outdated"
    UP_TO_DATE = "up_to_date"


@dataclass(frozen=True)
class VulnerablePath:
    """Chain from a vulnerable instance up to the analyzed root.

    ``raw_path`` is the full ancestor chain; ``grouped_path`` is the
    same chain after same-project members collapse onto the one nearest the
    vulnerable instance.
    """

    raw_path: tuple[Gav, ...]
    grouped_path: tuple[Gav, ...]
    vuln_id: str
    responsibility: Responsibility
    via_halted: bool

    def __post_init__(self):
        object.__setattr__(self, "raw_path", tuple(self.raw_path))
        object.__setattr__(self, "grouped_path", tuple(self.grouped_path))
        if not self.raw_path:
            raise ValueError("raw_path must be non-empty")
        if self.grouped_path[:1] != self.raw_path[:1]:
            raise ValueError("grouping must preserve the vulnerable instance")
