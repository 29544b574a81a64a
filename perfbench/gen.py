"""Seeded input generator for the depscope benchmark.

Stdlib only. Every workload's trees, release histories, vulnerability KB and
saved scan results are written from one ``random.Random(seed)``; the same
seed writes the same bytes. The generator also returns its own model of what
it wrote (trees as flat node lists, histories as dates, the KB as an index),
which ``oracle.py`` uses to compute the expected outputs without depscope.

Sizes are fixed per workload and the seed only moves names, shapes, scopes,
cadences and KB hits, so runs with different seeds do the same amount of
work.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from datetime import date, timedelta

ANALYSIS_TIME = date(2018, 6, 1)
NON_DEPLOYED = ("test", "provided")
# deployed edge scopes, weighted towards compile as in real trees
DEPLOYED = ("compile",) * 6 + ("runtime",) * 2 + ("system", "import")


@dataclass
class Library:
    group: str
    artifact: str
    project: int
    versions: list[str]
    dates: list[date]


@dataclass
class Tree:
    """A resolved tree as a flat preorder node list; node 0 is the root."""

    gavs: list[tuple[str, str, str]] = field(default_factory=list)
    scopes: list[str] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)
    children: list[list[int]] = field(default_factory=list)

    def add(self, gav, scope: str, parent: int) -> int:
        index = len(self.gavs)
        self.gavs.append(gav)
        self.scopes.append(scope)
        self.parents.append(parent)
        self.depths.append(0 if parent < 0 else self.depths[parent] + 1)
        self.children.append([])
        if parent >= 0:
            self.children[parent].append(index)
        return index

    def preorder(self) -> list[int]:
        order, stack = [], [0]
        while stack:
            index = stack.pop()
            order.append(index)
            stack.extend(reversed(self.children[index]))
        return order


@dataclass
class Inputs:
    """What one workload's generator wrote, plus its own model of it."""

    workload: str
    root: str
    argv: list[str]  # depscope CLI arguments
    histories: dict[tuple[str, str], Library]
    kb: dict[tuple[str, str, str], set[str]]  # instance -> vulnerability ids
    trees: dict[str, Tree] = field(default_factory=dict)  # file name -> tree
    probes: dict[str, Tree] = field(default_factory=dict)  # file name -> deep chain
    results: dict[str, list] = field(default_factory=dict)  # file name -> scan results
    axes: dict = field(default_factory=dict)


# --- libraries and release histories ----------------------------------------------


def _project_groups(rng: random.Random, index: int) -> list[str]:
    """Groups of one project: a base group and its dot-prefix relatives."""
    base = f"{rng.choice(('org', 'com', 'io', 'net'))}.{rng.choice(('acme', 'vendor', 'lab', 'works'))}{index}"
    groups = [base]
    if rng.random() < 0.5:
        groups.append(base + ".core")
        if rng.random() < 0.5:
            groups.append(base + ".core.ext")
    return groups


def _history(rng: random.Random, n_releases: int, stalled: bool) -> list[date]:
    if stalled:
        last = date(2008, 1, 1) + timedelta(days=rng.randrange(1500))
        step = (100, 400)
    else:
        last = ANALYSIS_TIME - timedelta(days=rng.randrange(5, 60))
        step = (15, 70)
    dates = [last]
    for _ in range(n_releases - 1):
        dates.append(dates[-1] - timedelta(days=rng.randint(*step)))
    return dates[::-1]


def make_libraries(
    rng: random.Random, n_libraries: int, libs_per_project: int, *, stalled_share: float, tag: str
) -> list[Library]:
    """Libraries grouped into projects. About one project in eight is
    followed by a decoy project whose group extends the base group without
    a dot (``org.acme7x``): a string prefix, not the same project."""
    libraries: list[Library] = []
    project = 0
    while len(libraries) < n_libraries:
        groups = _project_groups(rng, project)
        members = [(project, groups[k % len(groups)]) for k in range(libs_per_project)]
        if rng.random() < 0.125:
            members += [(project + 1, groups[0] + "x")] * libs_per_project
        for k, (owner, group_id) in enumerate(members):
            n_releases = rng.choice((1, 2, 3, 4, 5, 6, 8))
            versions = [f"{major}.{minor}" for major, minor in
                        ((1 + i // 3, i % 3) for i in range(n_releases))]
            libraries.append(
                Library(
                    group=group_id,
                    artifact=f"{tag}{owner}-{k % libs_per_project}",
                    project=owner,
                    versions=versions,
                    dates=_history(rng, n_releases, rng.random() < stalled_share),
                )
            )
        project = members[-1][0] + 1
    return libraries[:n_libraries]


def history_csv(libraries) -> str:
    lines = ["group_id,artifact_id,version,release_date"]
    for lib in libraries:
        for version, released in zip(lib.versions, lib.dates):
            lines.append(f"{lib.group},{lib.artifact},{version},{released.isoformat()}")
    return "\n".join(lines) + "\n"


# --- trees ------------------------------------------------------------------------------


def _edge_scope(rng: random.Random, non_deployed_share: float) -> str:
    if rng.random() < non_deployed_share:
        return rng.choice(NON_DEPLOYED)
    return rng.choice(DEPLOYED)


def by_project(libraries: list[Library]) -> dict[int, list[Library]]:
    index: dict[int, list[Library]] = {}
    for lib in libraries:
        index.setdefault(lib.project, []).append(lib)
    return index


def random_tree(
    rng: random.Random,
    libraries: list[Library],
    projects: dict[int, list[Library]],
    n_nodes: int,
    max_depth: int,
    non_deployed_share: float,
    same_project_share: float,
    root: tuple[Library, str] | None = None,
) -> Tree:
    """A bushy tree of exactly ``n_nodes`` distinct libraries.

    Most nodes attach below a uniformly chosen node, which keeps the mean
    depth logarithmic; one in ten extends the newest node, which grows spurs
    down to ``max_depth``. With probability ``same_project_share`` a child is
    drawn from its parent's project (``projects`` is ``by_project(libraries)``),
    as sibling modules of one project depend on each other. ``root`` fixes
    the root library and version.
    """
    used: set[int] = {id(root[0])} if root else set()

    def draw(project: int | None) -> Library:
        if project is not None:
            free = [lib for lib in projects[project] if id(lib) not in used]
            if free:
                lib = rng.choice(free)
                used.add(id(lib))
                return lib
        lib = rng.choice(libraries)
        while id(lib) in used:
            lib = rng.choice(libraries)
        used.add(id(lib))
        return lib

    tree = Tree()
    root_lib, version = root or (draw(None), None)
    tree.add((root_lib.group, root_lib.artifact, version or rng.choice(root_lib.versions)),
             "compile", -1)
    node_projects = [root_lib.project]
    open_nodes = [0]
    while len(tree.gavs) < n_nodes:
        parent = open_nodes[-1] if rng.random() < 0.1 else rng.choice(open_nodes)
        lib = draw(node_projects[parent] if rng.random() < same_project_share else None)
        index = tree.add(
            (lib.group, lib.artifact, rng.choice(lib.versions)),
            _edge_scope(rng, non_deployed_share),
            parent,
        )
        node_projects.append(lib.project)
        if tree.depths[index] < max_depth:
            open_nodes.append(index)
    return _renumber(tree)


def chain_tree(
    rng: random.Random, libraries: list[Library], depth: int, run_length: int
) -> Tree:
    """A single chain ``depth`` edges deep built from runs of
    ``run_length`` same-project libraries, with a short side branch every
    fourth level."""
    projects = list(by_project(libraries).values())
    rng.shuffle(projects)
    order: list[Library] = []
    for members in projects:
        order.extend(rng.sample(members, min(len(members), run_length)))
        if len(order) > depth + depth // 4 + 1:
            break
    if len(order) < depth + depth // 4 + 1:
        raise ValueError("not enough libraries for the chain")
    tree = Tree()
    spine = 0
    used = 0

    def take() -> tuple[str, str, str]:
        nonlocal used
        lib = order[used]
        used += 1
        return (lib.group, lib.artifact, rng.choice(lib.versions))

    tree.add(take(), "compile", -1)
    for level in range(1, depth + 1):
        spine_scope = rng.choice(DEPLOYED)
        if level % 4 == 0:
            tree.add(take(), _edge_scope(rng, 0.5), spine)
        spine = tree.add(take(), spine_scope, spine)
    return _renumber(tree)


def _renumber(tree: Tree) -> Tree:
    """Return the tree with nodes in depth-first preorder."""
    out = Tree()
    mapping = {}
    for index in tree.preorder():
        parent = tree.parents[index]
        mapping[index] = out.add(tree.gavs[index], tree.scopes[index],
                                 -1 if parent < 0 else mapping[parent])
    return out


def tree_text(tree: Tree) -> str:
    """The resolved-tree text dump (``+- `` / ``\\- `` / ``|  `` units)."""
    g, a, v = tree.gavs[0]
    lines = [f"{g}:{a}:jar:{v}"]
    # stack of (node, prefix for its children)
    stack = [(child, "", k == len(tree.children[0]) - 1)
             for k, child in reversed(list(enumerate(tree.children[0])))]
    while stack:
        index, prefix, last = stack.pop()
        g, a, v = tree.gavs[index]
        branch = "\\- " if last else "+- "
        lines.append(f"{prefix}{branch}{g}:{a}:jar:{v}:{tree.scopes[index]}")
        child_prefix = prefix + ("   " if last else "|  ")
        kids = tree.children[index]
        for k in range(len(kids) - 1, -1, -1):
            stack.append((kids[k], child_prefix, k == len(kids) - 1))
    return "\n".join(lines) + "\n"


def tree_json(tree: Tree) -> str:
    """The BoM JSON form, serialized without recursion."""
    parts: list[str] = ['{"analysis_time": "', ANALYSIS_TIME.isoformat(), '", "root": ']
    stack: list = [0]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        g, a, v = tree.gavs[item]
        parts.append(f'{{"gav": "{g}:{a}:{v}", "scope": "{tree.scopes[item]}", "children": [')
        stack.append("]}")
        kids = tree.children[item]
        for k in range(len(kids) - 1, -1, -1):
            stack.append(kids[k])
            if k:
                stack.append(", ")
    parts.append("}\n")
    return "".join(parts)


# --- vulnerability KB -------------------------------------------------------------------


def make_kb(
    rng: random.Random,
    hit_instances: list[tuple[str, str, str]],
    n_records: int,
    hit_share: float,
) -> tuple[str, dict[tuple[str, str, str], set[str]]]:
    """A KB of ``n_records`` records; about ``hit_share`` of them affect
    instances drawn from ``hit_instances`` and the rest affect libraries that
    occur nowhere in the inputs. Returns the JSON text and the
    instance -> ids index."""
    index: dict[tuple[str, str, str], set[str]] = {}
    records = []
    n_hits = max(1, round(n_records * hit_share)) if hit_instances else 0
    hit_ids = set(rng.sample(range(n_records), n_hits))
    for r in range(n_records):
        vuln_id = f"CVE-{2000 + r % 18}-{r:06d}"
        affected: dict[tuple[str, str], list[str]] = {}
        if r in hit_ids:
            for _ in range(rng.choice((1, 1, 2))):
                g, a, v = rng.choice(hit_instances)
                affected.setdefault((g, a), []).append(v)
                index.setdefault((g, a, v), set()).add(vuln_id)
        # every record also names instances that never occur in the inputs
        for _ in range(rng.choice((1, 1, 2))):
            g, a = f"net.kbonly{rng.randrange(5000)}", f"lib{rng.randrange(40)}"
            affected.setdefault((g, a), []).append(f"{rng.randrange(9)}.{rng.randrange(9)}")
        records.append(
            {
                "id": vuln_id,
                "affected": [
                    {"group": g, "artifact": a, "versions": sorted(set(vs))}
                    for (g, a), vs in affected.items()
                ],
            }
        )
    return json.dumps(records, separators=(",", ":")), index


# --- workloads ----------------------------------------------------------------------------


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _tree_file_name(tree: Tree, suffix: str) -> str:
    g, a, v = tree.gavs[0]
    return f"{g}__{a}__{v}{suffix}"


def _tree_axes(trees) -> dict:
    from oracle import same_project

    trees = list(trees)
    nodes = sum(len(t.gavs) for t in trees)
    non_deployed = sum(1 for t in trees for s in t.scopes[1:] if s in NON_DEPLOYED)
    same = 0
    for t in trees:
        for index in range(1, len(t.gavs)):
            if same_project(t.gavs[index][0], t.gavs[t.parents[index]][0]):
                same += 1
    edges = max(1, nodes - len(trees))
    return {
        "trees": len(trees),
        "nodes": nodes,
        "max_depth": max(max(t.depths) for t in trees),
        "non_deployed_share": round(non_deployed / edges, 4),
        "same_project_share": round(same / edges, 4),
    }


def _common_files(inputs: Inputs, libraries, kb_text: str) -> None:
    _write(os.path.join(inputs.root, "history.csv"), history_csv(libraries))
    _write(os.path.join(inputs.root, "kb.json"), kb_text)


def _scan_argv(root: str) -> list[str]:
    return ["scan", "--tree", os.path.join(root, "trees"),
            "--history", os.path.join(root, "history.csv"), "--kb", os.path.join(root, "kb.json"),
            "--format", "json", "--time", ANALYSIS_TIME.isoformat()]


def corpus_scan(rng: random.Random, root: str) -> Inputs:
    """A corpus of 60 trees of 50-400 nodes, depth <= 8, about 20%
    non-deployed edges, half text and half JSON, against a 3*10^4-record KB
    of which about 2% hit the corpus. Also writes chains deeper than 500,
    made of same-project runs, as failure probes outside the timed corpus."""
    libraries = make_libraries(rng, 2400, 4, stalled_share=0.3, tag="c")
    probe_libraries = make_libraries(rng, 1200, 24, stalled_share=0.3, tag="p")
    inputs = Inputs("corpus-scan", root, [],
                    {(l.group, l.artifact): l for l in libraries + probe_libraries}, {})
    tree_dir = os.path.join(root, "trees")
    probe_dir = os.path.join(root, "probes")
    os.makedirs(tree_dir)
    os.makedirs(probe_dir)
    # sizes spread evenly over 50-400 nodes, so every corpus has as many nodes
    sizes = [50 + 350 * k // (CORPUS_TREES - 1) for k in range(CORPUS_TREES)]
    rng.shuffle(sizes)
    roots = rng.sample(libraries, CORPUS_TREES)
    projects = by_project(libraries)
    for k, (size, root_lib) in enumerate(zip(sizes, roots)):
        tree = random_tree(rng, libraries, projects, size, 8, 0.2, 0.25,
                           root=(root_lib, rng.choice(root_lib.versions)))
        name = _tree_file_name(tree, ".txt" if k % 2 else ".json")
        _write(os.path.join(tree_dir, name), tree_text(tree) if k % 2 else tree_json(tree))
        inputs.trees[name] = tree
    for depth in PROBE_DEPTHS:
        tree = chain_tree(rng, probe_libraries, depth, 20)
        name = _tree_file_name(tree, ".txt")
        _write(os.path.join(probe_dir, name), tree_text(tree))
        inputs.probes[name] = tree
    instances = sorted({gav for t in inputs.trees.values() for gav in t.gavs})
    kb_text, inputs.kb = make_kb(rng, instances, KB_RECORDS, 0.02)
    _common_files(inputs, libraries + probe_libraries, kb_text)
    inputs.argv = _scan_argv(root)
    inputs.axes = _tree_axes(inputs.trees.values()) | {
        "kb_records": KB_RECORDS, "probe_depths": list(PROBE_DEPTHS)}
    return inputs


CORPUS_TREES = 60
KB_RECORDS = 30_000
PROBE_DEPTHS = (550, 650, 750)


def simulate(rng: random.Random, root: str) -> Inputs:
    """A pool of about 1.2k small trees, one per version of 400 libraries in
    shared project groups, with mixed scopes and 30% long-stalled cadences,
    against a KB where about 10% of pool instances are vulnerable."""
    libraries = make_libraries(rng, 400, 4, stalled_share=0.3, tag="s")
    for lib in libraries:  # every pool library gets three versions
        lib.versions = ["1.0", "1.1", "2.0"]
        lib.dates = _history(rng, 3, lib.dates[-1] < ANALYSIS_TIME - timedelta(days=365))
    inputs = Inputs("simulate", root, [], {(l.group, l.artifact): l for l in libraries}, {})
    pool_dir = os.path.join(root, "pool")
    os.makedirs(pool_dir)
    projects = by_project(libraries)
    for k, lib in enumerate(libraries):
        for version in lib.versions:
            tree = random_tree(rng, libraries, projects, rng.randint(1, 16), 4, 0.2, 0.3,
                               (lib, version))
            name = _tree_file_name(tree, ".json" if k % 2 else ".txt")
            _write(os.path.join(pool_dir, name), tree_json(tree) if k % 2 else tree_text(tree))
            inputs.trees[name] = tree
    instances = sorted({(l.group, l.artifact, v) for l in libraries for v in l.versions})
    kb_text, inputs.kb = make_kb(rng, instances, 300, 0.4)
    _common_files(inputs, libraries, kb_text)
    inputs.argv = ["simulate", "--trees", pool_dir, "--history", os.path.join(root, "history.csv"),
                   "--kb", os.path.join(root, "kb.json"),
                   "--projects", str(SIM_PROJECTS), "--deps", str(SIM_DEPS),
                   "--seed", str(rng.randrange(10**6)), "--time", ANALYSIS_TIME.isoformat()]
    inputs.axes = _tree_axes(inputs.trees.values()) | {
        "kb_records": 300, "projects": SIM_PROJECTS, "deps": SIM_DEPS}
    return inputs


SIM_PROJECTS = 400
SIM_DEPS = 12


def report(rng: random.Random, root: str) -> Inputs:
    """A directory of 2000 saved scan results (compact JSON), computed
    by the reference model from trees of 20-60 nodes; one file in ten holds
    an array of two results and one result in ten was scanned including
    non-deployed instances."""
    import oracle  # it imports this module's model types

    libraries = make_libraries(rng, 1500, 4, stalled_share=0.3, tag="r")
    histories = {(l.group, l.artifact): l for l in libraries}
    inputs = Inputs("report", root, [], histories, {})
    projects = by_project(libraries)
    trees = [random_tree(rng, libraries, projects, rng.randint(20, 60), 6, 0.2, 0.25)
             for _ in range(REPORT_FILES + REPORT_FILES // 10)]
    instances = sorted({gav for t in trees for gav in t.gavs})
    _, kb = make_kb(rng, instances, 1500, 1.0)
    result_dir = os.path.join(root, "results")
    os.makedirs(result_dir)
    remaining = iter(trees)
    for k in range(REPORT_FILES):
        count = 2 if k % 10 == 0 else 1
        results = [oracle.scan(next(remaining), kb, histories, ANALYSIS_TIME, rng.random() < 0.1)
                   for _ in range(count)]
        name = f"result-{k:05d}.json"
        data = results[0] if count == 1 else results
        _write(os.path.join(result_dir, name), json.dumps(data, sort_keys=True) + "\n")
        inputs.results[name] = results
    inputs.argv = ["report", "--input", result_dir, "--format", "json"]
    inputs.axes = _tree_axes(trees) | {"files": REPORT_FILES, "results": len(trees)}
    return inputs


REPORT_FILES = 2000

WORKLOADS = {
    "corpus-scan": corpus_scan,
    "simulate": simulate,
    "report": report,
}
