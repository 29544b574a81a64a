"""Independent reference for the benchmark's output checks.

Computed from the generator's own model of the inputs, never by depscope's
pipeline. Filtering, matching, grouping, responsibility, smoothing and the
aggregate cells are taken from their definitions in the depscope README and
docstrings, written as brute-force walks over flat node lists (no recursion,
so chains of any depth work).
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from datetime import date, timedelta

from gen import NON_DEPLOYED, Library, Tree

ALPHA = 0.6
DEFAULT_INTERVAL_DAYS = 90
MIN_RELEASES = 3

_VULN = ("vuln", "safe")
_POSITION = ("direct", "transitive")
_RESP = ("own", "direct", "transitive")
_LIFE = ("halted", "outdated", "up_to_date")
CELL_KEYS = (
    [f"{row}/{v}/{p}" for row in ("deployed", "all") for v in _VULN for p in _POSITION]
    + [f"grouped/{v}/{r}" for v in _VULN for r in _RESP]
    + [f"lifecycle/{v}/{s}" for v in _VULN for s in _LIFE]
    + [f"via_halted/{v}/{s}" for v in _VULN for s in _LIFE]
    + [f"paths/{stage}/{r}" for stage in ("grouped", "ungrouped") for r in _RESP]
    + ["unknown_history", "trees", "trees_include_non_deployed"]
)


def same_project(a: str, b: str) -> bool:
    """Equal groups, or one a dot-boundary prefix of the other."""
    return _same_parts(_parts(a), _parts(b))


@functools.cache
def _parts(group_id: str) -> tuple[str, ...]:
    return tuple(group_id.split("."))


def _same_parts(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def group(path, limit: int | None = None) -> list:
    """Keep each member unless it shares a project with a member kept before
    it. With ``limit``, stop once more than ``limit`` members are kept (the
    census only needs to tell a grouped length of two from a longer one)."""
    kept: list = []
    kept_parts: list[tuple[str, ...]] = []
    for gav in path:
        parts = _parts(gav[0])
        if not any(_same_parts(k, parts) for k in kept_parts):
            kept.append(gav)
            kept_parts.append(parts)
            if limit is not None and len(kept) > limit:
                break
    return kept


def responsibility(grouped, root) -> str:
    if same_project(grouped[0][0], root[0]):
        return "own"
    return "direct" if len(grouped) == 2 else "transitive"


def expected_release(lib: Library) -> date:
    """Last release plus round-half-up of sum a(1-a)^i d_i over the intervals,
    most recent first; short histories use the default interval."""
    if len(lib.versions) < MIN_RELEASES:
        interval = float(DEFAULT_INTERVAL_DAYS)
    else:
        days = [(b - a).days for a, b in zip(lib.dates, lib.dates[1:])]
        interval = 0.0
        for age, d in enumerate(reversed(days)):
            interval += ALPHA * (1.0 - ALPHA) ** age * d
    return lib.dates[-1] + timedelta(days=math.floor(interval + 0.5))


def halted(lib: Library, time: date) -> bool:
    return expected_release(lib) < time


def outdated(lib: Library, version: str, time: date) -> bool:
    own = lib.dates[lib.versions.index(version)]
    return any(own < d <= time for d in lib.dates)


def scan(tree: Tree, kb, histories, time: date, include_non_deployed: bool) -> dict:
    """The scan result of one tree, shaped like depscope's JSON rendering."""
    n = len(tree.gavs)
    root = tree.gavs[0]
    deployed = [True] * n
    chains: list[list[tuple[str, str, str]]] = [[root]] + [[] for _ in range(n - 1)]
    for i in range(1, n):  # preorder: the parent is always filled first
        p = tree.parents[i]
        deployed[i] = deployed[p] and tree.scopes[i] not in NON_DEPLOYED
        chains[i] = [tree.gavs[i]] + chains[p]
    status: dict[tuple[str, str], bool] = {}

    def is_halted(gav) -> bool:
        ga = gav[:2]
        if ga not in status:
            status[ga] = halted(histories[ga], time)
        return status[ga]

    # via halted: deployed nodes below a halted deployed direct dependency
    via = [False] * n
    top = [0] * n
    for i in range(1, n):
        top[i] = i if tree.depths[i] == 1 else top[tree.parents[i]]
        via[i] = deployed[i] and top[i] != i and is_halted(tree.gavs[top[i]])

    def ids_of(i: int) -> list[str]:
        if not include_non_deployed and not deployed[i]:
            return []
        return sorted(kb.get(tree.gavs[i], ()))

    census = []
    for i in range(1, n):
        gav = tree.gavs[i]
        lib = histories[gav[:2]]
        census.append(
            {
                "gav": ":".join(gav),
                "depth": tree.depths[i],
                "direct": tree.depths[i] == 1,
                "deployed": deployed[i],
                "vuln_ids": ids_of(i),
                "own": same_project(gav[0], root[0]),
                "responsibility": responsibility(group(chains[i], limit=2), root),
                "library_status": "halted" if is_halted(gav) else "alive",
                "instance_status": "outdated" if outdated(lib, gav[2], time) else "up_to_date",
                "via_halted": via[i],
                "unknown_history": False,
            }
        )
    paths = []
    for i in range(n):
        ids = ids_of(i)
        grouped = group(chains[i]) if ids else []
        for vuln_id in ids:
            paths.append(
                {
                    "vuln_id": vuln_id,
                    "raw_path": [":".join(g) for g in chains[i]],
                    "grouped_path": [":".join(g) for g in grouped],
                    "responsibility": responsibility(grouped, root),
                    "via_halted": via[i],
                }
            )
    return {
        "analysis_time": time.isoformat(),
        "census": census,
        "include_non_deployed": include_non_deployed,
        "paths": paths,
        "root": ":".join(root),
    }


def exit_code(results: list[dict]) -> int:
    """2 when some path starts at a deployed instance or the root, else 0."""
    for result in results:
        deployed = {row["gav"] for row in result["census"] if row["deployed"]}
        deployed.add(result["root"])
        if any(path["raw_path"][0] in deployed for path in result["paths"]):
            return 2
    return 0


def path_labels(result: dict) -> list[tuple]:
    return [
        (p["vuln_id"], tuple(p["raw_path"]), tuple(p["grouped_path"]),
         p["responsibility"], p["via_halted"])
        for p in result["paths"]
    ]


def cells(results: list[dict]) -> dict[str, int]:
    """The aggregate cross-tabulation, from the README's cell definitions."""
    counts = dict.fromkeys(CELL_KEYS, 0)
    for result in results:
        counts["trees"] += 1
        counts["trees_include_non_deployed"] += bool(result["include_non_deployed"])
        root = tuple(result["root"].split(":"))
        for row in result["census"]:
            v = "vuln" if row["vuln_ids"] else "safe"
            position = "direct" if row["depth"] == 1 else "transitive"
            counts[f"all/{v}/{position}"] += 1
            counts["unknown_history"] += bool(row["unknown_history"])
            if not row["deployed"]:
                continue
            counts[f"deployed/{v}/{position}"] += 1
            counts[f"grouped/{v}/{row['responsibility']}"] += 1
            if row["library_status"] == "halted":
                bucket = "halted"
            elif row["instance_status"] == "outdated":
                bucket = "outdated"
            else:
                bucket = "up_to_date"
            counts[f"lifecycle/{v}/{bucket}"] += 1
            if row["via_halted"]:
                counts[f"via_halted/{v}/{bucket}"] += 1
        for path in result["paths"]:
            counts[f"paths/grouped/{path['responsibility']}"] += 1
            raw = [tuple(g.split(":")) for g in path["raw_path"]]
            counts[f"paths/ungrouped/{responsibility(raw, root)}"] += 1
    return counts


def scan_digest(result: dict) -> tuple:
    """What the scan check compares: root, path labels and census cells."""
    return result["root"], path_labels(result), cells([result])


# --- simulate ---------------------------------------------------------------------------


def project_tree(pool: dict, seed: int, index: int, deps: int) -> Tree:
    """The synthetic project of the README's simulate definition: SHA-256
    sub-seeded Mersenne Twister, ``deps`` distinct libraries in sorted order,
    one sorted-order version each, first-drawn occurrence of a library wins."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    libraries = sorted(pool)
    picks = []
    for ga in rng.sample(libraries, deps):
        picks.append(pool[ga][rng.choice(sorted(pool[ga]))])
    out = Tree()
    out.add(("sim.depscope", f"project-{index}", "1.0"), "compile", -1)
    seen = {("sim.depscope", f"project-{index}")}
    for pick in picks:
        stack = [(0, 0)]  # (node in pick, parent in out)
        while stack:
            node, parent = stack.pop()
            ga = pick.gavs[node][:2]
            if ga in seen:
                continue
            seen.add(ga)
            index_out = out.add(pick.gavs[node], pick.scopes[node], parent)
            for child in reversed(pick.children[node]):
                stack.append((child, index_out))
    return out


def project_counts(tree: Tree, kb, histories, time: date) -> tuple[int, ...]:
    """(all, deployed, controlled standard, controlled proposed, halted)
    vulnerable instance counts of one synthetic project."""
    result = scan(tree, kb, histories, time, include_non_deployed=True)
    rows = [r for r in result["census"] if r["vuln_ids"]]
    deployed = [r for r in rows if r["deployed"]]
    return (
        len(rows),
        len(deployed),
        sum(1 for r in rows if r["depth"] == 1),
        sum(1 for r in deployed if r["responsibility"] in ("own", "direct")),
        sum(1 for r in deployed if r["library_status"] == "halted"),
    )
