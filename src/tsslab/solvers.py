"""Exact seed-set search, heuristics, and the unanimity special cases.

Exhaustive searches enumerate seed sets in cardinality-major lexicographic
order.  Maximization problems range over |S| <= k, minimization problems
over |S| = k; ties always go to the smaller, then lexicographically
smaller, seed.  The scans share propagation work between seeds that share
a prefix (see Propagator.push_one/pop_to), may stop early only when a seed
reaches the problem's hard value bound, and can partition the first-vertex
blocks of each cardinality across worker processes without changing any
reported field.

Target-set and maximum-influence scans skip dominated subtrees.  At a
node with prefix P, once the child v at universe index i has been searched
in full without reaching the stop value, every later candidate w (index
j > i) in cl(P + v), including any w already active in cl(P), is dominated:
for each completion R drawn after w, P + v + R has the same size, lies in
v's subtree and closes to a superset of cl(P + w + R), because closure is
monotone and idempotent.  So w's subtree holds no target set and no seed
worth more than one already seen (ties keep the earlier seed), and is
skipped.  Such a subtree is counted at its full size, so `explored` stays
the lexicographic rank of the seed where the scan stopped, or the full
count when it does not stop, for any thread count.  Without a pool a
cardinality is one recursion, so the rule acts at the first level too.

Minimum-influence scans, where that inequality points the wrong way,
prune by a monotone bound instead: a prefix's closure only grows as seeds
are added, so a subtree whose prefix already closes to at least the
incumbent value (less the seed size in open mode) holds no strictly better
seed and is skipped.  A candidate is also skipped, with its whole subtree
and without being pushed, when its singleton closure already reaches the
incumbent: every seed holding v closes to a superset of cl({v}), so its
value is at least |cl({v})| (less the seed size in open mode).  That floor
table costs one push per universe vertex, computed once per call for
cardinalities c >= 2 (at c = 1 the leaf push is the singleton closure
itself).  The incumbent a block starts from and the floor table are fixed
before the block runs (the incumbent is the best value once the
cardinality's first block is done), so `explored`, which there counts the
seed sets evaluated and so excludes pruned and floor-skipped subtrees, is
the same for any thread count.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .instance import Instance
from .propagation import Propagator

DEFAULT_EVALUATION_LIMIT = 20_000_000


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver call.

    `value` is the target-set size or influence value; `optimal` is set only
    when an exhaustive search finished (or provably found the optimum);
    `explored` counts the seed sets the search ruled on: the lexicographic
    rank of the stopping seed for target-set and maximum-influence scans,
    the seed sets evaluated for minimum-influence scans, which leaves out
    the subtrees the closure bound and the singleton-closure floor skip
    (see the module docstring).  `seed` is None when a capped search
    exhausted its cap without a feasible set.
    """

    problem: str
    seed: frozenset[int] | None
    value: int | None
    optimal: bool
    explored: int
    k: int | None = None
    mode: str | None = None
    goal: str | None = None


# ---------------------------------------------------------------------------
# Scan kernel.  A "block" is the set of all size-c subsets of `universe`
# whose first element is universe[i] for some i in [first, last); blocks in
# index order concatenate to the full lexicographic enumeration of size-c
# subsets.

_WORKER_INST: Instance | None = None


def _pool_init(inst: Instance) -> None:
    global _WORKER_INST
    _WORKER_INST = inst


def _scan_block(
    args: tuple,
) -> tuple[int | None, tuple[int, ...] | None, int, bool]:
    """Scan one block for the best influence value.

    Returns (best_value, best_seed, seeds_scanned, stopped_at_bound); the
    scan stops early only when `stop_value` is reached, which no later seed
    in the enumeration could beat or tie-break.  `seeds_scanned` is the
    block's lexicographic count up to that seed (all of it if none stops),
    with every skipped subtree counted at its full size.

    A max-goal scan skips dominated subtrees (see the module docstring).  A
    min-goal scan given an `incumbent` value reports only seeds strictly
    below it ((None, None, ...) if there are none) and skips every prefix
    whose closure already reaches the running best, since adding seeds
    never shrinks a closure.  Given a `floor` table (floor[v] = |cl({v})|),
    it also skips, unpushed, every candidate v whose floor already reaches
    the running best.
    """
    inst, universe, c, first, last, closed, maximize, stop_value, incumbent, floor = args
    prop = Propagator(inst if inst is not None else _WORKER_INST)
    offset = 0 if closed else c
    best_v: int | None = incumbent
    best_seed: tuple[int, ...] | None = None
    scanned = 0
    u = len(universe)
    combo: list[int] = []
    # dominated[need - 1][w] == node: w is dominated at the open node of
    # that depth; node ids are never reused, so stale stamps never match.
    dominated = [[0] * (prop.n + 1) for _ in range(c)] if maximize else []
    nodes = 0

    def rec(lo: int, hi: int, need: int) -> bool:
        nonlocal best_v, best_seed, scanned, nodes
        if need == 0:
            scanned += 1
            val = prop.active_count() - offset
            if best_v is None or (val > best_v if maximize else val < best_v):
                best_v = val
                best_seed = tuple(combo)
            return val == stop_value
        if maximize:
            nodes += 1
            node = nodes
            dom = dominated[need - 1]
        elif best_v is not None and prop.active_count() - offset >= best_v:
            return False
        for i in range(lo, hi):
            v = universe[i]
            if maximize:
                if dom[v] == node:
                    scanned += comb(u - i - 1, need - 1)
                    continue
            elif floor is not None and best_v is not None and floor[v] - offset >= best_v:
                continue
            token = prop.push_one(v)
            combo.append(v)
            halt = rec(i + 1, u - need + 2, need - 1)
            combo.pop()
            if maximize and not halt:
                # What v activated is now dominated; after the first child,
                # stamp all of cl(prefix + v) so cl(prefix) is stamped too.
                for w in prop.activated_since((0, 0) if i == lo else token):
                    dom[w] = node
            prop.pop_to(token)
            if halt:
                return True
        return False

    stopped = rec(first, last, c)
    if best_seed is None:
        return None, None, scanned, stopped
    return best_v, best_seed, scanned, stopped


def _singleton_closures(inst: Instance, universe: Sequence[int]) -> list[int]:
    """floor[v] = |cl({v})| for each universe vertex v (0 elsewhere)."""
    prop = Propagator(inst)
    floor = [0] * (inst.n + 1)
    for v in universe:
        token = prop.push_one(v)
        floor[v] = prop.active_count()
        prop.pop_to(token)
    return floor


def _blocks(u: int, c: int, whole: bool) -> list[tuple[int, int]]:
    """The size-c scan as one block, or as one block per first vertex."""
    if whole:
        return [(0, u - c + 1)]
    return [(first, first + 1) for first in range(u - c + 1)]


def _map_blocks(inst: Instance, tasks: list[tuple], threads: int) -> list[tuple]:
    """Run `_scan_block` tasks in order, sequentially or on a fork pool.

    Returns reports in block order.  Run sequentially, the list ends at the
    first report that stopped at its bound; a pool computes every block and
    the caller discards reports after a stopping one, so results cannot
    depend on the thread count.  The pool is drained and joined before the
    `with` block exits, whose terminate() can deadlock on a busy pool.
    """
    if threads <= 1 or len(tasks) <= 1:
        reports = []
        for t in tasks:
            reports.append(_scan_block((inst,) + t))
            if reports[-1][3]:
                break
        return reports
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=threads, initializer=_pool_init, initargs=(inst,)) as pool:
        reports = pool.map(_scan_block, [(None,) + t for t in tasks])
        pool.close()
        pool.join()
    return reports


def optimal_target_set(
    inst: Instance, size_cap: int | None = None, *, threads: int = 1
) -> SolveResult:
    """Smallest target set, by exhaustive cardinality-major search.

    Seeds are enumerated by increasing cardinality and lexicographically
    within a cardinality; the first target set found is returned.  If no
    target set of size <= size_cap exists the result carries no seed and
    optimal=False.

    The scan is a closed max-influence scan that stops at value n, so it
    skips dominated subtrees (see the module docstring): a candidate that
    an earlier sibling activates, where that sibling's subtree held no
    target set, cannot lead to one either.  `explored` is the lexicographic
    rank of the returned seed (the full count when there is none), with
    skipped subtrees counted at full size, for any `threads`.
    """
    n = inst.n
    cap = n if size_cap is None else min(size_cap, n)
    universe = tuple(range(1, n + 1))
    explored = 0
    for c in range(cap + 1):
        if c == 0:
            explored += 1
            if n == 0:
                return SolveResult(
                    "target-set", frozenset(), 0, True, explored
                )
            continue
        tasks = [
            (universe, c, first, last, True, True, n, None, None)
            for first, last in _blocks(n, c, threads <= 1)
        ]
        for _, seed, scanned, stopped in _map_blocks(inst, tasks, threads):
            explored += scanned
            if stopped:
                return SolveResult("target-set", frozenset(seed), c, True, explored)
    return SolveResult("target-set", None, None, False, explored)


def k_influence(
    inst: Instance,
    k: int,
    mode: str = "closed",
    goal: str = "max",
    exact_cardinality: bool | None = None,
    *,
    universe: Sequence[int] | None = None,
    threads: int = 1,
    max_evaluations: int = DEFAULT_EVALUATION_LIMIT,
) -> SolveResult:
    """Exhaustive best-influence seed of bounded size.

    Maximization searches |S| <= k, minimization |S| = k, unless
    exact_cardinality overrides the convention.  `universe` restricts the
    vertices seeds may use.  Refuses enumerations larger than
    `max_evaluations` seed sets (counted before any pruning).

    Maximization skips dominated subtrees: a candidate that an earlier
    sibling activates, where that sibling's subtree never reached the stop
    value, cannot lead to a seed worth more.  `explored` is then the
    lexicographic rank of the seed where the scan stopped (the full count
    if none), with skipped subtrees counted at full size.  Minimization
    runs each cardinality's first block alone and then the remaining blocks
    from its best value.  It prunes a prefix by the monotone closure bound,
    and, for c >= 2, skips a candidate v unpushed when |cl({v})| (less c in
    open mode) already reaches the best value, since every seed holding v
    closes to at least cl({v}).  `explored` counts the seed sets evaluated,
    so it excludes both kinds of skipped subtree.  Either way (see the
    module docstring) values and witnesses are those of the full
    enumeration, and `explored` does not depend on `threads`.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    if goal not in ("max", "min"):
        raise ValueError(f"goal must be 'max' or 'min', got {goal!r}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = inst.n
    if universe is None:
        uni = tuple(range(1, n + 1))
    else:
        uni = tuple(sorted(set(universe)))
        for v in uni:
            if not 1 <= v <= n:
                raise ValueError(f"universe vertex {v} out of range 1..{n}")
    exact = (goal == "min") if exact_cardinality is None else exact_cardinality
    if exact:
        if k > len(uni):
            raise ValueError(
                f"no seed of size {k} exists in a universe of {len(uni)} vertices"
            )
        sizes = [k]
    else:
        sizes = list(range(0, min(k, len(uni)) + 1))

    total = sum(comb(len(uni), c) for c in sizes)
    if total > max_evaluations:
        raise ValueError(
            f"enumeration would evaluate about {total} seed sets, "
            f"above the limit of {max_evaluations}"
        )

    maximize = goal == "max"
    floor: list[int] | None = None
    best_v: int | None = None
    best_seed: tuple[int, ...] | None = None
    explored = 0
    for c in sizes:
        if maximize:
            stop_value = n if mode == "closed" else n - c
        else:
            stop_value = c if mode == "closed" else 0
        if c == 0:
            explored += 1
            val = 0
            if best_v is None or (val > best_v if maximize else val < best_v):
                best_v, best_seed = val, ()
            if val == stop_value:
                break
            continue
        if maximize:
            waves = [_blocks(len(uni), c, threads <= 1)]
        else:
            # At c = 1 the leaf push is the singleton closure itself, so the
            # floor table would only double the work.
            if c >= 2 and floor is None:
                floor = _singleton_closures(inst, uni)
            # The min goal's incumbent must not depend on which blocks
            # finished first, so the first block runs alone and the rest
            # start from it.
            firsts = _blocks(len(uni), c, False)
            waves = [firsts[:1], firsts[1:]]
        hit_bound = False
        for wave in waves:
            incumbent = None if maximize else best_v
            tasks = [
                (uni, c, first, last, mode == "closed", maximize, stop_value, incumbent, floor)
                for first, last in wave
            ]
            for bv, bs, scanned, stopped in _map_blocks(inst, tasks, threads):
                explored += scanned
                if bv is not None and (
                    best_v is None or (bv > best_v if maximize else bv < best_v)
                ):
                    best_v, best_seed = bv, bs
                if stopped:
                    hit_bound = True
                    break
            if hit_bound:
                break
        if hit_bound:
            break
    assert best_v is not None and best_seed is not None
    return SolveResult(
        "k-influence",
        frozenset(best_seed),
        best_v,
        True,
        explored,
        k=k,
        mode=mode,
        goal=goal,
    )


def greedy_target_set(inst: Instance) -> SolveResult:
    """Upper-bound heuristic: repeatedly seed the vertex with the largest
    marginal closed influence (ties to the smallest id) until everything
    activates."""
    n = inst.n
    prop = Propagator(inst)
    seed: list[int] = []
    explored = 0
    while not prop.is_full() and len(seed) < n:
        chosen = None
        best_gain = -1
        in_seed = set(seed)
        for v in range(1, n + 1):
            if v in in_seed:
                continue
            token = prop.push_one(v)
            explored += 1
            gain = prop.active_count()
            prop.pop_to(token)
            if gain > best_gain:
                best_gain = gain
                chosen = v
        assert chosen is not None
        seed.append(chosen)
        prop.push_one(chosen)
    prop.reset()
    return SolveResult("target-set-greedy", frozenset(seed), len(seed), False, explored)


def _require_unanimity(inst: Instance) -> None:
    for v in range(1, inst.n + 1):
        d = inst.graph.degree(v)
        if d >= 1 and inst.thr[v] != d:
            raise ValueError(
                f"vertex {v} has threshold {inst.thr[v]} but degree {d}; "
                "expected unanimity thresholds"
            )


def unanimity_target_set_2approx(inst: Instance) -> SolveResult:
    """Matching-based cover for unanimity thresholds.

    Both endpoints of a lexicographically greedy maximal matching form a
    vertex cover, hence a target set, of size at most twice the optimum;
    vertices without edges can only be seeded, so they are appended.
    """
    _require_unanimity(inst)
    matched: set[int] = set()
    for u, v in inst.graph.edges:
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
    isolated = [v for v in range(1, inst.n + 1) if inst.graph.degree(v) == 0]
    seed = frozenset(matched) | frozenset(isolated)
    return SolveResult("target-set-unanimity-2approx", seed, len(seed), False, 0)


def _components(inst: Instance) -> list[list[int]]:
    seen = [False] * (inst.n + 1)
    comps = []
    for s in range(1, inst.n + 1):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in inst.graph.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _bfs_tree(inst: Instance, comp: list[int]) -> dict[int, set[int]]:
    """Breadth-first spanning tree of one component, rooted at its smallest id."""
    tree: dict[int, set[int]] = {v: set() for v in comp}
    root = comp[0]
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in inst.graph.neighbors(u):
            if w not in seen:
                seen.add(w)
                tree[u].add(w)
                tree[w].add(u)
                queue.append(w)
    return tree


def _peel_leaves(tree: dict[int, set[int]], count: int) -> list[int]:
    """Remove `count` vertices, each the smallest-id current leaf.

    Peeling a spanning-tree leaf keeps the remainder of the tree spanning
    the remainder of the component, so after peeling, every unseeded vertex
    of a component with >= 2 survivors still has an unseeded neighbor.
    """
    peeled = []
    for _ in range(count):
        leaves = [v for v, nb in tree.items() if len(nb) <= 1]
        v = min(leaves)
        for w in tree[v]:
            tree[w].discard(v)
        del tree[v]
        peeled.append(v)
    return peeled


def min_open_influence_unanimity(inst: Instance, k: int) -> SolveResult:
    """Minimum open k-influence under unanimity thresholds, in polynomial
    time, with a witness seed.

    Under unanimity a vertex activates only when every neighbor is active,
    so an unseeded vertex stays inactive as long as it keeps an unseeded
    neighbor (or has no neighbor at all).  Per component of size c the seed
    amounts with zero spill are {0..c-2} and c (and both 0 and 1 for a
    single vertex); seeding all but one vertex of a component spills
    exactly one activation.  A small table over the components finds the
    cheapest way to place exactly k seeds, which yields optimum 0 or 1; the
    witness peels breadth-first spanning-tree leaves so component
    remainders stay connected.  The minimum closed value is this value
    plus k.
    """
    _require_unanimity(inst)
    n = inst.n
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}")
    comps = _components(inst)

    # dp[j] = fewest spilled activations placing exactly j seeds so far.
    INF = n + 1
    dp = [0] + [INF] * k
    choices: list[list[int | None]] = []
    for comp in comps:
        c = len(comp)
        options = [(p, 0) for p in range(0, max(c - 1, 1))]  # 0..c-2, or 0..1 if c==1
        if c == 1:
            options = [(0, 0), (1, 0)]
        else:
            options.append((c - 1, 1))
            options.append((c, 0))
        nxt = [INF] * (k + 1)
        pick: list[int | None] = [None] * (k + 1)
        for j in range(k + 1):
            if dp[j] == INF:
                continue
            for p, cost in options:
                if j + p > k:
                    continue
                if dp[j] + cost < nxt[j + p]:
                    nxt[j + p] = dp[j] + cost
                    pick[j + p] = p
        dp = nxt
        choices.append(pick)

    value = dp[k]
    assert value <= 1, "unanimity optimum is always 0 or 1"

    # Reconstruct per-component seed amounts, then peel witnesses.
    amounts = []
    j = k
    for comp, pick in zip(reversed(comps), reversed(choices)):
        p = pick[j]
        assert p is not None
        amounts.append(p)
        j -= p
    amounts.reverse()

    seed: list[int] = []
    for comp, p in zip(comps, amounts):
        if p == len(comp):
            seed.extend(comp)
        elif p:
            seed.extend(_peel_leaves(_bfs_tree(inst, comp), p))
    return SolveResult(
        "min-open-influence-unanimity",
        frozenset(seed),
        value,
        True,
        0,
        k=k,
        mode="open",
        goal="min",
    )
