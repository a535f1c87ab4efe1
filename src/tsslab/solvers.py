"""Exact seed-set search, heuristics, and the unanimity special cases.

The exhaustive solvers, `optimal_target_set` and `k_influence`, enumerate
seed sets cardinality-major, lexicographically within a cardinality, and
keep one incumbent across cardinalities: a seed replaces it only when
strictly better, so ties go to the smaller, then lexicographically
smaller, seed.  `explored` counts the seed sets a scan ruled on.  For
target-set and maximum-influence scans it is the lexicographic rank of
the seed where the scan stopped (the full count when it does not stop),
every skipped subtree counted at its full size.  For minimum-influence
scans it is the number of seeds evaluated, skipped subtrees excluded.
No skip changes a value or a witness; each is proved in the docstring of
the function that applies it:

- sibling dominance, the suffix-closure bound, the prefix bound and the
  singleton floor: `_search`;
- the full-vertex stop of the floor table: `_singleton_closures`;
- the candidate set, on which `optimal_target_set` rules out sizes and
  finds its witness: `_candidates`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .instance import Instance
from .propagation import Propagator

DEFAULT_EVALUATION_LIMIT = 20_000_000


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver call.

    `value` is the target-set size or influence value; `optimal` is set only
    when an exhaustive search finished (or provably found the optimum);
    `explored` counts the seed sets the search ruled on (see the module
    docstring).  `seed` is None when a capped search exhausted its cap
    without a feasible set.
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
# Exhaustive search.


def _search(
    inst: Instance,
    universe: Sequence[int],
    sizes: Iterable[int],
    closed: bool,
    maximize: bool,
) -> tuple[int | None, tuple[int, ...] | None, int]:
    """Best influence over the seeds of each size in `sizes` (ascending)
    drawn from `universe`, as (best_value, best_seed, explored).

    One Propagator and one incumbent serve every cardinality; each
    cardinality c is one recursion.  Internal levels push each candidate on
    the journal and pop it after its subtree; the last level evaluates a
    candidate v in place as |cl(prefix)| + len(gain(v)), under the same
    skips and stop test, and copies the prefix only when a leaf improves
    the best value.  With offset = c in open mode (0 in closed mode), the
    scan stops at the first seed reaching the stop value, n - offset for
    max and c - offset for min, which no later seed could beat or
    tie-break.

    A max-goal search skips two kinds of subtree, each counted at its full
    size so that `explored` stays the lexicographic rank:

    - Dominance.  At a node with prefix P, once the child v at universe
      index i has been searched in full without reaching the stop value,
      every later candidate w in cl(P + v), including any w already in
      cl(P), is dominated: for each completion R drawn after w, P + v + R
      has the same size, lies in v's subtree and closes to a superset of
      cl(P + w + R), because closure is monotone and idempotent.  So w's
      subtree holds no seed worth more than one already seen (ties keep
      the earlier seed) and none reaching the stop value.
      dominated[need - 1][w] == node marks w at the open node of that
      depth; node ids are never reused, so stale stamps never match.
    - Suffix closure, at nodes with at least two seeds still to choose.
      Every seed under the child at index i is P + R with R drawn from
      universe[i:], so it closes to at most |cl(P + universe[i:])|.  With
      limit = min(best, stop - 1) + offset, a child whose suffix closure
      is at most limit holds no seed strictly better than the incumbent
      and none reaching the stop value; without the stop clamp, a seed
      that only ties the incumbent at the stop value (open mode) would be
      skipped instead of ending the scan.  Suffix closures shrink as i
      grows, so the bounded children are those from some index `cut` on,
      found by pushing universe[u-1], universe[u-2], ... until the closure
      exceeds limit.  A skipped seed is worth no more than the incumbent
      and less than the stop value, which is all dominance asks of a
      searched subtree.  The last level does not sweep: there the pushes
      cost as much as the `gain` calls they save.

    A min-goal search, where the dominance inequality points the wrong
    way, skips two other kinds of subtree and leaves them out of
    `explored`:

    - Prefix bound.  A closure only grows as seeds are added, so a prefix
      whose closure, less the offset, already reaches the best value holds
      no strictly better seed.  Once there is an incumbent, a push stops
      cascading when the active count reaches best + offset, and a leaf's
      `gain` when its length reaches best - |cl(prefix)| + offset.  This
      is exact: a stopped count already reaches the bound, as the full
      closure would, so the child's prefix test prunes it and the leaf is
      no improvement (it cannot reach the stop value either, which lies
      below the best), while a cascade that does not stop is the full
      one; pop_to restores everything a stopped push did.
    - Singleton floor, from the first c >= 2 on.  A candidate v is skipped
      unpushed when |cl({v})| - offset reaches the best value: every seed
      holding v closes to a superset of cl({v}).  The table
      (`_singleton_closures`) is built once per call; at c = 1 the leaf
      evaluation is the singleton closure itself.
    """
    prop = Propagator(inst)
    gain = prop.gain
    n = prop.n
    best_v: int | None = None
    best_seed: tuple[int, ...] | None = None
    explored = 0
    u = len(universe)
    combo: list[int] = []
    floor: list[int] | None = None
    dominated: list[list[int]] = []
    nodes = 0

    def leaves(lo: int, hi: int, node: int, dom: list[int]) -> bool:
        nonlocal best_v, best_seed, explored
        base = prop.active_count() - offset
        for i in range(lo, hi):
            v = universe[i]
            if maximize:
                if dom[v] == node:
                    explored += 1
                    continue
            elif floor is not None and best_v is not None and floor[v] - offset >= best_v:
                continue
            new = gain(v) if maximize or best_v is None else gain(v, best_v - base)
            explored += 1
            val = base + len(new)
            if best_v is None or (val > best_v if maximize else val < best_v):
                best_v = val
                best_seed = (*combo, v)
            if val == stop_value:
                return True
            if maximize:
                # Same stamps as an inner level: after the first child,
                # cl(prefix) too.
                if i == lo:
                    for w in prop.activated_since((0, 0)):
                        dom[w] = node
                for w in new:
                    dom[w] = node
        return False

    def rec(lo: int, hi: int, need: int) -> bool:
        nonlocal nodes, explored
        node = 0
        dom: list[int] = []
        if maximize:
            nodes += 1
            node = nodes
            dom = dominated[need - 1]
        elif best_v is not None and prop.active_count() - offset >= best_v:
            return False
        if need == 1:
            return leaves(lo, hi, node, dom)
        cut = hi
        if maximize and best_v is not None:
            # Suffix-closure bound: no seed under a child from `cut` on
            # closes to more than `limit`.
            limit = min(best_v, stop_value - 1) + offset
            if prop.active_count() <= limit:
                token = prop.push_one(universe[u - 1])
                j = u - 1
                while j > lo and prop.active_count() <= limit:
                    j -= 1
                    prop.push_one(universe[j])
                cut = j + 1 if prop.active_count() > limit else lo
                prop.pop_to(token)
        for i in range(lo, min(hi, cut)):
            v = universe[i]
            if maximize:
                if dom[v] == node:
                    explored += comb(u - i - 1, need - 1)
                    continue
            elif floor is not None and best_v is not None and floor[v] - offset >= best_v:
                continue
            token = prop.push_one(v, None if maximize or best_v is None else best_v + offset)
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
        explored += comb(u - cut, need)  # 0 when nothing was cut
        return False

    for c in sizes:
        offset = 0 if closed else c
        stop_value = (n if maximize else c) - offset
        if c == 0:
            # Sizes ascend, so the empty seed is the first one ruled on.
            explored += 1
            best_v, best_seed = 0, ()
            if stop_value == 0:
                break
            continue
        if maximize:
            dominated.extend([0] * (n + 1) for _ in range(len(dominated), c))
        elif c >= 2 and floor is None:
            floor = _singleton_closures(inst, universe)
        if rec(0, u - c + 1, c):
            break
    # rec reaches itself through its closure cell; clearing it frees the
    # scan's state now rather than at the next cyclic collection.
    del rec
    return best_v, best_seed, explored


def _singleton_closures(inst: Instance, universe: Sequence[int]) -> list[int]:
    """floor[v] = |cl({v})| for each universe vertex v (0 elsewhere).

    The universe is walked in order, one cascade per vertex, and a cascade
    stops at the first vertex a it activates whose own entry is already
    known to be n: cl({v}) contains a, hence cl({a}), which is every
    vertex, so floor[v] = n too, and v is then known full in turn.  Only
    vertices whose own closure is full are ever known full, never the
    vertices their cascades passed through, so the table is exactly the
    singleton closures.

    Each cascade counts down left[w], the active neighbours w still lacks.
    The seed starts at 0, w fires when its entry reaches 0, and every later
    bump drives an active entry negative, so nothing fires twice.
    mark[w] == v says left[w] belongs to v's cascade, so no entry is ever
    reset between cascades.
    """
    n = inst.n
    adj = inst.graph.adj
    thr = inst.thr
    floor = [0] * (n + 1)
    mark = [0] * (n + 1)
    left = [0] * (n + 1)
    for v in universe:
        mark[v] = v
        left[v] = 0
        size = 1
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if mark[w] != v:
                    mark[w] = v
                    left[w] = thr[w]
                c = left[w] - 1
                left[w] = c
                if not c:
                    if floor[w] == n:
                        size = n
                        stack.clear()
                        break
                    size += 1
                    stack.append(w)
        floor[v] = size
    return floor


def _candidates(inst: Instance) -> list[int]:
    """The candidates: the vertices b in no cl({a}) with a < b, largest
    singleton closure first (ties by id).

    Lemma: the first least target set, in the order of the module
    docstring, holds only candidates.  Let a least target set S hold b in
    cl({a}) with a < b.  The seed S - b + a holds a, so its closure holds
    b, hence S, hence every vertex.  If a is in S, that seed is smaller
    than S; otherwise it has S's size and is lexicographically smaller.
    So a size with no target set over the candidates has none at all, and
    at the least size the first target set over the candidates in id order
    is the first over all vertices.  At size 1 it is {a} for the first
    vertex a whose closure is every vertex, so the walk returns [a] there.

    One Propagator walks the ids in ascending order, asks `gain(a)` of
    each vertex a not yet marked, and marks all of cl({a}).  Before its
    turn a vertex can be marked only by a smaller one, so an unmarked
    vertex is a candidate.  If b is in cl({a}) for some a < b, the least
    such a is unmarked (a smaller vertex closing to a would close to b),
    so it is walked and marks b.
    """
    prop = Propagator(inst)
    n = inst.n
    marked = bytearray(n + 1)
    walked: list[tuple[int, int]] = []
    for a in range(1, n + 1):
        if marked[a]:
            continue
        closure = prop.gain(a)
        if len(closure) == n:
            return [a]
        for c in closure:
            marked[c] = 1
        walked.append((-len(closure), a))
    walked.sort()
    return [a for _, a in walked]


def _lex_rank(n: int, seed: Sequence[int]) -> int:
    """Rank, from 1, of the ascending `seed` among the subsets of 1..n of
    its size c in lexicographic order: comb(n, c) less the subsets after
    it, counted by the first index i where they differ, where they draw
    their c - i last members from the n - seed[i] ids above seed[i]."""
    c = len(seed)
    return comb(n, c) - sum(comb(n - v, c - i) for i, v in enumerate(seed))


def optimal_target_set(inst: Instance, size_cap: int | None = None) -> SolveResult:
    """Smallest target set, by exhaustive cardinality-major search.

    The first target set in the order is returned.  If no target set of
    size <= size_cap exists the result carries no seed and optimal=False;
    a negative size_cap raises ValueError.

    Each size is ruled out on the candidates (`_candidates`), largest
    closure first; at the first size with a target set, the candidates are
    scanned again in id order for the witness.  `explored` is that of the
    scan over all vertices: every size ruled out counts in full, and the
    witness's size adds its lexicographic rank (`_lex_rank`).
    """
    if size_cap is not None and size_cap < 0:
        raise ValueError("size_cap must be nonnegative")
    n = inst.n
    cap = n if size_cap is None else min(size_cap, n)
    explored = 1  # the empty seed, a target set only when there are no vertices
    if n == 0:
        return SolveResult("target-set", frozenset(), 0, True, explored)
    if cap == 0:
        return SolveResult("target-set", None, None, False, explored)
    cands = _candidates(inst)
    if len(cands) == 1:
        # By the lemma a lone candidate is the first target singleton; its
        # rank among the size-1 seeds is its id.
        return SolveResult("target-set", frozenset(cands), 1, True, explored + cands[0])
    explored += n
    for c in range(2, cap + 1):
        if _search(inst, cands, (c,), True, True)[0] == n:
            seed = _search(inst, sorted(cands), (c,), True, True)[1]
            explored += _lex_rank(n, seed)
            return SolveResult("target-set", frozenset(seed), c, True, explored)
        explored += comb(n, c)
    return SolveResult("target-set", None, None, False, explored)


def k_influence(
    inst: Instance,
    k: int,
    mode: str = "closed",
    goal: str = "max",
    *,
    universe: Sequence[int] | None = None,
) -> SolveResult:
    """Exhaustive best-influence seed of bounded size.

    Maximization searches |S| <= k, minimization |S| = k (the empty seed
    would otherwise always win it).  `universe` restricts the vertices
    seeds may use.  Refuses enumerations larger than
    DEFAULT_EVALUATION_LIMIT seed sets (counted before any pruning).  The
    order, the tie rule and `explored` are the module docstring's.
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
    if goal == "min":
        if k > len(uni):
            raise ValueError(
                f"no seed of size {k} exists in a universe of {len(uni)} vertices"
            )
        sizes = [k]
    else:
        sizes = list(range(0, min(k, len(uni)) + 1))

    total = sum(comb(len(uni), size) for size in sizes)
    if total > DEFAULT_EVALUATION_LIMIT:
        raise ValueError(
            f"enumeration would evaluate about {total} seed sets, "
            f"above the limit of {DEFAULT_EVALUATION_LIMIT}"
        )

    value, seed, explored = _search(inst, uni, sizes, mode == "closed", goal == "max")
    assert value is not None and seed is not None
    return SolveResult(
        "k-influence",
        frozenset(seed),
        value,
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
    prop = Propagator(inst)
    n = prop.n
    seed: list[int] = []
    explored = 0
    while not prop.is_full():
        # An active vertex gains (), an inactive one at least itself, so the
        # first maximum is the least inactive vertex of largest gain.
        explored += n - len(seed)
        gains = [len(prop.gain(v)) for v in range(1, n + 1)]
        seed.append(gains.index(max(gains)) + 1)
        prop.push_one(seed[-1])
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


def _components(inst: Instance) -> list[tuple[list[int], dict[int, set[int]]]]:
    """Each component's sorted vertices and its breadth-first spanning tree,
    rooted at its smallest id (the tree as an adjacency map)."""
    seen = [False] * (inst.n + 1)
    comps = []
    for s in range(1, inst.n + 1):
        if seen[s]:
            continue
        tree: dict[int, set[int]] = {s: set()}
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in inst.graph.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    tree[u].add(w)
                    tree[w] = {u}
                    queue.append(w)
        comps.append((sorted(tree), tree))
    return comps


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
    for comp, _ in comps:
        c = len(comp)
        options = [(p, 0) for p in range(c - 1)] + [(c - 1, int(c > 1)), (c, 0)]
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
    for pick in reversed(choices):
        p = pick[j]
        assert p is not None
        amounts.append(p)
        j -= p
    amounts.reverse()

    seed: list[int] = []
    for (comp, tree), p in zip(comps, amounts):
        if p == len(comp):
            seed.extend(comp)
        elif p:
            seed.extend(_peel_leaves(tree, p))
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
