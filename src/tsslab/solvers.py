"""Exact seed-set search, heuristics, and the unanimity special cases.

Exhaustive searches enumerate seed sets in cardinality-major lexicographic
order.  Maximization problems range over |S| <= k, minimization problems
over |S| = k; ties always go to the smaller, then lexicographically
smaller, seed.  The scans share propagation work between seeds that share
a prefix: internal levels push and pop seeds on the Propagator journal
(push_one/pop_to), and the last level evaluates each candidate in place
with Propagator.gain, which returns what a push would activate and leaves
the engine untouched, so a leaf costs no journal push or pop.  Both exact
solvers, `optimal_target_set` and `k_influence`, run through one
`_search`, which scans the cardinalities in order with one Propagator and
keeps one incumbent across them.  Each cardinality is one recursion, and
the search stops early only when a seed reaches the problem's hard value
bound.

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
count when it does not stop.

Those scans also bound a subtree by its suffix, at every node with at
least two seeds still to choose.  Every seed under the child at universe
index i is P + R with R drawn from universe[i:], so by monotonicity its
closure is at most |cl(P + universe[i:])|.  Let limit = min(best,
stop - 1) + offset, with the running best and the stop value as values
and offset the seed size in open mode (0 in closed mode).  A child whose
suffix closure is at most limit holds no seed strictly better than the
incumbent, so none replaces it, and none that reaches the stop value, so
none ends the scan.  Suffix closures shrink as i grows, so the children
from some index `cut` on are exactly the bounded ones; the node finds
`cut` by pushing universe[u-1], universe[u-2], ... until the closure
exceeds limit, then pops back.  Those children are skipped and counted at
their full size, comb(u - cut, need), so `explored` is unchanged.
Without the stop clamp, a seed that only ties the incumbent at the stop
value (open mode) would be skipped instead of ending the scan.  Dominance
stays sound: a seed the bound skips is worth no more than the incumbent
and less than the stop value, which is all the dominance argument asks of
the seeds in a searched subtree.  The last level does not sweep: there
the pushes cost as much as the `gain` calls they save.

Minimum-influence scans, where the dominance inequality points the wrong
way, prune by a monotone bound instead: a prefix's closure only grows as seeds
are added, so a subtree whose prefix already closes to at least the
incumbent value (less the seed size in open mode) holds no strictly better
seed and is skipped.  A candidate is also skipped, with its whole subtree
and without being pushed, when its singleton closure already reaches the
incumbent: every seed holding v closes to a superset of cl({v}), so its
value is at least |cl({v})| (less the seed size in open mode).  That floor
table (`_singleton_closures`) costs one cascade per universe vertex,
computed once per call for cardinalities c >= 2 (at c = 1 the leaf
evaluation is the singleton closure itself); a cascade stops at the first
vertex whose own closure is already known to be every vertex.  There
`explored` counts the seed sets evaluated in one lexicographic pass with a
running incumbent, so it excludes pruned and floor-skipped subtrees.
`greedy_target_set` rates its candidates with `gain` too.

`optimal_target_set` proves its lower bound on a kernel.  A vertex b is
dominated when some other vertex a has b in cl({a}) and either a not in
cl({b}) or a < b; any target set can swap b for a without growing, so the
least target-set size over the undominated vertices (`_undominated`)
equals the least over all of them.  The kernel's walk in id order also
scans size 1; from c = 2 on, each cardinality is decided on the kernel,
and only the cardinality that holds a target set is scanned over all
vertices.  Every cardinality ruled out counts at its full size, so the
witness and `explored` are those of the full scan.
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
# Exhaustive search.  One call scans the subsets of `universe` of every size
# in `sizes`, cardinality-major and lexicographic, under one running
# incumbent.


def _search(
    inst: Instance,
    universe: Sequence[int],
    sizes: Iterable[int],
    closed: bool,
    maximize: bool,
) -> tuple[int | None, tuple[int, ...] | None, int]:
    """Best influence over the seeds of each size in `sizes` (ascending)
    drawn from `universe`.

    Returns (best_value, best_seed, explored).  A seed replaces the best
    only when strictly better, so ties keep the earlier seed.  The search
    stops early only when a seed of size c reaches the stop value (n for
    max, c for min, each less c in open mode), which no later seed in the
    enumeration could beat or tie-break.  For max, `explored` is the
    lexicographic count up to that seed (all of them if none stops), with
    every skipped subtree counted at its full size; for min it counts the
    seeds evaluated.

    A max-goal search skips dominated subtrees and, at nodes with at least
    two seeds still needed, every child i whose suffix closure
    |cl(prefix + universe[i:])| is at most min(best, stop - 1) plus the
    offset (see the module docstring).  A min-goal search skips every
    prefix whose closure already reaches the running best, since adding
    seeds never shrinks a closure.  From the first c >= 2 on, it also
    skips, unevaluated, every candidate v whose singleton closure |cl({v})|
    already reaches the running best.

    Internal levels push each candidate on the journal and pop it after its
    subtree.  The last level (one seed still needed) evaluates a candidate
    v as |cl(prefix)| + len(gain(v)) without pushing it, under the same
    skips, stop test and dominance stamps as an internal level, and copies
    the prefix only when a leaf improves the best value.
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
    # dominated[need - 1][w] == node: w is dominated at the open node of
    # that depth; node ids count on across cardinalities and are never
    # reused, so stale stamps never match.
    dominated: list[list[int]] = []
    nodes = 0

    def leaves(lo: int, hi: int, node: int, dom: list[int]) -> bool:
        # The last level: each candidate is evaluated in place by gain(v),
        # so a leaf costs no journal push or pop.
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
            new = gain(v)
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
            # Suffix-closure bound (module docstring): no seed under a child
            # from `cut` on closes to more than `limit`.
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
            # At c = 1 the leaf evaluation is the singleton closure itself,
            # so the floor table would only double the work.
            floor = _singleton_closures(inst, universe)
        if rec(0, u - c + 1, c):
            break
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

    Each cascade counts down left[w], the active neighbours w still lacks,
    as `propagation._rounds` does: a vertex fires when its entry reaches 0,
    and later bumps drive it negative.  mark[w] == v says left[w] belongs
    to v's cascade, so no entry is ever reset.
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


def _undominated(inst: Instance, universe: Sequence[int]) -> list[int]:
    """The vertices of `universe` (ascending ids) that no other universe
    vertex dominates, largest singleton closure first (ties by id).

    Vertex b is dominated when b is in cl({a}) for some universe vertex
    a != b with a not in cl({b}) or a < b.  Dominance is a strict order:
    b in cl({a}) means cl({b}) is a subset of cl({a}), so a dominates b
    exactly when cl({b}) is a proper subset of cl({a}), or the two are
    equal and a < b.  Any seed S holding b can swap b for a without
    growing: cl(S - b + a) holds a, hence b, and the rest of S, so it
    contains cl(S).  Swapping each dominated seed for a maximal dominator,
    which is undominated, turns any target set into one within the kernel
    that is no larger: the least target-set size over the kernel equals the
    least over the universe.

    One Propagator walks the universe in ascending id order.  A vertex
    already marked is skipped; an unmarked vertex a is asked `gain(a)`,
    and every vertex of cl({a}) except a is marked.  The unmarked universe
    vertices are exactly the undominated ones:

    - Each c marked by a is dominated by a.  If c > a this holds by
      definition.  If c < a and a were in cl({c}), the closures would be
      equal, and c (or the vertex that marked c, whose closure contains
      cl({c})) would have marked a before a's turn; but a was walked
      unmarked.  So a is not in cl({c}).
    - Each dominated b is marked by a maximal dominator a*.  a* is
      undominated, so by the first point it is never marked; it is walked,
      and marks b.

    A vertex a whose closure is every vertex marks all the others, so the
    walk returns [a] at once: nothing after it would be asked.

    Only walked vertices cost a `gain` call, so the walk is far cheaper
    than the singleton-closure table over the whole universe.
    """
    prop = Propagator(inst)
    n = inst.n
    marked = bytearray(n + 1)
    walked: list[tuple[int, int]] = []
    for a in universe:
        if marked[a]:
            continue
        closure = prop.gain(a)
        if len(closure) == n:
            return [a]
        for c in closure:
            marked[c] = 1
        marked[a] = 0
        walked.append((-len(closure), a))
    walked.sort()
    return [a for _, a in walked if not marked[a]]


def optimal_target_set(inst: Instance, size_cap: int | None = None) -> SolveResult:
    """Smallest target set, by exhaustive cardinality-major search.

    Seeds are enumerated by increasing cardinality and lexicographically
    within a cardinality; the first target set found is returned.  If no
    target set of size <= size_cap exists the result carries no seed and
    optimal=False; a negative size_cap raises ValueError.

    The lower bound is proved on the undominated-vertex kernel
    (`_undominated`), which always holds a least target set, so the kernel
    itself is a target set.  Its walk in id order doubles as the scan of
    size 1: the kernel is one vertex exactly when some singleton is a
    target set, and that vertex is then the first such singleton, which
    dominates every later one (equal closures, smaller id); the walk stops
    there, as the scan of size 1 does.  From c = 2 on, a cardinality is
    decided on the kernel; when the kernel has no target set of size c,
    none of size c exists at all (no smaller one does either), and c is
    counted at its full size comb(n, c).  Only the cardinality where the
    kernel finds one is scanned over all vertices, so the witness is the
    one the full scan returns.

    That scan is a closed max-influence scan that stops at value n, so it
    skips dominated subtrees (see the module docstring): a candidate that
    an earlier sibling activates, where that sibling's subtree held no
    target set, cannot lead to one either.  `explored` is the lexicographic
    rank of the returned seed (the full count when there is none), with
    skipped subtrees counted at full size, exactly as a scan of every
    cardinality over all vertices counts it.
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
    universe = tuple(range(1, n + 1))
    kernel = _undominated(inst, universe)
    if len(kernel) == 1:
        # Rank of the first target singleton among the size-1 seeds: its id.
        return SolveResult("target-set", frozenset(kernel), 1, True, explored + kernel[0])
    explored += n
    for c in range(2, cap + 1):
        if _search(inst, kernel, (c,), True, True)[0] == n:
            _, seed, rank = _search(inst, universe, (c,), True, True)
            return SolveResult("target-set", frozenset(seed), c, True, explored + rank)
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
    DEFAULT_EVALUATION_LIMIT seed sets (counted before any pruning).

    Maximization skips dominated subtrees: a candidate that an earlier
    sibling activates, where that sibling's subtree never reached the stop
    value, cannot lead to a seed worth more.  It also skips a candidate
    when the prefix, the candidate and every later universe vertex together
    close to no more than the best value so far, nor reach the stop value:
    every seed in that subtree closes to a subset.  `explored` is then the
    lexicographic rank of the seed where the scan stopped (the full count
    if none), with skipped subtrees counted at full size.  Minimization
    scans each cardinality in one lexicographic pass with a running
    incumbent.  It prunes a prefix by the monotone closure bound, and, for
    c >= 2, skips a candidate v unpushed when |cl({v})| (less c in open
    mode) already reaches the best value, since every seed holding v
    closes to at least cl({v}); a singleton cascade stops at a vertex
    already known to close to everything.  `explored` counts the seed sets evaluated,
    so it excludes both kinds of skipped subtree.  Either way (see the
    module docstring) values and witnesses are those of the full
    enumeration.
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
            explored += 1
            gain = len(prop.gain(v))
            if gain > best_gain:
                best_gain = gain
                chosen = v
        assert chosen is not None
        seed.append(chosen)
        prop.push_one(chosen)
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
