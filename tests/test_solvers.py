import gc
import hashlib
import random
import time
from itertools import combinations
from math import comb

import pytest

from tsslab.circuits import evaluate, min_weight_satisfying
from tsslab.instance import THRESHOLD_MODES, GeneratorConfig, Graph, Instance, generate_random
from tsslab.propagation import Propagator
from tsslab.reductions import (
    is_to_influence_decision,
    is_to_min_closed_influence,
    map_target_set_to_assignment,
    mcs_to_tss,
)
from tsslab.solvers import (
    _candidates,
    _lex_rank,
    _scan_rank,
    _search,
    _singleton_closures,
    greedy_target_set,
    k_influence,
    min_open_influence_unanimity,
    optimal_target_set,
    unanimity_target_set_2approx,
)
from tsslab.verify import (
    brute_force_best_influence,
    brute_force_min_target_set,
    enumerate_small_circuits,
    naive_closure,
    naive_is_target_set,
    random_circuit,
    random_graph,
    random_graph_min_degree_one,
    random_instance,
    unanimity_instance,
)


def triangle(thr=2):
    return Instance(Graph(3, [(1, 2), (1, 3), (2, 3)]), [thr] * 3)


def star(leaves):
    g = Graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])
    return Instance(g, [1] * (leaves + 1))


def k4(thr):
    return Instance(Graph(4, list(combinations(range(1, 5), 2))), [thr] * 4)


def path(n, thr=1):
    return Instance(Graph(n, [(v, v + 1) for v in range(1, n)]), [thr] * n)


# optimal_target_set ---------------------------------------------------------


def test_optimal_connected_threshold_one():
    res = optimal_target_set(path(5))
    assert res.value == 1 and res.optimal


def test_optimal_triangle_counts():
    res = optimal_target_set(triangle(2))
    # enumeration: {}, {1}, {2}, {3}, then {1,2} wins
    assert res.value == 2
    assert res.seed == {1, 2}
    assert res.explored == 5


def test_optimal_k4_unanimity():
    res = optimal_target_set(k4(3))
    assert res.value == 3


def test_optimal_cap_exhausted():
    res = optimal_target_set(k4(3), size_cap=2)
    assert not res.optimal and res.seed is None and res.value is None
    assert res.explored == 1 + 4 + 6


def test_optimal_rejects_negative_cap():
    with pytest.raises(ValueError, match="size_cap must be nonnegative"):
        optimal_target_set(triangle(2), size_cap=-1)


def test_optimal_matches_naive():
    rng = random.Random(13)
    for _ in range(60):
        inst = generate_random(
            GeneratorConfig(rng.randint(1, 8), rng.uniform(0.1, 0.9), "uniform", rng.randrange(2**32))
        )
        naive = brute_force_min_target_set(inst)
        res = optimal_target_set(inst)
        assert res.value == len(naive)
        assert res.seed == naive  # same enumeration order, same winner


# greedy ----------------------------------------------------------------------


def test_greedy_star_picks_center():
    res = greedy_target_set(star(5))
    assert res.seed == {1} and res.value == 1
    assert not res.optimal


def test_greedy_triangle():
    res = greedy_target_set(triangle(2))
    assert res.value == 2


def test_greedy_always_feasible_and_at_least_optimal():
    rng = random.Random(23)
    for _ in range(40):
        inst = generate_random(
            GeneratorConfig(rng.randint(1, 8), rng.uniform(0.1, 0.9), "uniform", rng.randrange(2**32))
        )
        res = greedy_target_set(inst)
        assert naive_is_target_set(inst, res.seed)
        assert res.value >= optimal_target_set(inst).value


def naive_greedy(inst):
    """(seed, value, explored) of a plain greedy loop: each round asks every
    vertex outside the seed for |cl(seed + v)| - |cl(seed)| and seeds the
    first one of largest gain."""
    seed = []
    explored = 0
    while len(naive_closure(inst, seed)) < inst.n:
        base = len(naive_closure(inst, seed))
        best_gain = chosen = None
        for v in range(1, inst.n + 1):
            if v not in seed:
                explored += 1
                gain = len(naive_closure(inst, seed + [v])) - base
                if best_gain is None or gain > best_gain:
                    best_gain, chosen = gain, v
        seed.append(chosen)
    return frozenset(seed), len(seed), explored


def test_greedy_matches_naive_per_round_argmax():
    rng = random.Random(29)
    cases = [kernel_case(rng) for _ in range(300)] + list(EMPTY_AND_EDGELESS)
    assert any(inst.thr[v] > inst.graph.degree(v) > 0 for inst in cases for v in range(1, inst.n + 1))
    assert any(inst.graph.degree(v) == 0 for inst in cases for v in range(1, inst.n + 1))
    for inst in cases:
        res = greedy_target_set(inst)
        assert (res.seed, res.value, res.explored) == naive_greedy(inst), (inst.graph.edges, inst.thr)


# unanimity 2-approximation ---------------------------------------------------


def test_two_approx_perfect_matching():
    g = Graph(6, [(1, 2), (3, 4), (5, 6)])
    res = unanimity_target_set_2approx(unanimity_instance(g))
    assert res.value == 6
    assert optimal_target_set(unanimity_instance(g)).value == 3


def test_two_approx_triangle():
    res = unanimity_target_set_2approx(triangle(2))
    assert res.seed == {1, 2}


def test_two_approx_isolated_appended():
    g = Graph(3, [(1, 2)])
    res = unanimity_target_set_2approx(unanimity_instance(g))
    assert 3 in res.seed
    assert naive_is_target_set(unanimity_instance(g), res.seed)


def test_two_approx_rejects_non_unanimity():
    with pytest.raises(ValueError):
        unanimity_target_set_2approx(triangle(1))


def test_two_approx_bound_random():
    rng = random.Random(31)
    for _ in range(40):
        inst = unanimity_instance(random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.8)))
        res = unanimity_target_set_2approx(inst)
        opt = optimal_target_set(inst)
        assert naive_is_target_set(inst, res.seed)
        assert res.value <= 2 * opt.value


# k_influence -----------------------------------------------------------------


def test_max_closed_full_budget():
    inst = triangle(2)
    res = k_influence(inst, 3, "closed", "max")
    assert res.value == 3


def test_min_open_cycle():
    inst = Instance(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), [1] * 4)
    res = k_influence(inst, 1, "open", "min")
    assert res.value == 3


def test_max_open_triangle():
    res = k_influence(triangle(2), 2, "open", "max")
    assert res.value == 1


def test_min_uses_exact_size():
    inst = path(2)
    res = k_influence(inst, 1, "open", "min")
    assert res.value == 1  # the empty seed is not allowed for minimization


def test_max_uses_at_most_cardinality():
    inst = star(3)
    res = k_influence(inst, 2, "open", "max")
    assert res.value == 3 and res.seed == {1}  # a smaller seed wins


def test_universe_restriction():
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    inst = Instance(g, [3, 1, 1, 1])
    res = k_influence(inst, 1, "closed", "max", universe=[2, 3, 4])
    assert res.value == 1  # one leaf cannot reach the center's threshold
    full = k_influence(inst, 1, "closed", "max")
    assert full.value == 4 and full.seed == {1}


def test_influence_refusal_on_huge_enumeration():
    inst = path(40)
    with pytest.raises(ValueError):
        k_influence(inst, 12, "closed", "max")


def test_k_influence_matches_naive_all_modes():
    rng = random.Random(37)
    for _ in range(40):
        inst = generate_random(
            GeneratorConfig(rng.randint(1, 7), rng.uniform(0.1, 0.9), "uniform", rng.randrange(2**32))
        )
        k = rng.randint(0, inst.n)
        for mode in ("open", "closed"):
            for goal in ("max", "min"):
                if goal == "min" and k > inst.n:
                    continue
                got = k_influence(inst, k, mode, goal)
                want_v, want_seed = brute_force_best_influence(inst, k, mode, goal)
                assert got.value == want_v, (mode, goal, k)
                seed_val = naive_closure(inst, got.seed)
                achieved = len(seed_val) if mode == "closed" else len(seed_val) - len(got.seed)
                assert achieved == want_v


# unanimity minimum open influence --------------------------------------------


def test_unanimity_min_open_connected_all_but_one():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    inst = unanimity_instance(g)
    assert min_open_influence_unanimity(inst, 3).value == 1
    assert min_open_influence_unanimity(inst, 2).value == 0
    assert min_open_influence_unanimity(inst, 4).value == 0


def test_unanimity_min_open_triangle_single():
    assert min_open_influence_unanimity(triangle(2), 1).value == 0


def test_unanimity_min_open_two_components():
    g = Graph(4, [(1, 2), (3, 4)])
    inst = unanimity_instance(g)
    assert min_open_influence_unanimity(inst, 2).value == 0
    # one seed must half-fill a two-vertex component: spill is forced
    assert min_open_influence_unanimity(inst, 1).value == 1


def test_unanimity_min_open_isolated_rescues():
    g = Graph(3, [(1, 2)])
    inst = unanimity_instance(g)
    assert min_open_influence_unanimity(inst, 1).value == 0
    assert min_open_influence_unanimity(inst, 2).value == 0  # n-1 with an isolated vertex


def test_unanimity_min_open_matches_exhaustive():
    rng = random.Random(43)
    for _ in range(60):
        inst = unanimity_instance(random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9)))
        for k in range(inst.n + 1):
            res = min_open_influence_unanimity(inst, k)
            want, _ = brute_force_best_influence(inst, k, "open", "min")
            assert res.value == want
            assert len(res.seed) == k
            spill = len(naive_closure(inst, res.seed)) - k
            assert spill == res.value


def test_unanimity_min_open_validates():
    with pytest.raises(ValueError):
        min_open_influence_unanimity(triangle(2), 4)
    with pytest.raises(ValueError):
        min_open_influence_unanimity(triangle(1), 1)


# large randomized agreement sweeps -------------------------------------------


def test_exact_search_matches_naive_at_scale():
    rng = random.Random(71)
    for _ in range(500):
        inst = generate_random(
            GeneratorConfig(
                rng.randint(1, 10),
                rng.uniform(0.1, 0.9),
                rng.choice(("constant", "majority", "unanimity", "uniform")),
                rng.randrange(2**32),
                constant=rng.randint(1, 3),
            )
        )
        k = rng.randint(0, inst.n)
        mode = rng.choice(("open", "closed"))
        goal = rng.choice(("max", "min"))
        got = k_influence(inst, k, mode, goal)
        want_value, _ = brute_force_best_influence(inst, k, mode, goal)
        assert got.value == want_value, (inst, k, mode, goal)


def test_unanimity_solver_agrees_with_search_at_scale():
    rng = random.Random(72)
    for _ in range(500):
        inst = unanimity_instance(random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9)))
        k = rng.randint(0, inst.n)
        direct = min_open_influence_unanimity(inst, k)
        search = k_influence(inst, k, "open", "min")
        assert direct.value == search.value


# dominance pruning against a plain lexicographic scan -----------------------


EMPTY_AND_EDGELESS = (Instance(Graph(0), []), Instance(Graph(2), [1, 1]))


def lex_scan(inst, universe, sizes, value, stop):
    """Plain cardinality-major scan: (best value, its seed, seeds counted).

    A seed replaces the best only when strictly larger; the scan ends at the
    first seed whose value equals stop(c).  The count is the stopping seed's
    lexicographic rank, or the full count when nothing stops.
    """
    best = seed = None
    rank = 0
    for c in sizes:
        for combo in combinations(universe, c):
            rank += 1
            val = value(combo)
            if best is None or val > best:
                best, seed = val, frozenset(combo)
            if val == stop(c):
                return best, seed, rank
    return best, seed, rank


def check_target_scan(inst, cap):
    n = inst.n
    full = lambda combo: int(len(naive_closure(inst, combo)) == n)
    hit, seed, rank = lex_scan(inst, range(1, n + 1), range(min(cap, n) + 1), full, lambda c: 1)
    res = optimal_target_set(inst, size_cap=cap)
    if hit:
        assert (res.value, res.seed, res.optimal) == (len(seed), seed, True)
    else:
        assert (res.value, res.seed, res.optimal) == (None, None, False)
    assert res.explored == rank


def check_max_scan(inst, k, mode, universe):
    n = inst.n
    uni = range(1, n + 1) if universe is None else sorted(universe)
    sizes = range(min(k, len(uni)) + 1)
    off = (lambda c: 0) if mode == "closed" else (lambda c: c)
    value = lambda combo: len(naive_closure(inst, combo)) - off(len(combo))
    best, seed, rank = lex_scan(inst, uni, sizes, value, lambda c: n - off(c))
    res = k_influence(inst, k, mode, "max", universe=universe)
    assert (res.value, res.seed, res.explored) == (best, seed, rank)


def test_dominance_scans_match_lexicographic_scan():
    rng = random.Random(53)
    for _ in range(120):
        inst = generate_random(
            GeneratorConfig(
                rng.randint(1, 9),
                rng.uniform(0.1, 0.9),
                rng.choice(("constant", "majority", "uniform")),
                rng.randrange(2**32),
                constant=rng.randint(1, 3),
            )
        )
        check_target_scan(inst, rng.randint(0, inst.n))
        universe = None
        if rng.random() < 0.4:
            universe = rng.sample(range(1, inst.n + 1), rng.randint(1, inst.n))
        k = rng.randint(0, inst.n if universe is None else len(universe))
        for mode in ("closed", "open"):
            check_max_scan(inst, k, mode, universe)
    # Benchmark-sized max scans, where most leaves activate only themselves.
    for n in (20, 22, 24):
        inst = generate_random(
            GeneratorConfig(
                n, rng.uniform(0.1, 0.3), rng.choice(("majority", "uniform")), rng.randrange(2**32)
            )
        )
        for mode in ("closed", "open"):
            check_max_scan(inst, 3, mode, None)
    # No vertices at all, and two vertices that activate only themselves.
    for inst in EMPTY_AND_EDGELESS:
        for cap_or_k in (0, inst.n):
            check_target_scan(inst, cap_or_k)
            for mode in ("closed", "open"):
                check_max_scan(inst, cap_or_k, mode, None)


def test_dominance_scans_on_compiled_circuits():
    # mcs_to_tss instances, where dominated subtrees are the common case.
    circuits = [c for c in enumerate_small_circuits(2, 2) if c.n_inputs == 2]
    for circ in circuits[::4][:3]:
        inst = mcs_to_tss(circ).instance
        check_target_scan(inst, 2)
        check_max_scan(inst, 2, "open", None)
        universe = range(1, inst.n + 1, 2)
        check_max_scan(inst, 2, "closed", universe)


# candidate set and rank helper against their definitions and the full scan --


def kernel_case(rng):
    """A random instance in any threshold mode, with up to two isolated
    vertices appended and about a quarter of its thresholds raised above
    the degree."""
    inst = random_instance(rng, 8, rng.choice(THRESHOLD_MODES))
    g = Graph(inst.n + rng.randint(0, 2), inst.graph.edges)
    thr = [inst.thr[v] if v <= inst.n else 1 for v in range(1, g.n + 1)]
    for v in range(1, g.n + 1):
        if rng.random() < 0.25:
            thr[v - 1] = g.degree(v) + rng.randint(1, 2)
    return Instance(g, thr)


def naive_candidates(inst):
    """Vertices b in no cl({a}) with a < b, largest closure first (ties by
    id); just the first vertex whose closure is every vertex, if any."""
    cl = {v: naive_closure(inst, [v]) for v in range(1, inst.n + 1)}
    full = [v for v in cl if len(cl[v]) == inst.n]
    if full:
        return [full[0]]
    cands = [b for b in cl if not any(b in cl[a] for a in range(1, b))]
    return sorted(cands, key=lambda v: (-len(cl[v]), v))


def test_candidates_are_the_vertices_in_no_smaller_closure():
    rng = random.Random(71)
    above_degree = isolated = full = 0
    for _ in range(400):
        inst = kernel_case(rng)
        degrees = [inst.graph.degree(v) for v in range(1, inst.n + 1)]
        above_degree += sum(t > d for t, d in zip(inst.thr[1:], degrees))
        isolated += degrees.count(0)
        cands = _candidates(inst)
        assert cands == naive_candidates(inst), (inst.graph.edges, inst.thr)
        full += len(naive_closure(inst, cands[:1])) == inst.n
    assert above_degree and isolated and 0 < full < 400


def test_lex_rank_counts_combinations_in_order():
    for n in range(8):
        for c in range(n + 1):
            for rank, seed in enumerate(combinations(range(1, n + 1), c), start=1):
                assert _lex_rank(n, seed) == rank, (n, seed)


def test_scan_rank_counts_seeds_cardinality_major():
    # For n <= 7, every set of sizes and a universe in id order and one out
    # of it: a stop at every seed, the empty seed included, has its rank in
    # the cardinality-major order, and no stop gives the full count.
    # Bounded at 3 s; it takes about 0.3 s.
    start = time.perf_counter()
    for n in range(8):
        for universe in (range(1, n + 1), [*range(2, n + 1, 2), *range(1, n + 1, 2)]):
            for mask in range(1, 2 ** (n + 1)):
                sizes = [c for c in range(n + 1) if mask >> c & 1]
                order = [s for c in sizes for s in combinations(universe, c)]
                for rank, seed in enumerate(order, start=1):
                    assert _scan_rank(universe, sizes, seed) == rank, (universe, sizes, seed)
                assert _scan_rank(universe, sizes, None) == len(order), (universe, sizes)
    assert time.perf_counter() - start < 3


def test_kernel_target_scan_matches_lexicographic_scan():
    # Instances whose optimum is at least 2, where the kernel decides the
    # cardinalities below it; every cap from 0 to 3.
    rng = random.Random(73)
    cases = 0
    while cases < 150:
        inst = kernel_case(rng)
        if optimal_target_set(inst).value < 2:
            continue
        cases += 1
        for cap in range(4):
            check_target_scan(inst, cap)


def test_kernel_target_scan_on_compiled_circuits():
    # Every 8th circuit of the criterion-2 family against one full-order
    # scan of every cardinality up to the cap.  The stride starts at 1: the
    # circuits at multiples of 8 all have optimum 1, so none of them would
    # decide a cardinality on the kernel.
    optima = set()
    for circ in enumerate_small_circuits(3, 3)[1::8]:
        inst = mcs_to_tss(circ).instance
        cap = circ.n_inputs
        value, seed, explored = _search(inst, range(1, inst.n + 1), range(cap + 1), True, True)
        res = optimal_target_set(inst, cap)
        assert value == inst.n
        assert (res.value, res.seed, res.optimal, res.explored) == (
            len(seed), frozenset(seed), True, explored
        ), circ
        optima.add(res.value)
    assert optima == {1, 2, 3}


def test_target_set_on_larger_random_circuits_is_fast():
    # Thirty seed-1 random circuits each with up to 6 and up to 8 inputs and
    # gates, compiled to up to 1,119 vertices, with optima up to 8.  The time
    # bound catches a witness scan over all vertices, which takes about 40 s
    # on one of them.
    start = time.perf_counter()
    optima = set()
    for size in (6, 8):
        rng = random.Random(1)
        for _ in range(30):
            circ = random_circuit(rng, size, size)
            r = mcs_to_tss(circ)
            res = optimal_target_set(r.instance, size_cap=circ.n_inputs)
            assert res.optimal and res.value == len(min_weight_satisfying(circ)), circ
            assignment = map_target_set_to_assignment(r, res.seed)
            assert len(assignment) == res.value and evaluate(circ, assignment), circ
            optima.add(res.value)
    assert max(optima) == 8
    assert time.perf_counter() - start < 15


# suffix-closure bound on max scans ------------------------------------------


def test_suffix_bound_keeps_the_open_mode_tie_stop():
    # Path 1-2 plus isolated vertex 3, open max with k = 2.  At size 2 the
    # seed {1, 3} reaches the stop value 1, which only ties the incumbent
    # {1}: the scan stops there (rank 6) and keeps {1}.  A bound that let
    # ties through would skip that subtree and count on to 7.
    inst = Instance(Graph(3, [(1, 2)]), [1, 1, 1])
    res = k_influence(inst, 2, "open", "max")
    assert (res.value, res.seed, res.explored) == (1, frozenset({1}), 6)
    check_max_scan(inst, 2, "open", None)


def test_suffix_bound_scans_match_lexicographic_scan():
    # Isolated and thr > deg vertices, which only a seed holding them
    # activates, so most scans never reach n and run to the full count.
    rng = random.Random(79)
    for _ in range(150):
        inst = kernel_case(rng)
        universe = None
        if rng.random() < 0.5:
            universe = rng.sample(range(1, inst.n + 1), rng.randint(1, inst.n))
        k = rng.randint(0, min(4, inst.n if universe is None else len(universe)))
        for mode in ("closed", "open"):
            check_max_scan(inst, k, mode, universe)


def test_suffix_bound_saves_leaf_evaluations(monkeypatch):
    # The isolated vertex 30 keeps every seed below n, so the scan rules on
    # all comb(30, 4) seeds of size 4; dominance alone still asks `gain` for
    # more leaves than that (28,888), the suffix bound for fewer (25,214).
    base = generate_random(GeneratorConfig(29, 0.2, "majority", 1))
    inst = Instance(Graph(30, base.graph.edges), [*base.thr[1:], 1])
    calls = 0
    gain = Propagator.gain

    def spy(self, v):
        nonlocal calls
        calls += 1
        return gain(self, v)

    monkeypatch.setattr(Propagator, "gain", spy)
    res = k_influence(inst, 4, "closed", "max")
    assert res.explored == sum(comb(30, c) for c in range(5))
    assert calls < comb(30, 4)


# singleton-closure floor against brute force ---------------------------------


def test_singleton_closures_match_naive_closure():
    # Random instances with isolated and thr > deg vertices, and min-closed
    # compilations, where nearly every edge-side vertex closes to all n and
    # the table stops cascades at vertices already known full.
    rng = random.Random(83)
    full_stops = 0
    for trial in range(300):
        if trial % 2:
            inst = kernel_case(rng)
        else:
            g = random_graph_min_degree_one(rng, 2, 7)
            k = rng.randint(1, min(4, g.n))
            inst = is_to_min_closed_influence(g, k, h=rng.randint(1, 3)).instance
        universe = list(range(1, inst.n + 1))
        if rng.random() < 0.4:
            universe = rng.sample(universe, rng.randint(1, inst.n))
        floor = _singleton_closures(inst, universe)
        want = [0] * (inst.n + 1)
        for v in universe:
            want[v] = len(naive_closure(inst, [v]))
        assert floor == want, (inst.graph.edges, inst.thr, universe)
        full_stops += want.count(inst.n) > 1
    assert full_stops


def floor_case(rng):
    """(instance, k, mode, goal, universe) drawn like the dichotomy
    checks: min-closed and decision compilations, or a random instance with
    some thr > deg vertices."""
    kind = rng.randrange(3)
    k = rng.randint(1, 4)
    mode = rng.choice(("closed", "open"))
    goal = "min" if rng.random() < 0.8 else "max"
    if kind == 0:
        g = random_graph_min_degree_one(rng, 2, 5)
        k = min(k, g.n)
        inst = is_to_min_closed_influence(g, k, h=rng.randint(1, 3)).instance
    elif kind == 1:
        g = random_graph_min_degree_one(rng, 2, 5)
        k = min(k, g.n)
        inst = is_to_influence_decision(g, k, mode).instance
    else:
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.1, 0.8))
        inst = Instance(g, [rng.randint(1, g.degree(v) + 2) for v in range(1, g.n + 1)])
    universe = None
    if rng.random() < 0.4:
        universe = rng.sample(range(1, inst.n + 1), rng.randint(min(k, inst.n), inst.n))
    return inst, k, mode, goal, universe


def naive_min_scan(inst, universe, sizes, closed):
    """Plain min-goal scan: (best value, its seed, seeds evaluated).

    One lexicographic recursion per cardinality c under one running
    incumbent.  It prunes a prefix whose closure (less c in open mode)
    already reaches the best value and, for c >= 2, skips a candidate whose
    singleton closure (less c in open mode) already reaches it; each
    evaluated seed counts once, and a seed worth the stop value ends the
    scan.
    """
    single = {v: len(naive_closure(inst, [v])) for v in universe}
    best = seed = None
    evaluated = 0
    for c in sizes:
        off = 0 if closed else c
        stop = c if closed else 0

        def rec(prefix, start):
            nonlocal best, seed, evaluated
            if len(prefix) == c:
                evaluated += 1
                val = len(naive_closure(inst, prefix)) - off
                if best is None or val < best:
                    best, seed = val, frozenset(prefix)
                return val == stop
            if best is not None and len(naive_closure(inst, prefix)) - off >= best:
                return False
            for i in range(start, len(universe) - (c - len(prefix)) + 1):
                v = universe[i]
                if c >= 2 and best is not None and single[v] - off >= best:
                    continue
                if rec(prefix + [v], i + 1):
                    return True
            return False

        if rec([], 0):
            break
    return best, seed, evaluated


def test_min_floor_matches_brute_force():
    rng = random.Random(61)
    cases = 0
    while cases < 300:
        inst, k, mode, goal, universe = floor_case(rng)
        u = inst.n if universe is None else len(universe)
        sizes = [k] if goal == "min" else range(min(k, u) + 1)
        total = sum(comb(u, c) for c in sizes)
        if k > u or total > 3000:  # keep the brute-force oracle cheap
            continue
        cases += 1
        res = k_influence(inst, k, mode, goal, universe=universe)
        want = brute_force_best_influence(inst, k, mode, goal, universe)
        assert (res.value, res.seed) == want, (cases, k, mode, goal, universe)
        assert res.explored <= total
        if goal == "min":
            uni = range(1, inst.n + 1) if universe is None else sorted(universe)
            ref = naive_min_scan(inst, uni, sizes, mode == "closed")
            assert (res.value, res.seed, res.explored) == ref, (cases, k, mode, universe)
    for inst in EMPTY_AND_EDGELESS:
        for mode in ("closed", "open"):
            res = k_influence(inst, 0, mode, "min")
            ref = naive_min_scan(inst, range(1, inst.n + 1), [0], mode == "closed")
            assert (res.value, res.seed, res.explored) == ref, (inst.n, mode)


# min-goal results pinned across engine changes ------------------------------

# sha256 of every (value, witness, explored) of test_min_goal_results_are_pinned,
# recorded before the scan engine kept one countdown list and bounded its
# min-goal pushes at the incumbent.
MIN_GOAL_DIGEST = "564385a80c38c842b4eea034ecf62c7446e324d03c03b8b81fab06b363f16953"


def test_min_goal_results_are_pinned():
    rng = random.Random(2525)
    cases = [random_instance(rng, 16) for _ in range(150)]
    for _ in range(40):
        g = random_graph_min_degree_one(rng, 4, 8)
        k = rng.randint(1, min(4, g.n))
        cases.append(is_to_min_closed_influence(g, k, h=rng.randint(1, 3)).instance)
    digest = hashlib.sha256()
    for inst in cases:
        for mode in ("open", "closed"):
            for k in range(1, min(4, inst.n) + 1):
                r = k_influence(inst, k, mode, "min")
                digest.update(repr((r.value, sorted(r.seed), r.explored)).encode())
    assert digest.hexdigest() == MIN_GOAL_DIGEST


# sha256 of every (value, witness, explored, optimal) of
# test_max_goal_and_target_set_results_are_pinned, recorded before `explored`
# was derived from the seed where a scan stopped.
MAX_AND_TARGET_DIGEST = "a913d485ccd2ce755ecf14cfacfae62f5e7deb4a04673f5ad4d528deb6757564"


def test_max_goal_and_target_set_results_are_pinned():
    # Max-goal scans in both modes for every k <= 4, plus one restricted
    # universe each; target-set scans at caps None, 0, 1 and 2 on the same
    # instances and on every 8th criterion-2 compilation.  Bounded at 3 s;
    # it takes about 0.3 s.
    start = time.perf_counter()
    rng = random.Random(2727)
    cases = [random_instance(rng, 12) for _ in range(150)] + list(EMPTY_AND_EDGELESS)
    digest = hashlib.sha256()

    def record(r):
        seed = None if r.seed is None else sorted(r.seed)
        digest.update(repr((r.value, seed, r.explored, r.optimal)).encode())

    for inst in cases:
        universe = rng.sample(range(1, inst.n + 1), rng.randint(0, inst.n))
        for mode in ("open", "closed"):
            for k in range(min(4, inst.n) + 1):
                record(k_influence(inst, k, mode, "max"))
            record(k_influence(inst, min(4, len(universe)), mode, "max", universe=universe))
        for cap in (None, 0, 1, 2):
            record(optimal_target_set(inst, cap))
    for circ in enumerate_small_circuits(3, 3)[::8]:
        record(optimal_target_set(mcs_to_tss(circ).instance))
    assert digest.hexdigest() == MAX_AND_TARGET_DIGEST
    assert time.perf_counter() - start < 3


# scan state freed on return ------------------------------------------------


def test_solvers_leave_no_cyclic_garbage():
    rng = random.Random(71)
    compiled = [mcs_to_tss(c).instance for c in enumerate_small_circuits(3, 3)[::40]]
    small = [random_instance(rng, 10) for _ in range(20)]
    gc.collect()
    gc.disable()
    try:
        for inst in compiled + small:
            optimal_target_set(inst)
            greedy_target_set(inst)
        for inst in small:
            k_influence(inst, min(2, inst.n), goal="max")
            k_influence(inst, min(2, inst.n), goal="min")
        assert gc.collect() == 0
    finally:
        gc.enable()
