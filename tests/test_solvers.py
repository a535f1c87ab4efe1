import random
from itertools import combinations
from math import comb

import pytest

from tsslab.instance import GeneratorConfig, Graph, Instance, generate_random
from tsslab.reductions import is_to_influence_decision, is_to_min_closed_influence, mcs_to_tss
from tsslab.solvers import (
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
    random_graph,
    random_graph_min_degree_one,
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


def test_optimal_threads_match():
    rng = random.Random(0)
    for _ in range(5):
        inst = generate_random(
            GeneratorConfig(rng.randint(2, 9), rng.uniform(0.2, 0.8), "uniform", rng.randrange(2**32))
        )
        a = optimal_target_set(inst)
        b = optimal_target_set(inst, threads=2)
        assert a == b


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


def test_min_uses_exact_cardinality():
    inst = path(2)
    res = k_influence(inst, 1, "open", "min")
    assert res.value == 1  # the empty seed is not allowed for minimization


def test_max_uses_at_most_cardinality():
    inst = star(3)
    res = k_influence(inst, 2, "open", "max")
    assert res.value == 3 and res.seed == {1}  # a smaller seed wins


def test_exact_cardinality_override():
    inst = star(3)
    res = k_influence(inst, 2, "open", "max", exact_cardinality=True)
    assert res.value == 2 and len(res.seed) == 2


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
        k_influence(inst, 12, "closed", "max", max_evaluations=1000)


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


def test_k_influence_threads_match():
    rng = random.Random(41)
    for _ in range(4):
        inst = generate_random(
            GeneratorConfig(rng.randint(3, 8), rng.uniform(0.2, 0.8), "uniform", rng.randrange(2**32))
        )
        k = rng.randint(1, 3)
        for goal in ("max", "min"):
            a = k_influence(inst, k, "closed", goal)
            b = k_influence(inst, k, "closed", goal, threads=2)
            assert a == b


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


def check_target_scan(inst, cap, threads):
    n = inst.n
    full = lambda combo: int(len(naive_closure(inst, combo)) == n)
    hit, seed, rank = lex_scan(inst, range(1, n + 1), range(min(cap, n) + 1), full, lambda c: 1)
    res = optimal_target_set(inst, size_cap=cap, threads=threads)
    if hit:
        assert (res.value, res.seed, res.optimal) == (len(seed), seed, True)
    else:
        assert (res.value, res.seed, res.optimal) == (None, None, False)
    assert res.explored == rank


def check_max_scan(inst, k, mode, universe, threads, exact=False):
    n = inst.n
    uni = range(1, n + 1) if universe is None else sorted(universe)
    sizes = [k] if exact else range(min(k, len(uni)) + 1)
    off = (lambda c: 0) if mode == "closed" else (lambda c: c)
    value = lambda combo: len(naive_closure(inst, combo)) - off(len(combo))
    best, seed, rank = lex_scan(inst, uni, sizes, value, lambda c: n - off(c))
    res = k_influence(inst, k, mode, "max", exact, universe=universe, threads=threads)
    assert (res.value, res.seed, res.explored) == (best, seed, rank)


def test_dominance_scans_match_lexicographic_scan():
    rng = random.Random(53)
    for trial in range(120):
        inst = generate_random(
            GeneratorConfig(
                rng.randint(1, 9),
                rng.uniform(0.1, 0.9),
                rng.choice(("constant", "majority", "uniform")),
                rng.randrange(2**32),
                constant=rng.randint(1, 3),
            )
        )
        threads = 2 if trial % 10 == 0 else 1
        check_target_scan(inst, rng.randint(0, inst.n), threads)
        universe = None
        if rng.random() < 0.4:
            universe = rng.sample(range(1, inst.n + 1), rng.randint(1, inst.n))
        k = rng.randint(0, inst.n if universe is None else len(universe))
        exact = rng.random() < 0.25
        for mode in ("closed", "open"):
            check_max_scan(inst, k, mode, universe, threads, exact)


def test_dominance_scans_on_compiled_circuits():
    # mcs_to_tss instances, where dominated subtrees are the common case.
    circuits = [c for c in enumerate_small_circuits(2, 2) if c.n_inputs == 2]
    for threads, circ in zip((1, 1, 2), circuits[::4]):
        inst = mcs_to_tss(circ).instance
        check_target_scan(inst, 2, threads)
        check_max_scan(inst, 2, "open", None, threads)
        universe = range(1, inst.n + 1, 2)
        check_max_scan(inst, 2, "closed", universe, threads)


# singleton-closure floor against brute force ---------------------------------


def floor_case(rng):
    """(instance, k, mode, goal, exact, universe) drawn like the dichotomy
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
    exact = rng.choice((None, True, False))
    return inst, k, mode, goal, exact, universe


def test_min_floor_matches_brute_force():
    rng = random.Random(61)
    cases = 0
    while cases < 300:
        inst, k, mode, goal, exact, universe = floor_case(rng)
        u = inst.n if universe is None else len(universe)
        sizes = [k] if (goal == "min" if exact is None else exact) else range(min(k, u) + 1)
        total = sum(comb(u, c) for c in sizes)
        if k > u or total > 3000:  # keep the brute-force oracle cheap
            continue
        cases += 1
        res = k_influence(inst, k, mode, goal, exact, universe=universe)
        want = brute_force_best_influence(inst, k, mode, goal, exact, universe)
        assert (res.value, res.seed) == want, (cases, k, mode, goal, exact, universe)
        assert res.explored <= total
        if cases % 30 == 0:
            two = k_influence(inst, k, mode, goal, exact, universe=universe, threads=2)
            assert two == res
