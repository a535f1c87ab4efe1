import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from tsslab.circuits import build_circuit, evaluate, min_weight_satisfying
from tsslab.instance import Graph
from tsslab.propagation import activate, influence, is_target_set
from tsslab.reductions import (
    BUILD_SIZE_LIMIT,
    BuildSizeError,
    GapParameters,
    _gap_build_size,
    choose_gap_padding,
    clique_to_max_influence,
    is_to_influence_decision,
    is_to_min_closed_influence,
    map_target_set_to_assignment,
    mcs_to_tss,
    rho_preset,
)
from tsslab.solvers import k_influence, optimal_target_set
from tsslab.verify import has_independent_set, naive_closure, random_graph


def two_level_circuit():
    return build_circuit(
        ["input"] * 4 + ["or", "or", "and"],
        [(), (), (), (), (1, 2), (3, 4), (5, 6)],
    )


def k_complete(n):
    return Graph(n, list(combinations(range(1, n + 1), 2)))


# circuit compilation ---------------------------------------------------------


def test_mcs_vertex_count():
    r = mcs_to_tss(two_level_circuit())
    # 4 inputs + 5*3 gate copies + 4*(4*5 + 2*5 + 5*4) gadget vertices
    assert r.instance.n == 219


def test_mcs_satisfying_assignments_are_target_sets():
    c = two_level_circuit()
    r = mcs_to_tss(c)
    for assignment in ({1, 3}, {1, 4}, {2, 3}, {2, 4}, {1, 2, 3}):
        assert evaluate(c, assignment)
        assert is_target_set(r.instance, assignment)


def test_mcs_non_satisfying_leaves_outputs_inactive():
    c = two_level_circuit()
    r = mcs_to_tss(c)
    outputs = r.tagged("gate7.")
    assert len(outputs) == 5
    final = activate(r.instance, [1, 2]).final_active
    assert not (final & set(outputs))


def test_mcs_thresholds():
    c = two_level_circuit()
    r = mcs_to_tss(c)
    inst = r.instance
    for v in r.tagged("in"):
        assert inst.thr[v] == 5
    for v in r.tagged("gate5.") + r.tagged("gate6."):
        assert inst.thr[v] == 1
    for v in r.tagged("gate7."):
        assert inst.thr[v] == 2


def test_mcs_degenerate_circuit():
    c = build_circuit(["input"], [()])
    r = mcs_to_tss(c)
    assert r.instance.n == 1
    assert r.instance.thr[1] == 2
    assert optimal_target_set(r.instance).value == 1


def test_map_all_inputs():
    c = two_level_circuit()
    r = mcs_to_tss(c)
    assert map_target_set_to_assignment(r, {1, 2, 3, 4}) == {1, 2, 3, 4}


def test_map_small_target_set():
    c = two_level_circuit()
    r = mcs_to_tss(c)
    assert map_target_set_to_assignment(r, {1, 3}) == {1, 3}


def test_map_with_gadget_vertex():
    c = two_level_circuit()
    r = mcs_to_tss(c)
    seed = {1, 3, 100}  # a target superset touching construction machinery
    assert is_target_set(r.instance, seed)
    got = map_target_set_to_assignment(r, seed)
    assert got == {1, 3} and evaluate(c, got)


def test_map_rejects_non_target():
    r = mcs_to_tss(two_level_circuit())
    with pytest.raises(ValueError):
        map_target_set_to_assignment(r, {1, 2})


def test_mcs_equivalence_small_random():
    rng = random.Random(3)
    from tsslab.verify import random_circuit

    for _ in range(15):
        c = random_circuit(rng, 3, 2)
        r = mcs_to_tss(c)
        w = min_weight_satisfying(c)
        res = optimal_target_set(r.instance, size_cap=c.n_inputs)
        assert res.value == len(w)


# padding ----------------------------------------------------------------------


def test_padding_const_one():
    p = choose_gap_padding(4, rho_preset("const:1"), "clique")
    assert (p.g, p.x, p.h) == (154, 154, 1)
    assert p.clique_yield == 160


def test_padding_const_two():
    p = choose_gap_padding(4, rho_preset("const:2"), "clique")
    assert (p.x, p.h) == (308, 2)
    assert p.clique_yield == 4 + 3 * 6 + 8 * 36


def test_padding_min_closed():
    p = choose_gap_padding(3, rho_preset("const:2"), "min-closed")
    assert (p.h, p.g) == (2, 6)


def test_padding_minimality():
    for k in range(4, 11):
        p = choose_gap_padding(k, rho_preset("const:2"), "clique")
        from math import comb

        c2 = comb(k, 2)
        assert k + (p.h + 1) * c2 + 4 * p.h * c2 * c2 >= p.x
        assert k + p.h * c2 + 4 * (p.h - 1) * c2 * c2 < p.x
        assert Fraction(p.x, 2) >= p.g
        assert Fraction(p.x - 1, 2) < p.g


def test_padding_rejects_decreasing_rho():
    def rho(t):
        return Fraction(4) if t == 200 else Fraction(2)

    with pytest.raises(ValueError) as err:
        choose_gap_padding(4, rho, "clique")
    assert "decreases" in str(err.value)


def test_padding_rejects_bounded_growth():
    with pytest.raises(ValueError):
        choose_gap_padding(4, rho_preset("linear:1"), "clique", search_limit=5000)


@pytest.mark.parametrize("label, bound", [
    ("linear:1", "never increases and is below g = 154"),
    ("linear:3/2", "never increases and is below g = 154"),
    ("poly:1,2", "never increases and is below g = 154"),
    ("poly:1,100000000", "never increases and is below g = 154"),
    ("poly:1,1000.5", "never increases and is below g = 154"),
    ("poly:1,0.9", "past the search limit of 10000000 steps"),
    ("const:100000", "past the search limit of 10000000 steps"),
    ("poly:-1,100000000", r"rho\(154\) = -1\*154\^\(100000000\) is below 1"),
])
def test_padding_refuses_unreachable_presets_before_walking(label, bound):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=bound):
        choose_gap_padding(4, rho_preset(label), "clique")
    assert time.perf_counter() - start < 1


def test_padding_refusal_agrees_with_the_walk_at_its_edge():
    # const:c reaches g = 154 at x = 154c, so the walk ends within 1000
    # steps exactly when 154c <= 1154; the plain callable always walks.
    assert choose_gap_padding(4, rho_preset("const:1154/154"), "clique", search_limit=1000).x == 1154
    for rho in (rho_preset("const:1155/154"), lambda t: Fraction(1155, 154)):
        with pytest.raises(ValueError, match="1000 steps"):
            choose_gap_padding(4, rho, "clique", search_limit=1000)


@pytest.mark.parametrize("label, x", [("linear:1/154", 154), ("poly:1/23716,2", 154)])
def test_padding_keeps_presets_that_reach_g_at_once(label, x):
    # rho(g) = 1 exactly, so x/rho(x) meets g at the walk's first point.
    assert choose_gap_padding(4, rho_preset(label), "clique").x == x


@pytest.mark.parametrize("variant", ["clique", "min-closed"])
@pytest.mark.parametrize("label", ["const:1/2", "const:0", "const:-5"])
def test_padding_rejects_rho_below_one(label, variant):
    with pytest.raises(ValueError, match="is below 1"):
        choose_gap_padding(4, rho_preset(label), variant)


def test_rho_presets():
    assert rho_preset("const:3")(10) == 3
    assert rho_preset("linear:2")(5) == 10
    assert rho_preset("poly:1,2")(3) == 9
    with pytest.raises(ValueError):
        rho_preset("exp:2")


def test_rho_preset_fractional_exponent():
    # poly:1,0.5 is sqrt(t), so x / rho(x) = sqrt(x) reaches g = 154 first
    # at x = 154 ** 2.
    p = choose_gap_padding(4, rho_preset("poly:1,0.5"), "clique")
    assert (p.g, p.x, p.h) == (154, 154**2, 159)


@pytest.mark.parametrize("variant, label", [
    ("min-closed", "poly:1,1100.5"),
    ("min-closed", "poly:2,3000.25"),
    # c*g^1000 <= 1 passes the clique variant's early refusal, so the walk
    # evaluates rho(154).
    ("clique", "poly:1e-2200,1000.5"),
])
def test_padding_refuses_a_float_overflow(variant, label):
    with pytest.raises(ValueError, match="overflows a float"):
        choose_gap_padding(2 if variant == "min-closed" else 4, rho_preset(label), variant)


@pytest.mark.parametrize("label", ["poly:1", "const:x"])
def test_rho_preset_malformed_argument_names_preset(label):
    with pytest.raises(ValueError, match=f"^bad rho preset '{label}'$"):
        rho_preset(label)


# clique construction -----------------------------------------------------------


def test_clique_construction_counts():
    r = clique_to_max_influence(k_complete(8), 4, h=1)
    # 8 + 28 + 6 + 4 * (28 * 6)
    assert r.instance.n == 714
    z = r.tagged("z")
    assert len(z) == 6
    assert all(r.instance.thr[v] == 6 for v in z)


def test_clique_seed_exact_yield():
    r = clique_to_max_influence(k_complete(8), 4, h=1)
    assert influence(r.instance, [1, 2, 3, 4]) == 160


def test_clique_rejects_small_k():
    with pytest.raises(ValueError):
        clique_to_max_influence(k_complete(8), 3)


def test_clique_layered_construction():
    r = clique_to_max_influence(k_complete(5), 4, h=2)
    got = influence(r.instance, [1, 2, 3, 4])
    assert got == r.params.clique_yield == 4 + 3 * 6 + 8 * 36


def test_cliquefree_bound():
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])  # 5-cycle: no triangle even
    r = clique_to_max_influence(g, 4, h=1)
    inner = r.tagged("v") + r.tagged("e")
    res = k_influence(r.instance, 4, "closed", "max", universe=inner)
    assert res.value < 154


# independence decision ----------------------------------------------------------


def test_decision_four_cycle():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    r = is_to_influence_decision(g, 2)
    assert r.ell == 2
    final = naive_closure(r.instance, [1, 3])
    assert len(final) == 2


def test_decision_triangle_every_pair_spills():
    g = k_complete(3)
    r = is_to_influence_decision(g, 2)
    res = k_influence(r.instance, 2, "closed", "min", universe=r.tagged("v"))
    assert res.value == 3


def test_decision_k_zero():
    g = k_complete(3)
    r = is_to_influence_decision(g, 0)
    assert r.ell == 0
    res = k_influence(r.instance, 0, "closed", "min")
    assert res.value == 0


def test_decision_open_variant():
    g = k_complete(3)
    r = is_to_influence_decision(g, 2, mode="open")
    assert r.ell == 0


def test_decision_vertex_side_biconditional_random():
    rng = random.Random(19)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.9))
        for k in range(0, min(3, g.n) + 1):
            r = is_to_influence_decision(g, k)
            res = k_influence(r.instance, k, "closed", "min", universe=r.tagged("v"))
            assert (res.value == k) == has_independent_set(g, k)


def test_decision_mixed_seed_counterexample():
    # an edge copy plus both endpoints is not activation-closed: the edge's
    # other copy fires, so without an independent set the unrestricted
    # decision stays negative
    g = k_complete(4)
    r = is_to_influence_decision(g, 3)
    res = k_influence(r.instance, 3, "closed", "min")
    assert res.value == 4 > 3
    assert not has_independent_set(g, 3)


# min closed construction ---------------------------------------------------------


def test_min_closed_triangle_gap():
    r = is_to_min_closed_influence(k_complete(3), 2, h=3)
    res = k_influence(r.instance, 2, "closed", "min")
    assert res.value == 9  # the whole construction lights up
    assert res.value >= 2 + 3 + 1


def test_min_closed_independent_seed_stays_put():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    r = is_to_min_closed_influence(g, 2, h=3)
    assert len(naive_closure(r.instance, [1, 3])) == 2
    res = k_influence(r.instance, 2, "closed", "min")
    assert res.value == 2


def test_min_closed_two_triggers_light_everything():
    g = k_complete(3)
    r = is_to_min_closed_influence(g, 2, h=3)
    triggers = r.tagged("f")
    assert len(triggers) == 3
    final = naive_closure(r.instance, triggers[:2])
    assert len(final) == r.instance.n


def test_min_closed_gap_random():
    from tsslab.verify import random_graph_min_degree_one

    rng = random.Random(29)
    for _ in range(30):
        g = random_graph_min_degree_one(rng, 2, 7)
        for k in range(1, min(3, g.n) + 1):
            r = is_to_min_closed_influence(g, k, h=3)
            res = k_influence(r.instance, k, "closed", "min")
            if has_independent_set(g, k):
                assert res.value == k
            else:
                assert res.value >= k + 4


def test_min_closed_isolated_vertex_escape():
    # a degree-0 source vertex never activates, yet a seed of one edge copy
    # plus its endpoints does not undercut the no-independent-set bound: the
    # edge's other copy fires and lights every trigger
    g = Graph(3, [(1, 2)])
    r = is_to_min_closed_influence(g, 3, h=3)
    res = k_influence(r.instance, 3, "closed", "min")
    assert not has_independent_set(g, 3)
    assert res.value >= 3 + 3 + 1


# shared shape checks --------------------------------------------------------------


def test_constructions_validate_and_have_total_provenance():
    rng = random.Random(7)
    g = random_graph(rng, 6, 0.5)
    builds = [
        clique_to_max_influence(g, 4, h=1),
        is_to_influence_decision(g, 2),
        is_to_min_closed_influence(g, 2, h=2),
        mcs_to_tss(two_level_circuit()),
    ]
    for r in builds:
        inst = r.instance
        assert all(r.provenance[v] for v in range(1, inst.n + 1))
        assert all(inst.thr[v] >= 1 for v in range(1, inst.n + 1))
        assert len(r.provenance) == inst.n + 1


def test_gap_parameters_validation():
    with pytest.raises(ValueError):
        GapParameters("clique", 4, 154, 0)
    with pytest.raises(ValueError):
        GapParameters("other", 4, 154, 1)


# build size ---------------------------------------------------------------------


def test_gap_build_size_counts_the_built_instance():
    rng = random.Random(15)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        h = rng.randint(1, 4)
        if g.n >= 4:
            k = rng.randint(4, 6)
            inst = clique_to_max_influence(g, k, h=h).instance
            assert _gap_build_size("clique", g, k, h) == (inst.n, inst.m)
        k = rng.randint(1, g.n)
        inst = is_to_min_closed_influence(g, k, h=h).instance
        assert _gap_build_size("min-closed", g, k, h) == (inst.n, inst.m)


@pytest.mark.parametrize("build, k, h", [
    (clique_to_max_influence, 4, 10**7),
    (is_to_min_closed_influence, 2, 10**7),
    # const:1000000000 at k = 2 pads with h = 1999999997.
    (is_to_min_closed_influence, 2, choose_gap_padding(2, rho_preset("const:1000000000"), "min-closed").h),
])
def test_gap_builders_refuse_oversized_builds_at_once(build, k, h):
    g = k_complete(4)
    start = time.perf_counter()
    with pytest.raises(BuildSizeError, match=f"above the budget of {BUILD_SIZE_LIMIT} vertices plus edges"):
        build(g, k, h=h)
    assert time.perf_counter() - start < 1


def test_gap_build_budget_edge():
    g = k_complete(4)  # the min-closed build at k = 2 has 10 + h + 6(2 + h)
    h = (BUILD_SIZE_LIMIT - 22) // 7
    assert sum(_gap_build_size("min-closed", g, 2, h)) <= BUILD_SIZE_LIMIT
    with pytest.raises(BuildSizeError):
        is_to_min_closed_influence(g, 2, h=h + 1)
