import hashlib
import random
from itertools import combinations

import pytest

from tsslab.gadgets import InstanceBuilder, reduce_thresholds_to_two
from tsslab.instance import GeneratorConfig, Graph, Instance, generate_random, write_instance
from tsslab.propagation import activate, is_target_set
from tsslab.reductions import (
    clique_to_max_influence,
    is_to_influence_decision,
    is_to_min_closed_influence,
    mcs_to_tss,
)
from tsslab.solvers import optimal_target_set
from tsslab.verify import (
    brute_force_min_target_set,
    enumerate_small_circuits,
    is_bipartite,
    naive_closure,
    naive_is_target_set,
    random_graph,
)


def two_vertices():
    b = InstanceBuilder()
    return b, b.add_vertex(1, "v1"), b.add_vertex(1, "v2")


def test_directed_gadget_counts():
    b, u, v = two_vertices()
    before_n, before_m = b.vertex_count, 0
    a = b.add_directed_edge_gadget(u, v)
    inst = b.build("chain").instance
    assert inst.n - before_n == 4 and a == before_n + 1
    assert inst.m == 6
    assert inst.thr[a] == 1 and inst.thr[a + 1] == 1 and inst.thr[a + 3] == 1
    assert inst.thr[a + 2] == 2
    assert inst.graph.neighbors(u) == (a,) and inst.graph.neighbors(v) == (a + 2,)


def test_directed_gadget_one_way():
    b, u, v = two_vertices()
    b.add_directed_edge_gadget(u, v)
    inst = b.build("chain").instance
    assert is_target_set(inst, [u])
    assert activate(inst, [v]).final_active == {v}


def test_directed_gadget_rejects_loop():
    b, u, _ = two_vertices()
    with pytest.raises(ValueError):
        b.add_directed_edge_gadget(u, u)


def test_stacked_gadgets_relay_rounds():
    b = InstanceBuilder()
    u = b.add_vertex(1, "v1")
    w = b.add_vertex(1, "v2")
    v = b.add_vertex(1, "v3")
    b.add_directed_edge_gadget(u, w)
    b.add_directed_edge_gadget(w, v)
    inst = b.build("chain").instance
    trace = activate(inst, [u])
    assert v in trace.final_active
    assert trace.round_count == 8  # four rounds per gadget hop
    assert len(trace.final_active) == inst.n


def build_activation_harness(d, t):
    """Free-standing inputs feeding one activation gadget."""
    b = InstanceBuilder()
    inputs = [b.add_vertex(d + 1, f"v{i}") for i in range(1, d + 1)]
    target = b.add_vertex(d + 1, f"v{d + 1}")
    b.add_activation_gadget(target, inputs, t)
    return b.build("harness"), inputs, target


def grid_cells(r, kind, owner):
    """The activation gadget's cells tagged `<kind><owner>.<i>.<j>`, by (i, j)."""
    cells = {}
    for v in r.tagged(f"{kind}{owner}."):
        i, j = r.provenance[v][len(f"{kind}{owner}."):].split(".")
        cells[int(i), int(j)] = v
    return cells


def test_activation_gadget_cell_counts():
    r, inputs, target = build_activation_harness(4, 3)
    w, wt = grid_cells(r, "w", target), grid_cells(r, "wt", target)
    assert sorted(w) == [(i, j) for i in range(1, 5) for j in range(1, i + 1)]
    assert sorted(wt) == [(i, j) for i in range(2, 5) for j in range(2, i + 1)]
    assert len(w) == 10
    assert len(wt) == 6
    assert all(r.instance.thr[c] == 1 for c in w.values())
    assert all(r.instance.thr[c] == 2 for c in wt.values())
    assert r.instance.thr[target] == 1


def test_activation_gadget_cell_semantics():
    r, inputs, target = build_activation_harness(4, 3)
    inst = r.instance
    for bits in range(16):
        seed = [inputs[i] for i in range(4) if bits >> i & 1]
        final = naive_closure(inst, seed)
        for (i, j), cell in grid_cells(r, "w", target).items():
            active_prefix = sum(1 for x in range(i) if bits >> x & 1)
            assert (cell in final) == (active_prefix >= j), (bits, i, j)
        assert (target in final) == (bin(bits).count("1") >= 3)


def test_activation_gadget_below_threshold_never_fires():
    r, inputs, target = build_activation_harness(4, 3)
    inst = r.instance
    for pair in combinations(inputs, 2):
        assert target not in naive_closure(inst, pair)


def test_activation_gadget_validates_t():
    b = InstanceBuilder()
    inputs = [b.add_vertex(1, f"v{i}") for i in range(1, 5)]
    v = b.add_vertex(5, "v5")
    with pytest.raises(ValueError):
        b.add_activation_gadget(v, inputs, 2)
    with pytest.raises(ValueError):
        b.add_activation_gadget(v, inputs, 5)


def k4_instance(thr):
    return Instance(Graph(4, list(combinations(range(1, 5), 2))), [thr] * 4)


def test_reduction_k4_preserves_optimum():
    inst = k4_instance(3)
    r = reduce_thresholds_to_two(inst)
    opt = brute_force_min_target_set(inst)
    assert len(opt) == 3
    res = optimal_target_set(r.instance, size_cap=3)
    assert res.value == 3


def test_reduction_thresholds_at_most_two():
    inst = k4_instance(3)
    red = reduce_thresholds_to_two(inst).instance
    assert all(red.thr[v] in (1, 2) for v in range(1, red.n + 1))


def test_reduction_rewires_even_low_thresholds():
    inst = Instance(Graph(2, [(1, 2)]), [1, 1])
    r = reduce_thresholds_to_two(inst)
    # both directions replaced by gadgets, original edge gone
    assert r.instance.n == 10
    assert (1, 2) not in r.instance.graph.edges
    assert is_target_set(r.instance, [1])
    assert is_target_set(r.instance, [2])


def test_reduction_seed_only_vertex():
    # threshold above degree: only seeding can ever activate it, before and after
    g = Graph(2, [(1, 2)])
    inst = Instance(g, [5, 1])
    r = reduce_thresholds_to_two(inst)
    assert all(r.instance.thr[v] <= 2 for v in range(1, r.instance.n + 1))
    assert not is_target_set(r.instance, [2])
    assert is_target_set(r.instance, [1, 2])
    assert len(brute_force_min_target_set(inst)) == optimal_target_set(r.instance).value


def test_reduction_originals_keep_ids_and_provenance_total():
    inst = k4_instance(3)
    r = reduce_thresholds_to_two(inst)
    for v in range(1, 5):
        assert r.provenance[v] == f"v{v}"
    assert all(r.provenance[v] for v in range(1, r.instance.n + 1))


def test_reduction_back_map_reaches_originals():
    inst = k4_instance(3)
    r = reduce_thresholds_to_two(inst)
    mapped = r.back_map(range(1, r.instance.n + 1))
    assert mapped == {1, 2, 3, 4}


def test_reduction_bipartite_random():
    rng = random.Random(2)
    for _ in range(30):
        inst = generate_random(
            GeneratorConfig(rng.randint(1, 5), rng.uniform(0.2, 0.9), "uniform", rng.randrange(2**32))
        )
        r = reduce_thresholds_to_two(inst)
        assert is_bipartite(r.instance.graph)
        assert all(r.instance.thr[v] <= 2 for v in range(1, r.instance.n + 1))


def test_reduction_forward_direction_random():
    rng = random.Random(4)
    for _ in range(20):
        inst = generate_random(
            GeneratorConfig(rng.randint(1, 5), rng.uniform(0.2, 0.9), "uniform", rng.randrange(2**32))
        )
        r = reduce_thresholds_to_two(inst)
        for size in range(inst.n + 1):
            for combo in combinations(range(1, inst.n + 1), size):
                if naive_is_target_set(inst, combo):
                    assert is_target_set(r.instance, combo)
            break_early = size >= 2  # the small sizes are the interesting ones
            if break_early:
                break


def _layout(r):
    return write_instance(r.instance) + r.provenance_text() + repr(r.origin)


def test_gadget_calls_are_all_or_nothing():
    b = InstanceBuilder()
    u = b.add_vertex(1, "v1")
    before = _layout(b.build("one"))
    for src, dst in ((u, 7), (7, u), (0, u), (u, -1)):
        bad = dst if src == u else src
        with pytest.raises(ValueError, match=f"endpoint {bad} out of range"):
            b.add_directed_edge_gadget(src, dst)
        assert b.vertex_count == 1 and _layout(b.build("one")) == before

    inputs = [b.add_vertex(1, f"v{i}") for i in range(2, 6)]
    v = b.add_vertex(5, "v6")
    before = _layout(b.build("six"))
    for owner, ins, bad in (
        (v, inputs[:3] + [99], 99),
        (v, [0] + inputs, 0),
        (99, inputs, 99),
        (-1, inputs, -1),
    ):
        with pytest.raises(ValueError, match=f" {bad} out of range"):
            b.add_activation_gadget(owner, ins, 3)
        assert b.vertex_count == 6 and _layout(b.build("six")) == before
    for bad in (0, -1, 7):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            b.set_threshold(bad, 1)
        assert _layout(b.build("six")) == before


def record_gadget_edges(b, edges):
    """Wrap `b.add_directed_edge_gadget` so every relay it builds, also
    inside an activation gadget, appends its six edges to `edges`."""
    relay = b.add_directed_edge_gadget

    def spy(u, v):
        a = relay(u, v)
        c = a + 2
        edges.extend([(a, a + 1), (a + 1, c), (c, a + 3), (a + 3, a), (u, a), (c, v)])
        return a

    b.add_directed_edge_gadget = spy


def test_bulk_build_matches_validating_graph():
    """build()'s unchecked Graph equals Graph(n, edges) on the edges each
    builder call makes, and its unchecked Instance equals the checked
    Instance(...) on its thresholds, across mixed builds using every
    builder method."""
    rng = random.Random(31)
    for _ in range(120):
        b = InstanceBuilder()
        edges: list[tuple[int, int]] = []
        record_gadget_edges(b, edges)
        for i in range(rng.randint(2, 6)):
            b.add_vertex(rng.randint(1, 3), f"v{i}")
        for _ in range(rng.randint(0, 12)):
            n = b.vertex_count
            op = rng.random()
            if op < 0.2:
                b.add_vertex(rng.randint(1, 4), "x")
            elif op < 0.5:
                nbrs = rng.sample(range(1, n + 1), rng.randint(0, min(n, 4)))
                if rng.random() < 0.3:
                    bad = rng.choice((0, n + 1, *nbrs))  # repeated or out of range
                    before = _layout(b.build("mixed"))
                    with pytest.raises(ValueError):
                        b.add_vertex(1, "x", nbrs=nbrs + [bad])
                    assert b.vertex_count == n and _layout(b.build("mixed")) == before
                else:
                    v = b.add_vertex(rng.randint(1, 4), "x", nbrs=nbrs)
                    edges += [(u, v) for u in nbrs]
            elif op < 0.6:
                b.set_threshold(rng.randint(1, n), rng.randint(1, 4))
            elif op < 0.85:
                u, v = rng.sample(range(1, n + 1), 2)
                b.add_directed_edge_gadget(u, v)
            elif n >= 4:
                v, *inputs = rng.sample(range(1, n + 1), rng.randint(4, min(n, 6)))
                b.add_activation_gadget(v, inputs, rng.randint(3, len(inputs)))
        inst = b.build("mixed").instance
        got = inst.graph
        ref = Graph(b.vertex_count, edges)
        assert got == ref and got.m == ref.m and got.adj == ref.adj
        assert inst == Instance(ref, list(inst.thr[1:])) and inst.thr[0] == 0


def test_add_vertex_checks_before_any_change():
    b, u, v = two_vertices()
    b.add_vertex(1, "w", origin=u, nbrs=(u, v))
    before = _layout(b.build("three"))
    for kwargs, match in (
        ({"origin": 4}, "origin 4 out of range 0..3"),  # the new vertex's own id
        ({"origin": 9}, "origin 9 out of range 0..3"),
        ({"origin": -1}, "origin -1 out of range 0..3"),
        ({"nbrs": (u, 4)}, "neighbour 4 out of range 1..3"),
        ({"nbrs": (0,)}, "neighbour 0 out of range 1..3"),
        ({"nbrs": (v, u, v)}, "repeated neighbour"),
    ):
        with pytest.raises(ValueError, match=match):
            b.add_vertex(1, "y", **kwargs)
        assert b.vertex_count == 3 and _layout(b.build("three")) == before
    for bad, match in (
        (1.5, "threshold 1.5 is not an integer"),
        ("2", "threshold '2' is not an integer"),
        (0, "threshold 0 below 1"),
    ):
        with pytest.raises(ValueError, match=match):
            b.add_vertex(bad, "y")
        with pytest.raises(ValueError, match=match):
            b.set_threshold(u, bad)
        assert b.vertex_count == 3 and _layout(b.build("three")) == before
    # An origin past n would send back_map out of range, or round a loop
    # for ever when it names the new vertex itself.
    with pytest.raises(ValueError, match="origin 5 out of range 0..0"):
        InstanceBuilder().add_vertex(1, "x", origin=5)
    one = InstanceBuilder()
    one.add_vertex(1, "x")
    with pytest.raises(ValueError, match="origin 2 out of range 0..1"):
        one.add_vertex(1, "y", origin=2)
    assert one.build("one").back_map([1]) == {1}


# sha256 of write_instance + provenance_text + origin per reduction: pins
# gadget ids, vertex numbering, edges, thresholds, tags and origins, which
# solver witnesses and `tsslab reduce` files depend on.
LAYOUT_DIGESTS = {
    "mcs_to_tss (3,3)[::7]": "1bdbbdaf5ee3ad280bdcf5d019cc8c0461fae7a5555fd3057006c0f7a700a332",
    "thresholds-to-two": "ecbbf16b8a1f798b3d3a75040292b7a2addb1e34e9297b1988882064e855c57c",
    "clique": "1cc50fe39c99fe8e31a3fbe1bd5ef5375f034089293646d8f8b28ebd61ace6a7",
    "is-decision": "04d4b3d290fa17a6816bd623275463b72b779264e0684766dfa09c997a619e35",
    "is-min-closed": "13103922a256ec1d10d7df7d5de7081755eaa76991795c2c7fb1ba5a816d29eb",
}


def test_reduction_layouts_pinned():
    rng = random.Random(13)
    graphs = [random_graph(rng, rng.randint(4, 7), rng.uniform(0.2, 0.8)) for _ in range(5)]
    builds = {
        "mcs_to_tss (3,3)[::7]": [mcs_to_tss(c) for c in enumerate_small_circuits(3, 3)[::7]],
        "thresholds-to-two": [
            reduce_thresholds_to_two(generate_random(GeneratorConfig(30, 0.3, "uniform", 11)))
        ],
        "clique": [clique_to_max_influence(random_graph(random.Random(12), 9, 0.6), 4, h=2)],
        "is-decision": [is_to_influence_decision(g, k) for g in graphs for k in range(1, 5)],
        "is-min-closed": [
            is_to_min_closed_influence(g, k, h=h) for g in graphs for k in range(1, 5) for h in (1, 3)
        ],
    }
    for name, reduced in builds.items():
        text = "".join(map(_layout, reduced))
        assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_DIGESTS[name], name
