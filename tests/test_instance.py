import random

import pytest

from tsslab.gadgets import reduce_thresholds_to_two
from tsslab.instance import (
    GeneratorConfig,
    Graph,
    Instance,
    ParseError,
    generate_random,
    incidence_graph,
    parse_instance,
    write_instance,
)
from tsslab.verify import random_graph

TWO_PATH = "tss 2 1\nt 1 1\nt 2 1\ne 1 2\n"


def test_parse_smallest_instance():
    inst = parse_instance(TWO_PATH)
    assert inst.n == 2 and inst.m == 1
    assert inst.thr[1] == 1 and inst.thr[2] == 1
    assert inst.graph.edges == ((1, 2),)


def test_write_canonical_lines():
    inst = parse_instance(TWO_PATH)
    assert write_instance(inst) == TWO_PATH
    assert write_instance(inst) == write_instance(inst)


def test_parse_comments_and_blank_lines():
    text = "# header comment\ntss 2 1\n\nt 1 1  # trailing\nt 2 2\ne 1 2\n"
    inst = parse_instance(text)
    assert inst.thr[2] == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("tss x 1\nt 1 1\n", "malformed header"),
        ("tss 2 1\nt 1 0\nt 2 1\ne 1 2\n", "threshold below 1"),
        ("tss 2 1\nt 1 1\nt 1 1\ne 1 2\n", "duplicate threshold"),
        ("tss 2 1\nt 1 1\nt 3 1\ne 1 2\n", "out of range"),
        ("tss 2 2\nt 1 1\nt 2 1\ne 1 2\ne 1 2\n", "duplicate edge"),
        ("tss 2 1\nt 1 1\nt 2 1\ne 2 1\n", "u < v"),
        ("tss 2 1\nt 1 1\nt 2 1\ne 1 3\n", "out of range"),
        ("tss 2 1\nt 1 1\nt 2 1\n", "promises"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_parse_error_names_line_number():
    with pytest.raises(ParseError) as err:
        parse_instance("tss 2 1\nt 1 1\nt 2 0\ne 1 2\n")
    assert str(err.value).startswith("line 3:")


def test_roundtrip_random_instances():
    rng = random.Random(7)
    for _ in range(50):
        cfg = GeneratorConfig(
            n=rng.randint(1, 15),
            edge_probability=rng.random(),
            threshold_mode=rng.choice(("constant", "majority", "unanimity", "uniform")),
            rng_seed=rng.randrange(2**32),
            constant=rng.randint(1, 3),
        )
        inst = generate_random(cfg)
        assert parse_instance(write_instance(inst)) == inst


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])


def test_instance_rejects_small_threshold():
    with pytest.raises(ValueError):
        Instance(Graph(2, [(1, 2)]), [1, 0])


def test_generator_empty_graph_forces_min_threshold():
    for mode in ("constant", "majority", "unanimity", "uniform"):
        cfg = GeneratorConfig(5, 0.0, mode, rng_seed=1, constant=3)
        inst = generate_random(cfg)
        assert inst.m == 0
        assert all(inst.thr[v] == 1 for v in range(1, 6))


def test_generator_complete_graph_modes():
    unan = generate_random(GeneratorConfig(4, 1.0, "unanimity", rng_seed=0))
    assert all(unan.thr[v] == 3 for v in range(1, 5))
    maj = generate_random(GeneratorConfig(4, 1.0, "majority", rng_seed=0))
    assert all(maj.thr[v] == 2 for v in range(1, 5))


def test_generator_deterministic():
    cfg = GeneratorConfig(12, 0.4, "uniform", rng_seed=99)
    assert generate_random(cfg) == generate_random(cfg)


def test_adjacency_symmetric_and_simple():
    rng = random.Random(3)
    for _ in range(20):
        inst = generate_random(
            GeneratorConfig(rng.randint(1, 12), rng.random(), "constant", rng_seed=rng.randrange(2**16))
        )
        g = inst.graph
        for v in range(1, g.n + 1):
            assert len(set(g.adj[v])) == len(g.adj[v])
            assert v not in g.adj[v]
            for w in g.adj[v]:
                assert v in g.adj[w]
        assert sum(g.degree(v) for v in range(1, g.n + 1)) == 2 * g.m


def test_incidence_triangle():
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    inc, names = incidence_graph(g)
    assert inc.n == 6 and inc.m == 6
    assert all(inc.degree(v) == 2 for v in range(1, 7))
    assert names[4] == "e1-2" and names[1] == "v1"


def test_incidence_edgeless():
    inc, names = incidence_graph(Graph(4))
    assert inc.n == 4 and inc.m == 0
    assert names == {1: "v1", 2: "v2", 3: "v3", 4: "v4"}


def test_incidence_four_cycle():
    inc, _ = incidence_graph(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    assert inc.n == 8 and inc.m == 8
    assert all(inc.degree(v) == 2 for v in range(5, 9))


def test_incidence_bipartite_by_provenance():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 10)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
        g = Graph(n, edges)
        inc, names = incidence_graph(g)
        assert inc.m == 2 * g.m
        for u, v in inc.edges:
            assert {names[u][0], names[v][0]} == {"v", "e"}


def test_adjacency_lists_sorted():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(0, 25)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
        rng.shuffle(edges)
        g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
        assert all(list(a) == sorted(a) for a in g.adj)
        assert g.edges == tuple(sorted(edges))


def test_builder_graph_equals_graph_from_sorted_edges():
    rng = random.Random(12)
    for _ in range(30):
        cfg = GeneratorConfig(rng.randint(1, 7), rng.random(), "uniform", rng.randrange(2**32))
        red = reduce_thresholds_to_two(generate_random(cfg)).instance
        ref = Graph(red.n, sorted(red.graph.edges))
        assert red.graph == ref
        assert red.graph.adj == ref.adj


def _reference_edges(rng, n, p):
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                edges.append((u, v))
    return edges


def _reference_random(cfg):
    rng = random.Random(cfg.rng_seed)
    g = Graph(cfg.n, _reference_edges(rng, cfg.n, cfg.edge_probability))
    thr = []
    for v in range(1, cfg.n + 1):
        d = g.degree(v)
        if cfg.threshold_mode == "constant":
            t = cfg.constant
        elif cfg.threshold_mode == "majority":
            t = (d + 1) // 2
        elif cfg.threshold_mode == "unanimity":
            t = d
        else:
            t = rng.randint(1, max(1, d))
        thr.append(max(1, min(t, max(1, d))))
    return Instance(g, thr)


@pytest.mark.parametrize("mode", ["constant", "majority", "unanimity", "uniform"])
def test_generator_matches_reference_double_loop(mode):
    rng = random.Random(13)
    for n, p in [(0, 0.5), (1, 1.0), (12, 0.0), (12, 1.0), (30, 0.2), (60, 0.05)]:
        cfg = GeneratorConfig(n, p, mode, rng.randrange(2**32), rng.randint(1, 4))
        assert write_instance(generate_random(cfg)) == write_instance(_reference_random(cfg))


def test_random_graph_matches_reference_double_loop():
    for seed, (n, p) in enumerate([(0, 0.5), (1, 1.0), (2, 0.5), (12, 0.0), (12, 1.0), (30, 0.2)]):
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        assert random_graph(got_rng, n, p) == Graph(n, _reference_edges(ref_rng, n, p))
        assert got_rng.getstate() == ref_rng.getstate()
