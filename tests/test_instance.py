import gc
import hashlib
import math
import random

import pytest

from tsslab.circuits import build_circuit, parse_circuit
from tsslab.gadgets import InstanceBuilder, reduce_thresholds_to_two
from tsslab.instance import (
    _BLOCK_BELOW_P,
    _BLOCK_MIN_PAIRS,
    GeneratorConfig,
    Graph,
    Instance,
    ParseError,
    generate_random,
    parse_instance,
    write_instance,
)
from tsslab.propagation import activate
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


def test_roundtrip_random_instances_above_block_crossover():
    rng = random.Random(8)
    for _ in range(12):
        cfg = GeneratorConfig(
            n=rng.randint(_BLOCK_MIN_PAIRS + 1, 300),
            edge_probability=rng.choice((rng.uniform(0, _BLOCK_BELOW_P), rng.random())),
            threshold_mode=rng.choice(("constant", "majority", "unanimity", "uniform")),
            rng_seed=rng.randrange(2**32),
            constant=rng.randint(1, 3),
        )
        inst = generate_random(cfg)
        back = parse_instance(write_instance(inst))
        assert back == inst and back.graph.adj == inst.graph.adj


@pytest.mark.parametrize(
    "text",
    [
        "tss 2 1\nt 1_2 \u0663\nt 2 1\ne 1 2\n",
        "tss 2 1\nt 1 \u0663\nt 2 1\ne 1 2\n",
        "tss 2 1\nt 1 +1\nt 2 1\ne 1 2\n",
        "tss 10 1\n" + "".join(f"t {v} 1\n" for v in range(1, 11)) + "e 1 1_0\n",
        "tss 2 1\nt 1 1\nt 2 1\ne 1 \uff12\n",
        "tss \uff12 1\nt 1 1\nt 2 1\ne 1 2\n",
    ],
)
def test_parse_rejects_non_ascii_and_underscored_integers(text):
    with pytest.raises(ParseError, match=r"^line \d+: (expected '[te] |malformed header)"):
        parse_instance(text)


def test_parse_negative_threshold_still_says_below_one():
    with pytest.raises(ParseError, match="^line 2: threshold below 1$"):
        parse_instance("tss 2 1\nt 1 -1\nt 2 1\ne 1 2\n")


def _build(args):
    return build_circuit(*args)


# Every error the two text formats and `build_circuit` raise, with its exact
# message.  Blank and comment lines shift some cases, so each line number is
# the line's place in the file, not among the rows read.
EVERY_PARSE_ERROR = [
    (parse_instance, "", "line 1: missing header"),
    (parse_instance, "# comment only\n", "line 1: missing header"),
    (parse_instance, "\n# c\ntss 2\n", "line 3: malformed header, expected 'tss <n> <m>'"),
    (parse_instance, "tss 2 x\n", "line 1: malformed header, expected 'tss <n> <m>'"),
    (parse_instance, "tss -1 0\n", "line 1: negative counts in header"),
    (
        parse_instance,
        "tss 2 1\nt 1 1\nt 2 1\n",
        "line 1: header promises 2 threshold and 1 edge lines, found 2",
    ),
    (parse_instance, "tss 1 0\nthr 1 1\n", "line 2: expected 't <vertex> <threshold>'"),
    (parse_instance, "tss 1 0\n\nt 1 x\n", "line 3: expected 't <vertex> <threshold>'"),
    (parse_instance, "tss 1 0\nt 2 1\n", "line 2: vertex 2 out of range 1..1"),
    (parse_instance, "tss 2 0\nt 1 1\nt 1 1\n", "line 3: duplicate threshold for vertex 1"),
    (parse_instance, "tss 1 0\nt 1 0\n", "line 2: threshold below 1"),
    (parse_instance, "tss 2 1\nt 1 1\nt 2 1\nedge 1 2\n", "line 4: expected 'e <u> <v>'"),
    (parse_instance, "tss 2 1\nt 1 1\nt 2 1\n# c\ne 1 y\n", "line 5: expected 'e <u> <v>'"),
    (parse_instance, "tss 2 1\nt 1 1\nt 2 1\ne 1 3\n", "line 4: edge endpoint out of range 1..2"),
    (
        parse_instance,
        "tss 2 1\nt 1 1\nt 2 1\ne 2 1\n",
        "line 4: edge endpoints must satisfy u < v",
    ),
    (parse_instance, "tss 2 2\nt 1 1\nt 2 1\ne 1 2\ne 1 2\n", "line 5: duplicate edge (1, 2)"),
    (parse_circuit, "# c\n", "line 1: missing circuit header"),
    (parse_circuit, "\ncirc 1\n", "line 2: malformed header, expected 'circuit <n>'"),
    (parse_circuit, "circuit x\n", "line 1: malformed header, expected 'circuit <n>'"),
    (parse_circuit, "circuit 0\noutput 1\n", "line 1: circuit needs at least one node"),
    (
        parse_circuit,
        "circuit 2\ninput 1\noutput 1\n",
        "line 1: expected 2 node lines plus an output line",
    ),
    (parse_circuit, "circuit 1\ninput x\noutput 1\n", "line 2: bad node id"),
    (
        parse_circuit,
        "circuit 3\ninput 1\ninput 2\ngate 3 and 1 x\noutput 3\n",
        "line 4: bad node id",
    ),
    (
        parse_circuit,
        "circuit 3\ninput 1\ninput 2\ngate 3 xor 1 2\noutput 3\n",
        "line 4: gate kind must be 'and' or 'or'",
    ),
    (
        parse_circuit,
        "circuit 1\nnode 1\noutput 1\n",
        "line 2: expected 'input <id>' or 'gate <id> ...'",
    ),
    (parse_circuit, "circuit 1\n# c\ninput 2\noutput 1\n", "line 3: node id 2 out of range 1..1"),
    (
        parse_circuit,
        "circuit 2\ninput 1\ninput 1\noutput 1\n",
        "line 3: duplicate definition of node 1",
    ),
    (parse_circuit, "circuit 1\ninput 1\nout 1\n", "line 3: expected 'output <id>'"),
    (parse_circuit, "circuit 1\ninput 1\noutput x\n", "line 3: expected 'output <id>'"),
    (parse_circuit, "circuit 1\ninput 1\noutput 2\n", "line 3: output id 2 out of range 1..1"),
    # Errors of the assembled circuit carry no line number.
    (
        parse_circuit,
        "circuit 3\ninput 1\ninput 2\ngate 3 and 1 9\noutput 3\n",
        "node 3 references unknown node 9",
    ),
    (
        parse_circuit,
        "circuit 3\ninput 1\ninput 2\ngate 3 and 1 3\noutput 3\n",
        "node 3 feeds itself",
    ),
    (
        parse_circuit,
        "circuit 3\ninput 1\ninput 2\ngate 3 and 1 1\noutput 3\n",
        "node 3 lists a predecessor twice",
    ),
    (
        parse_circuit,
        "circuit 3\ninput 1\ninput 2\ngate 3 or 1\noutput 3\n",
        "gate 3 has fewer than two inputs",
    ),
    (
        parse_circuit,
        "circuit 3\ninput 1\ninput 2\ninput 3\noutput 3\n",
        "expected exactly one output candidate, found 3",
    ),
    (
        parse_circuit,
        "circuit 3\ninput 1\ninput 2\ngate 3 and 1 2\noutput 2\n",
        "declared output 2 is not the unique sink 3",
    ),
    (
        parse_circuit,
        "circuit 5\ninput 1\ninput 2\ngate 3 and 1 4\ngate 4 and 2 3\ngate 5 and 3 4\noutput 5\n",
        "cycle detected",
    ),
    (_build, (["input", "input"], [(), (1,)]), "input node 2 must have no predecessors"),
    (_build, (["input", "input", "nand"], [(), (), (1, 2)]), "node 3 has unknown kind 'nand'"),
]


@pytest.mark.parametrize("parse, source, message", EVERY_PARSE_ERROR)
def test_every_parse_error_message(parse, source, message):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == message


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])


def test_instance_rejects_small_threshold():
    g = Graph(2, [(1, 2)])
    with pytest.raises(ValueError):
        Instance(g, [1, 0])
    # A threshold that is not an integer is rejected, not truncated.
    with pytest.raises(ValueError, match="threshold 1.5 at vertex 1 is not an integer"):
        Instance(g, [1.5, 2])
    with pytest.raises(ValueError, match="threshold '2' at vertex 2 is not an integer"):
        Instance(g, {1: 1, 2: "2"})
    # The builder rejects it at the call, naming the value.
    with pytest.raises(ValueError, match="threshold 1.5 is not an integer"):
        InstanceBuilder().add_vertex(1.5, "x")


def test_equal_graphs_and_instances_hash_equal():
    # Equal objects built along different paths: edge order, orientation,
    # a parse, and a mapping of thresholds against a sequence.
    g1 = Graph(3, [(1, 2), (2, 3)])
    g2 = Graph(3, [(3, 2), (2, 1)])
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    i1 = Instance(g1, [1, 2, 1])
    i2 = parse_instance("tss 3 2\nt 1 1\nt 2 2\nt 3 1\ne 2 3\ne 1 2\n")
    i3 = Instance(g2, {1: 1, 2: 2, 3: 1})
    assert i1 == i2 == i3 and hash(i1) == hash(i2) == hash(i3)
    assert len({i1, i2, i3}) == 1
    assert len({i1, Instance(g1, [1, 1, 1])}) == 2
    assert g1 != Graph(3, [(1, 2)]) and i1 != g1


def test_graph_and_instance_repr():
    g = Graph(3, [(1, 2), (2, 3)])
    assert repr(g) == "Graph(n=3, m=2)"
    assert repr(Instance(g, [1, 2, 1])) == "Instance(n=3, m=2)"


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


def test_generator_refuses_more_pairs_than_budget():
    assert GeneratorConfig(14142, 0.5).n == 14142  # 99,991,011 pairs
    for n in (14143, 40_000_000, 2_000_000_000):
        with pytest.raises(ValueError, match="100000000 vertex pairs"):
            GeneratorConfig(n, 0.0)


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
    cases = [(0, 0.5), (1, 1.0), (12, 0.0), (12, 1.0), (30, 0.2), (60, 0.05)]
    cases += [(_BLOCK_MIN_PAIRS + 1, 0.02), (400, 0.01), (150, 0.7), (300, 2**-8)]
    for n, p in cases:
        cfg = GeneratorConfig(n, p, mode, rng.randrange(2**32), rng.randint(1, 4))
        assert write_instance(generate_random(cfg)) == write_instance(_reference_random(cfg))


def test_random_graph_matches_reference_double_loop():
    for seed, (n, p) in enumerate([(0, 0.5), (1, 1.0), (2, 0.5), (12, 0.0), (12, 1.0), (30, 0.2)]):
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        assert random_graph(got_rng, n, p) == Graph(n, _reference_edges(ref_rng, n, p))
        assert got_rng.getstate() == ref_rng.getstate()


def _first_small_draw(seed, count):
    """(index, value) of the first of `count` draws from random.Random(seed)
    below the block path's probability limit."""
    rng = random.Random(seed)
    for j in range(count):
        x = rng.random()
        if x < _BLOCK_BELOW_P:
            return j, x
    raise AssertionError("no small draw")


def _block_stream_cases():
    cases = [(_BLOCK_MIN_PAIRS + d, 0.02) for d in (-1, 0, 1, 2)]
    cases += [(400, 0.01), (150, 0.7)]
    for p in (0.0, 1.0, 2**-8, math.nextafter(2**-8, 0), math.nextafter(2**-8, 1)):
        cases.append((200, p))
    # A p the stream itself draws, for seed 0 in row 1 of n = 200, so that
    # one pair sits exactly on the cut (random() == p is no edge), and the
    # cuts ceil(p * 2**53) that are multiples of 2**26 on either side of it.
    _, x = _first_small_draw(0, 199)
    drawn = int(x * 2**53)
    cases.append((200, x))
    for high in (drawn >> 26, (drawn >> 26) + 1):
        cases.append((200, (high << 26) / 2**53))
    return cases


@pytest.mark.parametrize("n, p", _block_stream_cases())
def test_random_graph_matches_reference_above_block_crossover(n, p):
    for seed in range(3):
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        assert random_graph(got_rng, n, p) == Graph(n, _reference_edges(ref_rng, n, p))
        assert got_rng.getstate() == ref_rng.getstate()


# sha256 of generated instance text, recorded before G(n, p) rows were drawn
# in blocks; a seed must keep giving the same instance.
GENERATED_TEXT_SHA256 = {
    1: "6d35530cc5bac0e44879e83e7c87fd862e97e6776de70f30f533a4775d71b996",
    2: "b2370b9094c198f496aade1cf15689b842de91dab97a6b5a06e44c0b057d81d8",
}


@pytest.mark.parametrize("seed", sorted(GENERATED_TEXT_SHA256))
def test_generated_text_pinned_by_digest(seed):
    text = write_instance(generate_random(GeneratorConfig(3000, 0.003, "constant", seed, 2)))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_TEXT_SHA256[seed]


def _path(n):
    return Instance(Graph(n, [(v, v + 1) for v in range(1, n)]), [1] * n)


def _paused_build(scale):
    src = generate_random(GeneratorConfig(100 * scale, 0.05 / scale, "constant", 7, 2))
    return lambda: reduce_thresholds_to_two(src)


def _paused_parse(scale):
    src = generate_random(GeneratorConfig(200 * scale, 0.05 / scale, "constant", 8, 2))
    text = write_instance(src)
    return lambda: parse_instance(text)


def _paused_generate(scale):
    cfg = GeneratorConfig(300 * scale, 0.03 / scale, "constant", 5, 2)
    return lambda: generate_random(cfg)


def _paused_activate(scale):
    path = _path(200 * scale)
    return lambda: activate(path, [1])


# Each entry point that runs with the cyclic collector held off, as a maker
# of one call on an input of the given scale.  At scale 10 each call keeps
# thousands of new containers alive, enough to trigger several young
# collections if the collector ran during the call.
PAUSED_CALLS = {
    "build": _paused_build,
    "parse": _paused_parse,
    "generate": _paused_generate,
    "activate": _paused_activate,
}


@pytest.mark.parametrize("entry", sorted(PAUSED_CALLS))
def test_paused_entry_point_runs_without_collections(entry):
    call = PAUSED_CALLS[entry](10)
    gc.collect()
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(record)
    try:
        call()
    finally:
        gc.callbacks.remove(record)
    assert gc.isenabled()
    # At most the one young collection that the first allocation after the
    # pause triggers, and never a collection of the older generations.
    assert generations in ([], [0])


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: parse_instance("tss 2 0\nt 1 1\nt 2 0\n"), ParseError),
        (lambda: activate(_path(3), [1, 4]), ValueError),
    ],
    ids=["parse", "activate"],
)
def test_paused_entry_point_restores_collector_on_error(call, error):
    with pytest.raises(error):
        call()
    assert gc.isenabled()


@pytest.mark.parametrize("entry", sorted(PAUSED_CALLS))
def test_paused_entry_point_keeps_callers_disabled_collector(entry):
    call = PAUSED_CALLS[entry](1)
    gc.disable()
    try:
        call()
        assert not gc.isenabled()
    finally:
        gc.enable()
