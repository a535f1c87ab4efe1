import hashlib
import random
from itertools import chain, combinations, permutations, product

import pytest

from tsslab.circuits import (
    build_circuit,
    evaluate,
    min_weight_satisfying,
    parse_circuit,
    write_circuit,
)
from tsslab.instance import ParseError
from tsslab.verify import _kind_preserving_maps, enumerate_small_circuits, random_circuit

TWO_LEVEL_CIRCUIT = """circuit 7
input 1
input 2
input 3
input 4
gate 5 or 1 2
gate 6 or 3 4
gate 7 and 5 6
output 7
"""


def test_parse_two_level_circuit():
    c = parse_circuit(TWO_LEVEL_CIRCUIT)
    assert c.n_inputs == 4
    assert c.n_nodes - c.n_inputs == 3
    assert c.output == 7
    assert c.kinds[5] == "or" and c.kinds[7] == "and"


def test_parse_degenerate_single_input():
    c = parse_circuit("circuit 1\ninput 1\noutput 1\n")
    assert c.n_inputs == 1 and c.output == 1
    assert evaluate(c, {1}) and not evaluate(c, set())


def test_circuit_roundtrip():
    c = parse_circuit(TWO_LEVEL_CIRCUIT)
    assert parse_circuit(write_circuit(c)) == c


@pytest.mark.parametrize(
    "text,fragment",
    [
        # two sinks: input 3 feeds nothing
        ("circuit 4\ninput 1\ninput 2\ninput 3\ngate 4 and 1 2\noutput 4\n", "output candidate"),
        # gate with one input
        ("circuit 3\ninput 1\ninput 2\ngate 3 and 1\noutput 3\n", "fewer than two"),
        # dangling reference
        ("circuit 3\ninput 1\ninput 2\ngate 3 and 1 9\noutput 3\n", "unknown node"),
        # declared output is not the sink
        (TWO_LEVEL_CIRCUIT.replace("output 7", "output 5"), "not the unique sink"),
        ("circuit 0\noutput 1\n", "at least one node"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "circuit 1_0\ninput 1\noutput 1\n",
        "circuit 1\ninput \u0661\noutput 1\n",
        "circuit 3\ninput 1\ninput 2\ngate 3 and 1 \u0662\noutput 3\n",
        "circuit 3\ninput 1\ninput 2\ngate 3 and 1 +2\noutput 3\n",
        "circuit 1\ninput 1\noutput 0_1\n",
    ],
)
def test_parse_rejects_non_ascii_and_underscored_integers(text):
    message = r"^line \d+: (malformed header|bad node id|expected 'output <id>')"
    with pytest.raises(ParseError, match=message):
        parse_circuit(text)


def test_cycle_detected():
    with pytest.raises(ParseError) as err:
        build_circuit(
            ["input", "input", "and", "and", "and"],
            [(), (), (1, 2, 4), (1, 3), (3, 4)],
        )
    assert "cycle" in str(err.value)


def test_build_circuit_refuses_unequal_node_lists():
    with pytest.raises(ValueError, match="^kinds and preds must have equal length$"):
        build_circuit(["input"], [])


def test_empty_circuit_rejected():
    with pytest.raises(ParseError, match="expected exactly one output candidate, found 0"):
        build_circuit([], [])


def test_evaluate_two_level():
    c = parse_circuit(TWO_LEVEL_CIRCUIT)
    assert evaluate(c, {1, 3})
    assert not evaluate(c, {1, 2})
    assert evaluate(c, {2, 4})
    assert not evaluate(c, set())


def test_all_true_satisfies_random_circuits():
    rng = random.Random(0)
    for _ in range(100):
        c = random_circuit(rng, 4, 4)
        assert evaluate(c, set(range(1, c.n_inputs + 1)))


def test_evaluation_monotone():
    rng = random.Random(5)
    for _ in range(100):
        c = random_circuit(rng, 4, 4)
        n = c.n_inputs
        small = {v for v in range(1, n + 1) if rng.random() < 0.5}
        big = small | {v for v in range(1, n + 1) if rng.random() < 0.5}
        assert not evaluate(c, small) or evaluate(c, big)


def test_min_weight_two_level():
    c = parse_circuit(TWO_LEVEL_CIRCUIT)
    assert min_weight_satisfying(c) == {1, 3}


def test_min_weight_single_input():
    c = parse_circuit("circuit 1\ninput 1\noutput 1\n")
    assert min_weight_satisfying(c) == {1}


def test_min_weight_bound_refusal():
    kinds = ["input"] * 21 + ["and"]
    preds = [()] * 21 + [tuple(range(1, 22))]
    c = build_circuit(kinds, preds)
    with pytest.raises(ValueError):
        min_weight_satisfying(c)


def test_min_weight_is_minimal_and_lex_first():
    rng = random.Random(8)
    for _ in range(40):
        c = random_circuit(rng, 4, 3)
        got = min_weight_satisfying(c)
        n = c.n_inputs
        for w in range(len(got)):
            for combo in combinations(range(1, n + 1), w):
                assert not evaluate(c, combo)
        for combo in combinations(range(1, n + 1), len(got)):
            if evaluate(c, combo):
                assert frozenset(combo) == got
                break


# (max_inputs, max_gates) -> (count, sha256 of the concatenated circuit
# texts): pins the family's members, their order and each class's
# representative.
ENUMERATED_FAMILIES = {
    (2, 2): (11, "4c2916fc4d5da8d3cf0a7dffc70dc48c1920ec8f344778189e392aa530388474"),
    (3, 3): (981, "b6c7aa8e578f1036c35755560f2faed6bcbd470e9b3dedec18296f03d00dd74b"),
    (4, 2): (83, "c114e2b508c7e13de40ed43ba1a798c7dc51c0ac8629af5a4d0e412ec189ec4b"),
    (2, 4): (4355, "f66cf5b3657138f02c20ccb3e21e772228fefb7d9c4773ef3fedeae3410c0cfe"),
}


def test_enumeration_covers_known_shapes():
    circuits = enumerate_small_circuits(2, 1)
    # one degenerate input, and-of-two, or-of-two
    assert len(circuits) == 3
    for (max_inputs, max_gates), (count, digest) in ENUMERATED_FAMILIES.items():
        family = enumerate_small_circuits(max_inputs, max_gates)
        assert len(family) == count
        text = "".join(map(write_circuit, family))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        for c in family[:50]:
            assert evaluate(c, set(range(1, c.n_inputs + 1)))


def _layouts(max_inputs, max_gates):
    """Every layout the enumeration walks, in its order: inputs first, then
    gates in topological order reading two or more earlier nodes, with the
    last node the only sink."""
    for ni in range(1, max_inputs + 1):
        for ng in range(max_gates + 1):
            total = ni + ng
            slots = [
                [ps for size in range(2, pos) for ps in combinations(range(1, pos), size)]
                for pos in range(ni + 1, total + 1)
            ]
            for gate_preds in product(*slots):
                if {p for ps in gate_preds for p in ps} != set(range(1, total)):
                    continue
                for gate_kinds in product(("and", "or"), repeat=ng):
                    yield ["input"] * ni + list(gate_kinds), [()] * ni + list(gate_preds)


def _canonical(kinds, preds):
    """Reference key: the least relabelled node list over all permutations
    of each kind's own positions."""
    groups = {}
    for v, kind in enumerate(kinds, start=1):
        groups.setdefault(kind, []).append(v)
    sources = [v for group in groups.values() for v in group]
    best = None
    for choice in product(*(permutations(group) for group in groups.values())):
        to = dict(zip(sources, chain.from_iterable(choice)))
        key = sorted(
            (to[v], kind, tuple(sorted(to[p] for p in ps)))
            for v, (kind, ps) in enumerate(zip(kinds, preds), start=1)
        )
        if best is None or key < best:
            best = key
    return tuple(best)


@pytest.mark.parametrize("max_inputs, max_gates", [(2, 2), (4, 2), (2, 3)])
def test_enumeration_matches_canonical_key_oracle(max_inputs, max_gates):
    family = enumerate_small_circuits(max_inputs, max_gates)
    keys = [_canonical(c.kinds[1:], c.preds[1:]) for c in family]
    assert len(set(keys)) == len(keys)  # no class twice
    firsts = {}
    for kinds, preds in _layouts(max_inputs, max_gates):
        firsts.setdefault(_canonical(kinds, preds), build_circuit(kinds, preds))
    assert set(firsts) == set(keys)  # every walked layout's class is returned
    # and each by the first layout met under its key, in walk order
    assert list(firsts.values()) == family


def test_kind_preserving_maps_permute_each_kind_separately():
    kinds = ["input", "input", "and", "or", "and"]
    maps = _kind_preserving_maps(kinds)
    assert all(kinds[to[v] - 1] == kinds[v - 1] for to in maps for v in range(1, 6))
    # 2! * 1! * 2!: swap the inputs or not, swap the two and gates or not
    assert sorted(maps) == sorted(
        [0, a, b, c, 4, d] for a, b in permutations((1, 2)) for c, d in permutations((3, 5))
    )
