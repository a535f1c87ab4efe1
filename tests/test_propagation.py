import random

import pytest

from tsslab.gadgets import InstanceBuilder
from tsslab.instance import GeneratorConfig, Graph, Instance, generate_random
from tsslab.propagation import (
    Propagator,
    activate,
    activate_round,
    influence,
    is_target_set,
)
from tsslab.verify import (
    naive_closure,
    naive_is_target_set,
    naive_round,
    naive_rounds,
    random_seed_set,
)


def star(leaves, thr_center=1, thr_leaf=1):
    g = Graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])
    return Instance(g, [thr_center] + [thr_leaf] * leaves)


def triangle(thr=2):
    return Instance(Graph(3, [(1, 2), (1, 3), (2, 3)]), [thr] * 3)


def path(n, thr=1):
    return Instance(Graph(n, [(v, v + 1) for v in range(1, n)]), [thr] * n)


def test_activate_round_star():
    inst = star(3)
    assert activate_round(inst, {1}) == {1, 2, 3, 4}


def test_activate_round_idempotent_at_full():
    inst = triangle()
    full = {1, 2, 3}
    assert activate_round(inst, full) == full


def test_activate_round_directed_gadget_steps():
    b = InstanceBuilder()
    u = b.add_vertex(1, "v1")
    v = b.add_vertex(1, "v2")
    a = b.add_directed_edge_gadget(u, v)
    inst = b.build("chain").instance
    s1 = activate_round(inst, {u})
    assert s1 == {u, a}
    s2 = activate_round(inst, s1)
    assert s2 == {u, a, a + 1, a + 3}
    s3 = activate_round(inst, s2)
    assert s3 == {u, a, a + 1, a + 3, a + 2}


def test_activate_empty_seed():
    trace = activate(triangle(), [])
    assert trace.final_active == frozenset()
    assert trace.round_count == 0


def test_activate_full_seed():
    trace = activate(triangle(), [1, 2, 3])
    assert trace.final_active == {1, 2, 3}
    assert trace.round_count == 0


def test_activate_path_one_per_round():
    trace = activate(path(4), [1])
    assert trace.round_count == 3
    assert [sorted(r) for r in trace.rounds] == [[1], [2], [3], [4]]


def test_seed_out_of_range():
    with pytest.raises(ValueError):
        activate(triangle(), [5])
    with pytest.raises(ValueError):
        activate_round(triangle(), [0])


def test_is_target_set_triangle_enumeration():
    inst = triangle(2)
    from itertools import combinations

    for pair in combinations((1, 2, 3), 2):
        assert is_target_set(inst, pair)
    for single in ((1,), (2,), (3,)):
        assert not is_target_set(inst, single)


def test_influence_star_and_full():
    inst = star(3)
    assert influence(inst, [1], "closed") == 4
    assert influence(inst, [1], "open") == 3
    assert influence(inst, [1, 2, 3, 4], "closed") == 4
    assert influence(inst, [1, 2, 3, 4], "open") == 0


def test_influence_unanimity_triangle():
    inst = triangle(2)
    assert influence(inst, [1], "closed") == 1
    assert influence(inst, [1], "open") == 0


def test_influence_rejects_bad_mode():
    with pytest.raises(ValueError):
        influence(triangle(), [1], "both")


def test_trace_matches_naive_oracle():
    rng = random.Random(42)
    for _ in range(200):
        inst = generate_random(
            GeneratorConfig(
                n=rng.randint(1, 20),
                edge_probability=rng.random(),
                threshold_mode=rng.choice(("constant", "majority", "unanimity", "uniform")),
                rng_seed=rng.randrange(2**32),
                constant=rng.randint(1, 3),
            )
        )
        seed = random_seed_set(rng, inst.n)
        trace = activate(inst, seed)
        assert list(trace.rounds) == naive_rounds(inst, seed)
        assert trace.final_active == naive_closure(inst, seed)
        arbitrary = random_seed_set(rng, inst.n, rng.random())
        assert activate_round(inst, arbitrary) == naive_round(inst, arbitrary)


def test_chain_monotone_and_bounded():
    rng = random.Random(9)
    for _ in range(100):
        inst = generate_random(
            GeneratorConfig(rng.randint(1, 15), rng.random(), "uniform", rng.randrange(2**32))
        )
        seed = random_seed_set(rng, inst.n)
        trace = activate(inst, seed)
        cum = set()
        for i, newly in enumerate(trace.rounds):
            assert not (newly & cum)
            if i > 0:
                assert newly
            cum |= newly
        assert trace.round_count <= inst.n
        assert activate_round(inst, trace.final_active) == trace.final_active


def test_seed_monotonicity():
    rng = random.Random(1)
    for _ in range(100):
        inst = generate_random(
            GeneratorConfig(rng.randint(1, 15), rng.random(), "uniform", rng.randrange(2**32))
        )
        small = random_seed_set(rng, inst.n, 0.25)
        big = small | random_seed_set(rng, inst.n, 0.25)
        assert activate(inst, small).final_active <= activate(inst, big).final_active


def test_propagator_push_pop_consistency():
    rng = random.Random(17)
    for _ in range(50):
        inst = generate_random(
            GeneratorConfig(rng.randint(2, 12), rng.random(), "uniform", rng.randrange(2**32))
        )
        prop = Propagator(inst)
        stack = []
        current: set[int] = set()
        for _ in range(30):
            if stack and rng.random() < 0.4:
                token, previous = stack.pop()
                prop.pop_to(token)
                current = previous
            else:
                v = rng.randint(1, inst.n)
                stack.append((prop.push_one(v), set(current)))
                current = current | {v}
            assert set(prop.activated_since((0, 0))) == naive_closure(inst, current)
        prop.pop_to((0, 0))
        assert prop.active_count() == 0


def _kernel_case(rng):
    """A random instance with some thresholds above the degree, and a seed
    list that may be empty, full or hold duplicate entries."""
    n = rng.randint(1, 16)
    p = rng.random()
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    g = Graph(n, edges)
    thr = [rng.randint(1, g.degree(v) + 2) for v in range(1, n + 1)]
    kind = rng.random()
    if kind < 0.1:
        seed = []
    elif kind < 0.2:
        seed = list(range(1, n + 1))
    else:
        seed = list(random_seed_set(rng, n, rng.random()))
        seed += rng.sample(seed, rng.randint(0, len(seed)))
        rng.shuffle(seed)
    return Instance(g, thr), seed


def test_one_shot_paths_match_naive_oracles():
    rng = random.Random(2024)
    for _ in range(400):
        inst, seed = _kernel_case(rng)
        closure = naive_closure(inst, seed)
        assert list(activate(inst, seed).rounds) == naive_rounds(inst, seed)
        assert is_target_set(inst, seed) == naive_is_target_set(inst, seed)
        assert influence(inst, seed, "closed") == len(closure)
        assert influence(inst, seed, "open") == len(closure - set(seed))
        assert activate_round(inst, seed) == naive_round(inst, seed)


def _constant_two_case(rng):
    """A constant-threshold-2 G(n, p) draw of mean degree 6-10, with some
    thresholds raised above the degree, a few isolated vertices appended,
    and a random seed that may hold isolated vertices."""
    n = rng.randint(200, 400)
    draw = generate_random(
        GeneratorConfig(n, rng.uniform(6, 10) / (n - 1), "constant", rng.randrange(2**32), 2)
    )
    thr = list(draw.thr[1:])
    for v in rng.sample(range(1, n + 1), n // 20):
        thr[v - 1] = draw.graph.degree(v) + rng.randint(1, 2)
    isolated = rng.randint(1, 5)
    inst = Instance(Graph(n + isolated, draw.graph.edges), thr + [1] * isolated)
    seed = rng.sample(range(1, inst.n + 1), rng.randint(1, n // 8))
    return inst, seed


def test_one_shot_paths_match_naive_oracles_on_large_constant_two_cascades():
    # Most neighbour visits of these cascades reach vertices that are
    # already active, which small instances rarely exercise.
    rng = random.Random(1403)
    largest = 0
    for _ in range(24):
        inst, seed = _constant_two_case(rng)
        closure = naive_closure(inst, seed)
        largest = max(largest, len(closure) / inst.n)
        assert list(activate(inst, seed).rounds) == naive_rounds(inst, seed)
        assert is_target_set(inst, seed) == naive_is_target_set(inst, seed)
        assert influence(inst, seed, "closed") == len(closure)
        assert influence(inst, seed, "open") == len(closure - set(seed))
    assert largest > 0.5


def test_push_rejects_out_of_range_vertex():
    prop = Propagator(path(3))
    for v in (0, 4, -1):
        with pytest.raises(ValueError):
            prop.push_one(v)
        assert prop.active_count() == 0
    # a push's token is the journal length it found: still empty
    assert prop.push_one(3) == (0, 0)
    assert prop.is_full() and prop.active_count() == 3


def _count_writes(prop):
    """Swap the engine's countdown list for a copy that counts item
    writes; returns the one-element tally."""
    writes = [0]

    class Counts(list):
        def __setitem__(self, i, x):
            writes[0] += 1
            super().__setitem__(i, x)

    prop._need = Counts(prop._need)
    return writes


def _snapshot(prop):
    """What gain and pop_to must leave or restore: the trail's length, the
    activation order and the countdown list."""
    return len(prop._trail), prop.activated_since((0, 0)), list(prop._need)


def test_gain_matches_push():
    rng = random.Random(29)
    for _ in range(150):
        inst, _ = _kernel_case(rng)
        n = inst.n
        prop = Propagator(inst)
        prefix = [] if rng.random() < 0.3 else list(random_seed_set(rng, n, rng.random() * 0.5))
        for v in prefix:
            prop.push_one(v)
        writes = _count_writes(prop)
        before = naive_closure(inst, prefix)
        state = _snapshot(prop)
        for v in range(1, n + 1):
            tally = writes[0]
            got = prop.gain(v)
            if len(got) <= 1:  # nothing cascades: answered without a write
                assert writes[0] == tally
            assert _snapshot(prop) == state
            token = prop.push_one(v)
            assert list(got) == prop.activated_since(token)
            assert set(got) == naive_closure(inst, prefix + [v]) - before
            prop.pop_to(token)
            assert _snapshot(prop) == state
        for bad in (0, n + 1):
            with pytest.raises(ValueError):
                prop.gain(bad)
        assert _snapshot(prop) == state


def test_bounded_push_is_undone_exactly():
    rng = random.Random(31)
    stopped = 0
    for _ in range(200):
        inst, _ = _kernel_case(rng)
        prop = Propagator(inst)
        for v in random_seed_set(rng, inst.n, rng.random() * 0.4):
            prop.push_one(v)
        state = _snapshot(prop)
        base = prop.active_count()
        for v in range(1, inst.n + 1):
            full = prop.gain(v)
            limit = rng.randint(base, inst.n + 1)
            token = prop.push_one(v, limit)
            # The seed always fires; the cascade stops once `limit`
            # vertices are active, in the unbounded push's order.
            assert prop.activated_since(token) == list(full[: max(limit - base, 1)])
            stopped += prop.active_count() - base < len(full)
            prop.pop_to(token)
            assert _snapshot(prop) == state
    assert stopped > 100


def test_bounded_gain_is_a_prefix_of_gain():
    rng = random.Random(37)
    for _ in range(150):
        inst, _ = _kernel_case(rng)
        prop = Propagator(inst)
        for v in random_seed_set(rng, inst.n, rng.random() * 0.4):
            prop.push_one(v)
        state = _snapshot(prop)
        for v in range(1, inst.n + 1):
            full = prop.gain(v)
            limit = rng.randint(0, len(full) + 1)
            assert prop.gain(v, limit) == full[: max(limit, 1)]
            assert _snapshot(prop) == state
