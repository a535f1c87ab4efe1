"""Property suites and the naive reference oracles they check against.

Everything here recomputes from definitions: propagation recounts neighbor
sets from scratch each round, searches enumerate subsets with no counters
and no shared state.  The optimized engine and solvers are validated by
agreement with these oracles on randomized instance families.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .circuits import MonotoneCircuit, build_circuit, evaluate, min_weight_satisfying
from .gadgets import InstanceBuilder, reduce_thresholds_to_two
from .instance import (
    GeneratorConfig,
    Graph,
    Instance,
    _gnp_edges,
    generate_random,
    write_instance,
)
from .propagation import PropagationTrace, Propagator, activate, activate_round
from .reductions import (
    GapParameters,
    choose_gap_padding,
    clique_to_max_influence,
    is_to_influence_decision,
    is_to_min_closed_influence,
    mcs_to_tss,
    map_target_set_to_assignment,
    rho_preset,
)
from .solvers import (
    k_influence,
    min_open_influence_unanimity,
    optimal_target_set,
    unanimity_target_set_2approx,
)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""


def _ok(name: str, detail: str = "") -> CheckOutcome:
    return CheckOutcome(name, True, detail)


def _fail(name: str, detail: str) -> CheckOutcome:
    return CheckOutcome(name, False, detail)


# ---------------------------------------------------------------------------
# Naive reference oracles.


def naive_round(inst: Instance, active: Iterable[int]) -> frozenset[int]:
    """One synchronous step, recounted from scratch."""
    cur = frozenset(active)
    out = set(cur)
    for v in range(1, inst.n + 1):
        if v in cur:
            continue
        if sum(1 for w in inst.graph.adj[v] if w in cur) >= inst.thr[v]:
            out.add(v)
    return frozenset(out)


def naive_rounds(inst: Instance, seed: Iterable[int]) -> list[frozenset[int]]:
    """Newly activated set per round, starting with the seed itself."""
    cur = frozenset(seed)
    rounds = [cur]
    while True:
        nxt = naive_round(inst, cur)
        if nxt == cur:
            return rounds
        rounds.append(nxt - cur)
        cur = nxt


def naive_closure(inst: Instance, seed: Iterable[int]) -> frozenset[int]:
    cur = frozenset(seed)
    while True:
        nxt = naive_round(inst, cur)
        if nxt == cur:
            return cur
        cur = nxt


def naive_is_target_set(inst: Instance, seed: Iterable[int]) -> bool:
    return len(naive_closure(inst, seed)) == inst.n


def brute_force_min_target_set(inst: Instance, cap: int | None = None) -> frozenset[int] | None:
    """First target set in cardinality-major lexicographic order, by recount."""
    n = inst.n
    cap = n if cap is None else min(cap, n)
    for c in range(cap + 1):
        for combo in combinations(range(1, n + 1), c):
            if naive_is_target_set(inst, combo):
                return frozenset(combo)
    return None


def brute_force_best_influence(
    inst: Instance,
    k: int,
    mode: str = "closed",
    goal: str = "max",
    exact_cardinality: bool | None = None,
    universe: Sequence[int] | None = None,
) -> tuple[int, frozenset[int]]:
    """Full enumeration with a fresh recount per seed; no early exits."""
    uni = tuple(sorted(universe)) if universe is not None else tuple(range(1, inst.n + 1))
    exact = (goal == "min") if exact_cardinality is None else exact_cardinality
    sizes = [k] if exact else range(min(k, len(uni)) + 1)
    best: tuple[int, frozenset[int]] | None = None
    for c in sizes:
        for combo in combinations(uni, c):
            final = naive_closure(inst, combo)
            val = len(final) if mode == "closed" else len(final) - c
            if best is None or (val > best[0] if goal == "max" else val < best[0]):
                best = (val, frozenset(combo))
    assert best is not None
    return best


def brute_force_min_vertex_cover(g: Graph) -> frozenset[int]:
    """Smallest set of vertices touching every edge."""
    for c in range(g.n + 1):
        for combo in combinations(range(1, g.n + 1), c):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return frozenset(combo)
    raise AssertionError("the full vertex set always covers")


def has_independent_set(g: Graph, k: int) -> bool:
    if k <= 0:
        return True
    for combo in combinations(range(1, g.n + 1), k):
        chosen = set(combo)
        if all(u not in chosen or v not in chosen for u, v in g.edges):
            return True
    return False


def find_clique(g: Graph, k: int) -> tuple[int, ...] | None:
    if k <= 0:
        return ()
    adj = g.adj
    for combo in combinations(range(1, g.n + 1), k):
        if all(v in adj[u] for u, v in combinations(combo, 2)):
            return combo
    return None


def is_bipartite(g: Graph) -> bool:
    color = [0] * (g.n + 1)
    for s in range(1, g.n + 1):
        if color[s]:
            continue
        color[s] = 1
        queue = [s]
        while queue:
            u = queue.pop()
            for w in g.adj[u]:
                if color[w] == 0:
                    color[w] = -color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def trace_violations(inst: Instance, trace: PropagationTrace) -> list[str]:
    """Check a trace against the definition: chain growth, fixpoint, recount."""
    problems = []
    expected = naive_rounds(inst, trace.seed)
    if list(trace.rounds) != expected:
        problems.append(f"rounds differ from recount: {trace.rounds} vs {expected}")
    cum: set[int] = set()
    for i, newly in enumerate(trace.rounds):
        if i > 0 and not newly:
            problems.append(f"round {i} is empty")
        if newly & cum:
            problems.append(f"round {i} re-activates {sorted(newly & cum)}")
        cum |= newly
    if cum != trace.final_active:
        problems.append("final_active is not the union of the rounds")
    if trace.round_count != len(trace.rounds) - 1:
        problems.append("round_count disagrees with the number of rounds")
    if trace.round_count > inst.n:
        problems.append(f"round_count {trace.round_count} exceeds n={inst.n}")
    if naive_round(inst, trace.final_active) != trace.final_active:
        problems.append("final_active is not a fixpoint")
    return problems


# ---------------------------------------------------------------------------
# Random families.


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, _gnp_edges(rng, n, p))


def random_graph_min_degree_one(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    """Random graph in which every vertex has at least one edge.

    The independence rewrites do not need this (their replicated edge side
    keeps degree-0 vertices from undercutting the bounds); the dichotomy
    suites sample from this family so that their seeded graphs, and so the
    checks they make, stay fixed.
    """
    while True:
        n = rng.randint(max(2, n_lo), n_hi)
        g = random_graph(rng, n, rng.uniform(0.15, 0.9))
        if g.m and all(g.degree(v) >= 1 for v in range(1, g.n + 1)):
            return g


def random_instance(
    rng: random.Random,
    max_n: int,
    mode: str | None = None,
    p: float | None = None,
) -> Instance:
    cfg = GeneratorConfig(
        n=rng.randint(1, max_n),
        edge_probability=rng.uniform(0.1, 0.9) if p is None else p,
        threshold_mode=mode or rng.choice(("constant", "majority", "unanimity", "uniform")),
        rng_seed=rng.randrange(2**32),
        constant=rng.randint(1, 3),
    )
    return generate_random(cfg)


def unanimity_instance(g: Graph) -> Instance:
    return Instance(g, [max(1, g.degree(v)) for v in range(1, g.n + 1)])


def random_seed_set(rng: random.Random, n: int, p: float = 0.3) -> frozenset[int]:
    return frozenset(v for v in range(1, n + 1) if rng.random() < p)


def random_circuit(rng: random.Random, max_inputs: int = 3, max_gates: int = 3) -> MonotoneCircuit:
    """A valid random circuit; sinks other than the last gate get wired in."""
    ni = rng.randint(1, max_inputs)
    if ni == 1:
        return build_circuit(["input"], [()])
    ng = rng.randint(1, max_gates)
    kinds = ["input"] * ni
    preds: list[tuple[int, ...]] = [()] * ni
    for g in range(ng):
        pos = ni + g + 1
        size = rng.randint(2, min(pos - 1, 4))
        kinds.append(rng.choice(("and", "or")))
        preds.append(tuple(sorted(rng.sample(range(1, pos), size))))
    used = {p for ps in preds for p in ps}
    last = ni + ng
    dangling = [v for v in range(1, last) if v not in used]
    if dangling:
        preds[last - 1] = tuple(sorted(set(preds[last - 1]) | set(dangling)))
    return build_circuit(kinds, preds)


def enumerate_small_circuits(max_inputs: int = 3, max_gates: int = 3) -> list[MonotoneCircuit]:
    """Every monotone circuit up to the given size, one per isomorphism class.

    Gates are laid out in topological order after the inputs; structures
    whose sink is not unique are discarded, and the survivors are
    deduplicated under kind-preserving vertex bijections.
    """
    out: list[MonotoneCircuit] = []
    seen: set[tuple] = set()

    def canonical(kinds: list[str], preds: list[tuple[int, ...]], output: int) -> tuple:
        from itertools import permutations

        n = len(kinds)
        by_kind: dict[str, list[int]] = {}
        for i, k in enumerate(kinds, start=1):
            by_kind.setdefault(k, []).append(i)
        groups = sorted(by_kind)
        best = None
        perm_sets = [list(permutations(by_kind[g])) for g in groups]

        def assemble(choice: list[tuple[int, ...]]) -> tuple:
            mapping = {}
            for g, perm in zip(groups, choice):
                for src, dst in zip(by_kind[g], perm):
                    mapping[src] = dst
            nodes = sorted(
                (mapping[i], kinds[i - 1], tuple(sorted(mapping[p] for p in preds[i - 1])))
                for i in range(1, n + 1)
            )
            return (tuple(nodes), mapping[output])

        def walk(idx: int, choice: list[tuple[int, ...]]) -> None:
            nonlocal best
            if idx == len(groups):
                key = assemble(choice)
                if best is None or key < best:
                    best = key
                return
            for perm in perm_sets[idx]:
                choice.append(perm)
                walk(idx + 1, choice)
                choice.pop()

        walk(0, [])
        assert best is not None
        return best

    def pred_options(pos: int) -> list[tuple[int, ...]]:
        pool = range(1, pos)
        opts = []
        for size in range(2, pos):
            opts.extend(combinations(pool, size))
        return opts

    for ni in range(1, max_inputs + 1):
        for ng in range(max_gates + 1):
            if ng == 0:
                if ni == 1:
                    c = build_circuit(["input"], [()])
                    key = canonical(["input"], [()], 1)
                    if key not in seen:
                        seen.add(key)
                        out.append(c)
                continue
            total = ni + ng
            slots = [pred_options(ni + g + 1) for g in range(ng)]

            def emit(gate_preds: list[tuple[int, ...]]) -> None:
                used = {p for ps in gate_preds for p in ps}
                if any(v not in used for v in range(1, total)):
                    return  # another sink besides the last gate
                for kind_combo in _kind_products(ng):
                    kinds = ["input"] * ni + list(kind_combo)
                    preds = [()] * ni + gate_preds
                    key = canonical(kinds, preds, total)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(build_circuit(kinds, preds))

            def walk(idx: int, acc: list[tuple[int, ...]]) -> None:
                if idx == ng:
                    emit(acc)
                    return
                for opt in slots[idx]:
                    acc.append(opt)
                    walk(idx + 1, acc)
                    acc.pop()

            walk(0, [])
    return out


def _kind_products(ng: int) -> list[tuple[str, ...]]:
    out = [()]
    for _ in range(ng):
        out = [t + (k,) for t in out for k in ("and", "or")]
    return out


# ---------------------------------------------------------------------------
# Suites.


def suite_propagation(*, trials: int = 1000, max_n: int = 30, seed: int = 0) -> list[CheckOutcome]:
    """Engine traces against the recount oracle, plus trace invariants."""
    rng = random.Random(seed)
    results = []
    bad_trace = bad_step = bad_monotone = None
    for _ in range(trials):
        inst = random_instance(rng, max_n)
        s = random_seed_set(rng, inst.n)
        trace = activate(inst, s)
        problems = trace_violations(inst, trace)
        if problems and bad_trace is None:
            bad_trace = f"{problems[0]}\nseed {sorted(s)}\n{write_instance(inst)}"
        arbitrary = random_seed_set(rng, inst.n, rng.random())
        if activate_round(inst, arbitrary) != naive_round(inst, arbitrary):
            if bad_step is None:
                bad_step = f"seed {sorted(arbitrary)}\n{write_instance(inst)}"
        bigger = s | random_seed_set(rng, inst.n, 0.2)
        if not activate(inst, s).final_active <= activate(inst, bigger).final_active:
            if bad_monotone is None:
                bad_monotone = f"seeds {sorted(s)} vs {sorted(bigger)}\n{write_instance(inst)}"
    results.append(
        _ok(f"trace-oracle-agreement ({trials} instances)")
        if bad_trace is None
        else _fail("trace-oracle-agreement", bad_trace)
    )
    results.append(
        _ok(f"single-step-recount ({trials} sets)")
        if bad_step is None
        else _fail("single-step-recount", bad_step)
    )
    results.append(
        _ok(f"seed-monotonicity ({trials} pairs)")
        if bad_monotone is None
        else _fail("seed-monotonicity", bad_monotone)
    )
    return results


def suite_circuit_equivalence(
    *,
    max_inputs: int = 3,
    max_gates: int = 3,
    trials: int = 50,
    seed: int = 0,
    exhaustive: bool = True,
) -> list[CheckOutcome]:
    """Minimum target set of a compiled circuit == minimum satisfying weight."""
    rng = random.Random(seed)
    circuits = enumerate_small_circuits(max_inputs, max_gates) if exhaustive else []
    count_exhaustive = len(circuits)
    circuits = circuits + [random_circuit(rng, max_inputs, max_gates) for _ in range(trials)]
    for c in circuits:
        r = mcs_to_tss(c)
        wanted = min_weight_satisfying(c)
        assert wanted is not None
        res = optimal_target_set(r.instance, size_cap=c.n_inputs)
        if not res.optimal or res.value != len(wanted):
            from .circuits import write_circuit

            return [
                _fail(
                    "circuit-optimum-equality",
                    f"optimum {res.value} vs weight {len(wanted)}\n{write_circuit(c)}",
                )
            ]
        assert res.seed is not None
        assignment = map_target_set_to_assignment(r, res.seed)
        if len(assignment) != res.value or not evaluate(c, assignment):
            from .circuits import write_circuit

            return [
                _fail(
                    "circuit-assignment-backmap",
                    f"assignment {sorted(assignment)}\n{write_circuit(c)}",
                )
            ]
    return [
        _ok(
            "circuit-optimum-equality "
            f"({count_exhaustive} enumerated + {trials} random circuits)"
        ),
        _ok("circuit-assignment-backmap"),
    ]


def suite_threshold_reduction(
    *, trials: int = 200, max_n: int = 5, peels: int = 100, seed: int = 0
) -> list[CheckOutcome]:
    """The thresholds<=2 rewrite: shape, optimum preservation, both solution
    transfer directions."""
    rng = random.Random(seed)
    for _ in range(trials):
        inst = random_instance(rng, max_n, mode="uniform")
        r = reduce_thresholds_to_two(inst)
        red = r.instance
        if any(red.thr[v] > 2 for v in range(1, red.n + 1)):
            return [_fail("reduction-thresholds", write_instance(inst))]
        if not is_bipartite(red.graph):
            return [_fail("reduction-bipartite", write_instance(inst))]

        opt_seed = brute_force_min_target_set(inst)
        assert opt_seed is not None
        opt = len(opt_seed)
        prop = Propagator(red)
        for combo in combinations(range(1, inst.n + 1), opt):
            if naive_is_target_set(inst, combo) and len(prop.run(combo)) != red.n:
                return [
                    _fail(
                        "reduction-forward-transfer",
                        f"optimal seed {combo} fails in the rewrite\n{write_instance(inst)}",
                    )
                ]
        res = optimal_target_set(red, size_cap=opt)
        if res.value != opt:
            return [
                _fail(
                    "reduction-optimum-preserved",
                    f"optimum {opt} became {res.value}\n{write_instance(inst)}",
                )
            ]

        originals = list(range(1, inst.n + 1))
        gadget_pool = list(range(inst.n + 1, red.n + 1))
        for _ in range(peels):
            extras = rng.sample(gadget_pool, rng.randint(0, min(8, len(gadget_pool))))
            chosen = set(originals) | set(extras)
            order = rng.sample(originals, len(originals)) + rng.sample(extras, len(extras))
            for v in order:
                trial = chosen - {v}
                if len(prop.run(trial)) == red.n:
                    chosen = trial
            mapped = r.back_map(chosen)
            if len(mapped) > len(chosen) or not naive_is_target_set(inst, mapped):
                return [
                    _fail(
                        "reduction-backward-transfer",
                        f"minimal set {sorted(chosen)} maps to {sorted(mapped)}\n"
                        + write_instance(inst),
                    )
                ]
    return [
        _ok(f"reduction-thresholds ({trials} instances)"),
        _ok("reduction-bipartite"),
        _ok("reduction-forward-transfer"),
        _ok("reduction-optimum-preserved"),
        _ok(f"reduction-backward-transfer ({peels} peels per instance)"),
    ]


def suite_clique_gap(
    *, graphs: int = 100, random_seeds: int = 10000, seed: int = 0
) -> list[CheckOutcome]:
    """Gap dichotomy for k=4, h=1: clique seeds reach the guaranteed yield,
    clique-free instances stay below the gap bound everywhere."""
    rng = random.Random(seed)
    params = GapParameters.with_h(4, 1, "clique")
    yield_bound = params.clique_yield  # 160
    cliqueful = cliquefree = 0
    for _ in range(graphs):
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.9))
        r = clique_to_max_influence(g, 4, params)
        red = r.instance
        clique = find_clique(g, 4)
        if clique is not None:
            cliqueful += 1
            prop = Propagator(red)
            got = len(prop.run(clique))
            if got != yield_bound:
                return [
                    _fail(
                        "clique-side-yield",
                        f"clique {clique} reached {got}, wanted {yield_bound}\n"
                        + write_instance(Instance(g, [1] * g.n)),
                    )
                ]
        else:
            cliquefree += 1
            inner = r.tagged("v") + r.tagged("e")
            res = k_influence(red, 4, "closed", "max", universe=inner)
            if res.value is None or res.value >= params.g:
                return [
                    _fail(
                        "cliquefree-side-bound",
                        f"influence {res.value} >= {params.g} via {sorted(res.seed or ())}",
                    )
                ]
            prop = Propagator(red)
            outer = [v for v in range(1, red.n + 1) if v > len(inner)]
            everything = list(range(1, red.n + 1))
            for _ in range(random_seeds):
                s = {rng.choice(outer)}
                while len(s) < 4:
                    s.add(rng.choice(everything))
                if len(prop.run(s)) >= params.g:
                    return [
                        _fail(
                            "cliquefree-random-seeds",
                            f"seed {sorted(s)} reached the gap bound",
                        )
                    ]
    return [
        _ok(f"clique-side-yield ({cliqueful} graphs, exact {yield_bound})"),
        _ok(f"cliquefree-side-bound ({cliquefree} graphs, bound {params.g})"),
        _ok(f"cliquefree-random-seeds ({random_seeds} per graph)"),
    ]


def suite_independence_decision(
    *, graphs: int = 500, k_max: int = 4, seed: int = 0
) -> list[CheckOutcome]:
    """Sound content of the influence-decision rewrite: an independent set
    keeps influence at the bound, and over vertex-side seeds the decision
    matches brute-force independence exactly."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(graphs):
        g = random_graph_min_degree_one(rng, 2, 8)
        for k in range(0, min(k_max, g.n) + 1):
            r = is_to_influence_decision(g, k)
            has_is = has_independent_set(g, k)
            vertex_side = r.tagged("v")
            res = k_influence(r.instance, k, "closed", "min", universe=vertex_side)
            if (res.value == k) != has_is:
                return [
                    _fail(
                        "independence-decision-vertex-side",
                        f"k={k}: min closed {res.value} vs independence {has_is}\n"
                        + write_instance(Instance(g, [1] * g.n)),
                    )
                ]
            open_res = k_influence(r.instance, k, "open", "min", universe=vertex_side)
            if (open_res.value == 0) != has_is:
                return [
                    _fail(
                        "independence-decision-open",
                        f"k={k}: min open {open_res.value} vs independence {has_is}",
                    )
                ]
            checked += 1
    return [
        _ok(f"independence-decision-vertex-side ({checked} graph/k pairs)"),
        _ok("independence-decision-open"),
    ]


def suite_min_closed_gap(
    *, graphs: int = 500, k_max: int = 4, h: int = 3, seed: int = 0
) -> list[CheckOutcome]:
    """Trigger-layer dichotomy: minimum closed influence is exactly k with a
    size-k independent set and at least k + h + 1 without one."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(graphs):
        g = random_graph_min_degree_one(rng, 2, 8)
        for k in range(1, min(k_max, g.n) + 1):
            r = is_to_min_closed_influence(g, k, h=h)
            res = k_influence(r.instance, k, "closed", "min")
            has_is = has_independent_set(g, k)
            if has_is and res.value != k:
                return [
                    _fail(
                        "min-closed-equals-k",
                        f"k={k}: optimum {res.value} with an independent set present",
                    )
                ]
            if not has_is and (res.value is None or res.value < k + h + 1):
                return [
                    _fail(
                        "min-closed-gap",
                        f"k={k}: optimum {res.value} below {k + h + 1}",
                    )
                ]
            checked += 1
    return [
        _ok(f"min-closed-equals-k ({checked} graph/k pairs, h={h})"),
        _ok(f"min-closed-gap (bound k+{h + 1})"),
    ]


def suite_unanimity_min_open(
    *, trials: int = 500, max_n: int = 10, seed: int = 0
) -> list[CheckOutcome]:
    """Polynomial minimum open influence under unanimity against the naive
    exhaustive optimum, for every k."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        g = random_graph(rng, rng.randint(1, max_n), rng.uniform(0.1, 0.9))
        inst = unanimity_instance(g)
        for k in range(inst.n + 1):
            res = min_open_influence_unanimity(inst, k)
            best_val, _ = brute_force_best_influence(inst, k, "open", "min")
            if res.value != best_val:
                return [
                    _fail(
                        "unanimity-min-open-value",
                        f"k={k}: algorithm {res.value} vs exhaustive {best_val}\n"
                        + write_instance(inst),
                    )
                ]
            assert res.seed is not None
            witness = naive_closure(inst, res.seed)
            if len(res.seed) != k or len(witness) - k != res.value:
                return [
                    _fail(
                        "unanimity-min-open-witness",
                        f"k={k}: witness {sorted(res.seed)} achieves "
                        f"{len(witness) - k}\n" + write_instance(inst),
                    )
                ]
            checked += 1
    return [
        _ok(f"unanimity-min-open-value ({checked} instance/k pairs)"),
        _ok("unanimity-min-open-witness"),
    ]


def suite_unanimity_cover(
    *, trials: int = 300, max_n: int = 12, seed: int = 0
) -> list[CheckOutcome]:
    """Unanimity optimum == minimum vertex cover (plus the vertices without
    edges, which only seeding can ever activate); matching bound <= 2x."""
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_graph(rng, rng.randint(1, max_n), rng.uniform(0.1, 0.8))
        inst = unanimity_instance(g)
        cover = brute_force_min_vertex_cover(g)
        isolated = sum(1 for v in range(1, g.n + 1) if g.degree(v) == 0)
        opt = optimal_target_set(inst)
        if opt.value != len(cover) + isolated:
            return [
                _fail(
                    "unanimity-cover-equality",
                    f"optimum {opt.value} vs cover {len(cover)} + {isolated} isolated\n"
                    + write_instance(inst),
                )
            ]
        approx = unanimity_target_set_2approx(inst)
        assert approx.value is not None and opt.value is not None
        if approx.value > 2 * opt.value:
            return [
                _fail(
                    "unanimity-2approx-bound",
                    f"approximation {approx.value} vs optimum {opt.value}\n"
                    + write_instance(inst),
                )
            ]
        assert approx.seed is not None
        if len(naive_closure(inst, approx.seed)) != inst.n:
            return [_fail("unanimity-2approx-feasible", write_instance(inst))]
    return [
        _ok(f"unanimity-cover-equality ({trials} graphs)"),
        _ok("unanimity-2approx-bound"),
        _ok("unanimity-2approx-feasible"),
    ]


def suite_gadget_direction(*, max_chain: int = 5) -> list[CheckOutcome]:
    """One-way relays: head-side seeds reach nothing, tail-side seeds walk
    the whole chain at four rounds per gadget."""
    for length in range(1, max_chain + 1):
        b = InstanceBuilder()
        stops = [b.add_vertex(1, f"v{i}") for i in range(1, length + 2)]
        gadgets = [
            b.add_directed_edge_gadget(stops[i], stops[i + 1]) for i in range(length)
        ]
        inst = b.build("chain").instance
        head = stops[-1]
        back = activate(inst, [head])
        a_vertices = {gd.a for gd in gadgets}
        if back.final_active & a_vertices:
            return [_fail("gadget-no-backflow", f"chain {length}: head reached an a-vertex")]
        if back.final_active != {head}:
            return [
                _fail(
                    "gadget-no-backflow",
                    f"chain {length}: head seed activated {sorted(back.final_active)}",
                )
            ]
        forward = activate(inst, [stops[0]])
        if head not in forward.final_active:
            return [_fail("gadget-forward-relay", f"chain {length}: head unreached")]
        if forward.round_count != 4 * length:
            return [
                _fail(
                    "gadget-forward-relay",
                    f"chain {length}: fixpoint after {forward.round_count} rounds, "
                    f"expected {4 * length}",
                )
            ]
        if len(forward.final_active) != inst.n:
            return [_fail("gadget-forward-relay", f"chain {length}: incomplete cascade")]
    return [
        _ok(f"gadget-no-backflow (chains up to {max_chain})"),
        _ok("gadget-forward-relay (4 rounds per gadget)"),
    ]


def suite_padding(*, k_lo: int = 4, k_hi: int = 10) -> list[CheckOutcome]:
    """Padding arithmetic: defining inequalities hold and are tight."""
    from math import comb

    for k in range(k_lo, k_hi + 1):
        for label in ("const:1", "const:2"):
            p = choose_gap_padding(k, rho_preset(label), "clique", rho_label=label)
            c2 = comb(k, 2)
            rho = rho_preset(label)
            assert p.x is not None
            if not (p.x / rho(p.x) >= p.g and (p.x == p.g or (p.x - 1) / rho(p.x - 1) < p.g)):
                return [_fail("padding-x-minimal", f"k={k} {label}: x={p.x}")]
            def yield_at(h: int) -> int:
                return k + (h + 1) * c2 + 4 * h * c2 * c2
            if not (yield_at(p.h) >= p.x and (p.h == 1 or yield_at(p.h - 1) < p.x)):
                return [_fail("padding-h-minimal", f"k={k} {label}: h={p.h}")]
        label = "linear:1"
        p = choose_gap_padding(k, rho_preset(label), "min-closed", rho_label=label)
        rho = rho_preset(label)
        if not (k + p.h + 1 >= k * rho(k) and k + (p.h - 1) + 1 < k * rho(k)):
            return [_fail("padding-min-closed-h", f"k={k} {label}: h={p.h}")]
        try:
            choose_gap_padding(k, rho_preset(label), "clique", search_limit=10_000)
            return [_fail("padding-growth-guard", f"k={k}: linear rho accepted")]
        except ValueError:
            pass
    spot = choose_gap_padding(4, rho_preset("const:1"), "clique")
    if (spot.g, spot.x, spot.h) != (154, 154, 1):
        return [_fail("padding-spot-values", f"got {(spot.g, spot.x, spot.h)}")]
    spot2 = choose_gap_padding(4, rho_preset("const:2"), "clique")
    if (spot2.x, spot2.h) != (308, 2):
        return [_fail("padding-spot-values", f"got {(spot2.x, spot2.h)}")]
    spot3 = choose_gap_padding(3, rho_preset("const:2"), "min-closed")
    if (spot3.h, spot3.g) != (2, 6):
        return [_fail("padding-spot-values", f"got {(spot3.h, spot3.g)}")]
    return [
        _ok(f"padding-x-minimal (k={k_lo}..{k_hi})"),
        _ok("padding-h-minimal"),
        _ok("padding-min-closed-h"),
        _ok("padding-growth-guard"),
        _ok("padding-spot-values (154/308/6)"),
    ]


SUITES = {
    "propagation": suite_propagation,
    "circuit-equivalence": suite_circuit_equivalence,
    "threshold-reduction": suite_threshold_reduction,
    "clique-gap": suite_clique_gap,
    "independence-decision": suite_independence_decision,
    "min-closed-gap": suite_min_closed_gap,
    "unanimity-min-open": suite_unanimity_min_open,
    "unanimity-cover": suite_unanimity_cover,
    "gadget-direction": suite_gadget_direction,
    "padding": suite_padding,
}
