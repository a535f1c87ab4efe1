"""Acceptance suite: every headline property at its full stated scale.

Each passing test prints one PASS line; a failing suite raises its
`Counterexample`, which fails the test.  All randomness is seeded, so the
suite is reproducible.  Every criterion is a `tsslab.verify` suite, so
each also runs as `tsslab verify <suite>`; criterion 5 is
`independence-decision`, whose all-seeds check is the influence-decision
biconditional over every size-k seed of the compiled instance, and
criterion 5a runs the same suite on a second sample of graphs.
"""

import time

from tsslab.verify import (
    suite_circuit_equivalence,
    suite_clique_gap,
    suite_gadget_direction,
    suite_independence_decision,
    suite_min_closed_gap,
    suite_padding,
    suite_propagation,
    suite_threshold_reduction,
    suite_unanimity_cover,
    suite_unanimity_min_open,
)


def _report(criterion: str, passed: list[str], started) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS {criterion} [{elapsed:.1f}s] ({', '.join(passed)})")


def test_criterion_01_propagation_soundness():
    t0 = time.perf_counter()
    out = suite_propagation(trials=1000, max_n=30, seed=101)
    _report("criterion 1: propagation soundness, 1000 instances n<=30", out, t0)
    assert time.perf_counter() - t0 < 10


def test_criterion_02_circuit_oracle_equivalence():
    t0 = time.perf_counter()
    out = suite_circuit_equivalence(max_inputs=3, max_gates=3, trials=50, seed=102)
    _report(
        "criterion 2: circuit optimum equals minimum satisfying weight", out, t0
    )
    assert time.perf_counter() - t0 < 300


def test_criterion_03_threshold_reduction():
    t0 = time.perf_counter()
    out = suite_threshold_reduction(trials=200, max_n=5, peels=100, seed=103)
    _report(
        "criterion 3: thresholds<=2 rewrite preserves optima, n<=5, 200 instances",
        out,
        t0,
    )
    assert time.perf_counter() - t0 < 300


def test_criterion_04_clique_gap_dichotomy():
    t0 = time.perf_counter()
    out = suite_clique_gap(graphs=100, random_seeds=10000, seed=104)
    _report(
        "criterion 4: clique gap, k=4 h=1, yield 160 vs bound 154", out, t0
    )
    assert time.perf_counter() - t0 < 600


def test_criterion_05_influence_decision_biconditional():
    t0 = time.perf_counter()
    out = suite_independence_decision(graphs=500, k_max=4, seed=105)
    _report("criterion 5: influence decision iff independent set, k<=4", out, t0)


def test_criterion_05a_influence_decision_sound_directions():
    # A second sample of 500 graphs for the vertex-side checks (closed k,
    # open 0), the directions that hold for every seed restriction.
    t0 = time.perf_counter()
    out = suite_independence_decision(graphs=500, k_max=4, seed=1105)
    assert out[0].startswith("independence-decision-vertex-side")
    assert "independence-decision-open" in out
    _report(
        "criterion 5a: influence-decision vertex-side equivalence, second sample",
        out,
        t0,
    )


def test_criterion_06_min_closed_dichotomy():
    t0 = time.perf_counter()
    out = suite_min_closed_gap(graphs=500, k_max=4, seed=106)
    _report(
        "criterion 6: min closed influence k vs k+4 dichotomy, h=3", out, t0
    )
    assert time.perf_counter() - t0 < 300


def test_criterion_07_unanimity_min_open():
    t0 = time.perf_counter()
    out = suite_unanimity_min_open(trials=500, max_n=10, seed=107)
    _report(
        "criterion 7: polynomial unanimity min open influence, all k", out, t0
    )
    assert time.perf_counter() - t0 < 120


def test_criterion_08_unanimity_vertex_cover():
    t0 = time.perf_counter()
    out = suite_unanimity_cover(trials=300, max_n=12, seed=108)
    _report(
        "criterion 8: unanimity optimum = cover (+isolated), matching <= 2x",
        out,
        t0,
    )
    assert time.perf_counter() - t0 < 300


def test_criterion_09_gadget_directionality():
    t0 = time.perf_counter()
    out = suite_gadget_direction(max_chain=5)
    _report("criterion 9: one-way gadgets, chains up to 5", out, t0)
    assert time.perf_counter() - t0 < 1


def test_criterion_10_padding_arithmetic():
    t0 = time.perf_counter()
    out = suite_padding()
    _report("criterion 10: padding inequalities minimal and tight", out, t0)
    assert time.perf_counter() - t0 < 1
