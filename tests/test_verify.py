"""A failed property check names its check and carries an instance that
reproduces it."""

from types import SimpleNamespace

import pytest

from tsslab import verify
from tsslab.instance import parse_instance
from tsslab.propagation import PropagationTrace, activate


def _solver(value):
    """Stand-in for `k_influence` that answers value(k, mode, universe)."""

    def solve(inst, k, mode, goal, universe=None):
        return SimpleNamespace(value=value(k, mode, universe), seed=None)

    return solve


@pytest.mark.parametrize(
    "suite, kwargs, patches, check",
    [
        (
            verify.suite_clique_gap,
            {"graphs": 20, "random_seeds": 0},
            {"k_influence": _solver(lambda k, mode, universe: 10**6)},
            "cliquefree-side-bound",
        ),
        (
            verify.suite_clique_gap,
            {"graphs": 1, "random_seeds": 1},
            {
                "find_clique": lambda g, k: None,
                "k_influence": _solver(lambda k, mode, universe: 0),
                "influence": lambda inst, seed: 10**6,
            },
            "cliquefree-random-seeds",
        ),
        (
            verify.suite_independence_decision,
            {"graphs": 1},
            {
                "has_independent_set": lambda g, k: True,
                "k_influence": _solver(lambda k, mode, universe: k if mode == "closed" else 1),
            },
            "independence-decision-open",
        ),
        (
            verify.suite_min_closed_gap,
            {"graphs": 1},
            {
                "has_independent_set": lambda g, k: True,
                "k_influence": _solver(lambda k, mode, universe: k + 1),
            },
            "min-closed-equals-k",
        ),
        (
            verify.suite_min_closed_gap,
            {"graphs": 1},
            {
                "has_independent_set": lambda g, k: False,
                "k_influence": _solver(lambda k, mode, universe: k),
            },
            "min-closed-gap",
        ),
        (
            verify.suite_independence_decision,
            {"graphs": 1},
            {
                "has_independent_set": lambda g, k: False,
                "k_influence": _solver(
                    lambda k, mode, universe: k
                    if universe is None
                    else (k + 1 if mode == "closed" else 1)
                ),
            },
            "independence-decision-all-seeds",
        ),
    ],
)
def test_counterexample_carries_source_graph(suite, kwargs, patches, check, monkeypatch):
    for name, fake in patches.items():
        monkeypatch.setattr(verify, name, fake)
    with pytest.raises(verify.Counterexample) as err:
        suite(**kwargs)
    cx = err.value
    assert cx.name == check
    assert str(cx) == f"{check}: {cx.detail}"
    lines = cx.detail.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("tss "))
    inst = parse_instance("\n".join(lines[start:]) + "\n")
    assert inst.n >= 2 and inst.m >= 1


# The path 1-2-3 with threshold 1 everywhere, seeded at 1: one vertex per
# round.
PATH3 = "tss 3 2\nt 1 1\nt 2 1\nt 3 1\ne 1 2\ne 2 3\n"
RECOUNT = (frozenset({1}), frozenset({2}), frozenset({3}))


def _trace(rounds, final, round_count):
    return PropagationTrace(
        frozenset({1}), tuple(map(frozenset, rounds)), frozenset(final), round_count
    )


def _recount_differs(rounds):
    return f"rounds differ from recount: {tuple(map(frozenset, rounds))} vs {list(RECOUNT)}"


@pytest.mark.parametrize(
    "rounds, final, round_count, problems",
    [
        ([{1}, {2, 3}], {1, 2, 3}, 1, [_recount_differs([{1}, {2, 3}])]),
        (
            [{1}, {2}, set(), {3}],
            {1, 2, 3},
            3,
            [_recount_differs([{1}, {2}, set(), {3}]), "round 2 is empty"],
        ),
        (
            [{1}, {2}, {2, 3}],
            {1, 2, 3},
            2,
            [_recount_differs([{1}, {2}, {2, 3}]), "round 2 re-activates [2]"],
        ),
        (
            RECOUNT,
            {1, 2},
            2,
            ["final_active is not the union of the rounds", "final_active is not a fixpoint"],
        ),
        (RECOUNT, {1, 2, 3}, 1, ["round_count disagrees with the number of rounds"]),
        (
            RECOUNT,
            {1, 2, 3},
            4,
            ["round_count disagrees with the number of rounds", "round_count 4 exceeds n=3"],
        ),
        (
            [{1}, {2}],
            {1, 2},
            1,
            [_recount_differs([{1}, {2}]), "final_active is not a fixpoint"],
        ),
    ],
)
def test_trace_violations_reports_each_broken_rule(rounds, final, round_count, problems):
    inst = parse_instance(PATH3)
    assert verify.trace_violations(inst, _trace(rounds, final, round_count)) == problems


def test_trace_violations_accepts_a_correct_trace():
    inst = parse_instance(PATH3)
    trace = activate(inst, [1])
    assert trace == _trace(RECOUNT, {1, 2, 3}, 2)
    assert verify.trace_violations(inst, trace) == []
