"""A failed property check names its check and carries an instance that
reproduces it."""

from types import SimpleNamespace

import pytest

from tsslab import verify
from tsslab.instance import parse_instance


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
