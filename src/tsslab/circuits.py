"""Monotone boolean circuits over and/or gates.

A circuit is a DAG whose in-degree-0 nodes are the inputs, whose gates have
at least two predecessors, and which has exactly one sink, the output node.
Assignments are sets of input positions (1-based, in ascending node-id
order) that are set to true.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .instance import ParseError, _rows, _strict_int

BRUTE_FORCE_INPUT_BOUND = 20


@dataclass(frozen=True)
class MonotoneCircuit:
    kinds: tuple[str, ...]  # index 0 unused; "input" | "and" | "or"
    preds: tuple[tuple[int, ...], ...]
    output: int
    inputs: tuple[int, ...]  # node ids of the inputs, ascending
    topo: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.kinds) - 1

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)


def build_circuit(
    kinds: Sequence[str], preds: Sequence[Sequence[int]], output: int | None = None
) -> MonotoneCircuit:
    """Validate and assemble a circuit from 1-based node data.

    kinds[i] and preds[i] describe node i+1.  When `output` is None the
    unique sink is taken; otherwise it must equal that sink.
    """
    n = len(kinds)
    if len(preds) != n:
        raise ValueError("kinds and preds must have equal length")
    kin = ("",) + tuple(kinds)
    pin: list[tuple[int, ...]] = [()]
    for i, ps in enumerate(preds, start=1):
        ps = tuple(ps)
        for p in ps:
            if not 1 <= p <= n:
                raise ParseError(f"node {i} references unknown node {p}")
            if p == i:
                raise ParseError(f"node {i} feeds itself")
        if len(set(ps)) != len(ps):
            raise ParseError(f"node {i} lists a predecessor twice")
        if kin[i] == "input":
            if ps:
                raise ParseError(f"input node {i} must have no predecessors")
        elif kin[i] in ("and", "or"):
            if len(ps) < 2:
                raise ParseError(f"gate {i} has fewer than two inputs")
        else:
            raise ParseError(f"node {i} has unknown kind {kin[i]!r}")
        pin.append(ps)

    succ: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        for p in pin[i]:
            succ[p].append(i)
    sinks = [i for i in range(1, n + 1) if not succ[i]]
    if len(sinks) != 1:
        raise ParseError(
            f"expected exactly one output candidate, found {len(sinks)}"
        )
    if output is not None and output != sinks[0]:
        raise ParseError(f"declared output {output} is not the unique sink {sinks[0]}")

    # Kahn topological order; leftovers mean a cycle.
    indeg = [len(pin[i]) for i in range(n + 1)]
    queue = deque(i for i in range(1, n + 1) if indeg[i] == 0)
    topo: list[int] = []
    while queue:
        v = queue.popleft()
        topo.append(v)
        for s in succ[v]:
            indeg[s] -= 1
            if indeg[s] == 0:
                queue.append(s)
    if len(topo) != n:
        raise ParseError("cycle detected")

    inputs = tuple(i for i in range(1, n + 1) if kin[i] == "input")
    return MonotoneCircuit(kin, tuple(pin), sinks[0], inputs, tuple(topo))


def parse_circuit(text: str) -> MonotoneCircuit:
    """Parse the circuit text format.

    Layout: `circuit <num-nodes>`, one `input <id>` or
    `gate <id> and|or <in1> <in2> [...]` line per node, and a final
    `output <id>` line.  '#' comments and blank lines are skipped.
    """
    rows = _rows(text)
    if not rows:
        raise ParseError("line 1: missing circuit header")

    lineno, parts = rows[0]
    if len(parts) != 2 or parts[0] != "circuit":
        raise ParseError(f"line {lineno}: malformed header, expected 'circuit <n>'")
    try:
        n = _strict_int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: malformed header, expected 'circuit <n>'")
    if n < 1:
        raise ParseError(f"line {lineno}: circuit needs at least one node")
    if len(rows) != n + 2:
        raise ParseError(
            f"line {lineno}: expected {n} node lines plus an output line"
        )

    kinds: list[str | None] = [None] * (n + 1)
    preds: list[tuple[int, ...]] = [()] * (n + 1)
    for lineno, parts in rows[1 : 1 + n]:
        if parts[0] == "input" and len(parts) == 2:
            try:
                i = _strict_int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad node id")
            kind, ps = "input", ()
        elif parts[0] == "gate" and len(parts) >= 3:
            try:
                i = _strict_int(parts[1])
                ps = tuple(map(_strict_int, parts[3:]))
            except ValueError:
                raise ParseError(f"line {lineno}: bad node id")
            kind = parts[2]
            if kind not in ("and", "or"):
                raise ParseError(f"line {lineno}: gate kind must be 'and' or 'or'")
        else:
            raise ParseError(f"line {lineno}: expected 'input <id>' or 'gate <id> ...'")
        if not 1 <= i <= n:
            raise ParseError(f"line {lineno}: node id {i} out of range 1..{n}")
        if kinds[i] is not None:
            raise ParseError(f"line {lineno}: duplicate definition of node {i}")
        kinds[i] = kind
        preds[i] = ps
    # n lines, each with a new id in 1..n, have defined every node.

    lineno, parts = rows[1 + n]
    if len(parts) != 2 or parts[0] != "output":
        raise ParseError(f"line {lineno}: expected 'output <id>'")
    try:
        out = _strict_int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: expected 'output <id>'")
    if not 1 <= out <= n:
        raise ParseError(f"line {lineno}: output id {out} out of range 1..{n}")
    return build_circuit([k for k in kinds[1:] if k], preds[1:], out)


def write_circuit(c: MonotoneCircuit) -> str:
    out = [f"circuit {c.n_nodes}"]
    for i in range(1, c.n_nodes + 1):
        if c.kinds[i] == "input":
            out.append(f"input {i}")
        else:
            out.append(f"gate {i} {c.kinds[i]} " + " ".join(map(str, c.preds[i])))
    out.append(f"output {c.output}")
    return "\n".join(out) + "\n"


def evaluate(c: MonotoneCircuit, assignment: Iterable[int]) -> bool:
    """Evaluate in topological order; and = conjunction, or = disjunction."""
    true_positions = set(assignment)
    for pos in true_positions:
        if not 1 <= pos <= c.n_inputs:
            raise ValueError(f"assignment position {pos} out of range 1..{c.n_inputs}")
    position = {node: i for i, node in enumerate(c.inputs, start=1)}
    value = [False] * (c.n_nodes + 1)
    for v in c.topo:
        kind = c.kinds[v]
        if kind == "input":
            value[v] = position[v] in true_positions
        elif kind == "and":
            value[v] = all(value[p] for p in c.preds[v])
        else:
            value[v] = any(value[p] for p in c.preds[v])
    return value[c.output]


def min_weight_satisfying(c: MonotoneCircuit) -> frozenset[int]:
    """Exhaustive minimum-weight satisfying assignment.

    Subsets are tried by increasing cardinality, lexicographically within a
    cardinality, so the first hit is a minimum-weight assignment with the
    lexicographically smallest true-input set.  One always exists: every
    monotone circuit is satisfied by the all-true assignment.  Refuses
    circuits with more than BRUTE_FORCE_INPUT_BOUND inputs.
    """
    n = c.n_inputs
    if n > BRUTE_FORCE_INPUT_BOUND:
        raise ValueError(
            f"brute-force search limited to {BRUTE_FORCE_INPUT_BOUND} inputs, "
            f"circuit has {n}"
        )
    for weight in range(n + 1):
        for subset in combinations(range(1, n + 1), weight):
            if evaluate(c, subset):
                return frozenset(subset)
    raise AssertionError("monotone circuit unsatisfied by the all-true assignment")
