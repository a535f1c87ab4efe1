"""Graphs with per-vertex activation thresholds: types, text format, generators.

An instance is a simple undirected graph on vertices 1..n together with an
integer threshold thr(v) >= 1 per vertex.  A vertex whose threshold exceeds
its degree is legal; it can only ever become active by being seeded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

THRESHOLD_MODES = ("constant", "majority", "unanimity", "uniform")


class ParseError(ValueError):
    """Raised on malformed instance or circuit text; names the offending line."""


class Graph:
    """Simple undirected graph on vertices 1..n.

    Edges are stored canonically as (u, v) pairs with u < v; adjacency lists
    are sorted tuples.  Instances are immutable after construction.
    """

    __slots__ = ("n", "m", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
            e = (u, v) if u < v else (v, u)
            if e in canon:
                raise ValueError(f"duplicate edge ({e[0]}, {e[1]})")
            canon.add(e)
        ordered = tuple(sorted(canon))
        nbrs: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in ordered:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.m = len(ordered)
        self.edges = ordered
        # Walking the sorted edges yields each list ascending: smaller
        # neighbors arrive (in order) before the vertex's own edge block.
        self.adj = tuple(map(tuple, nbrs))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj[1:]), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Instance:
    """Graph plus threshold function; the universal problem input."""

    __slots__ = ("graph", "thr")

    def __init__(self, graph: Graph, thresholds: Mapping[int, int] | Sequence[int]):
        n = graph.n
        if isinstance(thresholds, Mapping):
            if set(thresholds) != set(range(1, n + 1)):
                raise ValueError("threshold mapping must cover exactly vertices 1..n")
            thr = [0] + [int(thresholds[v]) for v in range(1, n + 1)]
        else:
            if len(thresholds) != n:
                raise ValueError(
                    f"expected {n} thresholds, got {len(thresholds)}"
                )
            thr = [0] + [int(t) for t in thresholds]
        for v in range(1, n + 1):
            if thr[v] < 1:
                raise ValueError(f"threshold below 1 at vertex {v}")
        self.graph = graph
        self.thr = tuple(thr)  # index 0 is a sentinel

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def threshold(self, v: int) -> int:
        return self.thr[v]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Instance)
            and self.graph == other.graph
            and self.thr == other.thr
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.thr))

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class GeneratorConfig:
    """Random-instance parameters: G(n, p) edges plus a threshold rule.

    Modes: "constant" uses the `constant` value, "majority" assigns
    ceil(deg/2), "unanimity" assigns deg, "uniform" draws uniformly from
    [1, deg].  All modes clamp into [1, max(1, deg)] so generated instances
    never carry a threshold above the degree (isolated vertices get 1).
    """

    n: int
    edge_probability: float
    threshold_mode: str = "constant"
    rng_seed: int = 0
    constant: int = 1

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError("edge_probability must lie in [0, 1]")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(
                f"unknown threshold mode {self.threshold_mode!r}; "
                f"expected one of {THRESHOLD_MODES}"
            )
        if self.constant < 1:
            raise ValueError("constant threshold must be at least 1")


def _gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) edges: one rng.random() per pair, in (u, v) lexicographic order."""
    rnd = rng.random
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rnd() < p]


def generate_random(cfg: GeneratorConfig) -> Instance:
    """Draw a G(n, p) instance; identical rng_seed yields identical output.

    Edges are drawn independently first, then thresholds are assigned from
    the final degrees (majority/unanimity need them fixed).
    """
    rng = random.Random(cfg.rng_seed)
    g = Graph(cfg.n, _gnp_edges(rng, cfg.n, cfg.edge_probability))
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


def _strip(line: str) -> str:
    hash_at = line.find("#")
    if hash_at >= 0:
        line = line[:hash_at]
    return line.strip()


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format.

    Layout: a `tss <n> <m>` header, then n `t <vertex> <threshold>` lines,
    then m `e <u> <v>` lines with u < v.  '#' starts a comment; blank lines
    are skipped.  Errors carry the 1-based line number.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip(raw)
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise ParseError("line 1: missing header")

    lineno, parts = rows[0]
    if len(parts) != 3 or parts[0] != "tss":
        raise ParseError(f"line {lineno}: malformed header, expected 'tss <n> <m>'")
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"line {lineno}: malformed header, expected 'tss <n> <m>'")
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: negative counts in header")
    if len(rows) - 1 != n + m:
        raise ParseError(
            f"line {lineno}: header promises {n} threshold and {m} edge lines, "
            f"found {len(rows) - 1}"
        )

    thresholds: dict[int, int] = {}
    for lineno, parts in rows[1 : 1 + n]:
        if len(parts) != 3 or parts[0] != "t":
            raise ParseError(f"line {lineno}: expected 't <vertex> <threshold>'")
        try:
            v, t = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: expected 't <vertex> <threshold>'")
        if not 1 <= v <= n:
            raise ParseError(f"line {lineno}: vertex {v} out of range 1..{n}")
        if v in thresholds:
            raise ParseError(f"line {lineno}: duplicate threshold for vertex {v}")
        if t < 1:
            raise ParseError(f"line {lineno}: threshold below 1")
        thresholds[v] = t
    for v in range(1, n + 1):
        if v not in thresholds:
            raise ParseError(f"line {rows[0][0]}: missing threshold line for vertex {v}")

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, parts in rows[1 + n :]:
        if len(parts) != 3 or parts[0] != "e":
            raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"line {lineno}: edge endpoint out of range 1..{n}")
        if not u < v:
            raise ParseError(f"line {lineno}: edge endpoints must satisfy u < v")
        if (u, v) in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return Instance(Graph(n, edges), thresholds)


def write_instance(inst: Instance) -> str:
    """Serialize canonically: vertices ascending, edges lexicographically."""
    out = [f"tss {inst.n} {inst.m}"]
    for v in range(1, inst.n + 1):
        out.append(f"t {v} {inst.thr[v]}")
    for u, v in inst.graph.edges:
        out.append(f"e {u} {v}")
    return "\n".join(out) + "\n"


def incidence_graph(g: Graph) -> tuple[Graph, dict[int, str]]:
    """Bipartite vertex/edge incidence graph.

    Vertices 1..n keep their ids; edge i of the canonical edge order becomes
    vertex n+i, adjacent to its two endpoints.  The mapping tags each new
    vertex `v<i>` or `e<u>-<v>`.
    """
    n = g.n
    edges = []
    names: dict[int, str] = {}
    for v in range(1, n + 1):
        names[v] = f"v{v}"
    for i, (u, v) in enumerate(g.edges, start=1):
        ev = n + i
        names[ev] = f"e{u}-{v}"
        edges.append((u, ev))
        edges.append((v, ev))
    return Graph(n + g.m, edges), names
