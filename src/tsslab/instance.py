"""Graphs with per-vertex activation thresholds: types, text format, generators.

An instance is a simple undirected graph on vertices 1..n together with an
integer threshold thr(v) >= 1 per vertex.  A vertex whose threshold exceeds
its degree is legal; it can only ever become active by being seeded.

Bulk work runs with CPython's cyclic garbage collector held off
(`_gc_paused`): graph assembly, `generate_random`, `parse_instance`, and
`propagation.activate`.  Each allocates containers per edge, line or
round that all stay alive, so every collection it would trigger re-walks
them and frees nothing.  None of it creates a reference cycle, and the
collector's first run after the pause sees any cycle that does exist, so
nothing leaks.  The pause flips process-wide state and is not
thread-safe: a thread that disables the collector while another thread
is inside a paused call may find it enabled again when that call returns.
"""

from __future__ import annotations

import functools
import gc
import math
import random
import struct
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

THRESHOLD_MODES = ("constant", "majority", "unanimity", "uniform")
# The most vertex pairs n(n - 1)/2 one G(n, p) draw may decide (n = 14,142
# fits): each pair costs a random draw, and far larger n would make a block
# row ask getrandbits for more bits than a C int holds.
_GNP_PAIR_BUDGET = 10**8


def _gc_paused(fn):
    """`fn` run with the cyclic collector disabled, restoring the caller's
    `gc.isenabled()` on return and on error (see the module docstring)."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


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
        self._assemble(n, canon)

    @classmethod
    def _trusted(cls, n: int, canon: Iterable[tuple[int, int]]) -> "Graph":
        """Graph from edges already known to be distinct (u, v) pairs with
        1 <= u < v <= n, skipping the checks `Graph(...)` makes."""
        g = cls.__new__(cls)
        g._assemble(n, canon)
        return g

    @_gc_paused
    def _assemble(self, n: int, canon: Iterable[tuple[int, int]]) -> None:
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
            thr = [0] + [thresholds[v] for v in range(1, n + 1)]
        else:
            if len(thresholds) != n:
                raise ValueError(
                    f"expected {n} thresholds, got {len(thresholds)}"
                )
            thr = [0, *thresholds]
        for v in range(1, n + 1):
            if not isinstance(thr[v], int):
                raise ValueError(f"threshold {thr[v]!r} at vertex {v} is not an integer")
            if thr[v] < 1:
                raise ValueError(f"threshold below 1 at vertex {v}")
        self.graph = graph
        self.thr = tuple(thr)  # index 0 is a sentinel

    @classmethod
    def _trusted(cls, graph: Graph, thr: Sequence[int]) -> "Instance":
        """Instance from thresholds already known to be integers >= 1, one
        per vertex after a sentinel at index 0, skipping the checks
        `Instance(...)` makes."""
        inst = cls.__new__(cls)
        inst.graph = graph
        inst.thr = tuple(thr)
        return inst

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

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
    n may give at most `_GNP_PAIR_BUDGET` vertex pairs.
    """

    n: int
    edge_probability: float
    threshold_mode: str = "constant"
    rng_seed: int = 0
    constant: int = 1

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.n * (self.n - 1) // 2 > _GNP_PAIR_BUDGET:
            raise ValueError(
                f"n = {self.n} gives more than the {_GNP_PAIR_BUDGET} vertex pairs a draw may take"
            )
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError("edge_probability must lie in [0, 1]")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(
                f"unknown threshold mode {self.threshold_mode!r}; "
                f"expected one of {THRESHOLD_MODES}"
            )
        if self.constant < 1:
            raise ValueError("constant threshold must be at least 1")


# Rows with fewer pairs than this draw one rng.random() per pair: below it
# the block set-up costs more than the per-pair calls it saves.
_BLOCK_MIN_PAIRS = 64
# At or above this edge probability every row does so: a block row pays
# Python work per edge, which costs more than per-pair calls on dense rows.
_BLOCK_BELOW_P = 1 / 32
_TWO_WORDS = struct.Struct("<II")


def _gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) edges in (u, v) lexicographic order, each pair an edge exactly
    when `rng.random() < p` holds for one draw per pair in that order.

    When p < _BLOCK_BELOW_P, rows u with k = n - u >= _BLOCK_MIN_PAIRS
    pairs take all their draws at once.  CPython's random() is X / 2**53
    with X = (w0 >> 5) * 2**26 + (w1 >> 6) for two consecutive 32-bit
    Mersenne Twister words, so random() < p exactly when the integer
    X < cut = ceil(p * 2**53).  And getrandbits(64 * k) is the next 2k
    words, least significant first, so words 2j and 2j + 1 of the block are
    the draw for pair j.  The top byte of w0 is X >> 45, so a pair whose
    top byte exceeds cut >> 45 is no edge; only the others, found at C
    speed, are decided in Python from both words.  Both paths consume the
    same words in the same order, so the edges and the generator's state
    afterwards are those of the per-pair loop, bit for bit.  Graphs with no
    block row pay no block set-up.
    """
    rnd = rng.random
    if n <= _BLOCK_MIN_PAIRS or p >= _BLOCK_BELOW_P:
        return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rnd() < p]
    cut = math.ceil(p * 2**53)
    top = cut >> 45
    maybe = b"\x01" * (top + 1) + bytes(255 - top)  # top byte -> 1 if it may be an edge
    bits = rng.getrandbits
    last_block_row = n - _BLOCK_MIN_PAIRS
    edges: list[tuple[int, int]] = []
    add = edges.append
    for u in range(1, last_block_row + 1):
        k = n - u
        block = bits(64 * k).to_bytes(8 * k, "little")
        candidates = block[3::8].translate(maybe)
        j = candidates.find(1)
        while j >= 0:
            w0, w1 = _TWO_WORDS.unpack_from(block, 8 * j)
            if ((w0 >> 5) << 26 | w1 >> 6) < cut:
                add((u, u + 1 + j))
            j = candidates.find(1, j + 1)
    edges += [
        (u, v) for u in range(last_block_row + 1, n + 1) for v in range(u + 1, n + 1) if rnd() < p
    ]
    return edges


@_gc_paused
def generate_random(cfg: GeneratorConfig) -> Instance:
    """Draw a G(n, p) instance; identical rng_seed yields identical output.

    Edges are drawn independently first, then thresholds are assigned from
    the final degrees (majority/unanimity need them fixed).
    """
    rng = random.Random(cfg.rng_seed)
    g = Graph._trusted(cfg.n, _gnp_edges(rng, cfg.n, cfg.edge_probability))
    thr = [0]
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
    return Instance._trusted(g, thr)


def _rows(text: str) -> list[tuple[int, list[str]]]:
    """(1-based line number, tokens) of every line left nonblank once its
    '#' comment is cut; both text formats read their lines through this."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        if hash_at >= 0:
            raw = raw[:hash_at]
        tokens = raw.split()
        if tokens:
            rows.append((lineno, tokens))
    return rows


def _strict_int(token: str) -> int:
    """int(token) for ASCII digits after an optional leading '-'; anything
    else, including the underscores, '+' signs and non-ASCII digits that
    int() takes, raises ValueError."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


@_gc_paused
def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format.

    Layout: a `tss <n> <m>` header, then n `t <vertex> <threshold>` lines,
    then m `e <u> <v>` lines with u < v.  '#' starts a comment; blank lines
    are skipped.  Errors carry the 1-based line number.
    """
    rows = _rows(text)
    if not rows:
        raise ParseError("line 1: missing header")

    lineno, parts = rows[0]
    if len(parts) != 3 or parts[0] != "tss":
        raise ParseError(f"line {lineno}: malformed header, expected 'tss <n> <m>'")
    try:
        n, m = _strict_int(parts[1]), _strict_int(parts[2])
    except ValueError:
        raise ParseError(f"line {lineno}: malformed header, expected 'tss <n> <m>'")
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: negative counts in header")
    if len(rows) - 1 != n + m:
        raise ParseError(
            f"line {lineno}: header promises {n} threshold and {m} edge lines, "
            f"found {len(rows) - 1}"
        )

    thr = [0] * (n + 1)  # 0 until the vertex's line is read
    for lineno, parts in rows[1 : 1 + n]:
        if len(parts) != 3 or parts[0] != "t":
            raise ParseError(f"line {lineno}: expected 't <vertex> <threshold>'")
        try:
            v, t = _strict_int(parts[1]), _strict_int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: expected 't <vertex> <threshold>'")
        if not 1 <= v <= n:
            raise ParseError(f"line {lineno}: vertex {v} out of range 1..{n}")
        if thr[v]:
            raise ParseError(f"line {lineno}: duplicate threshold for vertex {v}")
        if t < 1:
            raise ParseError(f"line {lineno}: threshold below 1")
        thr[v] = t
    # n lines, each with a new vertex in 1..n, have set every threshold.

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, parts in rows[1 + n :]:
        if len(parts) != 3 or parts[0] != "e":
            raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
        try:
            u, v = _strict_int(parts[1]), _strict_int(parts[2])
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
    # The checks above reject everything Graph(...) and Instance(...) would.
    return Instance._trusted(Graph._trusted(n, edges), thr)


def write_instance(inst: Instance) -> str:
    """Serialize canonically: vertices ascending, edges lexicographically."""
    out = [f"tss {inst.n} {inst.m}"]
    for v in range(1, inst.n + 1):
        out.append(f"t {v} {inst.thr[v]}")
    for u, v in inst.graph.edges:
        out.append(f"e {u} {v}")
    return "\n".join(out) + "\n"

