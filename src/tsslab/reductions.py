"""Instance compilers: circuit satisfiability and independence/clique
problems rewritten as threshold-activation instances, with the padding
arithmetic that separates yes- and no-instances by a verifiable gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, log
from typing import Callable, Iterable

from .circuits import MonotoneCircuit, evaluate
# Re-exported: the size budget and its error are shared by every builder.
from .gadgets import (
    BUILD_SIZE_LIMIT,
    BuildSizeError,
    InstanceBuilder,
    ReducedInstance,
    _check_build_size,
)
from .instance import Graph
from .propagation import is_target_set

RHO_PRESETS = ("const", "linear", "poly")

X_SEARCH_LIMIT = 10_000_000

@dataclass(frozen=True)
class GapParameters:
    """Padding bundle (k, g, h, x) for the gap constructions.

    For the clique variant, g = k + C(k,2) + 4*C(k,2)^2, x is the smallest
    integer with x/rho(x) >= g, and h is the smallest integer making the
    construction's guaranteed yield k + (h+1)*C(k,2) + 4*h*C(k,2)^2 reach x.
    For the min-closed variant, h is the smallest integer >= 1 with
    k + h + 1 >= k*rho(k) and g = k + h + 1 (x is not used).  The gap
    builders take h alone (default 1) and record `with_h(k, h, variant)`;
    `choose_gap_padding` picks h, and x, for a ratio function rho.
    """

    variant: str  # "clique" | "min-closed"
    k: int
    g: int
    h: int
    x: int | None = None
    rho_label: str | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("clique", "min-closed"):
            raise ValueError(f"unknown gap variant {self.variant!r}")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.h < 1:
            raise ValueError("h must be at least 1")

    @property
    def clique_yield(self) -> int:
        """Closed influence guaranteed by seeding a k-clique."""
        c2 = comb(self.k, 2)
        return self.k + (self.h + 1) * c2 + 4 * self.h * c2 * c2

    @classmethod
    def with_h(cls, k: int, h: int, variant: str = "clique") -> "GapParameters":
        if variant == "clique":
            c2 = comb(k, 2)
            return cls(variant, k, k + c2 + 4 * c2 * c2, h)
        return cls(variant, k, k + h + 1, h)


@dataclass(frozen=True)
class _Power:
    """A parsed preset, rho(t) = c * t^d: const:c has d = 0 and linear:c
    has d = 1.  A fractional d is evaluated in floating point."""

    c: Fraction
    d: Fraction

    def __call__(self, t: int) -> Fraction:
        if self.d.denominator == 1:
            return self.c * t ** int(self.d)
        try:
            return Fraction(float(self.c) * t ** float(self.d))
        except OverflowError:
            raise ValueError(f"rho({t}) = {self.c}*{t}^({self.d}) overflows a float") from None

    def check_reach(self, g: int, search_limit: int) -> None:
        """Refuse, before any evaluation, a preset whose x/rho(x) clearly
        cannot reach g on the walk from x = g within `search_limit` steps.
        Here t/rho(t) = t^(1-d)/c.

        - d >= 1: the ratio never increases, so the walk ends at x = g or
          not at all.  c <= 0 puts rho(g) below 1, and c*g^floor(d) > 1
          puts it above 1, which shows within log_g(1/c) + 1 products
          however large d is.
        - d < 1: the ratio grows, and reaches g by x = g + search_limit
          exactly when ln(c*g) <= (1-d)*ln(g + search_limit).  The two
          sides are compared in floating point with a margin of 1e-6, far
          above their rounding, so a walk that would end is never refused.
          For c <= 0 the walk's first point is cheap and says rho < 1.
        """
        c, d = self.c, self.d
        if d >= 1:
            if c <= 0:
                raise ValueError(f"rho({g}) = {c}*{g}^({d}) is below 1")
            top = c
            for _ in range(int(d)):
                top *= g
                if top > 1:
                    raise ValueError(
                        f"t/rho(t) never increases and is below g = {g} at t = {g}"
                    )
            return
        if c <= 0:
            return
        ln_cg = log(c.numerator) - log(c.denominator) + log(g)
        if ln_cg > float(1 - d) * log(g + search_limit) + 1e-6:
            raise ValueError(
                f"t/rho(t) first reaches g = {g} near t = "
                f"10^{ln_cg / float(1 - d) / log(10):.1f}, "
                f"past the search limit of {search_limit} steps"
            )


def rho_preset(label: str) -> Callable[[int], Fraction]:
    """Parse `const:c`, `linear:c`, or `poly:c,d` into a ratio function."""
    name, _, arg = label.partition(":")
    try:
        if name == "const":
            return _Power(Fraction(arg), Fraction(0))
        if name == "linear":
            return _Power(Fraction(arg), Fraction(1))
        if name == "poly":
            cs, ds = arg.split(",")
            return _Power(Fraction(cs), Fraction(ds))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rho preset {label!r}")
    raise ValueError(
        f"unknown rho preset {name!r}; expected one of {RHO_PRESETS}"
    )


def choose_gap_padding(
    k: int,
    rho: Callable[[int], object],
    variant: str = "clique",
    *,
    rho_label: str | None = None,
    search_limit: int = X_SEARCH_LIMIT,
) -> GapParameters:
    """Compute the minimal padding parameters for a ratio function rho.

    Rho must be at least 1 wherever it is evaluated.  The clique variant
    needs t/rho(t) nondecreasing and unbounded; its search for x walks up
    from g, rejecting rho once a sampled ratio decreases or giving up at
    `search_limit`.  A `rho_preset` that clearly cannot reach g there is
    refused before the walk; every walked point is still checked.  The
    min-closed variant evaluates rho at k only.
    """
    if k < 2:
        raise ValueError("k must be at least 2")

    def rho_at(t: int) -> Fraction:
        val = Fraction(rho(t))
        if val < 1:
            raise ValueError(f"rho({t}) = {val} is below 1")
        return val

    if variant == "clique":
        c2 = comb(k, 2)
        g = k + c2 + 4 * c2 * c2
        if isinstance(rho, _Power):
            rho.check_reach(g, search_limit)
        x = g
        # x/rho(x) is kept as top/bot, both positive, and compared by
        # cross-multiplying; prev starts at 0/1, below every ratio.
        prev_top, prev_bot = 0, 1
        while True:
            val = rho_at(x)
            top, bot = x * val.denominator, val.numerator
            if top * prev_bot < prev_top * bot:
                raise ValueError(f"t/rho(t) decreases between t={x - 1} and t={x}")
            if top >= g * bot:
                break
            prev_top, prev_bot = top, bot
            x += 1
            if x - g > search_limit:
                raise ValueError(
                    f"x/rho(x) did not reach {g} within {search_limit} steps; "
                    "rho does not satisfy the growth requirement"
                )
        per_h = c2 + 4 * c2 * c2
        h = max(1, -((k + c2 - x) // per_h))  # ceil((x - k - c2) / per_h)
        return GapParameters("clique", k, g, h, x, rho_label)

    if variant == "min-closed":
        need = k * rho_at(k)  # want k + h + 1 >= k*rho(k)
        h_min = need - k - 1
        h = max(1, -int(-h_min // 1))  # ceil for Fractions
        return GapParameters("min-closed", k, k + h + 1, h, None, rho_label)

    raise ValueError(f"unknown gap variant {variant!r}")


def _gap_build_size(variant: str, g: Graph, k: int, h: int) -> tuple[int, int]:
    """Vertex and edge counts of `clique_to_max_influence(g, k, h=h)` or
    `is_to_min_closed_influence(g, k, h=h)`, from their layouts.

    Clique: n + m incidence vertices and 2m edges, h*C(k,2) z vertices,
    and m*C(k,2) + (h-1)*C(k,2)^2 directed edge gadgets of 4 vertices and
    6 edges each.  Min-closed: n + r*m incidence vertices and 2*r*m edges,
    with r = max(1, k-1), and h triggers of r*m edges each; at h = 0 that
    is `is_to_influence_decision(g, k)`, the incidence layer alone.
    """
    n, m = g.n, g.m
    if variant == "clique":
        c2 = comb(k, 2)
        gadgets = m * c2 + (h - 1) * c2 * c2
        return n + m + h * c2 + 4 * gadgets, 2 * m + 6 * gadgets
    r = max(1, k - 1)
    return n + r * m + h, (2 + h) * r * m


def _mcs_build_size(c: MonotoneCircuit) -> tuple[int, int]:
    """Vertex and edge counts of `mcs_to_tss(c)`, from its layout: the n
    inputs, n + 1 copies of each gate, and n + 1 copies of a directed edge
    gadget (4 vertices, 6 edges) per wire, plus, when the output is a
    gate, one from each output copy to each input."""
    n = c.n_inputs
    wires = sum(map(len, c.preds)) + (n if c.kinds[c.output] != "input" else 0)
    gadgets = (n + 1) * wires
    return n + (n + 1) * (c.n_nodes - n) + 4 * gadgets, 6 * gadgets


def mcs_to_tss(c: MonotoneCircuit) -> ReducedInstance:
    """Compile a monotone circuit into a target-set instance whose minimum
    target set size equals the circuit's minimum satisfying weight.

    One vertex per input node (threshold n+1, so inputs activate only once
    every replicated output fires back at them, or by seeding); n+1 merged
    copies of every gate (and-gates demand all their wires, or-gates any
    one); every circuit wire becomes a directed edge gadget, replicated per
    copy; and each copy's output feeds a gadget back into every input.  A
    build of more than `BUILD_SIZE_LIMIT` vertices plus edges is refused
    before it starts.
    """
    _check_build_size("mcs", *_mcs_build_size(c))
    n = c.n_inputs
    copies = n + 1
    b = InstanceBuilder()
    input_vertex: dict[int, int] = {}
    for pos, node in enumerate(c.inputs, start=1):
        input_vertex[node] = b.add_vertex(n + 1, f"in{pos}")

    gate_vertex: dict[tuple[int, int], int] = {}
    for node in c.topo:
        kind = c.kinds[node]
        if kind == "input":
            continue
        thr = len(c.preds[node]) if kind == "and" else 1
        for copy in range(1, copies + 1):
            gate_vertex[node, copy] = b.add_vertex(thr, f"gate{node}.{copy}")

    for node in c.topo:
        for src in c.preds[node]:
            for copy in range(1, copies + 1):
                tail = (
                    input_vertex[src]
                    if c.kinds[src] == "input"
                    else gate_vertex[src, copy]
                )
                b.add_directed_edge_gadget(tail, gate_vertex[node, copy])

    if c.kinds[c.output] != "input":
        for copy in range(1, copies + 1):
            for node in c.inputs:
                b.add_directed_edge_gadget(gate_vertex[c.output, copy], input_vertex[node])
    return b.build("circuit-tss", source_circuit=c)


def map_target_set_to_assignment(
    r: ReducedInstance, seed: Iterable[int]
) -> frozenset[int]:
    """Project a target set of a circuit compilation onto a satisfying
    assignment of no larger weight.

    A target set of size >= n maps to the all-true assignment.  A smaller
    one must already succeed through its input vertices alone (the gate
    copies are too numerous for the seed to touch them all), so dropping
    every non-input vertex leaves a satisfying set of input positions.
    """
    if r.kind != "circuit-tss" or r.source_circuit is None:
        raise ValueError("expected a circuit compilation")
    c = r.source_circuit
    seed_set = frozenset(seed)
    if not is_target_set(r.instance, seed_set):
        raise ValueError("seed is not a target set of the compiled instance")
    n = c.n_inputs
    if len(seed_set) >= n:
        return frozenset(range(1, n + 1))
    assignment = frozenset(
        int(r.provenance[v][2:]) for v in seed_set if r.provenance[v].startswith("in")
    )
    if not evaluate(c, assignment):
        raise AssertionError(
            "input projection of a small target set failed to satisfy the circuit"
        )
    return assignment


def _incidence_layer(
    b: InstanceBuilder, g: Graph, vertex_thr: Callable[[int], int], copies: int
) -> list[int]:
    """Add the vertex side (ids 1..n, tags `v<i>`) and `copies` edge-side
    vertices of threshold 2 per source edge, each adjacent to both
    endpoints; returns the edge-side ids in build order.

    Edge-side tags are `e<u>-<v>`, or `e<u>-<v>.<j>` for copy j when there is
    more than one copy.
    """
    for v in range(1, g.n + 1):
        b.add_vertex(vertex_thr(v), f"v{v}")
    edge_side = []
    for u, v in g.edges:
        for j in range(1, copies + 1):
            tag = f"e{u}-{v}" if copies == 1 else f"e{u}-{v}.{j}"
            edge_side.append(b.add_vertex(2, tag, nbrs=(u, v)))
    return edge_side


def clique_to_max_influence(g: Graph, k: int, *, h: int = 1) -> ReducedInstance:
    """Incidence graph plus h replicated counter layers: a k-clique seed
    yields closed influence of at least k + (h+1)C(k,2) + 4hC(k,2)^2, while
    without a k-clique every k-seed stays below g = k + C(k,2) + 4C(k,2)^2.

    Layout: vertex side (threshold = source degree), edge side (threshold
    2), then the z layers (threshold C(k,2)), then gadget interiors.
    Requires k >= 4 so that k < C(k,2).  h defaults to 1; the result's
    params are `GapParameters.with_h(k, h, "clique")`.  A build of more
    than `BUILD_SIZE_LIMIT` vertices plus edges is refused before it
    starts.
    """
    if k < 4:
        raise ValueError("clique construction requires k >= 4")
    params = GapParameters.with_h(k, h, "clique")
    _check_build_size("clique", *_gap_build_size("clique", g, k, h))

    c2 = comb(k, 2)
    b = InstanceBuilder()
    edge_vertex = _incidence_layer(b, g, lambda v: max(1, g.degree(v)), 1)
    z: dict[tuple[int, int], int] = {}
    for layer in range(1, h + 1):
        for j in range(1, c2 + 1):
            z[layer, j] = b.add_vertex(c2, f"z{layer}.{j}")
    for ev in edge_vertex:
        for j in range(1, c2 + 1):
            b.add_directed_edge_gadget(ev, z[1, j])
    for layer in range(1, h):
        for j in range(1, c2 + 1):
            for t in range(1, c2 + 1):
                b.add_directed_edge_gadget(z[layer, j], z[layer + 1, t])
    return b.build("clique-max-influence", source_graph=g, k=k, params=params)


def is_to_influence_decision(g: Graph, k: int, mode: str = "closed") -> ReducedInstance:
    """Incidence graph with thresholds 1 on the vertex side and 2 on the
    edge side, each source edge carried by r = max(1, k-1) edge-side copies:
    a size-k seed keeps closed influence at k (open influence at 0) exactly
    when it is an independent set of the source graph.

    A seed stays put only if it is activation-closed.  One that holds an
    edge copy activates an endpoint unless it holds both endpoints, and
    then it holds at most k-2 of that edge's copies, so an unseeded copy
    activates; a vertex-side seed holding both endpoints of an edge
    activates that edge's copies.  So every closed size-k seed is a
    vertex-side independent set, and every independent set is closed.

    The decision bound ell is k for the closed variant and 0 for the open
    variant.  A build of more than `BUILD_SIZE_LIMIT` vertices plus edges
    is refused before it starts.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    if not 0 <= k <= g.n:
        raise ValueError(f"k must lie in 0..{g.n}")
    _check_build_size("is-decision", *_gap_build_size("min-closed", g, k, 0))
    b = InstanceBuilder()
    _incidence_layer(b, g, lambda v: 1, max(1, k - 1))
    return b.build(
        "independence-influence-decision",
        source_graph=g,
        k=k,
        ell=k if mode == "closed" else 0,
    )


def is_to_min_closed_influence(g: Graph, k: int, *, h: int = 1) -> ReducedInstance:
    """Incidence graph (r = max(1, k-1) edge-side copies per source edge, as
    in `is_to_influence_decision`) plus h trigger vertices joined completely
    to the edge side: minimum closed influence over size-k seeds is exactly
    k when the source graph has a size-k independent set and at least
    k + h + 1 otherwise.

    Without an independent set, no size-k seed is activation-closed: the
    argument of `is_to_influence_decision` carries over, and a trigger in
    the seed lights the edge copies of any seeded vertex of positive degree
    (a trigger beside k-1 degree-0 vertices cannot occur, since those plus
    any other vertex would be independent).  For h >= 2 an active edge copy
    then lights every trigger, the whole edge side (r*m vertices for m
    source edges) and every vertex of positive degree: at least
    h + r*m + 2 >= k + h + 1 vertices.  For h = 1
    a case check on where the seed lies gives the same bound.  Degree-0
    source vertices need no special care.  h defaults to 1; the result's
    params are `GapParameters.with_h(k, h, "min-closed")`.  A build of more
    than `BUILD_SIZE_LIMIT` vertices plus edges is refused before it
    starts.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in 1..{g.n}")
    params = GapParameters.with_h(k, h, "min-closed")
    _check_build_size("min-closed", *_gap_build_size("min-closed", g, k, h))

    b = InstanceBuilder()
    edge_vertex = _incidence_layer(b, g, lambda v: 1, max(1, k - 1))
    for i in range(1, h + 1):
        b.add_vertex(1, f"f{i}", nbrs=edge_vertex)
    return b.build("independence-min-closed", source_graph=g, k=k, params=params)
