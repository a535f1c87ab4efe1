"""Gadget constructions and the bipartite thresholds<=2 transformation.

The directed edge gadget is a 4-cycle a-b-c-d with thresholds 1,1,2,1,
attached by edges u-a and c-v.  Seeding u eventually activates v, but no
activity on the v side can ever reach a, so influence flows one way.

The activation gadget for a vertex v with neighbors u_1..u_d and threshold
t builds a triangular grid of counter cells: w^i_j activates exactly when
at least j of u_1..u_i are active, and a final directed edge gadget from
w^d_t releases v.  This simulates any threshold with thresholds <= 2.

Builds are bulk appends.  Every builder edge is created together with its
newer endpoint: `add_vertex` joins the new vertex to checked existing
neighbours, and a relay checks its two endpoints, then appends its four
vertices and six edges.  So no edge can be out of range, a self-loop or a
duplicate, and `build()` assembles its Graph from the builder's edges
without re-validating them.  Thresholds are checked as `add_vertex` and
`set_threshold` take them, so `build()` does not check them again either.
A rejected builder call leaves the builder unchanged.

The builder keeps its edges as one flat list of endpoints, u0, v0, u1,
v1, ..., with u < v in each pair: ints are not tracked by the cyclic
garbage collector, so a build allocates no tracked object per edge before
`build()`.  `build()` pairs the endpoints up inside the graph assembly,
which runs with the collector paused as `tsslab.instance` describes.  The
builder then keeps those edges as the built graph's edge tuple and starts
a new flat list, so the list is freed before the assembly's memory peak,
and a later `build()` still sees every edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .circuits import MonotoneCircuit
from .instance import Graph, Instance


@dataclass
class ReducedInstance:
    """A constructed instance plus provenance and back-mapping data.

    provenance[v] is a single-token tag describing the role of vertex v;
    origin[v] names the immediate predecessor a constructed vertex serves
    (0 for vertices that stand for themselves), so back_map can project any
    vertex set onto the vertices whose machinery it belongs to.
    """

    instance: Instance
    kind: str
    provenance: tuple[str, ...]  # index 0 unused
    origin: tuple[int, ...]  # index 0 unused
    source_instance: Instance | None = None
    source_circuit: MonotoneCircuit | None = None
    source_graph: Graph | None = None
    k: int | None = None
    ell: int | None = None
    params: "object | None" = None

    def tagged(self, prefix: str) -> tuple[int, ...]:
        return tuple(
            v
            for v in range(1, self.instance.n + 1)
            if self.provenance[v].startswith(prefix)
        )

    def back_map(self, vertices: Iterable[int]) -> frozenset[int]:
        """Project each vertex to the vertex it ultimately serves."""
        origin = self.origin
        out = set()
        for v in vertices:
            while origin[v]:
                v = origin[v]
            out.add(v)
        return frozenset(out)

    def provenance_text(self) -> str:
        lines = [f"{v} {self.provenance[v]}" for v in range(1, self.instance.n + 1)]
        return "\n".join(lines) + "\n"


class InstanceBuilder:
    """Grows an instance vertex by vertex, tracking provenance throughout."""

    def __init__(self) -> None:
        self._thr: list[int] = [0]
        self._tags: list[str] = [""]
        self._origin: list[int] = [0]
        self._ends: list[int] = []  # u0, v0, u1, v1, ... with u < v
        self._paired: tuple[tuple[int, int], ...] = ()  # edges of the last build()
        self._next_gadget = 1

    @property
    def vertex_count(self) -> int:
        return len(self._thr) - 1

    def add_vertex(
        self, threshold: int, tag: str, origin: int = 0, nbrs: Sequence[int] = ()
    ) -> int:
        """Append a vertex joined to the existing vertices `nbrs`; returns
        its id.  The threshold, the origin (0..n) and the neighbours
        (distinct, in 1..n) are checked before anything changes."""
        n = len(self._thr) - 1
        _check_threshold(threshold)
        if not 0 <= origin <= n:
            raise ValueError(f"origin {origin} out of range 0..{n}")
        for u in nbrs:
            self._check_vertex(u, "neighbour")
        if len(set(nbrs)) != len(nbrs):
            raise ValueError(f"repeated neighbour in {tuple(nbrs)}")
        v = n + 1
        self._thr.append(threshold)
        self._tags.append(tag)
        self._origin.append(origin)
        ends = [v] * (2 * len(nbrs))
        ends[::2] = nbrs
        self._ends += ends
        return v

    def set_threshold(self, v: int, threshold: int) -> None:
        self._check_vertex(v, "vertex")
        _check_threshold(threshold)
        self._thr[v] = threshold

    def _check_vertex(self, v: int, role: str) -> None:
        n = self.vertex_count
        if not 1 <= v <= n:
            raise ValueError(f"{role} {v} out of range 1..{n}")

    def add_directed_edge_gadget(self, u: int, v: int) -> int:
        """One-way relay from u to v: 4 fresh vertices, 6 fresh edges.
        Returns a, the vertex joined to u; b, c and d are a+1..a+3, and c
        is joined to v.

        Both endpoints are checked before anything changes.  The six edges
        then go in unchecked, each as (smaller, larger): each touches one of
        the four fresh vertices.
        """
        n = len(self._thr) - 1
        if u == v:
            raise ValueError("directed edge gadget endpoints must differ")
        if not (0 < u <= n and 0 < v <= n):
            self._check_vertex(u, "directed edge gadget endpoint")
            self._check_vertex(v, "directed edge gadget endpoint")
        gid = self._next_gadget
        self._next_gadget = gid + 1
        a, b, c, d = n + 1, n + 2, n + 3, n + 4
        self._thr += (1, 1, 2, 1)
        self._tags += (f"d{gid}a", f"d{gid}b", f"d{gid}c", f"d{gid}d")
        self._origin += (u, u, u, u)
        self._ends += (a, b, b, c, c, d, a, d, u, a, v, c)
        return a

    def add_activation_gadget(self, v: int, inputs: Sequence[int], t: int) -> None:
        """Counter grid releasing v once t of the given inputs are active.

        Cell w{v}.{i}.{j} activates exactly when at least j of the first i
        inputs are active; cell wt{v}.{i}.{j} (threshold 2) is its AND step.
        Only used for thresholds above 2: requires 3 <= t <= len(inputs).
        Sets thr(v) = 1; the final directed edge gadget from the (d, t)
        cell is the only thing that can reach it.  v and every input are
        checked before the first cell is added.
        """
        d = len(inputs)
        if not 3 <= t <= d:
            raise ValueError(f"activation gadget needs 3 <= t <= {d}, got {t}")
        self._check_vertex(v, "activation gadget owner")
        for u in inputs:
            self._check_vertex(u, "activation gadget input")
        relay = self.add_directed_edge_gadget
        w: dict[tuple[int, int], int] = {}
        for i in range(1, d + 1):
            w[i, 1] = self.add_vertex(1, f"w{v}.{i}.1", origin=v)
            relay(inputs[i - 1], w[i, 1])
            if i > 1:
                relay(w[i - 1, 1], w[i, 1])
            for j in range(2, i + 1):
                wt = self.add_vertex(2, f"wt{v}.{i}.{j}", origin=v)
                relay(inputs[i - 1], wt)
                relay(w[i - 1, j - 1], wt)
                w[i, j] = self.add_vertex(1, f"w{v}.{i}.{j}", origin=v)
                relay(wt, w[i, j])
                if j < i:
                    relay(w[i - 1, j], w[i, j])
        relay(w[d, t], v)
        self.set_threshold(v, 1)

    def build(self, kind: str, **fields: object) -> ReducedInstance:
        """The instance built so far; `fields` fill the optional
        `ReducedInstance` fields (source, k, ell, params)."""
        # The flat list is handed over, so it is freed as soon as it has been
        # paired up, before the assembly's peak; its edges live on as pairs.
        it = iter(self._ends)
        self._ends = []
        g = Graph._trusted(self.vertex_count, chain(self._paired, zip(it, it)))
        self._paired = g.edges
        inst = Instance._trusted(g, self._thr)
        return ReducedInstance(inst, kind, tuple(self._tags), tuple(self._origin), **fields)


def _check_threshold(threshold: int) -> None:
    if not isinstance(threshold, int):
        raise ValueError(f"threshold {threshold!r} is not an integer")
    if threshold < 1:
        raise ValueError(f"threshold {threshold} below 1")


def reduce_thresholds_to_two(inst: Instance) -> ReducedInstance:
    """Rewrite an instance so every threshold is 1 or 2 and the graph is
    bipartite, preserving the minimum target set size exactly.

    The original vertices keep their ids and thresholds; no original edge
    survives.  A vertex with threshold <= 2 receives a directed edge gadget
    from each of its neighbors.  A vertex with 2 < thr(v) <= deg(v) gets an
    activation gadget over its neighbors in ascending id order.  A vertex
    whose threshold exceeds both 2 and its degree can never activate unless
    seeded; it keeps that behavior with threshold 2 and no incoming
    machinery.  back_map projects gadget vertices onto the vertex whose
    machinery they serve, chained down to an original vertex.
    """
    b = InstanceBuilder()
    n = inst.n
    for v in range(1, n + 1):
        b.add_vertex(inst.thr[v], f"v{v}")
    for v in range(1, n + 1):
        t = inst.thr[v]
        deg = inst.graph.degree(v)
        if t <= 2:
            for u in inst.graph.neighbors(v):
                b.add_directed_edge_gadget(u, v)
        elif t <= deg:
            b.add_activation_gadget(v, inst.graph.neighbors(v), t)
        else:
            b.set_threshold(v, 2)
    return b.build("threshold-reduction", source_instance=inst)
