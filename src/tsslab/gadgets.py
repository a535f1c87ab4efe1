"""Gadget constructions and the bipartite thresholds<=2 transformation.

The directed edge gadget is a 4-cycle a-b-c-d with thresholds 1,1,2,1,
attached by edges u-a and c-v.  Seeding u eventually activates v, but no
activity on the v side can ever reach a, so influence flows one way.

The activation gadget for a vertex v with neighbors u_1..u_d and threshold
t builds a triangular grid of counter cells: w^i_j activates exactly when
at least j of u_1..u_i are active, and a final directed edge gadget from
w^d_t releases v.  This simulates any threshold with thresholds <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .circuits import MonotoneCircuit
from .instance import Graph, Instance


@dataclass(frozen=True)
class DirectedEdgeGadget:
    gid: int
    source: int
    target: int
    a: int
    b: int
    c: int
    d: int

    @property
    def vertices(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class ActivationGadget:
    owner: int
    inputs: tuple[int, ...]
    t: int
    w: dict[tuple[int, int], int]
    wt: dict[tuple[int, int], int]
    gadgets: tuple[DirectedEdgeGadget, ...]


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

    def tag(self, v: int) -> str:
        return self.provenance[v]

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
        self._edges: set[tuple[int, int]] = set()
        self._next_gadget = 1

    @property
    def vertex_count(self) -> int:
        return len(self._thr) - 1

    def add_vertex(self, threshold: int, tag: str, origin: int = 0) -> int:
        if threshold < 1:
            raise ValueError("threshold below 1")
        self._thr.append(threshold)
        self._tags.append(tag)
        self._origin.append(origin)
        return len(self._thr) - 1

    def add_edge(self, u: int, v: int) -> None:
        n = self.vertex_count
        if u == v or not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"bad edge ({u}, {v})")
        e = (u, v) if u < v else (v, u)
        if e in self._edges:
            raise ValueError(f"duplicate edge ({e[0]}, {e[1]})")
        self._edges.add(e)

    def set_threshold(self, v: int, threshold: int) -> None:
        if threshold < 1:
            raise ValueError("threshold below 1")
        self._thr[v] = threshold

    def threshold(self, v: int) -> int:
        return self._thr[v]

    def add_directed_edge_gadget(self, u: int, v: int) -> DirectedEdgeGadget:
        """One-way relay from u to v: 4 fresh vertices, 6 fresh edges."""
        if u == v:
            raise ValueError("directed edge gadget endpoints must differ")
        gid = self._next_gadget
        self._next_gadget += 1
        a = self.add_vertex(1, f"d{gid}a", origin=u)
        b = self.add_vertex(1, f"d{gid}b", origin=u)
        c = self.add_vertex(2, f"d{gid}c", origin=u)
        d = self.add_vertex(1, f"d{gid}d", origin=u)
        self.add_edge(a, b)
        self.add_edge(b, c)
        self.add_edge(c, d)
        self.add_edge(d, a)
        self.add_edge(u, a)
        self.add_edge(c, v)
        return DirectedEdgeGadget(gid, u, v, a, b, c, d)

    def add_activation_gadget(
        self, v: int, inputs: Sequence[int], t: int
    ) -> ActivationGadget:
        """Counter grid releasing v once t of the given inputs are active.

        Only used for thresholds above 2: requires 3 <= t <= len(inputs).
        Sets thr(v) = 1; the final directed edge gadget from the (d, t)
        cell is the only thing that can reach it.
        """
        d = len(inputs)
        if not 3 <= t <= d:
            raise ValueError(f"activation gadget needs 3 <= t <= {d}, got {t}")
        w: dict[tuple[int, int], int] = {}
        wt: dict[tuple[int, int], int] = {}
        parts: list[DirectedEdgeGadget] = []

        def dg(src: int, dst: int) -> None:
            parts.append(self.add_directed_edge_gadget(src, dst))

        w[1, 1] = self.add_vertex(1, f"w{v}.1.1", origin=v)
        dg(inputs[0], w[1, 1])
        for i in range(2, d + 1):
            w[i, 1] = self.add_vertex(1, f"w{v}.{i}.1", origin=v)
            dg(inputs[i - 1], w[i, 1])
            dg(w[i - 1, 1], w[i, 1])
            for j in range(2, i + 1):
                wt[i, j] = self.add_vertex(2, f"wt{v}.{i}.{j}", origin=v)
                dg(inputs[i - 1], wt[i, j])
                dg(w[i - 1, j - 1], wt[i, j])
                w[i, j] = self.add_vertex(1, f"w{v}.{i}.{j}", origin=v)
                dg(wt[i, j], w[i, j])
                if j < i:
                    dg(w[i - 1, j], w[i, j])
        dg(w[d, t], v)
        self.set_threshold(v, 1)
        return ActivationGadget(v, tuple(inputs), t, w, wt, tuple(parts))

    def build(
        self,
        kind: str,
        *,
        source_instance: Instance | None = None,
        source_circuit: MonotoneCircuit | None = None,
        source_graph: Graph | None = None,
        k: int | None = None,
        ell: int | None = None,
        params: object | None = None,
    ) -> ReducedInstance:
        inst = Instance(Graph(self.vertex_count, self._edges), self._thr[1:])
        return ReducedInstance(
            instance=inst,
            kind=kind,
            provenance=tuple(self._tags),
            origin=tuple(self._origin),
            source_instance=source_instance,
            source_circuit=source_circuit,
            source_graph=source_graph,
            k=k,
            ell=ell,
            params=params,
        )


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
