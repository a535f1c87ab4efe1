"""Deterministic round-based threshold activation.

A vertex activates once at least thr(v) of its neighbors are active; rounds
are synchronous, so every count in round i+1 is measured against the set
active after round i.  The process is a closure operator: monotone in the
seed, idempotent, and it reaches its fixpoint within |V| rounds.

Every one-shot run (`activate`, `activate_round`, `is_target_set`,
`influence`, `Propagator.run`) goes through one countdown kernel, `_rounds`.
The `Propagator` journal serves only the exhaustive scans, which push and
pop seeds around a shared prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .instance import Instance


@dataclass(frozen=True)
class PropagationTrace:
    """Round-by-round record of one activation run.

    rounds[0] is the seed itself; rounds[i] for i >= 1 holds the vertices
    newly activated in round i (each nonempty).  round_count is the number
    of propagation rounds, 0 if the seed is already a fixpoint.
    """

    seed: frozenset[int]
    rounds: tuple[frozenset[int], ...]
    final_active: frozenset[int]
    round_count: int

    @property
    def closed_influence(self) -> int:
        return len(self.final_active)

    @property
    def open_influence(self) -> int:
        return len(self.final_active - self.seed)


def _check_seed(inst: Instance, seed: Iterable[int]) -> list[int]:
    n = inst.n
    out = sorted(set(seed))
    for v in out:
        if not 1 <= v <= n:
            raise ValueError(f"seed vertex {v} out of range 1..{n}")
    return out


class Propagator:
    """Incremental activation engine bound to one immutable instance.

    Keeps per-vertex active-neighbor counters and an activation stack so
    each push/pop pair costs O(work actually done).  push_one/pop_to form an
    undo journal, which lets exhaustive seed-set scans share the propagation
    work of common prefixes; `run` is a one-shot cascade that bypasses the
    journal.  Not thread-safe: use one Propagator per thread.
    """

    __slots__ = ("inst", "n", "_adj", "_thr", "_status", "_count", "_active", "_trail")

    def __init__(self, inst: Instance):
        self.inst = inst
        self.n = inst.n
        self._adj = inst.graph.adj
        self._thr = inst.thr
        self._status = bytearray(inst.n + 1)
        self._count = [0] * (inst.n + 1)
        self._active: list[int] = []
        self._trail: list[int] = []

    def mark(self) -> tuple[int, int]:
        return (len(self._active), len(self._trail))

    def push_one(self, v: int) -> tuple[int, int]:
        """Activate v (if inactive) and cascade to the fixpoint."""
        if not 0 < v <= self.n:
            raise ValueError(f"seed vertex {v} out of range 1..{self.n}")
        status = self._status
        token = (len(self._active), len(self._trail))
        if status[v]:
            return token
        adj = self._adj
        thr = self._thr
        count = self._count
        active = self._active
        trail = self._trail
        status[v] = 1
        active.append(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if status[w]:
                    continue
                c = count[w] + 1
                count[w] = c
                trail.append(w)
                if c == thr[w]:
                    status[w] = 1
                    active.append(w)
                    stack.append(w)
        return token

    def push(self, vertices: Iterable[int]) -> tuple[int, int]:
        token = self.mark()
        for v in _check_seed(self.inst, vertices):
            self.push_one(v)
        return token

    def pop_to(self, token: tuple[int, int]) -> None:
        """Undo every activation and counter bump made since `token`."""
        la, lt = token
        count = self._count
        trail = self._trail
        for w in trail[lt:]:
            count[w] -= 1
        del trail[lt:]
        status = self._status
        active = self._active
        for w in active[la:]:
            status[w] = 0
        del active[la:]

    def reset(self) -> None:
        self.pop_to((0, 0))

    def active_count(self) -> int:
        return len(self._active)

    def is_full(self) -> bool:
        return len(self._active) == self.n

    def activated_since(self, token: tuple[int, int]) -> list[int]:
        """Vertices activated since `token`, in activation order."""
        return self._active[token[0] :]

    def active_set(self) -> frozenset[int]:
        return frozenset(self._active)

    def run(self, seed: Iterable[int]) -> frozenset[int]:
        """Fixpoint reached from `seed` alone, by the one-shot kernel.

        The journal is neither read nor reset: pushed state is left as is.
        """
        return frozenset().union(*_rounds(self.inst, _check_seed(self.inst, seed)))


def _rounds(inst: Instance, seed_list: list[int]) -> list[list[int]]:
    """Synchronous round structure from a checked seed: [seed, new-in-round-1, ...].

    need[v] is the number of active neighbors v still lacks.  Seeds start at
    0; a vertex fires in the round its entry reaches 0, and every later
    decrement drives an active entry negative, so nothing fires twice and no
    status array, trail or reset is needed.
    """
    adj = inst.graph.adj
    need = list(inst.thr)
    for v in seed_list:
        need[v] = 0
    rounds = [seed_list]
    frontier = seed_list
    while True:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                c = need[w] - 1
                need[w] = c
                if not c:
                    nxt.append(w)
        if not nxt:
            return rounds
        nxt.sort()
        rounds.append(nxt)
        frontier = nxt


def activate_round(inst: Instance, active: Iterable[int]) -> frozenset[int]:
    """One synchronous step: active plus every vertex meeting its threshold.

    All neighbor counts are measured against the input set, never against
    same-round activations; this is round 1 of the kernel seeded with it.
    """
    rounds = _rounds(inst, _check_seed(inst, active))
    return frozenset(rounds[0]).union(*rounds[1:2])


def activate(inst: Instance, seed: Iterable[int]) -> PropagationTrace:
    """Run the activation process from `seed` to its unique fixpoint."""
    frozen = tuple(map(frozenset, _rounds(inst, _check_seed(inst, seed))))
    return PropagationTrace(
        seed=frozen[0],
        rounds=frozen,
        final_active=frozenset().union(*frozen),
        round_count=len(frozen) - 1,
    )


def is_target_set(inst: Instance, seed: Iterable[int]) -> bool:
    """True iff seeding `seed` eventually activates every vertex."""
    return sum(map(len, _rounds(inst, _check_seed(inst, seed)))) == inst.n


def influence(inst: Instance, seed: Iterable[int], mode: str = "closed") -> int:
    """Number of vertices activated by `seed`, with or without the seed.

    closed counts the whole fixpoint; open counts the fixpoint minus the
    seed itself.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    seed_list = _check_seed(inst, seed)
    total = sum(map(len, _rounds(inst, seed_list)))
    return total if mode == "closed" else total - len(seed_list)
