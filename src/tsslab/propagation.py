"""Deterministic round-based threshold activation.

A vertex activates once at least thr(v) of its neighbors are active; rounds
are synchronous, so every count in round i+1 is measured against the set
active after round i.  The process is a closure operator: monotone in the
seed, idempotent, and it reaches its fixpoint within |V| rounds.

Every one-shot run (`activate`, `activate_round`, `is_target_set`,
`influence`) goes through one kernel, `_rounds`.  The `Propagator` journal
serves only the internal levels of the exhaustive scans, which push and
pop seeds around a shared prefix; a scan's leaves, the target-set kernel
and the greedy heuristic's candidates ask `Propagator.gain`, which leaves
the journal alone.

Both keep one countdown list and no status array: need[v] is the number
of active neighbours v still lacks, and need[v] == 0 exactly when v is
active.  A seed's entry is set to 0, and a vertex fires when a count-down
brings its entry to 0.  A visit reads the neighbour's entry once and
skips it when it is 0, so a settled vertex, seed or fired, is read but
never written, no entry goes below 0, and nothing fires twice.

`activate` runs with the cyclic garbage collector paused, as
`tsslab.instance` describes; `influence` and `is_target_set` do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .instance import Instance, _gc_paused


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

    The state is the module's countdown list, need[v] == 0 exactly when v
    is active, plus the activation list.  need starts at thr(v), capped at
    deg(v) + 1, which no neighbour count reaches either.  push_one/pop_to
    form an undo journal, which the internal levels of exhaustive seed-set
    scans use to share the propagation work of common prefixes: the trail
    lists every count-down, a seed's own countdown to 0 included (the seed
    once per unit), so pop_to only adds the trail back and cuts the
    activation list.  `gain` answers what one more seed would activate
    without a journal entry, which is how scan leaves, the target-set
    kernel and greedy candidates are evaluated.  A limit on either, on the
    active count or on the answer's length, stops the cascade there.  Not
    thread-safe: use one Propagator per thread.
    """

    __slots__ = ("n", "_adj", "_need", "_active", "_trail")

    def __init__(self, inst: Instance):
        self.n = inst.n
        self._adj = adj = inst.graph.adj
        self._need = [t if t <= len(a) else len(a) + 1 for t, a in zip(inst.thr, adj)]
        self._active: list[int] = []
        self._trail: list[int] = []

    def push_one(self, v: int, limit: int | None = None) -> tuple[int, int]:
        """Activate v (if inactive) and cascade to the fixpoint.

        With a limit, the cascade stops once `limit` vertices are active
        (the seed always fires), which leaves the engine fit only for
        active_count and pop_to.
        """
        if not 0 < v <= self.n:
            raise ValueError(f"seed vertex {v} out of range 1..{self.n}")
        trail = self._trail
        token = (len(self._active), len(trail))
        c = self._need[v]
        if c:
            trail += [v] * c
            if limit is None:
                self._cascade(v, self._active, trail)
            else:
                self._cascade_to(v, self._active, trail, limit)
        return token

    def gain(self, v: int, limit: int | None = None) -> tuple[int, ...]:
        """Vertices push_one(v) would activate, in the same order; with a
        limit, only the first `limit` of them, and at least v.

        The engine is left exactly as it was and no journal entry is made:
        when no neighbour of v lacks exactly one active neighbour, the
        answer is (v,) without a write; otherwise the cascade runs into
        local lists and is undone from them.
        """
        if not 0 < v <= self.n:
            raise ValueError(f"seed vertex {v} out of range 1..{self.n}")
        need = self._need
        c = need[v]
        if not c:
            return ()
        for w in self._adj[v]:
            if need[w] == 1:
                break
        else:
            return (v,)
        new: list[int] = []
        trail: list[int] = []
        if limit is None:
            self._cascade(v, new, trail)
        else:
            self._cascade_to(v, new, trail, limit)
        for w in trail:
            need[w] += 1
        need[v] = c
        return tuple(new)

    def _cascade(self, v: int, active: list[int], trail: list[int]) -> None:
        """Activate the inactive vertex v and everything it sets off,
        appending each activation to `active` and each count-down to
        `trail`."""
        adj = self._adj
        need = self._need
        need[v] = 0
        active.append(v)
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                c = need[w]
                if c:
                    c -= 1
                    need[w] = c
                    trail.append(w)
                    if not c:
                        active.append(w)
                        stack.append(w)

    def _cascade_to(self, v: int, active: list[int], trail: list[int], limit: int) -> None:
        """`_cascade`, stopped once `active` holds `limit` vertices.  A
        separate copy keeps the unbounded loop free of the test."""
        adj = self._adj
        need = self._need
        need[v] = 0
        active.append(v)
        room = limit - len(active)
        if room <= 0:
            return
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                c = need[w]
                if c:
                    c -= 1
                    need[w] = c
                    trail.append(w)
                    if not c:
                        active.append(w)
                        room -= 1
                        if not room:
                            return
                        stack.append(w)

    def pop_to(self, token: tuple[int, int]) -> None:
        """Undo every activation and count-down made since `token`."""
        la, lt = token
        need = self._need
        trail = self._trail
        for w in trail[lt:]:
            need[w] += 1
        del trail[lt:]
        del self._active[la:]

    def active_count(self) -> int:
        return len(self._active)

    def is_full(self) -> bool:
        return len(self._active) == self.n

    def activated_since(self, token: tuple[int, int]) -> list[int]:
        """Vertices activated since `token`, in activation order."""
        return self._active[token[0] :]


def _rounds(inst: Instance, seed_list: list[int]) -> list[list[int]]:
    """Synchronous round structure from a checked seed: [seed, new-in-round-1, ...].

    On a fresh countdown list (see the module docstring), a vertex fires in
    the round its entry reaches 0; the list is thrown away after, so no
    trail or reset is needed.  A round lists its vertices in firing order,
    unsorted: every caller freezes, counts or unions them.
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
                c = need[w]
                if c:
                    c -= 1
                    need[w] = c
                    if not c:
                        nxt.append(w)
        if not nxt:
            return rounds
        rounds.append(nxt)
        frontier = nxt


def activate_round(inst: Instance, active: Iterable[int]) -> frozenset[int]:
    """One synchronous step: active plus every vertex meeting its threshold.

    All neighbor counts are measured against the input set, never against
    same-round activations; this is round 1 of the kernel seeded with it.
    """
    rounds = _rounds(inst, _check_seed(inst, active))
    return frozenset(rounds[0]).union(*rounds[1:2])


@_gc_paused
def activate(inst: Instance, seed: Iterable[int]) -> PropagationTrace:
    """Run the activation process from `seed` to its unique fixpoint."""
    rounds = _rounds(inst, _check_seed(inst, seed))
    frozen = tuple(map(frozenset, rounds))
    return PropagationTrace(
        seed=frozen[0],
        rounds=frozen,
        final_active=frozenset().union(*rounds),
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
