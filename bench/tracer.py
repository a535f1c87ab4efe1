"""Span tracer that times tsslab's public functions from outside the library.

`Tracer.install` replaces each traced function, in every loaded tsslab module
that refers to it, by a timing wrapper; `uninstall` puts the originals back.
Spans are kept in memory and written out by the benchmark when it ends.  A
span's self time is its duration minus the time covered by its traced
children, so time spent in a wrapped callee is charged to the callee's layer.

Hot functions (the scan engine's push/pop pair, called millions of times a
pass) are aggregated only: they add to call counts and self time but leave
no per-call span record.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict
from math import comb

# (layer, attribute path inside tsslab.<layer>, hot)
TARGETS = (
    ("instance", "generate_random", False),
    ("instance", "parse_instance", False),
    ("instance", "write_instance", False),
    ("propagation", "Propagator.push_one", True),
    ("propagation", "Propagator.pop_to", True),
    ("propagation", "activate", False),
    ("propagation", "is_target_set", False),
    ("propagation", "influence", False),
    ("circuits", "evaluate", False),
    ("gadgets", "reduce_thresholds_to_two", False),
    ("reductions", "mcs_to_tss", False),
    ("reductions", "map_target_set_to_assignment", False),
    ("reductions", "clique_to_max_influence", False),
    ("reductions", "choose_gap_padding", False),
    ("solvers", "optimal_target_set", False),
    ("solvers", "k_influence", False),
    ("verify", "enumerate_small_circuits", False),
    ("verify", "random_circuit", False),
    ("verify", "random_graph", False),
    ("verify", "random_graph_min_degree_one", False),
    ("verify", "trace_violations", False),
    ("cli", "main", False),
)


def _scan_total_target(bound, result) -> int:
    """Seeds an exhaustive target-set scan would evaluate up to its answer."""
    inst = bound.arguments["inst"]
    cap = bound.arguments.get("size_cap")
    top = result.value if result.value is not None else min(
        inst.n if cap is None else cap, inst.n
    )
    return sum(comb(inst.n, c) for c in range(top + 1))


def _scan_total_influence(bound, result) -> int:
    """Seeds an exhaustive k-influence scan would evaluate."""
    a = bound.arguments
    universe = a.get("universe")
    size = a["inst"].n if universe is None else len(set(universe))
    exact = a.get("exact_cardinality")
    if exact is None:
        exact = a.get("goal", "max") == "min"
    k = a["k"]
    sizes = [k] if exact else range(min(k, size) + 1)
    return sum(comb(size, c) for c in sizes)


def _count_scan(tracer, fn, total, args, kwargs, result) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.add("explored", result.explored)
    tracer.add("scan_total", total(bound, result))


def _on_result(qualname: str):
    """Counters read from a traced call's result, keyed by the call context."""
    if qualname == "propagation.activate":
        def hook(tracer, fn, args, kwargs, r):
            tracer.add("activated", len(r.final_active))
            tracer.add("rounds", r.round_count)
        return hook
    if qualname == "instance.write_instance":
        return lambda tracer, fn, args, kwargs, r: tracer.add("text_bytes", len(r))
    if qualname == "gadgets.reduce_thresholds_to_two":
        def hook(tracer, fn, args, kwargs, r):
            tracer.add("gadget_vertices", r.instance.n)
            tracer.add("gadget_edges", r.instance.m)
        return hook
    if qualname in ("reductions.mcs_to_tss", "reductions.clique_to_max_influence"):
        return lambda tracer, fn, args, kwargs, r: tracer.add(
            "reduction_vertices", r.instance.n
        )
    if qualname == "solvers.optimal_target_set":
        return lambda tracer, fn, args, kwargs, r: _count_scan(
            tracer, fn, _scan_total_target, args, kwargs, r
        )
    if qualname == "solvers.k_influence":
        return lambda tracer, fn, args, kwargs, r: _count_scan(
            tracer, fn, _scan_total_influence, args, kwargs, r
        )
    return None


class Tracer:
    """Collects spans, per-(context, function) self time and call counts,
    and result counters.  `context` labels the work being done (a call
    kind, "setup" or "check") and keys every aggregate."""

    def __init__(self) -> None:
        self.context = "setup"
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- aggregates -------------------------------------------------------

    def add(self, counter: str, amount: int) -> None:
        self.counts[self.context, counter] += amount

    def take(self) -> dict:
        """Return the aggregates collected so far and start afresh."""
        out = {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        key = (self.context, name)
        self.self_s[key] += dur - frame[2]
        self.calls[key] += 1
        self.spans.append((frame[0], frame[1], self.context, name, start, end))

    @contextlib.contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself around one call."""
        frame = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, start, time.perf_counter())

    def _wrap(self, name: str, fn, hot: bool):
        hook = _on_result(name)
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        tracer = self

        if hot:
            def wrapper(*args, **kwargs):
                frame = [0, 0, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - start
                    if stack:
                        stack[-1][2] += dur
                    key = (tracer.context, name)
                    self_s[key] += dur
                    calls[key] += 1
            return wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name, start, clock())
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.missing = []
        modules = [m for k, m in sys.modules.items() if k == "tsslab" or k.startswith("tsslab.")]
        for layer, path, hot in TARGETS:
            name = f"{layer}.{path}"
            owner = sys.modules.get(f"tsslab.{layer}")
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, hot)
            if outer:  # a method: patch the class only
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
