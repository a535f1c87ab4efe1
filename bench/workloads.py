"""The benchmark's three workloads: inputs from a seed, timed calls, checks.

Each workload builds a `Batch`: a fixed list of calls made in order by one
caller (a closed loop, single-threaded, solver `threads` left at 1).  A call
runs the library on inputs generated during set-up; its output is checked
afterwards, outside the timed region, against the naive oracles in
`tsslab.verify` and, at the default seed, against the recorded results.

Inputs are drawn so that the cost of a batch barely depends on the seed:
each input pool is sorted by the call times frozen in CATALOGUE and split
into equal chunks, and one member is drawn from every chunk.  A different
seed picks different members with the same cost profile.  See METHOD.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from time import perf_counter as _clock
from typing import Callable

from tsslab import circuits, cli, gadgets, instance, propagation, reductions, solvers, verify

MIN_CLOSED_TRIGGERS = 3


@dataclass
class Call:
    key: str  # stable id within the workload; keys the recorded results
    kind: str  # context label for the trace
    run: Callable[[dict], object]  # the timed library calls; dict is per-pass scratch
    check: Callable[[object], list[str]]  # untimed oracle check: problems found
    summary: Callable[[object], object]  # JSON-able result, compared across passes


@dataclass
class Scan:
    """Output of a call whose time is dominated by an exhaustive solver scan."""

    results: list
    solve_s: float
    explored: int
    extra: dict = field(default_factory=dict)


@dataclass
class CliOutput:
    code: int
    stdout: str


@dataclass
class Batch:
    calls: list[Call]
    digest: str  # sha256 of the canonical form of every generated input
    cleanup: Callable[[], None] = lambda: None
    # Calls run once, untimed, before the first pass.  The scan workloads
    # warm up on their cheapest stratum, so set-up time does not depend on
    # which input the seed happened to put first.
    warm: list[Call] | None = None

    def __post_init__(self) -> None:
        if self.warm is None:
            kinds: dict = {}
            for call in self.calls:
                kinds.setdefault(call.kind, call)
            self.warm = list(kinds.values())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canon(inst) -> tuple:
    return (inst.n, inst.graph.edges, inst.thr)


def _stratified(rng: random.Random, items: list, picks: int) -> list:
    """One item from each of `picks` equal chunks of the sorted `items`."""
    ordered = sorted(items)
    bounds = [len(ordered) * i // picks for i in range(picks + 1)]
    return [ordered[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def _seed_list(seed) -> list[int] | None:
    return sorted(seed) if seed is not None else None


# ---------------------------------------------------------------------------
# circuit-target-set


CIRCUIT_PICKS = 140
# (inputs, minimum weight) -> count, drawn from verify.random_circuit.  Only
# light classes: a random weight-3 circuit costs anything from 24 to 200 ms.
RANDOM_CIRCUIT_QUOTA = {(3, 2): 2, (3, 1): 5, (2, 2): 1, (2, 1): 2}


def _circuit_call(key: str, c) -> Call:
    def run(scratch):
        r = reductions.mcs_to_tss(c)
        t0 = _clock()
        res = solvers.optimal_target_set(r.instance, size_cap=c.n_inputs)
        solve_s = _clock() - t0
        assignment = reductions.map_target_set_to_assignment(r, res.seed)
        return Scan([res], solve_s, res.explored, {"reduced": r, "assignment": assignment})

    def check(out: Scan) -> list[str]:
        res = out.results[0]
        r = out.extra["reduced"]
        wanted = circuits.min_weight_satisfying(c)
        problems = []
        if not res.optimal or res.seed is None:
            return [f"no optimal target set (optimal={res.optimal})"]
        if res.value != len(wanted):
            problems.append(f"value {res.value} != min satisfying weight {len(wanted)}")
        if len(res.seed) != res.value:
            problems.append(f"witness size {len(res.seed)} != value {res.value}")
        if len(verify.naive_closure(r.instance, res.seed)) != r.instance.n:
            problems.append(f"witness {sorted(res.seed)} is not a target set")
        a = out.extra["assignment"]
        if not circuits.evaluate(c, a) or len(a) > res.value:
            problems.append(f"assignment {sorted(a)} does not satisfy within weight")
        return problems

    def summary(out: Scan):
        res = out.results[0]
        return {
            "value": res.value,
            "seed": _seed_list(res.seed),
            "assignment": sorted(out.extra["assignment"]),
        }

    return Call(key, "target", run, check, summary)


def build_circuit_target_set(seed: int, workdir: Path) -> Batch:
    rng = random.Random(seed)
    family = verify.enumerate_small_circuits(3, 3)
    costs = load_catalogue()["circuit_s"]
    chosen = [family[i] for _, i in _stratified(rng, list(zip(costs, range(len(family)))),
                                                 CIRCUIT_PICKS)]
    need = dict(RANDOM_CIRCUIT_QUOTA)
    while any(need.values()):
        c = verify.random_circuit(rng, 3, 3)
        cls = (c.n_inputs, len(circuits.min_weight_satisfying(c)))
        if need.get(cls):
            need[cls] -= 1
            chosen.append(c)
    cheapest = chosen[0]
    rng.shuffle(chosen)
    calls = [_circuit_call(f"c{i:03d}", c) for i, c in enumerate(chosen)]
    digest = _sha(repr([circuits.write_circuit(c) for c in chosen]))
    warm = [call for call, c in zip(calls, chosen) if c is cheapest]
    return Batch(calls, digest, warm=warm)


# ---------------------------------------------------------------------------
# influence-scan


MIN_POOL = 1500
MIN_POOL_SEED = 0
MAX_POOL = 300
MAX_POOL_SEED = 0
MIN_PICKS = 120
MAX_SIZES = (22, 24, 26, 28, 30)
MAX_PICKS = 32
MAX_K = 4
MODES = ("closed", "open")
CATALOGUE = Path(__file__).resolve().parent / "data" / "catalogue.json"


def min_closed_instance(g, h: int = MIN_CLOSED_TRIGGERS):
    """Criterion-6 shape built directly: vertex side (threshold 1), one edge
    vertex per source edge (threshold 2), h triggers (threshold 1) joined to
    every edge vertex."""
    n, m = g.n, g.m
    edges = []
    for i, (u, v) in enumerate(g.edges, start=1):
        edges += [(u, n + i), (v, n + i)]
    for j in range(1, h + 1):
        edges += [(n + i, n + m + j) for i in range(1, m + 1)]
    thr = [1] * n + [2] * m + [1] * h
    return instance.Instance(instance.Graph(n + m + h, edges), thr)


def _min_call(key: str, g) -> Call:
    inst = min_closed_instance(g)
    ks = range(1, min(MAX_K, g.n) + 1)

    def run(scratch):
        t0 = _clock()
        results = [solvers.k_influence(inst, k, "closed", "min") for k in ks]
        return Scan(results, _clock() - t0, sum(r.explored for r in results), {"instance": inst})

    def check(out: Scan) -> list[str]:
        problems = []
        for k, res in zip(ks, out.results):
            if res.seed is None or len(res.seed) != k:
                problems.append(f"k={k}: witness {res.seed} is not of size {k}")
                continue
            got = len(verify.naive_closure(inst, res.seed))
            if got != res.value:
                problems.append(f"k={k}: witness closes to {got}, reported {res.value}")
            if verify.has_independent_set(g, k):
                if res.value != k:
                    problems.append(f"k={k}: independent set exists but optimum {res.value}")
            elif res.value < k + MIN_CLOSED_TRIGGERS + 1:
                problems.append(f"k={k}: no independent set but optimum {res.value}")
        return problems

    def summary(out: Scan):
        return [[r.k, r.value, _seed_list(r.seed)] for r in out.results]

    return Call(key, "influence_min", run, check, summary)


def _max_call(key: str, inst, mode: str, rng: random.Random) -> Call:
    probes = [
        tuple(rng.sample(range(1, inst.n + 1), rng.randint(1, MAX_K))) for _ in range(20)
    ]

    def run(scratch):
        t0 = _clock()
        res = solvers.k_influence(inst, MAX_K, mode, "max")
        return Scan([res], _clock() - t0, res.explored, {"instance": inst})

    def value_of(seed) -> int:
        final = verify.naive_closure(inst, seed)
        return len(final) if mode == "closed" else len(final) - len(seed)

    def check(out: Scan) -> list[str]:
        res = out.results[0]
        if res.seed is None or len(res.seed) > MAX_K:
            return [f"witness {res.seed} is not of size <= {MAX_K}"]
        problems = []
        if value_of(res.seed) != res.value:
            problems.append(f"witness achieves {value_of(res.seed)}, reported {res.value}")
        better = [p for p in probes if value_of(p) > res.value]
        if better:
            problems.append(f"seed {list(better[0])} beats the reported maximum {res.value}")
        return problems

    def summary(out: Scan):
        res = out.results[0]
        return [res.value, _seed_list(res.seed)]

    return Call(key, "influence_max", run, check, summary)


def load_catalogue() -> dict:
    return json.loads(CATALOGUE.read_text())


def min_pool() -> list:
    """The min-goal source graphs, the same for every seed (like the
    enumerated circuit family): a pool drawn per seed shifts the heavy
    tail, and with it the pass's cost, by about 10 %."""
    rng = random.Random(MIN_POOL_SEED)
    return [verify.random_graph_min_degree_one(rng, 2, 8) for _ in range(MIN_POOL)]


def max_configs() -> list:
    """Max-goal instance configurations, the same for every seed."""
    rng = random.Random(MAX_POOL_SEED)
    return [
        instance.GeneratorConfig(
            n=MAX_SIZES[i % len(MAX_SIZES)],
            edge_probability=rng.uniform(0.1, 0.3),
            threshold_mode=rng.choice(("majority", "uniform")),
            rng_seed=rng.randrange(2**32),
        )
        for i in range(MAX_POOL)
    ]


def build_influence_scan(seed: int, workdir: Path) -> Batch:
    rng = random.Random(seed)
    catalogue = load_catalogue()
    pool = min_pool()
    keyed = list(zip(catalogue["min_pool_s"], range(len(pool))))
    graphs = [pool[i] for _, i in _stratified(rng, keyed, MIN_PICKS)]
    calls = [_min_call(f"min{j:03d}", g) for j, g in enumerate(graphs)]
    configs = max_configs()
    entries = [
        (cost, mode, i)
        for i, costs in enumerate(catalogue["max_s"])
        for mode, cost in zip(MODES, costs)
    ]
    sources = []
    for j, (_, mode, i) in enumerate(_stratified(rng, entries, MAX_PICKS)):
        inst = instance.generate_random(configs[i])
        sources.append((_canon(inst), mode))
        calls.append(_max_call(f"max{j:03d}", inst, mode, rng))
    warm = [calls[0], calls[len(graphs)]]
    rng.shuffle(calls)
    digest = _sha(repr(([(g.n, g.edges) for g in graphs], sources)))
    return Batch(calls, digest, warm=warm)


def measure_catalogue(rounds: int = 5) -> dict:
    """Each pool input's call time, scaled by the reference kernel
    (refkernel.py) and the median over `rounds` interleaved rounds.  What
    an input costs (where a scan stops, how large its cascades are) cannot
    be told cheaply from the input, so the costs are measured once, at the
    commit that added the benchmark, and frozen in CATALOGUE; the workloads
    draw their inputs stratified by them.
    """
    import refkernel

    probe_rng = random.Random(0)
    calls = {
        "circuit_s": [_circuit_call("", c) for c in verify.enumerate_small_circuits(3, 3)],
        "min_pool_s": [_min_call("", g) for g in min_pool()],
        "max_s": [
            _max_call("", inst, mode, probe_rng)
            for inst in map(instance.generate_random, max_configs())
            for mode in MODES
        ],
    }
    times: dict = {part: [[] for _ in cs] for part, cs in calls.items()}
    before = refkernel.kernel_s()
    for _ in range(rounds):
        for part, cs in calls.items():
            for i, call in enumerate(cs):
                t0 = _clock()
                call.run({})
                latency = _clock() - t0
                after = refkernel.kernel_s()
                times[part][i].append(latency * 2 * refkernel.NOMINAL_S / (before + after))
                before = after
    costs = {part: [statistics.median(ts) for ts in per] for part, per in times.items()}
    maxs = costs["max_s"]
    costs["max_s"] = [maxs[i : i + len(MODES)] for i in range(0, len(maxs), len(MODES))]
    return costs


# ---------------------------------------------------------------------------
# build-cascade


CASCADE_SOURCES = 3
CASCADES_PER_SOURCE = 20
ORACLES_PER_SOURCE = 2
CASCADE_SEED_SIZE = 30
CLI_CALLS = 8
REWRITE_VERTICES = 150_000
REWRITE_CASCADES = 10  # with 1 rewrite and 3 generations, p90 falls mid-group
# Random 12-vertex seed sets tried per drawn rewrite source before another
# source is drawn: on some sources almost none of them activates everything.
REWRITE_SEED_TRIES = 100


def rewrite_size(inst) -> int:
    """Vertex count of reduce_thresholds_to_two(inst), from degrees and
    thresholds: 4 per relay gadget, and 9d^2 - 4d + 4 for the counter grid
    of a vertex with degree d and 2 < threshold <= d."""
    total = inst.n
    for v in range(1, inst.n + 1):
        d, t = inst.graph.degree(v), inst.thr[v]
        if t <= 2:
            total += 4 * d
        elif t <= d:
            total += 9 * d * d - 4 * d + 4
    return total


def _format_rounds(rounds) -> str:
    """The `propagate` subcommand's output, rebuilt from an oracle trace."""
    seed = rounds[0]
    final = frozenset().union(*rounds)
    lines = ["seed " + " ".join(map(str, sorted(seed)))]
    for i, newly in enumerate(rounds[1:], start=1):
        lines.append(f"round {i} " + " ".join(map(str, sorted(newly))))
    lines.append(f"rounds {len(rounds) - 1}")
    lines.append(f"closed {len(final)}")
    lines.append(f"open {len(final) - len(seed)}")
    return "\n".join(lines) + "\n"


def _write_canonical(inst) -> str:
    out = [f"tss {inst.n} {inst.m}"]
    out += [f"t {v} {inst.thr[v]}" for v in range(1, inst.n + 1)]
    out += [f"e {u} {v}" for u, v in inst.graph.edges]
    return "\n".join(out) + "\n"


def _clamped_constant(inst, c: int) -> bool:
    return all(
        inst.thr[v] == max(1, min(c, max(1, inst.graph.degree(v))))
        for v in range(1, inst.n + 1)
    )


def _trace_problems(inst, trace) -> list[str]:
    """Cheap structural checks on an engine trace (full recount is done by
    the timed trace_violations calls)."""
    problems = []
    if not trace.seed <= trace.final_active:
        problems.append("seed not contained in the final set")
    if verify.naive_round(inst, trace.final_active) != trace.final_active:
        problems.append("final set is not a fixpoint")
    if sum(len(r) for r in trace.rounds) != len(trace.final_active):
        problems.append("rounds overlap")
    return problems


def _trace_summary(trace):
    rounds = _sha(repr([sorted(r) for r in trace.rounds]))
    return [len(trace.final_active), trace.round_count, rounds]


def _cli(argv: list[str]) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliOutput(code, buf.getvalue())


def _cli_summary(out: CliOutput):
    return [out.code, len(out.stdout), _sha(out.stdout)]


def build_build_cascade(seed: int, workdir: Path) -> Batch:
    rng = random.Random(seed)
    calls: list[Call] = []
    digest_parts: list = []

    for s in range(CASCADE_SOURCES):
        cfg = instance.GeneratorConfig(3000, 0.003, "constant", rng.randrange(2**32), 2)
        src = instance.generate_random(cfg)
        seeds = [
            tuple(sorted(rng.sample(range(1, src.n + 1), CASCADE_SEED_SIZE)))
            for _ in range(CASCADES_PER_SOURCE)
        ]
        digest_parts.append((_canon(src), seeds))
        calls += _source_calls(f"s{s}", cfg, src, seeds)

    red_seeds: list = []
    while len(red_seeds) < REWRITE_CASCADES:
        while True:
            cfg = instance.GeneratorConfig(60, 0.3, "uniform", rng.randrange(2**32))
            small = instance.generate_random(cfg)
            if abs(rewrite_size(small) - REWRITE_VERTICES) <= REWRITE_VERTICES // 100:
                break
        red_seeds = []
        for _ in range(REWRITE_SEED_TRIES):
            seed_set = tuple(sorted(rng.sample(range(1, small.n + 1), 12)))
            if len(verify.naive_closure(small, seed_set)) == small.n:
                red_seeds.append(seed_set)
                if len(red_seeds) == REWRITE_CASCADES:
                    break
    digest_parts.append((_canon(small), red_seeds))
    calls += _reduction_calls(small, red_seeds)

    g = verify.random_graph(rng, 8, rng.uniform(0.5, 0.8))
    digest_parts.append((g.n, g.edges))
    calls.append(_clique_call(g))
    calls.append(_padding_call(6, "const:4"))

    workdir.mkdir(parents=True, exist_ok=True)
    prop_cfg = instance.GeneratorConfig(400, 0.01, "constant", rng.randrange(2**32), 2)
    prop_src = instance.generate_random(prop_cfg)
    path = workdir / f"propagate-{os.getpid()}.tss"
    path.write_text(_write_canonical(prop_src), encoding="utf-8")
    gen_seeds = [rng.randrange(2**31) for _ in range(CLI_CALLS)]
    prop_seeds = [sorted(rng.sample(range(1, 401), 20)) for _ in range(CLI_CALLS)]
    digest_parts.append((_canon(prop_src), gen_seeds, prop_seeds))
    for i, gs in enumerate(gen_seeds):
        calls.append(_cli_gen_call(f"cli.gen{i}", gs))
    for i, ps in enumerate(prop_seeds):
        calls.append(_cli_propagate_call(f"cli.prop{i}", path, prop_src, ps))

    return Batch(calls, _sha(repr(digest_parts)), lambda: path.unlink(missing_ok=True))


def _source_calls(tag: str, cfg, src, seeds) -> list[Call]:
    calls = []

    def gen_run(scratch):
        return instance.generate_random(cfg)

    def gen_check(inst) -> list[str]:
        problems = []
        if inst != src:
            problems.append("regenerated instance differs from the set-up draw")
        if inst.n != cfg.n or not _clamped_constant(inst, cfg.constant):
            problems.append("thresholds do not follow the constant rule")
        return problems

    calls.append(Call(f"{tag}.generate", "generate", gen_run, gen_check,
                      lambda inst: _sha(repr(_canon(inst)))))

    def write_run(scratch):
        text = instance.write_instance(src)
        scratch[f"{tag}.text"] = text
        return text

    def write_check(text) -> list[str]:
        return [] if text == _write_canonical(src) else ["text differs from the format"]

    calls.append(Call(f"{tag}.write", "write", write_run, write_check,
                      lambda text: [len(text), _sha(text)]))

    def parse_run(scratch):
        return instance.parse_instance(scratch[f"{tag}.text"])

    calls.append(Call(f"{tag}.parse", "parse", parse_run,
                      lambda inst: [] if inst == src else ["round trip changed the instance"],
                      lambda inst: _sha(repr(_canon(inst)))))

    for j, seed in enumerate(seeds):
        def act_run(scratch, seed=seed, j=j):
            trace = propagation.activate(src, seed)
            if j < ORACLES_PER_SOURCE:
                scratch[f"{tag}.trace{j}"] = trace
            return trace

        calls.append(Call(f"{tag}.activate{j}", "cascade", act_run,
                          lambda trace: _trace_problems(src, trace), _trace_summary))
        if j < ORACLES_PER_SOURCE:
            def oracle_run(scratch, j=j):
                return verify.trace_violations(src, scratch[f"{tag}.trace{j}"])

            calls.append(Call(f"{tag}.oracle{j}", "oracle", oracle_run,
                              lambda problems: list(problems), list))
    return calls


def _reduction_calls(small, seeds) -> list[Call]:
    calls = []

    def reduce_run(scratch):
        r = gadgets.reduce_thresholds_to_two(small)
        scratch["reduced"] = r
        return r

    def reduce_check(r) -> list[str]:
        red = r.instance
        problems = []
        if any(t > 2 for t in red.thr[1:]):
            problems.append("threshold above 2 in the rewrite")
        if not verify.is_bipartite(red.graph):
            problems.append("rewrite is not bipartite")
        kept = tuple(
            t if t <= 2 else 1 if t <= small.graph.degree(v) else 2
            for v, t in enumerate(small.thr[1:], start=1)
        )
        if red.thr[1 : small.n + 1] != kept:
            problems.append("original thresholds not kept")
        if red.n != rewrite_size(small):
            problems.append(f"rewrite has {red.n} vertices, the layout {rewrite_size(small)}")
        return problems

    calls.append(Call("reduce", "reduce", reduce_run, reduce_check,
                      lambda r: [r.instance.n, r.instance.m]))

    for j, seed in enumerate(seeds):
        def run(scratch, seed=seed):
            return propagation.activate(scratch["reduced"].instance, seed)

        def check(trace, seed=seed) -> list[str]:
            want = verify.naive_closure(small, seed)
            got = frozenset(v for v in trace.final_active if v <= small.n)
            if got != want:
                return [f"rewrite activates originals {sorted(got)}, source {sorted(want)}"]
            return []

        calls.append(Call(f"reduce.activate{j}", "cascade", run, check, _trace_summary))
    return calls


def _clique_call(g) -> Call:
    h, k = 3, 4

    def run(scratch):
        return reductions.clique_to_max_influence(g, k, h=h)

    def check(r) -> list[str]:
        c2 = comb(k, 2)
        relays = g.m * c2 + (h - 1) * c2 * c2
        problems = []
        if (r.instance.n, r.instance.m) != (g.n + g.m + h * c2 + 4 * relays, 2 * g.m + 6 * relays):
            problems.append(f"size {r.instance.n}/{r.instance.m} off the layout")
        clique = verify.find_clique(g, k)
        if clique is not None:
            got = len(verify.naive_closure(r.instance, clique))
            if got < r.params.clique_yield:
                problems.append(f"clique {clique} yields {got} < {r.params.clique_yield}")
        return problems

    return Call("clique", "clique", run, check, lambda r: [r.instance.n, r.instance.m])


def _padding_call(k: int, label: str) -> Call:
    rho = reductions.rho_preset(label)

    def run(scratch):
        return reductions.choose_gap_padding(k, rho, "clique", rho_label=label)

    def check(p) -> list[str]:
        if p.x / rho(p.x) < p.g or (p.x > p.g and (p.x - 1) / rho(p.x - 1) >= p.g):
            return [f"x={p.x} is not the least x with x/rho(x) >= {p.g}"]
        return []

    return Call("padding", "padding", run, check, lambda p: [p.g, p.h, p.x])


def _cli_gen_call(key: str, gen_seed: int) -> Call:
    argv = ["gen", "-n", "300", "-p", "0.02", "--thresholds", "constant:2", "--seed", str(gen_seed)]

    def check(out: CliOutput) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}"]
        inst = instance.parse_instance(out.stdout)
        if inst.n != 300 or not _clamped_constant(inst, 2):
            return ["generated instance breaks the constant:2 rule"]
        return []

    return Call(key, "cli", lambda scratch: _cli(argv), check, _cli_summary)


def _cli_propagate_call(key: str, path: Path, src, seeds: list[int]) -> Call:
    argv = ["propagate", "-i", str(path), "-s", ",".join(map(str, seeds))]

    def check(out: CliOutput) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}"]
        if out.stdout != _format_rounds(verify.naive_rounds(src, seeds)):
            return ["stdout differs from the recount oracle's rounds"]
        return []

    return Call(key, "cli", lambda scratch: _cli(argv), check, _cli_summary)


BUILDERS = {
    "circuit-target-set": build_circuit_target_set,
    "influence-scan": build_influence_scan,
    "build-cascade": build_build_cascade,
}
