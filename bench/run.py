"""tsslab benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ./src, never
from an installed copy; without it the run exits with code 2 and prints no
result.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, taken
from passes run with every traced function wrapped.  The exit code is 0
when every output passed its checks, 1 when any failed.  See METHOD.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import refkernel  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DATA_DIR = BENCH_DIR / "data"

DEFAULT_SEED = 1
SETUP_REPEATS = 3


def import_library():
    """Import tsslab from the checkout's src/ and fail loudly otherwise."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tsslab
    except ImportError as exc:
        print(f"error: cannot import tsslab from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(tsslab.__file__).resolve().parent.parent != src.resolve():
        print(f"error: tsslab was imported from {tsslab.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return tsslab


class Checker:
    """Checks each call's output right after the call, outside its timing.

    The first pass runs every oracle check and, when recorded results are
    given, compares with them; later passes must reproduce the first
    pass's results.  Each failure is counted and printed on stderr.  Per
    pass, the checker also totals the solver seconds and seeds explored of
    scan calls and the bytes the CLI printed.
    """

    def __init__(self, workload: str, expected: dict | None) -> None:
        self.workload = workload
        self.expected = expected
        self.failed = 0
        self.reference: list | None = None
        self.check_s = 0.0  # the first pass's full checks
        self.totals: list[dict] = []
        self._summaries: list = []

    def fail(self, key: str, problem: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload} {key}: {problem}", file=sys.stderr)

    def begin_pass(self) -> None:
        self._summaries = []
        self.totals.append({"stdout_bytes": 0})

    def end_pass(self) -> None:
        if self.reference is None:
            self.reference = self._summaries

    def __call__(self, i: int, call, out) -> None:
        t0 = time.perf_counter()
        self._summaries.append(self._check(i, call, out))
        if self.reference is None:
            self.check_s += time.perf_counter() - t0
        self._total(call, out)

    def _check(self, i: int, call, out):
        if isinstance(out, Exception):
            self.fail(call.key, "raised\n" + out.formatted)
            return None
        first = self.reference is None
        try:
            summary = json.loads(json.dumps(call.summary(out)))
            problems = call.check(out) if first else []
        except Exception:  # noqa: BLE001 - a failed check is counted, not fatal
            self.fail(call.key, "check raised\n" + traceback.format_exc())
            return None
        if not first and summary != self.reference[i]:
            problems.append(f"result {summary} differs from the first pass {self.reference[i]}")
        if first and self.expected is not None and summary != self.expected.get(call.key):
            problems.append(f"result {summary} differs from the recorded "
                            f"{self.expected.get(call.key)}")
        for p in problems:
            self.fail(call.key, p)
        return summary

    def _total(self, call, out) -> None:
        from workloads import CliOutput, Scan

        totals = self.totals[-1]
        if isinstance(out, Scan):
            s, e = totals.get(call.kind, (0.0, 0))
            totals[call.kind] = (s + out.solve_s, e + out.explored)
        elif isinstance(out, CliOutput):
            totals["stdout_bytes"] += len(out.stdout)


def run_pass(calls, checker: Checker, tracer=None) -> tuple[list[float], list[float]]:
    """Make every call in order; return their latencies, raw and scaled.

    Each call is bracketed by runs of the reference kernel, and its scaled
    latency is its latency times refkernel.NOMINAL_S over the mean of the
    two kernel times around it (see refkernel.py).  Each output goes to
    `checker` after its call's timing ends and is then dropped, so outputs
    do not pile up over a pass.  A call that raises hands its exception to
    the checker.
    """
    scratch: dict = {}
    latencies, scaled = [], []
    clock = time.perf_counter
    checker.begin_pass()
    before = refkernel.kernel_s()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.context = call.kind
        t0 = clock()
        try:
            if tracer is not None:
                with tracer.root(call.key):
                    out = call.run(scratch)
            else:
                out = call.run(scratch)
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            out = exc
            out.formatted = traceback.format_exc()
        latency = clock() - t0
        if tracer is not None:
            tracer.context = "check"
        after = refkernel.kernel_s()
        latencies.append(latency)
        scaled.append(latency * 2 * refkernel.NOMINAL_S / (before + after))
        before = after
        checker(i, call, out)
        del out
    checker.end_pass()
    return latencies, scaled


def load_expected(workload: str, seed: int, digest: str, problems: list[str]):
    """Recorded results for the default seed, or None for other seeds."""
    path = DATA_DIR / f"expected-{workload}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    recorded = json.loads(path.read_text())
    if recorded["input_digest"] != digest:
        problems.append(f"input digest {digest} differs from the recorded "
                        f"{recorded['input_digest']}: the generators changed")
    return recorded["calls"]


def call_times(per_pass: list[list[float]]) -> list[float]:
    """Each call's scaled latency: its median over the passes."""
    return [statistics.median(col) for col in zip(*per_pass)]


def measure(batch, seconds: float, checker: Checker):
    """Run passes until `seconds` of raw call time are spent (at least one);
    return each pass's raw and scaled latencies."""
    raw: list[list[float]] = []
    scaled: list[list[float]] = []
    while sum(map(sum, raw)) < seconds or not raw:
        r, s = run_pass(batch.calls, checker)
        raw.append(r)
        scaled.append(s)
    return raw, scaled


def warm_up(batch) -> None:
    """Run the batch's warm-up calls once, untimed and unchecked."""
    scratch: dict = {}
    for call in batch.warm:
        try:
            call.run(scratch)
        except Exception:  # noqa: BLE001 - the timed passes will report it
            pass


def set_up(args, workloads, problems: list[str]):
    """Build the batch SETUP_REPEATS times; return it and the median time,
    raw and scaled by the reference kernel times around each build."""
    times, scaled, digests, batch = [], [], set(), None
    before = refkernel.steady_kernel_s()
    for _ in range(SETUP_REPEATS):
        if batch is not None:
            batch.cleanup()
        t0 = time.perf_counter()
        batch = workloads.BUILDERS[args.workload](args.seed, OUT_DIR / "work")
        warm_up(batch)
        times.append(time.perf_counter() - t0)
        after = refkernel.steady_kernel_s()
        scaled.append(times[-1] * 2 * refkernel.NOMINAL_S / (before + after))
        before = after
        digests.add(batch.digest)
    if len(digests) != 1:
        problems.append("the same seed generated different inputs")
    return batch, statistics.median(times), statistics.median(scaled)


def end_to_end(args, workloads):
    import_s = time.perf_counter() - PROCESS_START
    import_scaled = import_s * refkernel.NOMINAL_S / refkernel.steady_kernel_s()
    problems: list[str] = []
    batch, setup_raw, setup_scaled = set_up(args, workloads, problems)
    checker = Checker(args.workload, load_expected(args.workload, args.seed, batch.digest, problems))
    try:
        raw, scaled = measure(batch, args.seconds, checker)
    finally:
        batch.cleanup()
    for p in problems:
        checker.fail("inputs", p)
    times = call_times(scaled)
    attempted = len(batch.calls) * len(raw)
    print(f"input_digest {batch.digest}")
    print(f"passes {len(raw)} calls_per_pass {len(times)} attempted {attempted} "
          f"failed {checker.failed}")
    print(f"failed_ratio {checker.failed / attempted}")
    print("pass_walls_s " + " ".join(f"{sum(p):.4f}" for p in raw))
    print("pass_scaled_walls_s " + " ".join(f"{sum(p):.4f}" for p in scaled))
    raw_times = call_times(raw)
    print(f"raw setup_s {import_s + setup_raw} wall_s {sum(raw_times)} "
          f"call_p50_ms {statistics.median(raw_times) * 1e3} "
          f"call_p90_ms {statistics.quantiles(raw_times, n=10)[8] * 1e3}")
    metrics = {
        "setup_s": (import_scaled + setup_scaled, "s"),
        "wall_s": (sum(times), "s"),
        "call_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "call_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_ratio": (1 - checker.failed / attempted, "1"),
    }
    return attempted, checker.failed, metrics


def traced(args, workloads):
    """Untraced passes for half of --seconds, traced passes for the rest."""
    import layers
    from tracer import Tracer

    problems: list[str] = []
    tracer = Tracer()
    tracer.install()
    batch = workloads.BUILDERS[args.workload](args.seed, OUT_DIR / "work")
    tracer.uninstall()
    setup_agg = tracer.take()
    warm_up(batch)
    checker = Checker(args.workload, load_expected(args.workload, args.seed, batch.digest, problems))
    try:
        raw, scaled = measure(batch, args.seconds / 2, checker)
        tracer.install()
        spans_kept = len(tracer.spans)
        pass_aggs, traced_raw, traced_scaled = [], [], []
        while sum(map(sum, traced_raw)) < args.seconds / 2 or not traced_raw:
            r, t = run_pass(batch.calls, checker, tracer)
            traced_raw.append(r)
            traced_scaled.append(t)
            pass_aggs.append(tracer.take())
            if len(pass_aggs) == 1:
                spans_kept = len(tracer.spans)
    finally:
        tracer.uninstall()
        batch.cleanup()
    del tracer.spans[spans_kept:]
    metrics, unstable = layers.per_layer(
        setup_agg, pass_aggs, checker.totals[: len(raw)], checker.check_s,
        sum(call_times(traced_scaled)) / sum(call_times(scaled)), tracer.missing,
    )
    for p in problems:
        checker.fail("inputs", p)
    for name in unstable:
        checker.fail("trace", f"counter {name} differs between traced passes")
    for name in tracer.missing:
        print(f"missing {name}: not found in this version of tsslab")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    with span_file.open("w") as fh:
        for sid, parent, context, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "context": context,
                                 "name": name, "start": start, "end": end}) + "\n")
    print(f"input_digest {batch.digest}")
    print(f"passes untraced {len(raw)} traced {len(traced_raw)} spans {span_file}")
    attempted = len(batch.calls) * (len(raw) + len(traced_raw))
    return attempted, checker.failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.BUILDERS)}")
    attempted, failed, metrics = (traced if args.trace else end_to_end)(args, workloads)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
