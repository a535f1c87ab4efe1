"""Write the benchmark's recorded data files under bench/data/.

    python3 bench/record.py catalogue   # input cost catalogue (about 5 minutes)
    python3 bench/record.py expected    # results at the default seed (minutes)
    python3 bench/record.py baseline [--runs N] [--seconds S]

`expected` runs one pass of every workload at the default seed, requires
every oracle check to pass, confirms the influence values and witnesses
with `verify.brute_force_best_influence`, and records each call's result.
`baseline` runs the benchmark N times per workload on seeds default..
default+N-1 and once traced, and records medians, quartile spreads and the
traced counters with the Python version and CPU count they came from.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

DATA = run.BENCH_DIR / "data"


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def record_catalogue() -> None:
    import workloads

    _dump(workloads.CATALOGUE, workloads.measure_catalogue())


class _ConfirmingChecker(run.Checker):
    """Also recounts every influence result by exhaustive enumeration."""

    def __call__(self, i, call, out) -> None:
        from tsslab import verify

        super().__call__(i, call, out)
        if isinstance(out, Exception) or call.kind not in ("influence_min", "influence_max"):
            return
        inst = out.extra["instance"]
        for res in out.results:
            want, seed = verify.brute_force_best_influence(inst, res.k, res.mode, res.goal)
            if (want, seed) != (res.value, res.seed):
                self.fail(call.key, f"k={res.k} {res.mode} {res.goal}: brute force gives "
                          f"{want} via {sorted(seed)}, the solver {res.value} via "
                          f"{sorted(res.seed)}")


def record_expected() -> None:
    import workloads

    for name, build in workloads.BUILDERS.items():
        batch = build(run.DEFAULT_SEED, run.OUT_DIR / "work")
        checker = _ConfirmingChecker(name, None)
        try:
            run.run_pass(batch.calls, checker)
        finally:
            batch.cleanup()
        if checker.failed:
            raise SystemExit(f"{name}: {checker.failed} failed checks; nothing recorded")
        summaries = checker.reference
        _dump(DATA / f"expected-{name}.json", {
            "workload": name,
            "seed": run.DEFAULT_SEED,
            "input_digest": batch.digest,
            "calls": {c.key: s for c, s in zip(batch.calls, summaries)},
        })


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def record_baseline(runs: int, seconds: float) -> None:
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "runs": runs,
        "seconds": seconds,
        "seeds": [run.DEFAULT_SEED, run.DEFAULT_SEED + runs - 1],
        "workloads": {},
    }
    for name in workloads.BUILDERS:
        results = [_run(name, run.DEFAULT_SEED + i, seconds, 0) for i in range(runs)]
        metrics = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            metrics[metric] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "unit": results[0]["metrics"][metric]["unit"],
                "values": values,
            }
            flag = "" if metric not in bounds or metric == "setup_s" or \
                metrics[metric]["spread"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"{name} {metric} median {metrics[metric]['median']:.6g} "
                  f"spread {metrics[metric]['spread']:.4f}{flag}", flush=True)
        traced = _run(name, run.DEFAULT_SEED, seconds, 1)
        out["workloads"][name] = {
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "all_correct": all(r["correct"] for r in results) and traced["correct"],
        }
    _dump(DATA / "baseline.json", out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("catalogue", "expected", "baseline"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    run.import_library()
    sys.path.insert(0, str(run.BENCH_DIR))
    DATA.mkdir(exist_ok=True)
    if args.what == "catalogue":
        record_catalogue()
    elif args.what == "expected":
        record_expected()
    else:
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        record_baseline(args.runs, args.seconds or bench["run_seconds"])


if __name__ == "__main__":
    main()
