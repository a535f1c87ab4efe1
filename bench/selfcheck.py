"""Steadiness self-check of the benchmark's inputs and counters.

    python3 bench/selfcheck.py

For every workload, with short traced runs:
  * the default seed, run twice, gives the same input digest and the same
    per-layer counters (every metric with unit `count`);
  * the default seed's input digest equals the recorded one, so a library
    change that alters a generator's output is caught instead of silently
    changing the workload;
  * the next seed gives a different input digest.
Prints one PASS/FAIL line per check and exits with 1 if any failed.
Run from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def traced_run(workload: str, seed: int) -> tuple[str, dict, bool]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stderr}")
    digest = next(line.split()[1] for line in lines if line.startswith("input_digest "))
    result = json.loads(lines[-1])
    counters = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    return digest, counters, result["correct"]


def main() -> int:
    sys.path.insert(0, str(run.BENCH_DIR))
    run.import_library()
    import workloads

    failed = False

    def report(ok: bool, text: str) -> None:
        nonlocal failed
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {text}", flush=True)

    for name in workloads.BUILDERS:
        d1, c1, ok1 = traced_run(name, run.DEFAULT_SEED)
        d2, c2, ok2 = traced_run(name, run.DEFAULT_SEED)
        report(ok1 and ok2, f"{name}: default seed passes every output check")
        report(d1 == d2, f"{name}: same seed, same input digest")
        diff = sorted(k for k in c1 if c1[k] != c2.get(k))
        report(not diff, f"{name}: same seed, identical counters ({len(c1)})"
               + (f"; differ: {diff}" if diff else ""))
        recorded = json.loads((run.DATA_DIR / f"expected-{name}.json").read_text())
        report(recorded["input_digest"] == d1, f"{name}: input digest matches the recorded one")
        d3, _, _ = traced_run(name, run.DEFAULT_SEED + 1)
        report(d3 != d1, f"{name}: another seed changes the inputs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
