"""Run-to-run spread and drift of the end-to-end metrics.

    python3 bench/spread.py

Runs bench/run.py once for each of the seeds 1 to 10 on every workload of
BENCHMARK.json (tracing off) and reports, per metric, the median of the runs
and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound. A spread within a third of its bound is marked steady.

Each call appends its runs as one proof set to bench/baseline.json, with the
provenance of its first run. From the second set on, it also prints and
records the drift: each metric's median in the new set divided by its median
in the previous set, checked against the metric's bound. Delete the file to
start a new series. Exits 1 if a spread is not steady or a drift exceeds its
bound.
"""

from __future__ import annotations

import datetime
import json
import os
import statistics
import subprocess
import sys

RUNS = 10
FIRST_SEED = 1
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    facts = json.loads(next(l for l in lines if l.startswith("provenance: "))[12:])
    return result, facts


def proof_set(spec: dict) -> tuple[dict, bool]:
    """One run per seed on every workload; the set and whether it is steady."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    workloads, provenance, steady = {}, None, True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        ops = []
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            result, facts = run_once(workload, seed, spec["run_seconds"])
            provenance = provenance or facts
            ops.append(result["attempted"])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        rows = {}
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med
            ok = share < m["bound"] / 3
            steady = steady and ok
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                               "bound": m["bound"], "steady": ok, "values": xs}
            print(f"{workload:13s} {m['name']:12s} median {med:10.5g} {m['unit']:3s} "
                  f"spread {share:7.2%}  bound {m['bound']:.0%}  {'ok' if ok else 'WIDE'}")
        print(f"{workload:13s} ops per run: {ops}")
        workloads[workload] = {"ops_per_run": ops, "metrics": rows}
    return {"started": started, "provenance": provenance, "run_seconds": spec["run_seconds"],
            "seeds": [FIRST_SEED, FIRST_SEED + RUNS - 1], "workloads": workloads}, steady


def drift(spec: dict, before: dict, after: dict) -> tuple[dict, bool]:
    """Each metric's median in `after` over its median in `before`."""
    ratios, held = {}, True
    for workload in after["workloads"]:
        ratios[workload] = {}
        for m in spec["end_to_end"]:
            ratio = (after["workloads"][workload]["metrics"][m["name"]]["median"]
                     / before["workloads"][workload]["metrics"][m["name"]]["median"])
            ok = ratio <= 1.0 + m["bound"]
            held = held and ok
            ratios[workload][m["name"]] = {"ratio": ratio, "bound": m["bound"], "held": ok}
            print(f"{workload:13s} {m['name']:12s} drift {ratio:7.4f}  "
                  f"limit {1.0 + m['bound']:.2f}  {'ok' if ok else 'EXCEEDED'}")
    return ratios, held


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    baseline = {"sets": []}
    if os.path.exists(BASELINE):
        with open(BASELINE, encoding="utf-8") as fh:
            baseline = json.load(fh)
    new, ok = proof_set(spec)
    if baseline["sets"]:
        new["drift_from_previous"], held = drift(spec, baseline["sets"][-1], new)
        ok = ok and held
    baseline["sets"].append(new)
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
