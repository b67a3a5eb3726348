"""qpb benchmark: time to a verified verdict, one CLI invocation at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it runs `src/qpb`). A single client
runs a closed loop: each operation ("op") starts fresh `qpb verify ...
--format json --out FILE` processes, one at a time, and the next op starts
when the previous one has exited and until S seconds have passed. A fresh
process per op is deliberate: the kk and poisson suites ignore `--seed`, so
repeating ops inside one process would reward memoisation across
invocations, which CLI users never get. Every child has BLAS and OpenMP
pinned to one thread, so the numbers measure qpb rather than the scheduler.

Each op's output is checked: nonzero exit, timeout, unparsable JSON, a
check-id set other than the suite's, `pass: false`, a non-finite residual or
tolerance, a NaN or infinity anywhere else in a report (its context
included), or a PASS with residual above tolerance all fail the op.

The benchmark and its children run on one core, beside a probe that runs a
fixed reference kernel on that core at a low priority (bench/calibrate.py).
Each op's CPU time is scaled by the kernel's speed during the op, to the
core speed at which the kernel takes its reference time, so that a
neighbour loading the host moves the figures less.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: the
median scaled op CPU time, the largest child RSS, and the median scaled CPU
time of fresh `import qpb` runs spread between the ops. Wall-time statistics
(median, tail, mean), unscaled CPU time, verified reports per second and the
failed share are printed beside them.
--trace 1 alternates untraced ops with ops run under bench/launch.py, which
times the public functions of each qpb layer from outside the package, and
reports the per-layer metrics (medians per op), the tracing overhead, and a
scaling sweep (bench/sweep.py). The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import calibrate  # noqa: E402
import tracer  # noqa: E402

CLOCK = tracer.CLOCK
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(BENCH_DIR, "launch.py")
SWEEP = os.path.join(BENCH_DIR, "sweep.py")

PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OP_TIMEOUT_S = 60.0
SETUP_REPEATS = 15
IMPORTS_PER_OP = 2
TAIL_BEYOND = 10

SUITE_CHECKS = {
    "fourier": {"fourier_round_trip", "fourier_parseval", "fourier_hbar_scaling",
                "fourier_tensor_factorization"},
    "poisson": {"poisson_residual", "poisson_fd_convergence", "corollary_residual_momentum",
                "tensor_kronecker"},
    "kk": {"kk_oracle_agreement", "kk_refinement_monotone", "kk_residual",
           "kk_wrong_half_plane", "phase_equivalence"},
    "weyl": {"weyl_poisson_exact", "weyl_sxp_normal_form", "weyl_centrality",
             "weyl_adjoint_symmetry", "weyl_matrix_oracle", "weyl_parser_round_trip"},
    "uncertainty": {"uncertainty_gaussian_saturation", "uncertainty_random_bound",
                    "uncertainty_hermite_product", "uncertainty_vector_bound",
                    "uncertainty_vector_saturation"},
    "ladder": {"ladder_algebra", "ladder_ht_commutator", "ladder_eigenstate_overlap",
               "ladder_scaling_exact"},
}
SUITE_CHECKS["all"] = set().union(*SUITE_CHECKS.values())

# workload -> the `qpb` argument lists one op runs, in order
WORKLOADS = {
    # the gate users run: every layer at shipped sizes
    "gate-default": [["verify", "all"]],
    # numeric layers at 4x resolution (kk keeps the default spacing with a
    # 2x window); the symbolic layers do no work here
    "grid-fine": [["verify", "fourier", "--n-points", "1024"],
                  ["verify", "poisson", "--n-points", "1024"],
                  ["verify", "uncertainty", "--n-points", "1024"],
                  ["verify", "kk", "--n-points", "8192", "--half-extent", "128"]],
    # symbolic algebra and truncated matrices at 1.5x truncation. Traced,
    # symbolic.matrices takes 58% of an op (the dense letter products of
    # matrix_realize 43%, letter_matrices 14%) and symbolic.poly 24%
    # (normal_form 17%); the numeric layers do no work here. (At 2x
    # truncation an op takes 5 to 8 s on a shared 2-vCPU VM, too long to fit
    # enough ops into a run for a steady mean.)
    "algebra-deep": [["verify", "weyl", "--n-trunc", "96"]],
}

PROCESS_LAYER = "process"
LAYERS = [PROCESS_LAYER, *tracer.LAYER_MODULES]


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    env.update(PINS)
    return env


def spawn(argv: list[str], env: dict, stderr_path: str, timeout: float) -> dict:
    """Run one child to completion; wall time, rusage and exit status."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = CLOCK()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = CLOCK()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "end": end, "status": proc.returncode,
            "timed_out": timed_out.is_set(),
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}


def non_finite(value, where: str) -> str | None:
    """The JSON path of the first NaN or infinity anywhere in `value`.
    Suites fold values with expressions like max(0.0, FLOOR - min(xs)),
    which turn a NaN into 0.0, so the NaN shows only in a report's context."""
    if isinstance(value, float):
        return None if math.isfinite(value) else where
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        found = non_finite(item, f"{where}.{key}")
        if found:
            return found
    return None


def check_output(path: str, suite: str) -> tuple[int, str | None]:
    """Number of verified reports in one JSON output, or why it is not valid."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
    except (OSError, ValueError) as exc:
        return 0, f"unparsable JSON: {exc}"
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        return 0, "output is not a list of reports"
    ids = [r.get("check_id") for r in rows]
    expected = SUITE_CHECKS[suite]
    if len(ids) != len(expected) or set(ids) != expected:
        missing = sorted(expected - set(ids))
        extra = sorted(str(i) for i in set(ids) - expected)
        return 0, f"check ids differ: missing {missing}, unexpected {extra}, {len(ids)} rows"
    for r in rows:
        residual, tolerance = r.get("residual"), r.get("tolerance")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v) for v in (residual, tolerance)):
            return 0, f"{r['check_id']}: non-finite residual or tolerance"
        found = non_finite(r, r["check_id"])
        if found:
            return 0, f"non-finite value at {found}"
        if r.get("pass") is not True:
            return 0, f"{r['check_id']}: pass is {r.get('pass')!r}"
        if residual > tolerance:
            return 0, f"{r['check_id']}: PASS with residual {residual} > tolerance {tolerance}"
    return len(rows), None


def run_op(workload: str, op_seed: int, tmp: str, traced: bool) -> dict:
    """Run the op's processes back to back, then check every output."""
    env = child_env()
    deadline = CLOCK() + OP_TIMEOUT_S
    procs = []
    for i, args in enumerate(WORKLOADS[workload]):
        out = os.path.join(tmp, f"out{i}.json")
        spans = os.path.join(tmp, f"spans{i}.json")
        for stale in (out, spans):
            if os.path.exists(stale):
                os.remove(stale)
        qpb_args = [*args, "--seed", str(op_seed), "--format", "json", "--out", out]
        argv = ([sys.executable, LAUNCH, spans, *qpb_args] if traced
                else [sys.executable, "-m", "qpb", *qpb_args])
        proc = spawn(argv, env, os.path.join(tmp, f"stderr{i}.txt"),
                     max(deadline - CLOCK(), 1.0))
        procs.append(dict(proc, out=out, spans=spans, suite=args[1], stderr=f"stderr{i}.txt"))
        if proc["status"] != 0 or proc["timed_out"]:
            break
    op = {"wall_s": procs[-1]["end"] - procs[0]["start"],
          "cpu_s": sum(p["cpu_s"] for p in procs),
          "rss_mb": max(p["rss_mb"] for p in procs),
          "reports": 0, "error": None, "procs": procs}
    for p in procs:
        if p["timed_out"]:
            op["error"] = f"{p['suite']}: timed out after {OP_TIMEOUT_S:g} s"
        elif p["status"] != 0:
            op["error"] = f"{p['suite']}: exit status {p['status']}"
        else:
            n, err = check_output(p["out"], p["suite"])
            op["reports"] += n
            op["error"] = err and f"{p['suite']}: {err}"
        if op["error"]:
            with open(os.path.join(tmp, p["stderr"]), encoding="utf-8", errors="replace") as fh:
                op["error"] += " | stderr: " + fh.read()[-400:].strip()
            break
    if len(procs) < len(WORKLOADS[workload]) and not op["error"]:
        op["error"] = "op stopped early"
    return op


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile (at least the median) with TAIL_BEYOND values
    beyond it, by nearest rank: (value, percentile, count beyond). With fewer
    than 2 * TAIL_BEYOND values no percentile qualifies; the maximum is
    returned, with zero beyond."""
    xs = sorted(values)
    n = len(xs)
    rank = n - TAIL_BEYOND if n >= 2 * TAIL_BEYOND else n
    return xs[rank - 1], 100.0 * rank / n, n - rank


def op_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2**31)


def closed_loop(workload: str, seed: int, seconds: float, tmp: str, alternate: bool = False,
                after_op=None) -> list[dict]:
    """Run ops until `seconds` have passed, calling `after_op` after each.
    With `alternate`, every second op is traced, and the loop runs until it
    has at least one op of each kind."""
    ops = []
    seeds = op_seeds(workload, seed)
    start = CLOCK()
    while CLOCK() - start < seconds or len(ops) < (2 if alternate else 1):
        traced = alternate and len(ops) % 2 == 1
        op = run_op(workload, next(seeds), tmp, traced)
        op["start"], op["end"] = op["procs"][0]["start"], op["procs"][-1]["end"]
        op["traced"] = traced
        if traced and not op["error"]:
            op["trace"] = op_trace_metrics(op["procs"])
        ops.append(op)
        if after_op is not None:
            after_op()
    return ops


def scale(runs: list[dict], records: list) -> None:
    """Give each op or process its probe speed (`unit_s`) and the CPU time
    scaled to the reference speed (`cpu_ref_s`)."""
    for r in runs:
        r["unit_s"] = calibrate.unit_s(records, r["start"], r["end"])
        r["cpu_ref_s"] = r["cpu_s"] * calibrate.REF_S / r["unit_s"]


def op_trace_metrics(procs: list[dict]) -> dict:
    """Per-op layer and function metrics from the spans of its processes."""
    m: dict[str, float] = defaultdict(float)
    wall = procs[-1]["end"] - procs[0]["start"]
    for p in procs:
        with open(p["spans"], encoding="utf-8") as fh:
            payload = json.loads(fh.readline())
            write_end = json.loads(fh.readline())["write_end"]
        names, layers, spans = payload["names"], payload["layers"], payload["spans"]
        for (nid, _, _, _), own in zip(spans, tracer.self_times(spans)):
            name, layer = names[nid], layers[nid]
            m[f"{layer}.self_s"] += own
            m[f"{name}.self_s"] += own
            if layer not in (PROCESS_LAYER, tracer.TRACE_LAYER):
                m[f"{layer}.calls"] += 1
                m[f"{name}.calls"] += 1
        spawn_s = payload["start"] - p["start"]
        exit_s = p["end"] - write_end
        m["process.calls"] += 1
        m["process.spawn_s"] += spawn_s
        m["process.self_s"] += spawn_s + exit_s
        m["trace.self_s"] += write_end - payload["main_end"]
        for key, value in payload["counters"].items():
            if key.endswith(".max_word_len"):
                m[key] = max(m[key], value)
            else:
                m[key] += value
    m["process.import_s"] = m["process.import.self_s"]
    m["grids.wavefunction.constructs"] = m["grids.wavefunction.calls"]
    for name in ("symbolic.poly.normal_form", "symbolic.matrices.letter_matrices"):
        calls = m[f"{name}.calls"]
        m[f"{name}.repeat_share"] = m[f"{name}.repeats"] / calls if calls else 0.0
    m["trace.attributed_share"] = sum(m[f"{layer}.self_s"]
                                      for layer in (*LAYERS, tracer.TRACE_LAYER)) / wall
    return m


def provenance() -> dict:
    """Versions and machine facts; the child also compiles qpb's bytecode,
    so that set-up timing starts warm."""
    probe = ("import json, os, sys, numpy, qpb\n"
             "blas = numpy.__config__.CONFIG.get('Build Dependencies', {}).get('blas', {})\n"
             "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
             " 'blas': f\"{blas.get('name', '?')} {blas.get('version', '?')}\","
             " 'qpb': qpb.__version__, 'qpb_path': qpb.__file__}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import qpb from {SRC}: {proc.stderr.strip()[-400:]}")
    facts = json.loads(proc.stdout)
    if not facts.pop("qpb_path").startswith(SRC + os.sep):
        raise RuntimeError(f"qpb was not imported from {SRC}")
    return {**facts, "nproc": os.cpu_count(), "cores": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine(), "pins": PINS, "commit": git_commit()}


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def import_qpb(tmp: str) -> dict:
    """A fresh interpreter running `import qpb`; its wall and CPU time."""
    p = spawn([sys.executable, "-c", "import qpb"], child_env(),
              os.path.join(tmp, "stderr-setup.txt"), OP_TIMEOUT_S)
    if p["status"] != 0:
        raise RuntimeError(f"import qpb failed with status {p['status']}")
    return p


def sweep() -> dict:
    proc = subprocess.run([sys.executable, SWEEP], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout)


def end_to_end(ops: list[dict], imports: list[dict]) -> tuple[dict, list[str]]:
    # a failed op misses any latency limit: charge it the op timeout
    walls = [OP_TIMEOUT_S if o["error"] else o["wall_s"] for o in ops]
    cpus = [OP_TIMEOUT_S if o["error"] else o["cpu_s"] for o in ops]
    ref_cpus = [OP_TIMEOUT_S if o["error"] else o["cpu_ref_s"] for o in ops]
    tail_value, pct, beyond = tail(walls)
    failed = sum(1 for o in ops if o["error"])
    # Gated times are CPU seconds scaled to the reference core speed: on a
    # shared 2-vCPU VM, wall time also holds the time the hypervisor gave the
    # vCPU to other guests (a grid-fine op's mean wall was 18% above its CPU
    # time in some runs), and unscaled CPU time moves with the core's speed,
    # which switched between states about 1.5x apart for seconds to minutes.
    values = {
        "cpu_ref_s.p50": statistics.median(ref_cpus),
        "peak_rss_mb": max(o["rss_mb"] for o in ops),
        "setup_s": statistics.median(p["cpu_ref_s"] for p in imports),
    }
    unit = [o["unit_s"] for o in ops]
    # wall times hold the probe's share of the core, about a tenth
    notes = [f"verify_s.p50 = {statistics.median(walls):.6g} s",
             f"verify_s.tail = {tail_value:.6g} s (p{pct:.0f} of {len(ops)} ops, {beyond} beyond)",
             f"verify_s.mean = {statistics.fmean(walls):.6g} s",
             f"cpu_ref_s.mean = {statistics.fmean(ref_cpus):.6g} s",
             f"cpu_s.mean = {statistics.fmean(cpus):.6g} s (unscaled)",
             f"cpu_s.p50 = {statistics.median(cpus):.6g} s (unscaled)",
             f"probe unit during ops = {statistics.median(unit):.6g} s median, "
             f"{min(unit):.6g} to {max(unit):.6g} s (reference {calibrate.REF_S:g} s)",
             f"checks_per_s = {sum(o['reports'] for o in ops) / sum(walls):.6g} 1/s",
             f"fail_share = {failed / len(ops):.6g} ({failed} of {len(ops)} ops)",
             f"import qpb wall median = {statistics.median(p['end'] - p['start'] for p in imports):.6g} s",
             f"import qpb cpu median = {statistics.median(p['cpu_s'] for p in imports):.6g} s (unscaled)"]
    return values, notes


def per_layer(ops: list[dict]) -> tuple[dict, list[str]]:
    traced = [o for o in ops if o["traced"] and not o["error"]]
    plain = [o["cpu_ref_s"] for o in ops if not o["traced"] and not o["error"]]
    if not traced or not plain:
        raise RuntimeError("no successful traced and untraced op to compare")
    keys = set().union(*(o["trace"] for o in traced))
    values = {k: statistics.median(o["trace"].get(k, 0.0) for o in traced) for k in keys}
    # scaled CPU time, like the gated end-to-end metric
    traced_mean = statistics.fmean(o["cpu_ref_s"] for o in traced)
    values["trace.overhead"] = traced_mean / statistics.fmean(plain) - 1.0
    sw = sweep()
    values.update({k: v for k, v in sw.items() if k.startswith("sweep.")})
    notes = [f"traced ops: {len(traced)}, untraced ops: {len(plain)}, "
             f"traced cpu_ref_s.mean = {traced_mean:.6g} s",
             "sweep raw seconds: " + json.dumps(sw["raw"])]
    return values, notes


def load_metric_specs(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on termination, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # the ops and the reference kernel share one core; children inherit it
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "qpb", "cli.py")):
        print(f"error: no qpb sources under {SRC}; run from the root of a qpb checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    specs = load_metric_specs(bool(args.trace))

    tmp = os.path.join(ROOT, ".bench_build", f"qpb-bench-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        facts = provenance()
        print("provenance: " + json.dumps({**facts, "workload": args.workload,
                                            "seed": args.seed, "seconds": args.seconds}))
        with calibrate.Probe(os.path.join(tmp, "probe.log"), child_env()) as probe:
            imports = []

            def after_op():
                # imports are spread between the ops, so that their median
                # samples the same machine conditions as the ops do
                imports.extend(import_qpb(tmp) for _ in range(IMPORTS_PER_OP))

            ops = closed_loop(args.workload, args.seed, args.seconds, tmp,
                              alternate=bool(args.trace),
                              after_op=None if args.trace else after_op)
            while not args.trace and len(imports) < SETUP_REPEATS:
                imports.append(import_qpb(tmp))
            scale(ops + imports, probe.records())
        if args.trace:
            values, notes = per_layer(ops)
        else:
            values, notes = end_to_end(ops, imports)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [o for o in ops if o["error"]]
    for o in failed:
        print(f"FAILED op: {o['error']}")
    for note in notes:
        print(note)
    metrics = {}
    for spec in specs:
        # a function a workload never calls has no spans: zero calls and time
        value = float(values.get(spec["name"], 0.0) if args.trace else values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} = {value:.6g} {spec['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
