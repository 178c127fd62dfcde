"""qpdsim benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout that holds ``src/qpdsim``:

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34     # every workload
    python3 perfbench/run.py --workload survey --seed 1 --seconds 34 --trace 1

With ``--trace 0`` one workload runs untraced and the end-to-end metrics are
reported. With ``--trace 1`` the per-layer run traces every workload in turn
(so each per-layer metric is measured on the workload it belongs to, whatever
``--workload`` names) and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("catalog-sweep", "cli-long", "survey")

SETUP_REPEATS = 11
SETUP_CODE = "import qpdsim\nfor name in ('table1', 'table2', 'table3'):\n    qpdsim.load_reference_table(name)\n"
P90_MIN_SAMPLES = 100  # so that at least 10 samples lie beyond the 90th percentile

END_TO_END_UNITS = {
    "op_mean_ref": "ref",
    "op_p50_ref": "ref",
    "cpu_per_op_ref": "ref",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# Printed with the metrics and kept under "extra" of --out; not JSON metrics.
# ref_* are the reference computation's median times, see reference.py.
RAW_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "cpu_ms_per_op": "ms", "ref_ms_p50": "ms", "ref_cpu_ms_p50": "ms"}

# Per-layer metrics of the traced run: workload -> traced function -> stats.
# perfbench/README.md names the end-to-end metric and workload each should move.
LAYER_METRICS = {
    "catalog-sweep": {
        "linalg.hermitian_eigenvalues": ("calls", "self_ms"),
        "linalg.partial_trace": ("self_ms",),
        "linalg.eig_hermitian": ("calls",),
        "dynamics.evolve": ("calls", "self_ms", "bytes"),
        "measures.measure_series": ("self_ms",),
        "measures.entanglement_of_formation": ("self_ms",),
        "measures.average_measures": ("self_ms",),
        "stp.chi_series": ("calls",),
        "stp.choice_probability": ("calls",),
        "stp.stp_records": ("self_ms",),
        "stp.stp_verdict": ("self_ms",),
        "states.initial_mental_state": ("self_ms",),
        "report.analyze_case": ("self_ms",),
        "report.check_table": ("self_ms",),
    },
    "cli-long": {
        "dynamics.evolve": ("calls", "self_ms", "bytes"),
        "measures.measure_series": ("self_ms",),
        "measures.entanglement_of_formation": ("self_ms",),
        "measures.average_measures": ("self_ms",),
        "report.render_trajectory_csv": ("self_ms",),
        "report.render_table_csv": ("self_ms",),
        "report.atomic_write_text": ("self_ms", "bytes"),
        "cli.run": ("self_ms",),
    },
    "survey": {
        "interference.random_slit_model": ("calls", "self_ms"),
        "interference.run_slit_model": ("calls", "self_ms"),
        "interference.run_interference_survey": ("self_ms",),
    },
}
LAYER_UNITS = {"calls": "calls/op", "self_ms": "ms/op", "bytes": "B/op"}
TRACE_STATS = ("overhead_ms", "unattributed_ms")  # per workload, in ms/op


def per_layer_units() -> dict[str, str]:
    units = {}
    for workload, functions in LAYER_METRICS.items():
        for function, stats in functions.items():
            for stat in stats:
                units[f"{workload}.{function}.{stat}"] = LAYER_UNITS[stat]
        for stat in TRACE_STATS:
            units[f"{workload}.trace.{stat}"] = "ms/op"
    return units


# ---------------------------------------------------------------------------
# environment


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(os.path.join(git, ref))
    if commit:
        return commit
    for line in _read(os.path.join(git, "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    cpu_model = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        if index.startswith("index") and _read(f"{cache_dir}/{index}/type") != "Instruction":
            caches[f"L{_read(f'{cache_dir}/{index}/level')}"] = _read(f"{cache_dir}/{index}/size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas_vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the reference
    computation and the ops (a cli-long child too) run where the same other
    tenants contend. The highest allowed CPU, as device interrupts favour CPU 0."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------------------
# measurement


def measure_setup_s(workloads_mod) -> float:
    """Median wall time of a fresh interpreter importing qpdsim and its tables."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = workloads_mod.qpdsim_env(ROOT)
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches once
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cpu_clock(in_child: bool):
    if not in_child:
        return time.process_time

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    return children_cpu


def run_op(op, cpu_clock, tracer=None, op_id=None) -> tuple[bool, float, float]:
    """Time one op's call, then check its output untimed. Returns ok, wall, cpu."""
    error = None
    cpu0 = cpu_clock()
    start = time.perf_counter()
    if tracer is not None:
        tracer.op = op_id
    try:
        out = op.call()
    except Exception as exc:  # a failed op is counted, and the loop goes on
        error = exc
    finally:
        if tracer is not None:
            tracer.op = None
    wall = time.perf_counter() - start
    cpu = cpu_clock() - cpu0
    if error is None:
        try:
            op.check(out)
        except Exception as exc:
            error = exc
    if error is not None:
        print(f"op failed: {op.label}: {type(error).__name__}: {error}", file=sys.stderr)
    return error is None, wall, cpu


def stop_after(elapsed: float, passes: int, seconds: float) -> bool:
    """Stop unless one more pass of average length ends nearer to `seconds`."""
    return elapsed + 0.5 * elapsed / passes >= seconds


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced closed loop of whole passes for about `seconds` of op time.

    The reference computation runs once right after each op, outside the
    op's timed call. The JSON metrics give each op's time in units of that
    reference's time, which cancels the shared host's speed drift (see
    reference.py); the times in milliseconds are printed and kept under
    "extra".
    """
    from reference import Reference

    cpu_clock = _cpu_clock(workload.in_child)
    workload.warm_up()
    reference = Reference()
    samples: list[float] = []  # op wall times; a call of weight w gives w samples of a w-th of its time
    wall_ratios: list[float] = []  # the same, each over the reference's wall time after its op
    cpu_ratios: list[float] = []
    ref_walls: list[float] = []
    ref_cpus: list[float] = []
    busy = cpu = 0.0
    attempted = failed = passes = 0
    for ops in workload.passes(seed):
        for op in ops:
            ok, wall, op_cpu = run_op(op, cpu_clock)
            ref_cpu0 = time.process_time()
            ref_start = time.perf_counter()
            reference()
            ref_wall = time.perf_counter() - ref_start
            ref_cpu = time.process_time() - ref_cpu0
            samples += [wall / op.weight] * op.weight
            wall_ratios += [wall / op.weight / ref_wall] * op.weight
            cpu_ratios += [op_cpu / op.weight / ref_cpu] * op.weight
            ref_walls.append(ref_wall)
            ref_cpus.append(ref_cpu)
            busy += wall
            cpu += op_cpu
            attempted += op.weight
            failed += 0 if ok else op.weight
        passes += 1
        if stop_after(busy, passes, seconds):
            break
    who = resource.RUSAGE_CHILDREN if workload.in_child else resource.RUSAGE_SELF
    metrics = {
        "op_mean_ref": statistics.fmean(wall_ratios),
        "op_p50_ref": statistics.median(wall_ratios),
        "cpu_per_op_ref": statistics.fmean(cpu_ratios),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    extra = {
        "ops_per_s": attempted / busy,
        "op_ms_p50": 1e3 * statistics.median(samples),
        "cpu_ms_per_op": 1e3 * cpu / attempted,
        "ref_ms_p50": 1e3 * statistics.median(ref_walls),
        "ref_cpu_ms_p50": 1e3 * statistics.median(ref_cpus),
        "passes": passes,
        "op_samples": len(samples),
        "busy_s": busy,
    }
    if len(samples) >= P90_MIN_SAMPLES:
        extra["op_ms_p90"] = 1e3 * statistics.quantiles(samples, n=10)[-1]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra}


def trace_all(workloads: list, seed: int, seconds: float, spans_path: str) -> dict:
    """Per-layer run: every workload in turn, each op run untraced and traced.

    Both runs of an op take the same inputs in this process (the CLI through
    qpdsim.cli.main), so their wall-time difference is the tracing overhead.
    Values are per op, so counts repeat exactly however many passes fit.
    """
    from tracing import Tracer

    tracer = Tracer()
    metrics: dict[str, float] = {}
    attempted = failed = 0
    next_id = 0
    budget = seconds / len(workloads)
    for workload in workloads:
        workload.warm_up()
        clock = time.process_time  # cpu is not reported from this run
        untraced = traced = unattributed = worst_unattributed = 0.0
        n_ops = pairs = 0
        traced_ids: set[int] = set()
        started = time.perf_counter()
        for ops in workload.passes(seed, per_layer=True):
            walls = {}
            for op in ops:
                next_id += 1
                # Alternate which run of the op goes first, so drift cancels.
                for traced_run in (next_id % 2 == 0, next_id % 2 == 1):
                    if traced_run:
                        with tracer.installed():
                            ok, wall, _ = run_op(op, clock, tracer, next_id)
                        walls[next_id] = wall
                        traced += wall
                        n_ops += op.weight
                    else:
                        ok, wall, _ = run_op(op, clock)
                        untraced += wall
                    attempted += op.weight
                    failed += 0 if ok else op.weight
            self_by_op = tracer.self_s_by_op()
            for op_id, wall in walls.items():
                gap = wall - self_by_op.get(op_id, 0.0)
                unattributed += gap
                worst_unattributed = max(worst_unattributed, gap)
            traced_ids.update(walls)
            pairs += 1
            if stop_after(time.perf_counter() - started, pairs, budget):
                break
        stats = tracer.layer_stats(traced_ids)
        for function, wanted in LAYER_METRICS[workload.name].items():
            s = stats.get(function)
            for stat in wanted:
                value = {
                    "calls": s.calls if s else 0,
                    "self_ms": 1e3 * s.self_s if s else 0.0,
                    "bytes": s.nbytes if s else 0,
                }[stat]
                metrics[f"{workload.name}.{function}.{stat}"] = value / n_ops
        metrics[f"{workload.name}.trace.overhead_ms"] = 1e3 * (traced - untraced) / n_ops
        metrics[f"{workload.name}.trace.unattributed_ms"] = 1e3 * unattributed / n_ops
        print(
            f"trace {workload.name}: {n_ops} traced ops, overhead {1e3 * (traced - untraced) / n_ops:.3f} ms/op, "
            f"unattributed mean {1e3 * unattributed / n_ops:.4f} ms/op, worst op {1e3 * worst_unattributed:.4f} ms"
        )
    tracer.dump(spans_path)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": {"spans_file": spans_path}}


# ---------------------------------------------------------------------------
# entry point


def make_workloads(names, work_dir: str) -> list:
    import workloads

    made = {
        "catalog-sweep": workloads.CatalogSweep,
        "cli-long": lambda: workloads.CliLong(ROOT, work_dir),
        "survey": workloads.Survey,
    }
    return [made[name]() for name in names]


def print_result(name: str, result: dict, units: dict[str, str]) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name}: {attempted} ops attempted, {failed} failed")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<58} {value:>16.6f} {units[metric]}")
    print(f"  {'failed_frac':<58} {failed / attempted if attempted else 1.0:>16.6f} share")
    extra = result.get("extra", {})
    for metric, unit in RAW_UNITS.items():
        if metric in extra:
            print(f"  {metric:<58} {extra[metric]:>16.6f} {unit}")
    if "op_samples" in extra:
        if "op_ms_p90" in extra:
            print(f"  {'op_ms_p90':<58} {extra['op_ms_p90']:>16.6f} ms (n={extra['op_samples']})")
        else:
            print(f"  op_ms_p90 not reported: n={extra['op_samples']} < {P90_MIN_SAMPLES} samples")


def run_all(args) -> int:
    """Every workload untraced, each in its own fresh process, one after another."""
    os.makedirs(OUT_DIR, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}, "workloads": {}}
    for name in WORKLOADS:
        part = os.path.join(OUT_DIR, f"all-{os.getpid()}-{name}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--out", part]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.strip().splitlines()[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        with open(part, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(part)
        combined["workloads"][name] = result
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    if args.out:
        write_json(args.out, combined)
    print(json.dumps({k: combined[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with the environment, to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qpdsim", "__init__.py")):
        print(f"error: no qpdsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qpdsim

    if not os.path.abspath(qpdsim.__file__).startswith(SRC + os.sep):
        print(f"error: imported qpdsim from {qpdsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and args.trace == 0:
        return run_all(args)

    import workloads as workloads_mod

    env = environment()
    env["pinned_cpu"] = pin_to_one_cpu()
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.trace:
            units = per_layer_units()
            spans_path = os.path.join(OUT_DIR, f"spans-seed{args.seed}.json")
            result = trace_all(make_workloads(WORKLOADS, work_dir), args.seed, args.seconds, spans_path)
        else:
            units = END_TO_END_UNITS
            setup_s = measure_setup_s(workloads_mod)
            (workload,) = make_workloads([args.workload], work_dir)
            result = measure(workload, args.seed, args.seconds)
            result["metrics"]["setup_s"] = setup_s
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               ops=result["attempted"], **result.get("extra", {}))
    print("env " + json.dumps(env))
    print_result("per-layer (traced)" if args.trace else args.workload, result, units)
    correct = result["failed"] == 0 and result["attempted"] > 0
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    if args.out:
        write_json(args.out, {"env": env, "correct": correct, "attempted": result["attempted"],
                              "failed": result["failed"], "metrics": metrics})
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
