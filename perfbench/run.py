"""qlin benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in single-threaded processes (worker.py) started from
the workload seed. With --trace 0 the timed phase is split between
TIMED_WORKERS processes, set-up is sampled in each of them and in extra
set-up-only processes, and the end-to-end metrics of BENCHMARK.json are
printed; with --trace 1 one process replays its ops under the span tracer
and the per-layer metrics are printed instead. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero without that line
when the qlin sources are missing or a worker fails.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("vqe-shots", "qaoa-wide", "circuit-toolchain", "rus-adaptive")
# An untraced run splits --seconds between TIMED_WORKERS processes, so that
# what one process's memory layout does to its speed averages out; each also
# gives a set-up sample. Extra set-up-only processes follow while the samples
# add up to under SETUP_SAMPLE_S (at most MAX_SETUPS in all), so that a fast
# set-up gets enough samples for a steady median.
TIMED_WORKERS = 3
MAX_SETUPS = 12
SETUP_SAMPLE_S = 3.0
DEADLINE_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def machine(numpy_version: str, blas_threads: str | None) -> dict:
    """What makes runs from different machines incomparable."""
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": blas_threads,
    }


def run_worker(args, workdir: Path, deadline: float, seconds: float,
               spans: Path | None = None) -> dict:
    """One worker process; `seconds` 0 runs only its set-up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # one string hash in every worker, so that dict layouts do not vary between runs
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_ms(durations_ns: list[int], q: float) -> float:
    ordered = sorted(durations_ns)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1e6


def combine(runs: list[dict]) -> dict:
    """One result from the timed worker processes of a run."""
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "op_ns": [ns for r in runs for ns in r["op_ns"]],
        "wall_s": sum(r["wall_s"] for r in runs),
        "reference_s": sum(r["reference_s"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "units": runs[0]["units"],
    }


def end_to_end(main: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """The result-line metrics and the report lines for every metric."""
    ops = main["op_ns"]
    n = len(ops)
    wall_s = main["wall_s"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups), "set-ups"),
        "ops_per_ref_s": (n / main["reference_s"], "1/s", n, "ops"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", TIMED_WORKERS, "processes"),
    }
    extra = {"ops_per_s": (n / wall_s, "1/s", n, "ops"),
             "op_ms.p50": (statistics.median(ops) / 1e6, "ms", n, "ops")}
    if n >= 100:  # at least ten samples above the 90th percentile
        extra["op_ms.p90"] = (percentile_ms(ops, 0.9), "ms", n, "ops")
    for name, per_op in main["units"].items():
        extra[name] = (per_op * n / wall_s, "1/s", n, "ops")
    extra["failed_ratio"] = (main["failed"] / main["attempted"], "ratio", main["attempted"], "ops")
    lines = [f"{name:<14} {value:>14.6g} {unit:<6} (n={count} {what})"
             for name, (value, unit, count, what) in {**metrics, **extra}.items()]
    return {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}, lines


PER_LAYER_UNITS = {"_s": "s/op", "_share": "ratio", "_ratio": "ratio", "_bytes": "B",
                   "ns_per_amp": "ns/amp", "bytes_moved_computed": "B/op", "bytes_emitted": "B/op"}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith("rus_rounds_per_run"):
        return "rounds/run"
    return "count/op"


def per_layer(main: dict) -> tuple[dict, list[str]]:
    lines = [f"{'layer':<12} {'count':>9} {'total_s':>10} {'self_s':>10} {'share':>7}"]
    lines += [f"{layer:<12} {count:>9} {total:>10.4f} {own:>10.4f} {share:>7.3f}"
              for layer, count, total, own, share in main["table"]]
    lines += [f"{name:<34} {value:.6g} {layer_unit(name)}" for name, value in main["layers"].items()]
    lines += [f"missing: {m}" for m in main["missing"]]
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in main["layers"].items()}
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qlin" / "__init__.py").is_file():
        print(f"qlin sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    spans = None
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
    try:
        if args.trace:
            main_run = run_worker(args, workdir / "main", deadline, args.seconds, spans)
        else:
            runs = [run_worker(args, workdir / f"timed{i}", deadline, args.seconds / TIMED_WORKERS)
                    for i in range(TIMED_WORKERS)]
            setups = [r["setup_s"] for r in runs]
            while len(setups) < MAX_SETUPS and sum(setups) < SETUP_SAMPLE_S:
                setups.append(run_worker(args, workdir / f"setup{len(setups)}", deadline, 0.0)["setup_s"])
            main_run = {**runs[0], **combine(runs)}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    correct = main_run["failed"] == 0 and main_run.get("replay_matches", True)
    if args.trace:
        metrics, lines = per_layer(main_run)
    else:
        metrics, lines = end_to_end(main_run, setups)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine(main_run["numpy"], main_run["blas_threads"])))
    if args.trace:
        print(f"traced replay matches untraced outputs: {main_run['replay_matches']}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
