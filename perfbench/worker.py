"""One workload in one process: set up, time the ops, check them, print JSON.

Started by run.py with BLAS pinned to one thread in this process's own
environment. Set-up time runs from the first statement of this file, so it
covers importing numpy and qlin, generating the inputs and one untimed
warm-up op on a state of its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR

--seconds 0 stops after set-up.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Trace mode replays at most this many ops, so that a run of tiny ops keeps
# its spans in memory by the tens of thousands, not millions.
TRACE_MAX_OPS = 2000


def timed_ops(workload, state, seconds: float, max_ops: int | None = None):
    """Run ops back to back until `seconds` have passed, sampling host speed
    throughout; returns outputs, per-op durations in ns and the wall time
    and reference time of the phase in s, all without the sampler's own time."""
    from calibrate import HostSampler
    from workloads import Failed

    outputs, durations = [], array.array("q")
    clock = time.perf_counter
    sampler = HostSampler(workload.calibration)
    with sampler:
        start = clock()
        deadline = start + seconds
        while True:
            stolen = sampler.stolen
            t0 = clock()
            try:
                out = workload.op(state)
            except Exception as err:  # an op that raises is counted as failed
                out = Failed(err)
            t1 = clock()
            durations.append(round((t1 - t0 - (sampler.stolen - stolen)) * 1e9))
            if outputs and same_outputs(out, outputs[-1]):
                out = outputs[-1]  # keep one copy, so retained outputs do not grow peak RSS
            outputs.append(out)
            if t1 >= deadline or (max_ops is not None and len(outputs) >= max_ops):
                break
    wall = t1 - start - sampler.stolen
    return outputs, durations, wall, sampler.reference_time(start, t1)


def same_outputs(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same_outputs(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_outputs, a, b))
    return a == b


def traced_replay(workload, count: int, spans_path: Path | None):
    """Replay `count` ops from a fresh state with the tracer installed."""
    import qlin.algorithms
    import qlin.circuit
    import qlin.cli
    import qlin.device
    import qlin.formats
    import qlin.simulator
    import qlin.stdcircuits
    from tracer import Tracer
    from workloads import Failed

    modules = {
        "algorithms": qlin.algorithms, "device": qlin.device, "simulator": qlin.simulator,
        "circuit": qlin.circuit, "stdcircuits": qlin.stdcircuits, "formats": qlin.formats,
        "cli": qlin.cli,
    }
    state = workload.new_state()
    tracer = Tracer()
    tracer.install(modules)
    outputs = []
    try:
        for op_id in range(count):
            try:
                outputs.append(tracer.run_op(op_id, workload.op, state))
            except Exception as err:
                outputs.append(Failed(err))
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.dump(spans_path)
    return outputs, tracer.spans


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path | None = None) -> dict:
    import qlin

    src = (ROOT / "src").resolve()
    if Path(qlin.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"qlin imported from {qlin.__file__}, not from {src}")
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.op(workload.new_state(salt=1000))
    result = {
        "setup_s": time.perf_counter() - _T0,
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if seconds <= 0:
        return result

    outputs, durations, wall, reference = timed_ops(
        workload, workload.new_state(), seconds / 2 if trace else seconds,
        TRACE_MAX_OPS if trace else None)
    # before the checks, whose own arrays are not the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        import tracer

        traced, spans = traced_replay(workload, len(outputs), spans_path)
        metrics, table = tracer.analyse(spans, sum(durations))
        replay_matches = same_outputs(outputs, traced)
        result.update(layers=metrics, table=table, replay_matches=replay_matches,
                      missing=list(tracer.MISSING))
        outputs = traced
    verdicts = workload.check(outputs)
    result.update(
        attempted=len(outputs),
        failed=verdicts.count(False),
        op_ns=durations.tolist(),
        wall_s=wall,
        reference_s=reference,
        units=workload.units,
        peak_rss_mb=peak_rss_mb,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir,
                 args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
