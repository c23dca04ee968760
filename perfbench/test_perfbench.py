"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qlin.algorithms  # noqa: E402
import qlin.circuit  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_work" / "tests"


@pytest.fixture(scope="module")
def workdir():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOADS)
    assert set(names) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(trace, key):
    proc = _bench("--workload", "rus-adaptive", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_reference_time_rescales_each_stretch_by_its_samples():
    sampler = calibrate.HostSampler("small-numpy")
    ref = sampler.reference_s
    # kernel at reference speed, then twice as slow; 0.01 s in each handler
    sampler.samples = [(1.0, 1.01, ref), (2.0, 2.01, 2 * ref), (3.0, 3.01, 2 * ref)]
    # 1 s at k=ref, 0.99 s at mean k=1.5 ref, 0.99 s and 0.49 s at k=2 ref
    expected = 1.0 + 0.99 / 1.5 + 0.99 / 2 + 0.49 / 2
    assert sampler.reference_time(0.0, 3.5) == pytest.approx(expected)
    assert sampler.reference_time(10.0, 11.0) == pytest.approx(ref / sampler._warm_k)


def test_sampler_restores_the_alarm_handler_and_its_time_is_not_op_time(workdir):
    import signal

    before = signal.getsignal(signal.SIGALRM)
    workload = workloads.RusAdaptive(1, workdir)
    outputs, durations, wall, reference = worker.timed_ops(workload, workload.new_state(), 0.3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(outputs) == len(durations) and reference > 0
    assert sum(durations) / 1e9 <= wall


def test_refuses_to_run_without_the_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", "rus-adaptive", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def traced(workdir):
    """Spans and outputs of 50 traced rus ops and one traced toolchain pass."""
    runs = {}
    for cls, count in ((workloads.RusAdaptive, 50), (workloads.CircuitToolchain, 1)):
        workload = cls(5, workdir)
        outputs, spans = worker.traced_replay(workload, count, None)
        runs[cls.name] = (workload, outputs, spans)
    return runs


def test_spans_nest_and_share_op_ids(traced):
    for _, _, spans in traced.values():
        roots = [s for s in spans if s.parent is None]
        assert all(s.layer == "op" for s in roots)
        assert len({s.op for s in roots}) == len(roots)
        for s in spans:
            if s.parent is None:
                continue
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert s.op == parent.op


def test_self_times_do_not_exceed_traced_wall(traced):
    for _, _, spans in traced.values():
        own = tracer.self_times(spans)
        assert min(own) >= 0
        wall = sum(s.end - s.start for s in spans if s.layer == "op")
        assert sum(own) <= wall


def test_traced_run_reports_each_layer(traced):
    _, _, spans = traced["circuit-toolchain"]
    metrics, table = tracer.analyse(spans, 1)
    assert metrics["cli.main_calls"] == 5
    assert metrics["stdcircuits.qft_gates"] > 0 and metrics["formats.lines_parsed"] > 0
    assert metrics["circuit.matrix_of_calls"] == 1 and metrics["circuit.gates_removed"] > 0
    _, _, spans = traced["rus-adaptive"]
    metrics, _ = tracer.analyse(spans, 1)
    assert metrics["device.execute_calls"] == 1 and metrics["simulator.sessions"] == 1
    assert 0 < metrics["algorithms.rus_success_ratio"] <= 1


def test_tracer_uninstalls():
    assert not hasattr(qlin.circuit.add_h, "__wrapped__")
    assert not hasattr(qlin.circuit.Circuit.__init__, "__wrapped__")


def test_correct_outputs_pass_their_checks(traced):
    for workload, outputs, _ in traced.values():
        assert all(workload.check(outputs))


def test_wrong_rus_bits_raise_failed_ratio(workdir, monkeypatch):
    monkeypatch.setattr(qlin.algorithms, "run_rus", lambda backend: 1)
    result = worker.run("rus-adaptive", 1, 0.2, False, workdir)
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]


def test_wrong_toolchain_outputs_fail(traced):
    workload, (out,), _ = traced["circuit-toolchain"]
    optimised = json.loads(out["optimise"])
    gate = next(g for g in optimised["circuit"]["gates"] if g[0] == "P")
    gate[1] += 1e-3
    stats = json.loads(out["stats"])
    stats["counts"]["H"] += 1
    matrix = out["matrix"].copy()
    matrix[0, 0] *= -1
    for bad in ({"optimise": json.dumps(optimised)}, {"stats": json.dumps(stats)}, {"matrix": matrix}):
        assert workload.check([{**out, **bad}]) == [False]


def test_wrong_vqe_energy_fails(workdir):
    workload = workloads.VqeShots(2, workdir)
    params = tuple(0.1 * i for i in range(16))
    psi = qlin.circuit.matrix_of(qlin.algorithms.ansatz(4, 2, params))[:, 0]
    import oracle

    exact = sum(c * e for (c, _), e in zip(
        workload.hamiltonian.terms,
        oracle.pauli_expectations(psi, [t for _, t in workload.hamiltonian.terms])))
    assert workload.check([(params, exact), (params, exact + 1.0)]) == [True, False]


def test_wrong_cut_value_fails(workdir):
    workload = workloads.QaoaWide(4, workdir)
    cut = (0, 1) * 10
    value = sum(1 for u, v in workload.graph.edges if cut[u] != cut[v])
    assert workload.check([(cut, value), (cut, value + 1)]) == [True, False]
