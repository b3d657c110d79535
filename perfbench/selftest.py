"""Tests of the benchmark itself: smoke runs, metric names, tracer mechanics.

    python3 -m pytest -q perfbench/selftest.py

Each workload runs for one operation with a single set-up sample, so the
whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SB = run.import_package()


@pytest.fixture(scope="module")
def problem():
    return SB.assemble(SB.load_scenario(SB.bundled_scenario_path()))


def smoke(capsys, monkeypatch, workload, trace):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(capsys, monkeypatch, workload, trace):
    result = smoke(capsys, monkeypatch, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def bindings():
    """Identity of every public name in every sparsebeam module."""
    snapshot = {}
    for key, mod in sys.modules.items():
        if key == "sparsebeam" or key.startswith("sparsebeam."):
            for name, value in vars(mod).items():
                snapshot[(key, name)] = id(value)
    restrict = SB.problem.ProblemInstance.__dict__["restrict"]
    snapshot[("ProblemInstance", "restrict")] = id(restrict)
    return snapshot


def test_tracer_wraps_every_binding_and_restores_them():
    before = bindings()
    project, solve = SB.projections.project, SB.admm.solve
    with Tracer() as tracer:
        assert tracer.missing == []
        for module in (SB.admm, SB.projections, SB):
            assert module.project is not project and module.project.__wrapped__ is project
        for module in (SB.admm, SB.selection, SB.cli, SB):
            assert module.solve is not solve and module.solve.__wrapped__ is solve
    assert bindings() == before


def test_missing_target_is_reported():
    tracer = Tracer(targets=TARGETS + (("admm", "no_such_function"),))
    with tracer:
        pass
    assert tracer.missing == ["admm.no_such_function"]


def test_spans_nest(problem, tmp_path):
    workload = run.make_workload("design-ref", SB, problem, 3, tmp_path)
    outcomes = run.Outcomes()
    tracer = Tracer()
    before = bindings()
    run.run_op(workload, SB, 0, outcomes, tracer)
    assert bindings() == before
    assert outcomes.failed == 0 and len(tracer) > 1000
    selfs = tracer.self_times()
    assert min(selfs) >= -1e-9
    for i, p in enumerate(tracer.parent):
        assert tracer.start[i] <= tracer.end[i]
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] and tracer.end[i] <= tracer.end[p]
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert [tracer.names[tracer.name[i]] for i in roots] == ["bench.op"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_injected_error_counts_as_failure(problem, tmp_path, monkeypatch, workload):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(SB.selection, "find_feasible_point", broken)
    monkeypatch.setattr(SB.admm, "find_feasible_point", broken)
    outcomes = run.Outcomes()
    run.run_op(run.make_workload(workload, SB, problem, 3, tmp_path), SB, 0, outcomes)
    assert outcomes.attempted == 1 and outcomes.failed == 1
    assert "injected" in outcomes.failures[0][1]


def test_infeasible_verdict_is_not_a_failure(problem, tmp_path, monkeypatch):
    def gives_up(*args, **kwargs):
        raise SB.InfeasibleProblemError("injected verdict")

    monkeypatch.setattr(SB.selection, "find_feasible_point", gives_up)
    outcomes = run.Outcomes()
    run.run_op(run.make_workload("baseline-infeasible", SB, problem, 3, tmp_path), SB, 0, outcomes)
    assert outcomes.failed == 0
    # the reference design, by contrast, must be feasible
    outcomes = run.Outcomes()
    run.run_op(run.make_workload("design-ref", SB, problem, 3, tmp_path), SB, 0, outcomes)
    assert outcomes.failed == 1


def test_times_are_scaled_by_the_kernel_around_each_op(problem, tmp_path, monkeypatch):
    kernel = iter([0.1, 0.3, 0.1])
    monkeypatch.setattr(run.hostspeed, "kernel_seconds", lambda: next(kernel))
    monkeypatch.setattr(run.hostspeed, "KERNEL_REF_S", 0.1)
    workload = run.make_workload("baseline-infeasible", SB, problem, 3, tmp_path)
    outcomes = run.measure(workload, SB, 0.0)
    assert outcomes.attempted == 1 and outcomes.kernel == [pytest.approx(0.2)]
    metrics, printed = run.end_to_end(workload, outcomes, 1.0, [1.0])
    assert metrics["op_p50_s"][0] == pytest.approx(outcomes.times[0] / 2.0)
    assert metrics["ops_per_s"][0] == pytest.approx(2.0 / outcomes.times[0])
    assert printed["trials_per_s"][0] == pytest.approx(4.0 / outcomes.times[0])


def test_trace_pairs_every_op(problem, tmp_path):
    workload = run.make_workload("baseline-infeasible", SB, problem, 3, tmp_path)
    tracer = Tracer()
    before = bindings()
    plain, traced = run.measure_paired(workload, SB, 0.0, tracer)
    assert bindings() == before
    assert plain.attempted == traced.attempted == 1
    assert plain.failed == traced.failed == 0
    assert set(tracer.op_id) == {0}


def test_git_commit_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_commit() is None


def test_tail_keeps_ten_samples_beyond():
    times = [float(i) for i in range(1, 41)]
    value, percentile, beyond = run.tail(times)
    assert value == 30.0 and percentile == 75.0 and beyond == 10
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)
    # never below the median when fewer than twenty samples
    assert run.tail([float(i) for i in range(1, 17)]) == (9.0, 56.25, 7)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*", "out"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-ref",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
