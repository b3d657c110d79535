#!/usr/bin/env python3
"""Benchmark of sparsebeam: one reference design and random-subset baselines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design-ref --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

- ``design-ref``: ``sparsebeam solve`` on the bundled ``paper_sec4``
  scenario, through ``sparsebeam.cli.main`` in this process.
- ``baseline-k8``: one-trial calls of ``random_selection_baseline`` with
  K=8; runnable by hand but not listed in BENCHMARK.json, being too unsteady.
- ``baseline-infeasible``: one such call with K=4 and one with K=6 per
  operation; every draw is infeasible.

With ``--trace 0`` the run prints the end-to-end metrics, its times scaled
to the reference machine's speed by ``hostspeed.py``.  With ``--trace 1`` it
runs each operation untraced and traced back to back and prints the
per-layer metrics.  Every operation's output is checked outside the timed
region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the package computes on one thread; idle BLAS threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("design-ref", "baseline-k8", "baseline-infeasible")
DEFAULT_SEED = 20240501  # the bundled scenario's own seed
SETUP_SAMPLES = 8  # fresh interpreters timed for setup_s
FEASIBILITY_TOL = 1e-6
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

# Runs in a fresh interpreter: import, scenario load and assembly, timed
# from before the import.  argv[1] is the source directory to import from.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sparsebeam
sparsebeam.assemble(sparsebeam.load_scenario(sparsebeam.bundled_scenario_path()))
print(repr(time.perf_counter() - t0))
"""


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, broken set-up)."""


# -- set-up --------------------------------------------------------------------


def import_package():
    if not (SRC / "sparsebeam" / "__init__.py").is_file():
        raise BenchmarkError(f"no sparsebeam package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sparsebeam
    import sparsebeam.cli

    if Path(sparsebeam.__file__).resolve().parent != SRC / "sparsebeam":
        raise BenchmarkError(f"imported sparsebeam from {sparsebeam.__file__}, not {SRC}")
    return sparsebeam


def setup_seconds():
    """Set-up time at the reference machine's speed, and the raw times.

    Each fresh interpreter's set-up time is divided by the time of a
    reference interpreter importing numpy and scipy next to it (alternating
    which runs first); the median of these ratios is scaled by the
    reference import time.
    """
    raw, ratios = [], []
    for k in range(SETUP_SAMPLES):
        if k % 2:
            t = setup_probe()
            ref = hostspeed.import_seconds(ROOT)
        else:
            ref = hostspeed.import_seconds(ROOT)
            t = setup_probe()
        raw.append(t)
        ratios.append(t / ref)
    return hostspeed.IMPORT_REF_S * statistics.median(ratios), raw


def setup_probe():
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if out.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {out.stderr.strip()}")
    return float(out.stdout.strip().splitlines()[-1])


# -- environment record ----------------------------------------------------------


def git_commit():
    """HEAD of the git checkout at ROOT, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_info():
    """BLAS build string and thread count, from the library numpy loaded."""
    info = {"build": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"] = blas.get("openblas configuration") or blas.get("name")
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment(args, workload):
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "calibration": {"kernel_ref_s": hostspeed.KERNEL_REF_S,
                        "import_ref_s": hostspeed.IMPORT_REF_S},
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials_per_op": workload.trials_per_op,
        "K": list(workload.ks),
    }


# -- workloads -------------------------------------------------------------------


def op_seed(seed, i):
    """Seed of operation i: independent streams for distinct (seed, i)."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class DesignRef:
    """``sparsebeam solve`` on the bundled scenario, artifacts to a temp dir."""

    op_name = "design"
    trials_per_op = 1

    def __init__(self, sb, problem, seed, out_dir):
        self.sb = sb
        self.problem = problem
        self.seed = seed
        self.out = Path(out_dir)
        self.scenario_path = str(sb.bundled_scenario_path())
        self.ks = (problem.scenario.num_selected,)

    def inputs(self, i):
        # op 0 uses the workload seed itself, so the default reproduces the
        # scenario's own run
        return self.seed if i == 0 else op_seed(self.seed, i)

    def run(self, seed):
        argv = ["solve", "--scenario", self.scenario_path, "--out", str(self.out),
                "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return self.sb.cli.main(argv)

    def check(self, seed, code):
        """Problems with the design just written, and its figures."""
        if code != 0:
            return [f"cli exit code {code}"], {}
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        problems = []
        if report["metrics"]["feasible"] is not True:
            problems.append("report.json says feasible: false")
        w = np.array([complex(z) for z in report["beamformers"]["stack"]])
        feas = self.sb.feasibility_report(w, self.problem, FEASIBILITY_TOL)
        if not feas.passed:
            problems.append(f"design violates the full problem by {feas.violations.max():.3e}")
        figures = {
            "tx_power_w": self.sb.tx_power(w),
            "msrr": self.sb.msrr(w, self.problem),
            "support": tuple(report["support"]),
            "infeasible": 0,
            "trials": 1,
        }
        return problems, figures


class Baseline:
    """One one-trial call of ``random_selection_baseline`` for each K in ``ks``.

    The designs a call makes are taken from the ``sparsebeam.selection.refit``
    binding it calls, so each one can be checked against the full problem.
    """

    op_name = "trial"
    trials_per_call = 1

    def __init__(self, sb, problem, seed, ks, all_infeasible):
        self.sb = sb
        self.problem = problem
        self.config = problem.scenario.admm
        self.seed = seed
        self.ks = ks
        self.trials_per_op = self.trials_per_call * len(ks)
        self.all_infeasible = all_infeasible
        self.designs = []  # per call, the designs its refits returned

    def inputs(self, i):
        return op_seed(self.seed, i)

    def run(self, seed):
        self.designs = []
        selection = self.sb.selection
        refit = selection.refit

        def captured(*args, **kwargs):
            stack = refit(*args, **kwargs)
            self.designs[-1].append(stack)
            return stack

        selection.refit = captured
        results = []
        try:
            # trial t of a call draws from default_rng([seed, K, t]), so one
            # seed gives distinct draws for distinct K
            for K in self.ks:
                self.designs.append([])
                results.append(self.sb.random_selection_baseline(
                    self.problem, K, self.trials_per_call, seed, self.config
                ))
        finally:
            selection.refit = refit
        return results

    def check(self, seed, results):
        sb = self.sb
        problems = []
        powers, ratios, infeasible = [], [], 0
        for K, result, designs in zip(self.ks, results, self.designs):
            feasible = len(result.tx_powers)
            if (result.trials != self.trials_per_call
                    or feasible + result.infeasible_count != result.trials):
                problems.append(f"K={K}: trial counts do not add up: {result}")
            if self.all_infeasible and result.infeasible_count != result.trials:
                problems.append(f"K={K}: {feasible} feasible draws, expected none")
            if len(designs) != feasible:
                problems.append(f"K={K}: {len(designs)} designs seen for {feasible} feasible trials")
            for stack, power, ratio in zip(designs, result.tx_powers, result.msrrs):
                feas = sb.feasibility_report(stack.w, self.problem, FEASIBILITY_TOL)
                if not feas.passed:
                    problems.append(f"K={K}: design violates the full problem by "
                                    f"{feas.violations.max():.3e}")
                if not np.isclose(sb.tx_power(stack.w), power, rtol=1e-9, atol=0.0):
                    problems.append(f"K={K}: reported power differs from the design's power")
                if not (np.isfinite(ratio) and ratio > 0):
                    problems.append(f"K={K}: MSRR {ratio} is not a positive number")
            powers.extend(result.tx_powers)
            ratios.extend(result.msrrs)
            infeasible += result.infeasible_count
        figures = {
            "tx_power_w": statistics.fmean(powers) if powers else None,
            "msrr": statistics.fmean(ratios) if ratios else None,
            "support": None,
            "infeasible": infeasible,
            "trials": self.trials_per_op,
        }
        return problems, figures


def make_workload(name, sb, problem, seed, out_dir):
    if name == "design-ref":
        return DesignRef(sb, problem, seed, out_dir)
    if name == "baseline-k8":
        return Baseline(sb, problem, seed, (8,), all_infeasible=False)
    return Baseline(sb, problem, seed, (4, 6), all_infeasible=True)


# -- measuring -------------------------------------------------------------------


class Outcomes:
    """Per-operation times, check results and figures of one phase."""

    def __init__(self):
        self.times = []  # wall seconds
        self.kernel = []  # calibration kernel seconds around each operation
        self.failures = []  # (op index, message)
        self.figures = []

    @property
    def attempted(self):
        return len(self.times)

    @property
    def failed(self):
        return len({i for i, _ in self.failures})


def run_op(workload, sb, i, outcomes, tracer=None):
    """Time one operation, then check its output outside the timed region."""
    inp = workload.inputs(i)
    result, error = None, None
    # the tracer is on only while the program runs, so checks are not traced
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(inp)
            else:
                tracer.op = i
                with tracer.span("bench.op"):
                    result = workload.run(inp)
        except sb.InfeasibleProblemError as err:
            error = f"infeasible design: {err}"
        except Exception as err:  # any other exception is a failed operation
            error = f"{type(err).__name__}: {err}"
        outcomes.times.append(time.perf_counter() - start)
    if error is None:
        try:
            problems, figures = workload.check(inp, result)
        except Exception as err:  # an unreadable output fails its check
            problems, figures = [f"check raised {type(err).__name__}: {err}"], {}
        outcomes.figures.append(figures)
    else:
        problems = [error]
    outcomes.failures.extend((i, p) for p in problems)


def measure(workload, sb, seconds):
    """Run operations 0, 1, ... until ``seconds`` of wall time have passed.

    The calibration kernel runs before the first operation and after each
    one; the mean of the two kernel times around an operation is its
    ``kernel`` time.
    """
    outcomes = Outcomes()
    start = time.perf_counter()
    before = hostspeed.kernel_seconds()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        run_op(workload, sb, i, outcomes)
        after = hostspeed.kernel_seconds()
        outcomes.kernel.append(0.5 * (before + after))
        before = after
        i += 1
    return outcomes


def measure_paired(workload, sb, seconds, tracer):
    """Run each operation untraced and traced back to back, alternating which
    goes first, until ``seconds`` of wall time have passed."""
    plain, traced = Outcomes(), Outcomes()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        if i % 2 == 0:
            run_op(workload, sb, i, plain)
            run_op(workload, sb, i, traced, tracer)
        else:
            run_op(workload, sb, i, traced, tracer)
            run_op(workload, sb, i, plain)
        i += 1
    return plain, traced


def tail(times):
    """(value, percentile, samples beyond) of the highest percentile that
    still has TAIL_BEYOND samples above it, but not below the median."""
    xs = sorted(times)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)  # 1-based rank of the sample
    return xs[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(workload, outcomes, setup_s, setup_raw):
    """The JSON metrics, and the raw figures the summary prints beside them.

    Operation times are scaled to the reference machine: each one by the
    calibration kernel around it for the median and the tail, and the run's
    total by the kernel's total for the throughput, so that one mistimed
    kernel cannot move it much.
    """
    times, kernel = outcomes.times, outcomes.kernel
    scaled = [hostspeed.KERNEL_REF_S * t / k for t, k in zip(times, kernel)]
    tail_s, percentile, beyond = tail(scaled)
    ops_per_s = sum(kernel) / (hostspeed.KERNEL_REF_S * sum(times))
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    printed = {
        "op_tail_percentile": (percentile, "%"),
        "op_tail_samples_beyond": (beyond, "count"),
        "raw_setup_samples_s": (setup_raw, "s"),
        "raw_op_p50_s": (statistics.median(times), "s"),
        "raw_op_tail_s": (tail(times)[0], "s"),
        "raw_ops_per_s": (len(times) / sum(times), "1/s"),
        "host_slowdown": (statistics.fmean(kernel) / hostspeed.KERNEL_REF_S, "ratio"),
    }
    # the same figures under the names of the workload's operation
    if workload.op_name == "design":
        printed["design_p50_s"] = metrics["op_p50_s"]
        printed["design_tail_s"] = metrics["op_tail_s"]
    else:
        printed["trials_per_s"] = (ops_per_s * workload.trials_per_op, "1/s")
    return metrics, printed


def quality(outcomes):
    """Design figures the user sees, over the operations that were checked."""
    figs = outcomes.figures
    trials = sum(f.get("trials", 0) for f in figs)
    infeasible = sum(f.get("infeasible", 0) for f in figs)
    powers = [f["tx_power_w"] for f in figs if f.get("tx_power_w") is not None]
    ratios = [f["msrr"] for f in figs if f.get("msrr") is not None]
    supports = sorted({f["support"] for f in figs if f.get("support")})
    return {
        "tx_power_w": (statistics.fmean(powers) if powers else None, "W"),
        "msrr": (statistics.fmean(ratios) if ratios else None, "ratio"),
        "infeasible_ratio": (infeasible / trials if trials else None, "ratio"),
        "failed_ratio": (outcomes.failed / outcomes.attempted, "ratio"),
        "supports": ([list(s) for s in supports], ""),
    }


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer, ops, overhead_ratio):
    """Per-layer figures from the spans of ``ops`` traced operations.

    Counts and seconds are per operation; ``per_call_us`` is self time per
    call; ratios count outcomes over calls.  See README.md for each name.
    """
    selfs = tracer.self_times()
    groups = tracer.spans_by_name()
    out = {}

    def spans(name):
        return groups.get(name, [])

    def dur(i):
        return tracer.end[i] - tracer.start[i]

    def per_op(x):
        return x / ops

    def ratio(hits, total):
        return hits / total if total else 0.0

    def basic(name, calls=True, total=False, self_=False, per_call=False):
        idx = spans(name)
        if calls:
            out[f"{name}.calls"] = (per_op(len(idx)), "count/op")
        if total:
            out[f"{name}.s"] = (per_op(sum(dur(i) for i in idx)), "s/op")
        if self_:
            out[f"{name}.self_s"] = (per_op(sum(selfs[i] for i in idx)), "s/op")
        if per_call:
            us = 1e6 * sum(selfs[i] for i in idx) / len(idx) if idx else 0.0
            out[f"{name}.per_call_us"] = (us, "us")
        return idx

    def median_call(name):
        idx = spans(name)
        return (statistics.median(dur(i) for i in idx) if idx else 0.0, "s")

    def notes_true(idx):
        return sum(1 for i in idx if tracer.note[i])

    basic("cli.main", calls=False, self_=True)
    out["scenario.load_scenario.s"] = median_call("scenario.load_scenario")
    out["problem.assemble.s"] = median_call("problem.assemble")
    basic("problem.restrict", total=True)

    solve = basic("admm.solve", self_=True)
    out["admm.solve.iterations"] = (per_op(sum(tracer.note[i] or 0 for i in solve)), "count/op")
    basic("admm.update_v", total=True, self_=True, per_call=True)
    basic("admm.update_w", calls=False, total=True)
    basic("admm.update_u", calls=False, total=True)

    ffp = basic("admm.find_feasible_point", total=True, self_=True)
    ok = [i for i in ffp if tracer.error[i] is None]
    out["admm.find_feasible_point.success_ratio"] = (ratio(len(ok), len(ffp)), "ratio")
    cyclic = spans("admm.cyclic_projection")
    ffp_set = set(ffp)
    sweeps_in_ffp = sum(1 for i in cyclic if tracer.parent[i] in ffp_set)
    out["admm.find_feasible_point.restarts"] = (per_op(sweeps_in_ffp - len(ffp)), "count/op")
    refits = spans("selection.refit")
    good_refits = {i for i in refits if tracer.error[i] is None}
    in_good = sum(1 for i in ffp if tracer.ancestor(i, "selection.refit") in good_refits)
    out["admm.find_feasible_point.calls_per_refit"] = (ratio(in_good, len(good_refits)), "count")

    basic("admm.cyclic_projection", self_=True)
    out["admm.cyclic_projection.converged_ratio"] = (ratio(notes_true(cyclic), len(cyclic)), "ratio")
    restore = basic("admm.restore_feasibility", total=True)
    out["admm.restore_feasibility.converged_ratio"] = (ratio(notes_true(restore), len(restore)), "ratio")

    project = basic("projections.project", self_=True, per_call=True)
    out["projections.project.active_ratio"] = (ratio(notes_true(project), len(project)), "ratio")
    basic("shrinkage.group_shrink", total=True)

    basic("selection.refit")
    out["selection.refit.p50_s"] = median_call("selection.refit")
    infeasible = sum(1 for i in refits if tracer.error[i] == "InfeasibleProblemError")
    out["selection.refit.infeasible_ratio"] = (ratio(infeasible, len(refits)), "ratio")
    distinct = len({tracer.note[i] for i in refits})
    out["selection.refit.distinct_supports"] = (ratio(distinct, len(refits)), "ratio")
    for name in ("selection.select_support", "metrics.design_report", "metrics.msrr"):
        basic(name, calls=False, total=True)

    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    out["trace.missing_targets"] = (float(len(tracer.missing)), "count")
    return out


# -- output ----------------------------------------------------------------------


def print_summary(workload, rows, outcomes):
    """Every figure by name and unit, then the failures."""
    print(f"{outcomes.attempted} operations ({workload.trials_per_op} "
          f"{workload.op_name}s each), {outcomes.failed} failed")
    for name, (value, unit) in rows.items():
        text = f"{value:14.6g}" if isinstance(value, float) else f"{value!s:>14}"
        print(f"  {name:36s} {text} {unit}")
    for i, message in outcomes.failures[:20]:
        print(f"  FAILED op {i}: {message}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        sb = import_package()
        # set-up is an end-to-end metric, so only untraced runs time it
        setup_s, setup_raw = (None, []) if args.trace else setup_seconds()
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    tracer = Tracer()
    with tracer if args.trace else contextlib.nullcontext():
        scenario = sb.load_scenario(sb.bundled_scenario_path())
        problem = sb.assemble(scenario)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".run-") as out_dir:
        workload = make_workload(args.workload, sb, problem, args.seed, out_dir)
        print("env " + json.dumps(environment(args, workload), sort_keys=True))
        if not args.trace:
            outcomes = measure(workload, sb, args.seconds)
            metrics, printed = end_to_end(workload, outcomes, setup_s, setup_raw)
        else:
            plain, outcomes = measure_paired(workload, sb, args.seconds, tracer)
            overhead = sum(outcomes.times) / sum(plain.times)
            metrics = layer_metrics(tracer, outcomes.attempted, overhead)
            printed = {"missing_targets": (tracer.missing, "")}
            outcomes.failures.extend(plain.failures)
    print_summary(workload, {**metrics, **printed, **quality(outcomes)}, outcomes)
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
