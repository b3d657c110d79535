"""Command line: solve, sweep-k, sweep-m, check-config.

Exit codes: 0 for a feasible design, 2 when a design is infeasible, 1 for
configuration, I/O, or numerical failures.  Artifacts are JSON (reports) and
CSV (tabular data); every artifact embeds the scenario hash and master seed,
CSVs as leading '#'-comment lines.  Complex values are written as 're+imj'.
"""

import argparse
import functools
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .admm import IterationRecord, solve
from .errors import ConfigurationError, InfeasibleProblemError, ProjectionError
from .metrics import CONSTRAINT_KINDS, design_report, msrr, tx_power
from .problem import assemble
from .scenario import load_scenario, scenario_sha256, scenario_to_dict
from .selection import random_selection_baseline, refit, select_support

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1: exit code 2 is reserved for infeasible designs
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_FAILURE)


def _fmt(value):
    # float() first: numpy's float64 and complex128 scalars pass the
    # isinstance tests, but numpy >= 2 writes their repr as "np.float64(...)"
    if isinstance(value, complex):
        return f"{float(value.real)!r}{float(value.imag):+}j"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows, scenario, digest=None, **meta):
    """CSV led by '#'-comment lines: the scenario hash (``digest`` if the
    caller has it), the seed, then ``meta``, in a directory made if missing."""
    meta = {"scenario_sha256": digest or scenario_sha256(scenario), "seed": scenario.seed,
            **meta}
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@functools.cache
def _git_commit():
    """HEAD of the checkout the package runs from, whatever the caller's cwd;
    asked once per process."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=Path(__file__).parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance(scenario, digest):
    return {
        "scenario_sha256": digest,
        "seed": scenario.seed,
        "package_version": __version__,
        "git_commit": _git_commit(),
    }


def _json_ready(value):
    if isinstance(value, np.ndarray):
        return [_json_ready(x) for x in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex) or (
        isinstance(value, float) and not np.isfinite(value)
    ):
        return _fmt(value)
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def cmd_solve(scenario, out_dir):
    """End-to-end: sparse solve, select K antennas, refit, report."""
    problem = assemble(scenario)
    state = solve(problem, scenario.admm)
    support = select_support(state.w, scenario.num_selected, problem.M, problem.N)
    stack = refit(problem, support, scenario.admm)
    report = design_report(stack.w, problem)
    last = state.history[-1] if state.history else IterationRecord(0, None, None, None)
    digest = scenario_sha256(scenario)  # one hash for the report and both CSVs
    payload = {
        "provenance": _provenance(scenario, digest),
        "scenario": scenario_to_dict(scenario),
        "support": list(support),
        "metrics": {
            "tx_power_w": report.tx_power_w,
            "msrr": report.msrr,
            "msrr_db": report.msrr_db,
            "sinr": report.sinr,
            "antenna_power_w": report.antenna_power_w,
            "max_violation_by_kind": report.max_violation_by_kind,
            "feasible": report.feasible,
        },
        "beamformers": {
            "stack": stack.w,
            "num_users": problem.M,
            "num_antennas": problem.N,
        },
        "solver": {
            "iterations": state.k,
            "stop_reason": state.stop_reason,
            "final_objective": last.objective,
            "final_primal_residual": last.primal_residual,
            "final_dual_residual": last.dual_residual,
        },
    }
    out = Path(out_dir)  # made only now: a failed run leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    _write_csv(
        out / "beampattern.csv",
        ["angle_deg", "response"],
        list(zip(report.pattern_angles_deg, report.pattern_response)),
        scenario,
        digest,
    )
    _write_csv(
        out / "history.csv",
        ["k", "objective", "primal_residual", "dual_residual"],
        [
            (r.k, r.objective, r.primal_residual, r.dual_residual)
            for r in state.history
        ],
        scenario,
        digest,
    )
    print(
        f"solve: K={scenario.num_selected} support={list(support)} "
        f"TxPower={report.tx_power_w:.4f} W MSRR={report.msrr:.3f} "
        f"feasible={report.feasible}"
    )
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _proposed_row(key, problem, design):
    """The "proposed" sweep row of the stack ``design()`` returns, or a NaN
    row counting one infeasible design when it raises that it is infeasible."""
    try:
        stack = design()
    except InfeasibleProblemError:
        return (key, "proposed", float("nan"), float("nan"), 1)
    return (key, "proposed", tx_power(stack.w), msrr(stack.w, problem), 0)


def cmd_sweep_k(scenario, k_list, trials, out_dir):
    """Proposed selection vs random subsets over a list of K values."""
    if not k_list:
        raise ConfigurationError("sweep-k needs at least one K value")
    for K in k_list:
        if not 1 <= K <= scenario.N:
            raise ConfigurationError(f"K={K} outside 1..{scenario.N}")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    problem = assemble(scenario)
    state = solve(problem, scenario.admm)
    rows = []
    certified = {}  # K -> certified random draws; stdout only, the CSV is fixed
    for K in k_list:
        support = select_support(state.w, K, problem.M, problem.N)
        rows.append(_proposed_row(K, problem, lambda: refit(problem, support, scenario.admm)))
        base = random_selection_baseline(
            problem, K, trials, scenario.seed, scenario.admm
        )
        rows.append(
            (K, "random", base.tx_power_mean, base.msrr_mean, base.infeasible_count)
        )
        certified[K] = base.certified_count
    _write_csv(
        Path(out_dir) / "sweep.csv",
        ["K", "method", "mean_tx_power_w", "mean_msrr", "infeasible_count"],
        rows,
        scenario,
        trials=trials,
    )
    for row in rows:
        line = (
            f"sweep-k: K={row[0]} method={row[1]} TxPower={row[2]} "
            f"MSRR={row[3]} infeasible={row[4]}"
        )
        if row[1] == "random":
            line += f" certified={certified[row[0]]}"
        print(line)
    return EXIT_OK


def _spread_angles(span, M):
    lo, hi = span
    if M == 1:
        return (0.5 * (lo + hi),)
    return tuple(float(a) for a in np.linspace(lo, hi, M))


def scenario_with_users(scenario, M):
    """The same scenario with M users spread over the configured span.

    Keeps the scenario's own users when M matches, so a sweep over the
    scenario's M reproduces the plain solve.  Per-user noise and SINR lists
    broadcast their first entry.
    """
    if M == scenario.M:
        return scenario
    return replace(
        scenario,
        user_angles_deg=_spread_angles(scenario.sweep_user_span_deg, M),
        noise_variance=tuple(scenario.noise_variance[0] for _ in range(M)),
        sinr_target=tuple(scenario.sinr_target[0] for _ in range(M)),
    )


def cmd_sweep_m(scenario, m_list, out_dir):
    """Solve the full pipeline for each user count."""
    if not m_list:
        raise ConfigurationError("sweep-m needs at least one M value")
    for M in m_list:
        if M < 1:
            raise ConfigurationError(f"M={M} must be >= 1")
    rows = []
    for M in m_list:
        sc = scenario_with_users(scenario, M)
        problem = assemble(sc)

        def design():
            state = solve(problem, sc.admm)
            support = select_support(state.w, sc.num_selected, problem.M, problem.N)
            return refit(problem, support, sc.admm)

        rows.append(_proposed_row(M, problem, design))
    _write_csv(
        Path(out_dir) / "sweep.csv",
        ["M", "method", "tx_power_w", "msrr", "infeasible_count"],
        rows,
        scenario,
    )
    for row in rows:
        print(
            f"sweep-m: M={row[0]} TxPower={row[2]} MSRR={row[3]} "
            f"infeasible={row[4]}"
        )
    return EXIT_OK


def cmd_check_config(scenario):
    problem = assemble(scenario)
    counts = ", ".join(
        f"{kind}={sum(k == kind for k, _ in problem.row_names)}" for kind in CONSTRAINT_KINDS
    )
    print(
        f"check-config: N={problem.N} M={problem.M} K={scenario.num_selected} "
        f"L={problem.L} constraints ({counts})"
    )
    return EXIT_OK


def _build_parser():
    parser = _Parser(prog="sparsebeam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument(
            "--parallel", type=int, default=None,
            help="accepted for compatibility with older scripts; has no effect",
        )

    p_solve = sub.add_parser("solve", help="single end-to-end design")
    common(p_solve)

    p_k = sub.add_parser("sweep-k", help="metrics versus selected antenna count")
    common(p_k)
    p_k.add_argument("--k", type=int, nargs="+", required=True, help="K values")
    p_k.add_argument(
        "--trials", type=int, default=100, help="random-selection Monte-Carlo trials"
    )

    p_m = sub.add_parser("sweep-m", help="metrics versus user count")
    common(p_m)
    p_m.add_argument("--m", type=int, nargs="+", required=True, help="M values")

    p_c = sub.add_parser("check-config", help="validate a scenario and print sizes")
    p_c.add_argument("--scenario", required=True)

    return parser


def _apply_overrides(scenario, args):
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:  # the schema's "minimum": 0, which a loaded file meets
            raise ConfigurationError(f"--seed must be an integer >= 0, got {args.seed}")
        scenario = replace(scenario, seed=args.seed)
    if getattr(args, "parallel", None) is not None:
        # validated, then dropped: it has no effect, so no artifact records it
        replace(scenario.admm, parallel=args.parallel)
    return scenario


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        scenario = _apply_overrides(load_scenario(args.scenario), args)
        if args.command == "solve":
            return cmd_solve(scenario, args.out)
        if args.command == "sweep-k":
            return cmd_sweep_k(scenario, args.k, args.trials, args.out)
        if args.command == "sweep-m":
            return cmd_sweep_m(scenario, args.m, args.out)
        return cmd_check_config(scenario)
    except InfeasibleProblemError as err:
        print(f"error: infeasible: {err}", file=sys.stderr)
        for description, violation in err.worst_violations:
            print(f"  {description}: violation {violation:.3e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigurationError, ProjectionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
