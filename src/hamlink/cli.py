"""Command-line interface.

Commands:
    synth      synthesize a feedback realization for a problem document
    verify     re-check a written report against its problem; --simulate
               also compares the two descriptions' moment trajectories
    example    write the bundled demonstration problem
    simulate   integrate the moments of a problem's direct dynamics

Exit codes: 0 success; 1 malformed input, bad parameters or a usage error;
2 infeasible channel count; 3 verification, self-check, or trajectory
comparison failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .demo import demo_problem
from .errors import (
    AlgebraicLoopError,
    DivergenceError,
    HamlinkError,
    InfeasibleChannelCountError,
    SingularParameterError,
    ValidationError,
)
from .files import (
    load_mixing_matrix,
    load_problem,
    load_report,
    make_provenance,
    save_problem,
    save_report,
    save_trajectory,
)
from .lqss import direct_dynamics
from .symcore import (
    RANK_TOL,
    RESIDUAL_TOL,
    SIM_TOL,
    check_count,
    check_positive,
    check_rank_tol,
    check_tolerance,
    max_abs,
    special_svd,
)
from .synth import SynthOptions, synthesize
from .verify import (
    check_equivalence,
    closed_loop_dynamics,
    compare_moment_trajectories,
    simulate_moments,
)

__all__ = ["main", "app"]


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_csv(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"expects comma-separated numbers, got {text!r}") from None


def _flag(convert, rule=None, name: str = ""):
    """argparse type that converts a flag's value, then checks it with the
    library's rule if one is given, so that a bad value is refused while
    the command line is parsed."""
    def parse(text: str):
        try:
            value = convert(text)
            return value if rule is None else rule(value, name)
        except (ValueError, ValidationError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _merge_options(base: SynthOptions, args: argparse.Namespace) -> SynthOptions:
    """The document's options, with the synth flags given laid over them."""
    updates = {
        name: getattr(args, name)
        for name in ("m", "y1", "y2", "ga1", "ga2", "p", "rank_tol")
        if getattr(args, name) is not None
    }
    return dataclasses.replace(base, **updates) if updates else base


def _print_report(report) -> None:
    """One line per check, then the verdict."""
    for name, ok in report.checks.items():
        verdict = "ok" if ok else "FAIL"
        if name in report.flags:
            print(f"  {name:22s} {verdict}")
            continue
        tol = report.moment_tol if name == "moment_residual" else report.tol
        value = getattr(report, name)
        print(f"  {name:22s} {value:12.3e}  tol {tol:g}  {verdict}")
    if report.passed:
        print("verdict: PASS")
    else:
        print(f"verdict: FAIL ({', '.join(report.failing())})")


def _default_report_path(problem_path: Path) -> Path:
    return problem_path.with_suffix(".report.json")


def _synth_one(problem_path: Path, out_path: Path, args: argparse.Namespace) -> int:
    problem = load_problem(problem_path)
    options = _merge_options(problem.options, args)
    di = problem.interaction
    realization = synthesize(
        di.sys_a.r, di.sys_b.r, di.r_ab, options=options
    )
    report = check_equivalence(di, realization, tol=args.tol)
    provenance = make_provenance(problem_path, options)
    save_report(realization, report, provenance, out_path)
    print(f"{problem_path}: m={realization.m}, report written to {out_path}")
    _print_report(report)
    return 0 if report.passed else 3


def _code_for(exc: Exception, command: str) -> int:
    if isinstance(exc, InfeasibleChannelCountError):
        return 2
    if isinstance(exc, (ValidationError, SingularParameterError)):
        return 1
    if isinstance(exc, (AlgebraicLoopError, DivergenceError)):
        # During synthesis these stem from the user's parameter choices;
        # during verification or simulation they are failed checks.
        return 1 if command == "synth" else 3
    if isinstance(exc, HamlinkError):
        return 3
    if isinstance(exc, OSError):
        return 1
    raise exc


def cmd_synth(args: argparse.Namespace) -> int:
    if (args.problem is None) == (args.batch is None):
        _err("synth needs exactly one of a problem path or --batch DIR")
        return 1
    if args.batch is not None and args.output:
        _err("synth takes --output PATH or --batch DIR, not both")
        return 1
    if args.batch is None:
        problem_path = Path(args.problem)
        out_path = (
            Path(args.output) if args.output else _default_report_path(problem_path)
        )
        return _synth_one(problem_path, out_path, args)

    directory = Path(args.batch)
    if not directory.is_dir():
        _err(f"--batch: {directory} is not a directory")
        return 1
    paths = sorted(
        p for p in directory.glob("*.json") if not p.name.endswith(".report.json")
    )
    if not paths:
        _err(f"--batch: no problem documents in {directory}")
        return 1
    worst = 0
    for path in paths:
        try:
            code = _synth_one(path, _default_report_path(path), args)
        except Exception as exc:  # per-file isolation; mapping decides
            code = _code_for(exc, "synth")
            _err(f"{path}: {exc}")
        worst = max(worst, code)
    print(f"batch: {len(paths)} problems, worst exit code {worst}")
    return worst


def cmd_verify(args: argparse.Namespace) -> int:
    if args.simulate is None and args.sim_tol is not None:
        _err("verify takes --sim-tol only with --simulate")
        return 1
    problem = load_problem(args.problem)
    doc = load_report(args.report)
    report = check_equivalence(
        problem.interaction, doc.realization, tol=args.tol
    )
    if args.simulate is not None:
        t_final, dt = args.simulate
        residual = compare_moment_trajectories(
            direct_dynamics(problem.interaction),
            closed_loop_dynamics(problem.interaction, doc.realization),
            t_final,
            dt,
        )
        report = dataclasses.replace(
            report, moment_residual=residual, moment_tol=args.sim_tol
        )
    print(f"{args.report} against {args.problem}:")
    _print_report(report)
    return 0 if report.passed else 3


def cmd_example(args: argparse.Namespace) -> int:
    problem = demo_problem()
    out_path = Path(args.output)
    save_problem(problem, out_path)
    print(f"wrote {out_path}")

    di = problem.interaction
    svd = special_svd(di.r_ab)
    realization = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
    print("expected outcomes when synthesizing this problem:")
    print(f"  minimum channel count: {realization.m}")
    with np.printoptions(precision=4, suppress=True):
        print(f"  coupling block diagonals: {svd.block1_diag()} "
              f"and {svd.block2_diag()}")
        print("  loop matrix x:")
        print("    " + str(realization.x).replace("\n", "\n    "))
        print("  loop gain sigma:")
        print("    " + str(realization.sigma).replace("\n", "\n    "))
    report = check_equivalence(di, realization)
    _print_report(report)
    return 0 if report.passed else 3


def cmd_simulate(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    direct = direct_dynamics(problem.interaction)
    traj = simulate_moments(direct, args.t_final, args.dt)
    final_mean = max_abs(traj.means[-1])
    final_cov = traj.covariances[-1]
    k = traj.stationary_from
    stationary = (
        "" if k is None else f", stationary from t={traj.times[k]:g} (step {k})"
    )
    print(
        f"simulated to t={traj.times[-1]:g} in {len(traj.times) - 1} steps; "
        f"final max |mean| {final_mean:.6g}, final cov trace "
        f"{float(np.trace(final_cov)):.6g}{stationary}"
    )
    if args.output:
        save_trajectory(traj, args.output)
        print(f"trajectory written to {args.output}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Subcommands are dispatched by name in main, so the parser holds no
    reference to the cmd_* functions.
    """
    parser = argparse.ArgumentParser(
        prog="hamlink",
        description=(
            "Synthesize and verify feedback realizations of bilinear "
            "couplings between open linear systems."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"hamlink {__version__}"
    )
    # --tol, shared by the subcommands that take it.
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol", type=_flag(float, check_tolerance, "tol"), default=RESIDUAL_TOL,
        help=f"scaled residual tolerance of the checks (default {RESIDUAL_TOL:g})",
    )
    sub = parser.add_subparsers(dest="command")

    p_synth = sub.add_parser(
        "synth", parents=[tol], help="synthesize a realization and write a report"
    )
    p_synth.add_argument("problem", nargs="?", help="problem document path")
    p_synth.add_argument(
        "--batch", metavar="DIR",
        help="process every *.json problem in DIR instead of a single file",
    )
    p_synth.add_argument(
        "--output", "-o", metavar="PATH",
        help="report path (default: problem path with .report.json; "
        "not with --batch)",
    )
    p_synth.add_argument(
        "--m", type=_flag(int, check_count, "m"), help="interconnection channel count"
    )
    for flag, meaning in (
        ("--y1", "loop diagonal, first half"),
        ("--y2", "loop diagonal, second half"),
        ("--ga1", "first-system gains, first half"),
        ("--ga2", "first-system gains, second half"),
    ):
        p_synth.add_argument(flag, type=_flag(_parse_csv), metavar="CSV", help=meaning)
    p_synth.add_argument(
        "--p-matrix", dest="p", type=_flag(load_mixing_matrix), metavar="PATH",
        help="JSON file with an orthogonal symplectic mixing matrix",
    )
    p_synth.add_argument(
        "--rank-tol", type=_flag(float, check_rank_tol, "rank_tol"),
        help=f"relative rank threshold for the coupling (default {RANK_TOL:g})",
    )

    p_verify = sub.add_parser(
        "verify", parents=[tol], help="re-check a report against its problem"
    )
    p_verify.add_argument("problem", help="problem document path")
    p_verify.add_argument("report", help="report document path")
    p_verify.add_argument(
        "--simulate", nargs=2, type=_flag(float, check_positive, "T_FINAL and DT"),
        metavar=("T_FINAL", "DT"),
        help="also compare moment trajectories over [0, T_FINAL] at step DT",
    )
    p_verify.add_argument(
        "--sim-tol", type=_flag(float, check_tolerance, "sim_tol"),
        help=f"absolute tolerance of the moment comparison (default {SIM_TOL:g})",
    )

    p_example = sub.add_parser(
        "example", help="write the bundled demonstration problem"
    )
    p_example.add_argument(
        "--output", "-o", metavar="PATH", default="demo_problem.json",
        help="where to write the problem (default demo_problem.json)",
    )

    p_sim = sub.add_parser(
        "simulate", help="integrate moments of the direct dynamics"
    )
    p_sim.add_argument("problem", help="problem document path")
    p_sim.add_argument(
        "--t-final", type=_flag(float, check_positive, "t_final"), default=10.0,
        help="integration horizon (default 10)",
    )
    p_sim.add_argument(
        "--dt", type=_flag(float, check_positive, "dt"), default=1e-3,
        help="time step (default 1e-3)",
    )
    p_sim.add_argument(
        "--output", "-o", metavar="PATH",
        help="write the simulated trajectory as JSON",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help and --version
            raise
        # argparse exits 2 on a usage error, but 2 means an infeasible
        # channel count here; a usage error is malformed input.
        return 1
    if args.command is None:
        parser.print_help()
        return 1
    # Looked up at call time, so a wrapper bound to cmd_<name> is what runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except Exception as exc:
        code = _code_for(exc, args.command)
        _err(f"error: {exc}")
        return code


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
