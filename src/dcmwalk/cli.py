"""Command-line interface.

Subcommands: params, sample, stationary, hitting, cover, bp-sim,
exponent-sweep. Exit codes: 0 success, 2 validation failure, 3 numerical
failure, 4 capacity exceeded (an exact enumeration over its budget, or an
allocation the host cannot serve).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ._checks import read_int
from .branching import MarkedOffspringLaw, out_size_biased
from .degrees import BiDegreeDistribution, realize_sequence
from .errors import CapacityError, NumericalError, ValidationError
from .graph import Multigraph, sample_dcm
from .gwsim import fit_decay_rate, subcritical_tail_experiment
from .harness import RATE_GRID, ExperimentConfig, run_exponent_sweep, run_params
from .walks import (
    COVER_STARTS, POWER_TOL, cover_time_mc, hitting_time_mc, stationary_distribution
)

TAIL_COLUMNS = "t,a,successes,reps,p_hat,ci_lo,ci_hi,rate_hat,rate_theory"


def _int(text: str) -> int:
    """argparse type: an integer by `read_int`, the one integer rule of text.
    parse_args runs outside main's try, so its ValidationError is handed to
    argparse, which reports it and exits 2."""
    try:
        return read_int(text, "value")
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text: str) -> int:
    """argparse type: a non-negative integer (numpy seeds cannot be negative)."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers."""
    return tuple(map(_int, text.split(",")))


def _load_dist(path: str) -> BiDegreeDistribution:
    return BiDegreeDistribution.from_json(Path(path).read_text("utf-8"))


def _load_graph(args) -> Multigraph:
    if getattr(args, "graph", None):
        return Multigraph.from_edge_list(args.graph)
    if not getattr(args, "dist", None) or getattr(args, "n", None) is None:
        raise ValidationError("need either --graph FILE or --dist FILE with --n")
    return sample_dcm(realize_sequence(_load_dist(args.dist), args.n), rng_seed=args.seed)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, "ascii")
    else:
        sys.stdout.write(text)


def _cmd_params(args) -> int:
    record = run_params(_load_dist(args.dist), rate_grid=args.rate_grid)
    _write(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def _cmd_sample(args) -> int:
    _load_graph(args).to_edge_list(args.out)
    return 0


def _cmd_stationary(args) -> int:
    graph = _load_graph(args)
    res = stationary_distribution(graph, tol=args.tol)
    record = {
        "pi_min": res.pi_min,
        "pi_max": res.pi_max,
        "support_size": int(len(res.support)),
        "residual": res.residual,
        # log(1/pi_min) / log(n) is 0/0 on one vertex: written as null.
        "exponent_observed": (
            float(np.log(1.0 / res.pi_min) / np.log(graph.n)) if graph.n > 1 else None
        ),
    }
    _write(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def _cmd_hitting(args) -> int:
    graph = _load_graph(args)
    est = hitting_time_mc(graph, args.x, args.y, reps=args.reps, step_cap=args.step_cap,
                          rng_seed=args.seed)
    lines = ["replicate,steps,censored"]
    for i, (steps, censored) in enumerate(zip(est.samples, est.censored_mask)):
        lines.append(f"{i},{int(steps)},{int(censored)}")
    _write("\n".join(lines) + "\n", args.out)
    print(f"mean={est.mean:.6g} se={est.se:.6g} hits={est.hits} censored={est.censored}",
          file=sys.stderr)
    return 0


def _cmd_cover(args) -> int:
    graph = _load_graph(args)
    est = cover_time_mc(graph, reps=args.reps, step_cap=args.step_cap, rng_seed=args.seed,
                        n_starts=args.starts)
    lines = ["replicate,start,steps,censored"]
    for i, (steps, censored) in enumerate(zip(est.samples, est.censored_mask)):
        lines.append(f"{i},{est.start},{int(steps)},{int(censored)}")
    _write("\n".join(lines) + "\n", args.out)
    print(f"worst_start={est.start} mean={est.mean:.6g} se={est.se:.6g} "
          f"censored={est.censored}", file=sys.stderr)
    return 0


def _cmd_bp_sim(args) -> int:
    if args.law:
        eta = MarkedOffspringLaw.from_json(Path(args.law).read_text("utf-8"))
    elif args.dist:
        eta = out_size_biased(_load_dist(args.dist))
    else:
        raise ValidationError("need --law FILE or --dist FILE")
    rows = [TAIL_COLUMNS]
    estimates = []
    for t in args.t:
        est = subcritical_tail_experiment(eta, t=t, a=args.a, omega=args.omega, reps=args.reps,
                                          rng_seed=args.seed, event=args.event)
        estimates.append(est)
        rows.append(
            f"{est.t},{est.a:.12g},{est.successes},{est.reps},{est.p_hat:.12g},"
            f"{est.ci_lo:.12g},{est.ci_hi:.12g},{est.rate_hat:.12g},"
            f"{est.rate_theory:.12g}"
        )
    _write("\n".join(rows) + "\n", args.out)
    if len(args.t) >= 2:
        rate, stderr = fit_decay_rate(args.t, [e.p_hat for e in estimates])
        print(f"fit_rate={rate:.6g} fit_se={stderr:.6g}", file=sys.stderr)
    return 0


def _cmd_exponent_sweep(args) -> int:
    if args.config:
        config = ExperimentConfig.from_json(Path(args.config).read_text("utf-8"))
    else:
        if not args.dist or not args.n_ladder:
            raise ValidationError("need --config FILE or --dist with --n-ladder")
        config = ExperimentConfig(
            dist_json=Path(args.dist).read_text("utf-8"),
            n_ladder=args.n_ladder,
            seeds_per_n=args.seeds_per_n,
            master_seed=args.seed,
            power_tol=args.tol,
        )
    run_exponent_sweep(config, args.out, threads=args.threads)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcmwalk",
        description="Directed configuration model walks: analytic exponents "
        "and desk-scale simulation.",
        allow_abbrev=False,
    )
    parser.add_argument("--seed", type=_seed, default=0, help="master RNG seed")
    parser.add_argument("--threads", type=_int, default=1, help="worker processes")
    parser.add_argument("--tol", type=float, default=POWER_TOL, help="iteration tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, allow_abbrev=False, parents=parents, help=help)
        p.set_defaults(func=func)
        return p

    # A subcommand's --seed overrides the top-level one only when given.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=argparse.SUPPRESS)
    # The graph source of stationary, hitting and cover: a file, or a law to
    # sample; their output goes to stdout unless --out names a file.
    source = argparse.ArgumentParser(add_help=False, parents=[seeded])
    source.add_argument("--graph")
    source.add_argument("--dist")
    source.add_argument("--n", type=_int)
    source.add_argument("--out")

    p = command("params", _cmd_params, "analytic parameters of a distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--rate-grid", type=_int, default=RATE_GRID, dest="rate_grid")
    p.add_argument("--out")

    p = command("sample", _cmd_sample, "sample a configuration-model graph", seeded)
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--out", required=True)

    command("stationary", _cmd_stationary, "stationary distribution diagnostics", source)

    p = command("hitting", _cmd_hitting, "Monte Carlo hitting time, CSV per replicate", source)
    p.add_argument("--x", type=_int, required=True)
    p.add_argument("--y", type=_int, required=True)
    p.add_argument("--reps", type=_int, default=1000)
    p.add_argument("--step-cap", type=_int, default=10**9, dest="step_cap")

    p = command("cover", _cmd_cover, "Monte Carlo cover time, CSV per replicate", source)
    p.add_argument("--reps", type=_int, default=200)
    p.add_argument("--step-cap", type=_int, default=10**9, dest="step_cap")
    p.add_argument("--starts", type=_int, default=COVER_STARTS)

    p = command("bp-sim", _cmd_bp_sim, "subcritical tail experiment over a t ladder", seeded)
    p.add_argument("--law", help="marked offspring law JSON")
    p.add_argument("--dist", help="distribution JSON (out-size-biased law is used)")
    p.add_argument("--t", type=_int_list, required=True, help="comma-separated generation ladder")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--omega", type=_int, default=200)
    p.add_argument("--reps", type=_int, default=10**5)
    p.add_argument("--event", choices=("lb", "ub"), default="lb")
    p.add_argument("--out")

    p = command("exponent-sweep", _cmd_exponent_sweep, "pi_min exponent sweep over an n ladder",
                seeded)
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--dist")
    p.add_argument("--n-ladder", type=_int_list, dest="n_ladder", help="comma-separated n values")
    p.add_argument("--seeds-per-n", type=_int, default=1, dest="seeds_per_n")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CapacityError, MemoryError) as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
