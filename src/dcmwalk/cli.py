"""Command-line interface.

Subcommands: params, sample, stationary, hitting, cover, bp-sim,
exponent-sweep. Exit codes: 0 success, 2 validation failure, 3 numerical
failure, 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .branching import MarkedOffspringLaw, out_size_biased
from .degrees import BiDegreeDistribution, realize_sequence
from .errors import CapacityError, NumericalError, ValidationError
from .graph import Multigraph, sample_dcm
from .gwsim import fit_decay_rate, subcritical_tail_experiment
from .harness import ExperimentConfig, run_exponent_sweep, run_params
from .walks import cover_time_mc, hitting_time_mc, stationary_distribution

TAIL_COLUMNS = "t,a,successes,reps,p_hat,ci_lo,ci_hi,rate_hat,rate_theory"


def _load_dist(path: str) -> BiDegreeDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return BiDegreeDistribution.from_json(fh.read())


def _load_graph(args) -> Multigraph:
    if getattr(args, "graph", None):
        return Multigraph.from_edge_list(args.graph)
    if not getattr(args, "dist", None) or getattr(args, "n", None) is None:
        raise ValidationError("need either --graph FILE or --dist FILE with --n")
    dist = _load_dist(args.dist)
    seq = realize_sequence(dist, args.n)
    return sample_dcm(seq, rng_seed=args.seed)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_params(args) -> int:
    record = run_params(_load_dist(args.dist), rate_grid=args.rate_grid)
    _write(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def _cmd_sample(args) -> int:
    dist = _load_dist(args.dist)
    seq = realize_sequence(dist, args.n)
    graph = sample_dcm(seq, rng_seed=args.seed)
    graph.to_edge_list(args.out)
    return 0


def _cmd_stationary(args) -> int:
    graph = _load_graph(args)
    res = stationary_distribution(graph, tol=args.tol)
    record = {
        "pi_min": res.pi_min,
        "pi_max": res.pi_max,
        "support_size": int(len(res.support)),
        "residual": res.residual,
        "exponent_observed": float(np.log(1.0 / res.pi_min) / np.log(graph.n)),
    }
    _write(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def _cmd_hitting(args) -> int:
    graph = _load_graph(args)
    est = hitting_time_mc(
        graph, args.x, args.y, reps=args.reps, step_cap=args.step_cap,
        rng_seed=args.seed,
    )
    lines = ["replicate,steps,censored"]
    for i, (steps, censored) in enumerate(zip(est.samples, est.censored_mask)):
        lines.append(f"{i},{int(steps)},{int(censored)}")
    _write("\n".join(lines) + "\n", args.out)
    print(
        f"mean={est.mean:.6g} se={est.se:.6g} hits={est.hits} "
        f"censored={est.censored}",
        file=sys.stderr,
    )
    return 0


def _cmd_cover(args) -> int:
    graph = _load_graph(args)
    est = cover_time_mc(
        graph, reps=args.reps, step_cap=args.step_cap, rng_seed=args.seed,
        n_starts=args.starts,
    )
    lines = ["replicate,start,steps,censored"]
    for i, (steps, censored) in enumerate(zip(est.samples, est.censored_mask)):
        lines.append(f"{i},{est.start},{int(steps)},{int(censored)}")
    _write("\n".join(lines) + "\n", args.out)
    print(
        f"worst_start={est.start} mean={est.mean:.6g} se={est.se:.6g} "
        f"censored={est.censored}",
        file=sys.stderr,
    )
    return 0


def _cmd_bp_sim(args) -> int:
    if args.law:
        with open(args.law, "r", encoding="utf-8") as fh:
            eta = MarkedOffspringLaw.from_json(fh.read())
    elif args.dist:
        eta = out_size_biased(_load_dist(args.dist))
    else:
        raise ValidationError("need --law FILE or --dist FILE")
    ts = [int(v) for v in args.t.split(",")]
    rows = [TAIL_COLUMNS]
    estimates = []
    for t in ts:
        est = subcritical_tail_experiment(
            eta, t=t, a=args.a, omega=args.omega, reps=args.reps,
            rng_seed=args.seed, event=args.event,
        )
        estimates.append(est)
        rows.append(
            f"{est.t},{est.a:.12g},{est.successes},{est.reps},{est.p_hat:.12g},"
            f"{est.ci_lo:.12g},{est.ci_hi:.12g},{est.rate_hat:.12g},"
            f"{est.rate_theory:.12g}"
        )
    _write("\n".join(rows) + "\n", args.out)
    if len(ts) >= 2:
        rate, stderr = fit_decay_rate(ts, [e.p_hat for e in estimates])
        print(f"fit_rate={rate:.6g} fit_se={stderr:.6g}", file=sys.stderr)
    return 0


def _cmd_exponent_sweep(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = ExperimentConfig.from_json(fh.read())
    else:
        if not args.dist or not args.n_ladder:
            raise ValidationError("need --config FILE or --dist with --n-ladder")
        with open(args.dist, "r", encoding="utf-8") as fh:
            dist_json = fh.read()
        config = ExperimentConfig(
            dist_json=dist_json,
            n_ladder=tuple(int(v) for v in args.n_ladder.split(",")),
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
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--threads", type=int, default=1, help="worker processes")
    parser.add_argument("--tol", type=float, default=1e-12, help="iteration tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", allow_abbrev=False, help="analytic parameters of a distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--rate-grid", type=int, default=64, dest="rate_grid")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("sample", allow_abbrev=False, help="sample a configuration-model graph")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stationary", allow_abbrev=False, help="stationary distribution diagnostics")
    p.add_argument("--graph")
    p.add_argument("--dist")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stationary)

    p = sub.add_parser("hitting", allow_abbrev=False, help="Monte Carlo hitting time, CSV per replicate")
    p.add_argument("--graph")
    p.add_argument("--dist")
    p.add_argument("--n", type=int)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--step-cap", type=int, default=10**9, dest="step_cap")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hitting)

    p = sub.add_parser("cover", allow_abbrev=False, help="Monte Carlo cover time, CSV per replicate")
    p.add_argument("--graph")
    p.add_argument("--dist")
    p.add_argument("--n", type=int)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--step-cap", type=int, default=10**9, dest="step_cap")
    p.add_argument("--starts", type=int, default=10)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("bp-sim", allow_abbrev=False, help="subcritical tail experiment over a t ladder")
    p.add_argument("--law", help="marked offspring law JSON")
    p.add_argument("--dist", help="distribution JSON (out-size-biased law is used)")
    p.add_argument("--t", required=True, help="comma-separated generation ladder")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--omega", type=int, default=200)
    p.add_argument("--reps", type=int, default=10**5)
    p.add_argument("--event", choices=("lb", "ub"), default="lb")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bp_sim)

    p = sub.add_parser("exponent-sweep", allow_abbrev=False, help="pi_min exponent sweep over an n ladder")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--dist")
    p.add_argument("--n-ladder", dest="n_ladder", help="comma-separated n values")
    p.add_argument("--seeds-per-n", type=int, default=1, dest="seeds_per_n")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_exponent_sweep)

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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
