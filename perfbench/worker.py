"""One benchmark repetition in a fresh process: set up, run one workload,
check its outputs, and print a single JSON line.

Started by run.py; not meant to be run by hand. Timing starts at the first
library call of the workload, so `wall_s` excludes the import and the
set-up, and it ends when the workload's outputs exist. The correctness
gates run after the clock stops; an operation that raises or fails its gate
counts as failed. `setup_s` runs from the moment run.py launched this
process (`--t0`, a CLOCK_MONOTONIC reading) to the first timed call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import dcmwalk

from spans import TAIL_TS, Tracer

# The worked example of the paper: in-degrees 0/5, out-degrees 2/3.
TOY_PMF = {(0, 2): 0.25, (0, 3): 0.25, (5, 2): 0.25, (5, 3): 0.25}

SWEEP_LADDER = (1024, 2048, 4096, 16384, 65536)
SWEEP_SEEDS_PER_N = 16
SLOPE_BAND = (1.25, 1.90)  # acceptance criterion 8
LARGE_NS = (2**20, 2**21)
# Walk times use in- and out-degrees 3 or 4. Cover time is set by the
# hardest vertex to reach, so it varies with the graph: tenfold between toy
# graphs (a few vertices of tiny pi), CV 0.18 between graphs with degrees
# 2-3, CV 0.05 with degrees 3-4. Several graphs per run average the rest.
WALK_PMF = {(3, 3): 0.25, (3, 4): 0.25, (4, 3): 0.25, (4, 4): 0.25}
WALK_N = 250
WALK_GRAPHS = 4
WALK_COVER_REPS = 200
WALK_MC_REPS = 2500
WALK_STEP_CAP = 10**6
KAC_TOL = 1e-8  # acceptance criterion 7
RESIDUAL_TOL = 1e-10  # acceptance criterion 7
TAIL_REPS = 200_000
TAIL_RATE_TOL = 0.2  # acceptance criterion 10


class Outcome:
    """Operations attempted and failed in one repetition, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def fail_all(self, what: str) -> None:
        """A run-level gate failed: every operation of the run counts as failed."""
        self.failed = self.attempted
        self.errors.append(what)


class Stopwatch:
    """Accumulates the timed segments of one repetition and the peak RSS
    at the end of the last one, so gates between segments are not timed."""

    def __init__(self):
        self.elapsed = 0.0
        self.peak_kib = 0

    def __enter__(self):
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed += time.monotonic() - self._start
        self.peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


def toy() -> dcmwalk.BiDegreeDistribution:
    return dcmwalk.BiDegreeDistribution(dict(TOY_PMF))


# --- sweep -----------------------------------------------------------------


def setup_sweep(seed: int, workdir: Path) -> dict:
    dist = toy()
    predicted = dcmwalk.run_params(dist)["exponent"]
    config = dcmwalk.ExperimentConfig(
        dist_json=dist.to_json(),
        n_ladder=SWEEP_LADDER,
        seeds_per_n=SWEEP_SEEDS_PER_N,
        master_seed=seed,
    )
    return {"config": config, "csv": workdir / "sweep.csv", "predicted": predicted}


def run_sweep(inp: dict, res: Outcome, clock: Stopwatch) -> str:
    """Returns the CSV's digest, which must repeat across repetitions."""
    with clock:
        dcmwalk.run_exponent_sweep(inp["config"], str(inp["csv"]), threads=1)
    data = inp["csv"].read_bytes()
    lines = data.decode("ascii").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    cells = [r for r in rows if r["status"] != "slope"]
    expected = len(SWEEP_LADDER) * SWEEP_SEEDS_PER_N
    for r in cells:
        if r["status"] == "ok":
            pi_min = float(r["pi_min"])
            ok = 0.0 < pi_min <= 1.0 and math.isfinite(float(r["exp_obs"]))
        else:
            ok = r["status"] == "no_attractive_scc"
        res.check(ok, f"cell n={r['n']} seed={r['seed']}: {r['status']}")
    for _ in range(expected - len(cells)):
        res.check(False, "missing sweep cell")
    slope = [float(r["exp_obs"]) for r in rows if r["status"] == "slope"]
    if len(slope) != 1 or not SLOPE_BAND[0] <= slope[0] <= SLOPE_BAND[1]:
        res.fail_all(
            f"slope row {slope} outside {SLOPE_BAND} (predicted {inp['predicted']:.3f})"
        )
    return hashlib.sha256(data).hexdigest()


# --- large-n -----------------------------------------------------------------


def setup_large(seed: int, workdir: Path) -> dict:
    return {"dist": toy(), "seed": seed}


def run_large(inp: dict, res: Outcome, clock: Stopwatch) -> None:
    """Cells are timed one at a time and each is gated while its graph is
    alive, so the smaller graph is not kept during the larger. The peak RSS
    is read before the last (largest) cell's gate."""
    for n in LARGE_NS:
        with clock:
            g, stat = large_cell(inp, n)
        check_large_cell(g, stat, res)
        del g, stat


def large_cell(inp: dict, n: int):
    """One sweep cell at size n, as harness._sweep_cell runs it, keeping the
    graph and stationary result for the gates."""
    dist = inp["dist"]
    seq = dcmwalk.realize_sequence(dist, n)
    dcmwalk.validate_sequence(seq, max_degree_cap=max(dist.max_in, dist.max_out))
    g = dcmwalk.sample_dcm(seq, rng_seed=dcmwalk.derive_seed(inp["seed"], n, 0))
    try:
        stat = dcmwalk.stationary_distribution(g, tol=dcmwalk.walks.POWER_TOL)
    except dcmwalk.NonUniqueError:
        stat = None
    return g, stat


def check_large_cell(g, stat, res: Outcome) -> None:
    """Residual below tol, and support equal to the unique sink SCC, checked
    with scipy directly (independently of dcmwalk.graph)."""
    n = g.n
    tail = np.repeat(np.arange(n), g.d_out)
    succ = g.successors()
    adj = sp.csr_matrix(
        (np.ones(len(succ), dtype=np.int8), (tail, succ)), shape=(n, n)
    )
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    del adj
    external = labels[tail] != labels[succ]
    has_out = np.zeros(n_comp, dtype=bool)
    has_out[labels[tail[external]]] = True
    sinks = np.flatnonzero(~has_out)
    if stat is None:
        res.check(len(sinks) != 1, f"n={n}: NonUniqueError but a unique sink SCC")
        return
    if len(sinks) != 1:
        res.check(False, f"n={n}: {len(sinks)} sink SCCs")
        return
    comp = np.flatnonzero(labels == sinks[0])
    pi = stat.pi
    image = np.bincount(succ, weights=pi[tail] / g.d_out[tail], minlength=n)
    resid = float(np.abs(image - pi).sum())
    ok = (
        stat.residual < dcmwalk.walks.POWER_TOL
        and resid <= RESIDUAL_TOL
        and np.array_equal(np.sort(stat.support), comp)
        and bool(np.all(pi[comp] > 0))
    )
    res.check(ok, f"n={n}: residual {stat.residual:.2e}/{resid:.2e}, support")


# --- walk-times ------------------------------------------------------------


def setup_walk(seed: int, workdir: Path) -> dict:
    return {"dist": dcmwalk.BiDegreeDistribution(dict(WALK_PMF)), "seed": seed}


def run_walk(inp: dict, res: Outcome, clock: Stopwatch) -> None:
    with clock:
        outs = walk_graphs(inp)
    for _ in range(WALK_GRAPHS - len(outs)):
        res.check(False, "no attractive SCC in the sampled graphs")
    for out in outs:
        check_walk_graph(out, res)


def walk_graphs(inp: dict) -> list[dict]:
    """walk_times_exact and Kac return times on WALK_GRAPHS sampled graphs
    of WALK_PMF, and hitting_time_mc for one pair of the first graph (its
    4-se gate is statistical; one pair per run keeps false alarms rare). A
    graph without an attractive SCC (rare for these degrees) is skipped for
    the next derived seed."""
    seed = inp["seed"]
    rng = np.random.default_rng(seed)
    seq = dcmwalk.realize_sequence(inp["dist"], WALK_N)
    outs = []
    for k in range(4 * WALK_GRAPHS):
        if len(outs) == WALK_GRAPHS:
            break
        g = dcmwalk.sample_dcm(seq, rng_seed=dcmwalk.derive_seed(seed, WALK_N, k))
        try:
            stat = dcmwalk.stationary_distribution(g)
        except dcmwalk.NonUniqueError:
            continue
        x = int(rng.integers(g.n))
        y = int(rng.choice(stat.support))
        cover_seed, mc_seed = (int(v) for v in rng.integers(2**31, size=2))
        calls = {
            "times": lambda: dcmwalk.walk_times_exact(
                g, cover_reps=WALK_COVER_REPS, rng_seed=cover_seed),
            "returns": lambda: dcmwalk.walks.return_times_exact(g, stat.support),
        }
        if not outs:
            calls["mc"] = lambda: dcmwalk.hitting_time_mc(
                g, x, y, reps=WALK_MC_REPS, step_cap=WALK_STEP_CAP, rng_seed=mc_seed)
        out = {"stat": stat, "pair": (x, y)}
        for name, call in calls.items():
            try:
                out[name] = call()
            except dcmwalk.DcmWalkError as exc:
                out[name] = exc
        outs.append(out)
    return outs


def check_walk_graph(out: dict, res: Outcome) -> None:
    stat, times, returns = out["stat"], out["times"], out["returns"]
    if isinstance(times, Exception):
        res.check(False, f"walk_times_exact raised {times!r}")
    else:
        cov = times.t_cov
        res.check(
            math.isfinite(times.t_hit) and cov.mean <= times.matthews_upper + 4 * cov.se,
            f"cover {cov.mean} > Matthews {times.matthews_upper} + 4 se",
        )
    if isinstance(returns, Exception):
        res.check(False, f"return_times_exact raised {returns!r}")
    else:
        kac = float(np.max(np.abs(returns * stat.pi[stat.support] - 1.0)))
        res.check(kac <= KAC_TOL, f"Kac gap {kac:.2e}")
    if "mc" not in out:
        return
    mc = out["mc"]
    if isinstance(mc, Exception) or isinstance(times, Exception):
        res.check(False, f"hitting_time_mc: {mc!r}")
    else:
        x, y = out["pair"]
        exact = times.hitting_time(x, y)
        se = max(mc.se, 1e-9)
        res.check(abs(mc.mean - exact) <= 4 * se,
                  f"MC hitting {mc.mean} vs exact {exact} (se {se})")


# --- tail-ladder -------------------------------------------------------------


def setup_tail(seed: int, workdir: Path) -> dict:
    dist = toy()
    params = dcmwalk.compute_bp_parameters(dist)
    return {
        "eta": dcmwalk.out_size_biased(dist),
        "target": abs(math.log(params.nu_hat)),
        "seed": seed,
    }


def run_tail(inp: dict, res: Outcome, clock: Stopwatch) -> None:
    cells = {}
    with clock:
        for t in TAIL_TS:
            try:
                cells[t] = dcmwalk.subcritical_tail_experiment(
                    inp["eta"], t=t, a=1.0, omega=200, reps=TAIL_REPS,
                    rng_seed=inp["seed"], event="lb",
                )
            except dcmwalk.DcmWalkError as exc:
                cells[t] = exc
        p_hats = [c.p_hat for c in cells.values() if not isinstance(c, Exception)]
        rate = math.nan
        if len(p_hats) == len(TAIL_TS):
            rate = dcmwalk.fit_decay_rate(TAIL_TS, p_hats)[0]
    for t, cell in cells.items():
        ok = not isinstance(cell, Exception) and cell.p_hat > 0 and cell.successes > 0
        res.check(ok, f"tail cell t={t}: {cell!r}")
    if not abs(rate - inp["target"]) <= TAIL_RATE_TOL:
        res.fail_all(f"fitted rate {rate} vs {inp['target']}")


# ---------------------------------------------------------------------------

WORKLOADS = {
    "sweep": (setup_sweep, run_sweep),
    "large-n": (setup_large, run_large),
    "walk-times": (setup_walk, run_walk),
    "tail-ladder": (setup_tail, run_tail),
}


def run_record() -> dict:
    """Library versions and BLAS, as this process sees them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workdir = Path(args.workdir)

    tracer = None
    if args.trace_out:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-{Path(args.trace_out).stem}")
        tracer.install()

    setup, run = WORKLOADS[args.workload]
    inp = setup(args.seed, workdir)
    setup_s = time.monotonic() - args.t0
    res = Outcome()
    clock = Stopwatch()
    digest = None if args.setup_only else run(inp, res, clock)

    result = {
        "setup_s": setup_s,
        "wall_s": clock.elapsed,
        "peak_rss_mb": clock.peak_kib / 1024.0,
        "attempted": res.attempted,
        "failed": res.failed,
        "errors": res.errors[:20],
        "digest": digest,
        "record": run_record(),
        "dcmwalk": dcmwalk.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_jsonl(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
