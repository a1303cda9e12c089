"""Experiment orchestration: parameter records, exponent sweeps, seeding.

Per-cell seeds derive from (master seed, n, seed index), so extending the
seed list or the n ladder never perturbs rows already computed. Sweep output
is a CSV whose rows are deterministic given (config, master seed); wall-time
chatter belongs in a sidecar log, never in the CSV.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .branching import compute_bp_parameters
from .degrees import BiDegreeDistribution, realize_sequence, validate_sequence
from .errors import ConfigError, NonUniqueError
from .graph import sample_dcm
from .gwsim import least_squares_slope
from .ratefn import ExponentReport, FiniteLogLaw, minimize_phi
from .walks import stationary_distribution, walk_times_exact

SWEEP_COLUMNS = (
    "n",
    "seed",
    "pi_min",
    "pi_max",
    "support_frac",
    "exp_obs",
    "t_hit_hat",
    "status",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep configuration: distribution, n ladder, seeds, measurements."""

    dist_json: str
    n_ladder: tuple[int, ...]
    seeds_per_n: int
    measures: tuple[str, ...] = ()
    master_seed: int = 0
    power_tol: float = 1e-12

    def __post_init__(self):
        if not self.n_ladder:
            raise ConfigError("empty n ladder")
        if list(self.n_ladder) != sorted(set(self.n_ladder)):
            raise ConfigError("n ladder must be strictly increasing")
        if self.seeds_per_n < 1:
            raise ConfigError("seeds_per_n must be >= 1")
        unknown = set(self.measures) - {"t_hit"}
        if unknown:
            raise ConfigError(f"unknown measures {sorted(unknown)}")
        BiDegreeDistribution.from_json(self.dist_json)  # validate early

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        try:
            dist_blob = data["distribution"]
            ladder = tuple(int(v) for v in data["n_ladder"])
            seeds = int(data["seeds_per_n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc
        dist_json = json.dumps(dist_blob) if isinstance(dist_blob, dict) else str(dist_blob)
        return cls(
            dist_json=dist_json,
            n_ladder=ladder,
            seeds_per_n=seeds,
            measures=tuple(data.get("measures", ())),
            master_seed=int(data.get("master_seed", 0)),
            power_tol=float(data.get("power_tol", 1e-12)),
        )

    def distribution(self) -> BiDegreeDistribution:
        return BiDegreeDistribution.from_json(self.dist_json)


def derive_seed(master_seed: int, n: int, seed_idx: int) -> np.random.SeedSequence:
    """Counter-based per-cell seed: stable under ladder or seed-list growth."""
    return np.random.SeedSequence(entropy=(master_seed, n, seed_idx))


def analyze_distribution(
    dist: BiDegreeDistribution, rate_grid: int = 64
) -> tuple[ExponentReport, dict]:
    """Full analytic pipeline for one distribution: branching parameters,
    log-mark law, exponent report, and the serializable record."""
    params = compute_bp_parameters(dist)
    law = None
    if params.tilde is not None:
        law = FiniteLogLaw.from_marked_law(params.tilde)
    report = minimize_phi(params, law, table_points=rate_grid)
    record = {
        "lambda": params.lam,
        "nu": params.nu,
        "s_minus": params.s_minus,
        "nu_hat": params.nu_hat,
        "H_hat": None if math.isnan(params.H_hat) else params.H_hat,
        "H_plus": params.H_plus,
        "t_ent_coeff": params.t_ent_coeff,
        "a0": report.a0,
        "phi_a0": None if math.isinf(report.phi_a0) else report.phi_a0,
        "exponent": report.exponent,
        "degenerate": report.degenerate,
        "rate_table": [{"z": z, "I": i} for z, i in report.rate_samples],
    }
    return report, record


def run_params(dist: BiDegreeDistribution, rate_grid: int = 64) -> dict:
    """Deterministic parameter record for the `params` subcommand."""
    _, record = analyze_distribution(dist, rate_grid=rate_grid)
    return record


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip form keeps resumes lossless
    return str(value)


def _sweep_cell(args) -> dict:
    dist_json, n, seed_idx, master_seed, power_tol, measures = args
    dist = BiDegreeDistribution.from_json(dist_json)
    seed = derive_seed(master_seed, n, seed_idx)
    row = {
        "n": n,
        "seed": seed_idx,
        "pi_min": math.nan,
        "pi_max": math.nan,
        "support_frac": math.nan,
        "exp_obs": math.nan,
        "t_hit_hat": math.nan,
        "status": "ok",
    }
    try:
        seq = realize_sequence(dist, n)
        validate_sequence(seq, max_degree_cap=max(dist.max_in, dist.max_out))
        graph = sample_dcm(seq, rng_seed=seed)
        res = stationary_distribution(graph, tol=power_tol)
        row["pi_min"] = res.pi_min
        row["pi_max"] = res.pi_max
        row["support_frac"] = len(res.support) / n
        row["exp_obs"] = math.log(1.0 / res.pi_min) / math.log(n)
        if "t_hit" in measures and n <= 2000:
            times = walk_times_exact(graph, cover_reps=8, rng_seed=seed)
            row["t_hit_hat"] = times.t_hit
    except NonUniqueError:
        row["status"] = "no_attractive_scc"
    return row


def run_exponent_sweep(
    config: ExperimentConfig, out_csv: str, threads: int = 1
) -> list[dict]:
    """Run the (n, seed) sweep, append missing rows, and finish with the
    least-squares slope row of log(1/pi_min) against log(n).

    Rows are written sorted by (n, seed); re-running with the same config
    and master seed reproduces the file byte for byte. Existing rows are
    kept, so an interrupted sweep resumes where it stopped.
    """
    done: dict[tuple[int, int], dict] = {}
    if os.path.exists(out_csv):
        for row in _read_sweep(out_csv):
            if row["status"] != "slope":
                done[(int(row["n"]), int(row["seed"]))] = row
    tasks = [
        (config.dist_json, n, s, config.master_seed, config.power_tol, config.measures)
        for n in config.n_ladder
        for s in range(config.seeds_per_n)
        if (n, s) not in done
    ]
    if threads > 1 and tasks:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            fresh = list(pool.map(_sweep_cell, tasks))
    else:
        fresh = [_sweep_cell(t) for t in tasks]
    for row in fresh:
        done[(int(row["n"]), int(row["seed"]))] = row
    rows = [done[key] for key in sorted(done)]
    slope_row = _slope_row(rows)
    with open(out_csv, "w", encoding="ascii") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows + ([slope_row] if slope_row else []):
            fh.write(",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) + "\n")
    return rows


def _slope_row(rows: list[dict]) -> dict | None:
    """Least-squares slope of log(1/pi_min) vs log(n) over ok rows.

    Stored with status 'slope': exp_obs carries the slope, support_frac its
    standard error. Absent when fewer than two distinct n values succeeded.
    """
    ok = [r for r in rows if r["status"] == "ok" and float(r["pi_min"]) > 0]
    slope, stderr = least_squares_slope(
        [math.log(float(r["n"])) for r in ok],
        [math.log(1.0 / float(r["pi_min"])) for r in ok],
    )
    if math.isnan(slope):
        return None
    return {
        "n": 0,
        "seed": -1,
        "pi_min": math.nan,
        "pi_max": math.nan,
        "support_frac": stderr,
        "exp_obs": slope,
        "t_hit_hat": math.nan,
        "status": "slope",
    }


def _read_sweep(path: str) -> list[dict]:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if header != list(SWEEP_COLUMNS):
            raise ConfigError(f"{path}: unexpected sweep header {header}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            rows.append(dict(zip(SWEEP_COLUMNS, parts)))
    return rows
