"""Experiment orchestration: parameter records, exponent sweeps, seeding.

Per-cell seeds derive from (master seed, n, seed index), so extending the
seed list or the n ladder never perturbs rows already computed. Sweep output
is a CSV whose rows are deterministic given (config, master seed): it holds
no wall time, and the sweep writes nothing else.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._checks import check_int, check_int_array, check_real
from ._threads import share_cores
from .branching import compute_bp_parameters
from .degrees import BiDegreeDistribution, realize_sequence
from .errors import ConfigError, NonUniqueError, ValidationError
from .graph import sample_dcm
from .gwsim import least_squares_slope
from .ratefn import ExponentReport, FiniteLogLaw, minimize_phi, rate_table
from .walks import POWER_TOL, hitting_matrix, stationary_distribution

RATE_GRID = 64  # points of a parameter record's rate table
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
    power_tol: float = POWER_TOL

    def __post_init__(self):
        try:
            check_int_array(self.n_ladder, "n_ladder entry")
            check_int(self.seeds_per_n, "seeds_per_n")
            check_int(self.master_seed, "master_seed")
            check_real(self.power_tol, "power_tol")
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
        if not self.n_ladder:
            raise ConfigError("empty n ladder")
        if list(self.n_ladder) != sorted(set(self.n_ladder)):
            raise ConfigError("n ladder must be strictly increasing")
        if self.n_ladder[0] < 2:
            # exp_obs divides by log(n), which is 0 at n = 1.
            raise ConfigError("n ladder entries must be >= 2")
        if self.seeds_per_n < 1:
            raise ConfigError("seeds_per_n must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if not 0.0 < self.power_tol < math.inf:
            raise ConfigError(
                f"power_tol must be positive and finite, got {self.power_tol}"
            )
        unknown = set(self.measures) - {"t_hit"}
        if unknown:
            raise ConfigError(f"unknown measures {sorted(unknown)}")
        BiDegreeDistribution.from_json(self.dist_json)  # validate early

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        try:
            dist_blob = data["distribution"]
            ladder, measures = data["n_ladder"], data.get("measures", [])
            for name, value in (("n_ladder", ladder), ("measures", measures)):
                if not isinstance(value, list):
                    raise TypeError(f"{name} must be a list, got {value!r}")
            fields = dict(
                n_ladder=tuple(ladder),
                seeds_per_n=data["seeds_per_n"],
                measures=tuple(str(v) for v in measures),
                **{k: data[k] for k in ("master_seed", "power_tol") if k in data},
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc
        dist_json = json.dumps(dist_blob) if isinstance(dist_blob, dict) else str(dist_blob)
        return cls(dist_json=dist_json, **fields)


def derive_seed(master_seed: int, n: int, seed_idx: int) -> np.random.SeedSequence:
    """Counter-based per-cell seed: stable under ladder or seed-list growth."""
    return np.random.SeedSequence(entropy=(master_seed, n, seed_idx))


def analyze_distribution(
    dist: BiDegreeDistribution, rate_grid: int = RATE_GRID
) -> tuple[ExponentReport, dict]:
    """Full analytic pipeline for one distribution: branching parameters,
    log-mark law, exponent report, and the serializable record. The law
    must be mean-balanced, as for :func:`realize_sequence`, and the rate
    table needs at least one point."""
    if check_int(rate_grid, "rate_grid") < 1:
        raise ValidationError(f"rate_grid must be >= 1, got {rate_grid}")
    dist.require_mean_balanced()
    params = compute_bp_parameters(dist)
    law = None
    if params.tilde is not None:
        law = FiniteLogLaw.from_marked_law(params.tilde)
    report = minimize_phi(params, law)
    samples = () if report.degenerate else rate_table(law, rate_grid)
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
        # 1 + C_thin is the exponent with the light-trajectory factor left
        # out: phi(1) = |log nu_hat|, so it equals the exponent when a0 = 1.
        "C_thin": None if report.degenerate else params.H_hat / abs(math.log(params.nu_hat)),
        "degenerate": report.degenerate,
        "rate_table": [{"z": z, "I": i} for z, i in samples],
    }
    return report, record


def run_params(dist: BiDegreeDistribution, rate_grid: int = RATE_GRID) -> dict:
    """Deterministic parameter record for the `params` subcommand."""
    _, record = analyze_distribution(dist, rate_grid=rate_grid)
    return record


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip form keeps resumes lossless
    return str(value)


def _row(**fields) -> dict:
    """A sweep row: NaN in every column that `fields` does not set."""
    return {**dict.fromkeys(SWEEP_COLUMNS, math.nan), **fields}


def _sweep_cell(args) -> dict:
    dist_json, n, seed_idx, master_seed, power_tol, measures = args
    dist = BiDegreeDistribution.from_json(dist_json)
    seed = derive_seed(master_seed, n, seed_idx)
    row = _row(n=n, seed=seed_idx, status="ok")
    try:
        seq = realize_sequence(dist, n)
        graph = sample_dcm(seq, rng_seed=seed)
        res = stationary_distribution(graph, tol=power_tol)
        row["pi_min"] = res.pi_min
        row["pi_max"] = res.pi_max
        row["support_frac"] = len(res.support) / n
        row["exp_obs"] = math.log(1.0 / res.pi_min) / math.log(n)
        if "t_hit" in measures and n <= 2000:
            _, hit = hitting_matrix(graph)
            row["t_hit_hat"] = float(hit[np.isfinite(hit)].max())
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
    kept, so an interrupted sweep resumes where it stopped. A file written
    under another config raises ConfigError: a kept row outside the
    (n ladder, seed) grid, or a kept row with the smallest n whose
    recomputed line differs from the stored one (another distribution,
    master seed, `power_tol` or measure).
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    grid = {
        (n, s): (config.dist_json, n, s, config.master_seed, config.power_tol, config.measures)
        for n in config.n_ladder
        for s in range(config.seeds_per_n)
    }
    done: dict[tuple[int, int], dict] = {}
    if os.path.exists(out_csv):
        for row in _read_sweep(out_csv):
            if row["status"] != "slope":
                done[(int(row["n"]), int(row["seed"]))] = row
    stray = set(done) - set(grid)
    if stray:
        raise ConfigError(f"{out_csv}: rows {sorted(stray)} lie outside this sweep's grid")
    if done:
        first = min(done)
        if _csv_line(_sweep_cell(grid[first])) != _csv_line(done[first]):
            raise ConfigError(f"{out_csv}: row (n, seed) = {first} does not match this config")
    tasks = [args for key, args in grid.items() if key not in done]
    if threads > 1 and tasks:
        # Each worker runs its power loops on its share of the cores, so a
        # cell's column-part threads do not outnumber them.
        with ProcessPoolExecutor(
            max_workers=threads, initializer=share_cores, initargs=(threads,)
        ) as pool:
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
            fh.write(_csv_line(row))
    return rows


def _csv_line(row: dict) -> str:
    """One sweep CSV line; a row read back from the file gives its own line."""
    return ",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) + "\n"


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
    return _row(n=0, seed=-1, support_frac=stderr, exp_obs=slope, status="slope")


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
