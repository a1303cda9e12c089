import json

import numpy as np
import pytest

from dcmwalk import ConfigError, ExperimentConfig, derive_seed, run_exponent_sweep, run_params
from dcmwalk.cli import main
from dcmwalk.degrees import BiDegreeDistribution

from conftest import TOY_EXPONENT, TOY_PMF


def toy_json() -> str:
    return BiDegreeDistribution(dict(TOY_PMF)).to_json()


def write_toy(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(toy_json())
    return str(path)


def test_run_params_toy(toy_dist):
    record = run_params(toy_dist)
    assert record["exponent"] == pytest.approx(TOY_EXPONENT, abs=1e-4)
    assert record["rate_table"]
    assert all(set(row) == {"z", "I"} for row in record["rate_table"])


def test_run_params_degenerate():
    record = run_params(BiDegreeDistribution({(2, 2): 1.0}))
    assert record["nu_hat"] == 0.0
    assert record["exponent"] == 1.0
    assert record["phi_a0"] is None and record["H_hat"] is None


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(dist_json=toy_json(), n_ladder=(), seeds_per_n=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(dist_json=toy_json(), n_ladder=(64, 32), seeds_per_n=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(dist_json=toy_json(), n_ladder=(64,), seeds_per_n=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(
            dist_json=toy_json(), n_ladder=(64,), seeds_per_n=1, alphas=(-0.5,)
        )


def test_seed_derivation_stable():
    a = derive_seed(7, 1024, 3).generate_state(4)
    b = derive_seed(7, 1024, 3).generate_state(4)
    c = derive_seed(7, 1024, 4).generate_state(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sweep_rows_and_slope(tmp_path):
    out = tmp_path / "sweep.csv"
    config = ExperimentConfig(
        dist_json=toy_json(), n_ladder=(128, 256), seeds_per_n=3, master_seed=5
    )
    rows = run_exponent_sweep(config, str(out))
    assert len(rows) == 6
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,seed,pi_min,pi_max,support_frac,exp_obs,t_hit_hat,status"
    assert lines[-1].endswith(",slope")
    for line in lines[1:-1]:
        parts = line.split(",")
        assert len(parts) == 8
        assert parts[-1] in ("ok", "no_attractive_scc")


def test_sweep_records_failed_replicates(tmp_path):
    # At n = 4 some pairings leave two closed classes; those cells must show
    # up as failure rows, not crashes. Seed 48 under master seed 0 is one.
    out = tmp_path / "tiny.csv"
    config = ExperimentConfig(
        dist_json=toy_json(), n_ladder=(4,), seeds_per_n=50, master_seed=0
    )
    rows = run_exponent_sweep(config, str(out))
    statuses = {row["status"] for row in rows}
    assert "no_attractive_scc" in statuses
    assert all(s in ("ok", "no_attractive_scc") for s in statuses)


def test_sweep_measures_t_hit(tmp_path):
    out = tmp_path / "thit.csv"
    config = ExperimentConfig(
        dist_json=toy_json(), n_ladder=(96,), seeds_per_n=1, master_seed=1,
        measures=("t_hit",),
    )
    rows = run_exponent_sweep(config, str(out))
    ok_rows = [r for r in rows if r["status"] == "ok"]
    assert ok_rows and all(math_isfinite(r["t_hit_hat"]) for r in ok_rows)


def math_isfinite(v) -> bool:
    import math

    return math.isfinite(float(v))


def test_sweep_single_n_no_slope(tmp_path):
    out = tmp_path / "one.csv"
    config = ExperimentConfig(
        dist_json=toy_json(), n_ladder=(128,), seeds_per_n=2, master_seed=5
    )
    run_exponent_sweep(config, str(out))
    lines = out.read_text().strip().splitlines()
    assert all(not line.endswith(",slope") for line in lines)


def test_sweep_reproducible_and_resumable(tmp_path):
    config = ExperimentConfig(
        dist_json=toy_json(), n_ladder=(128, 256), seeds_per_n=2, master_seed=9
    )
    fresh = tmp_path / "fresh.csv"
    run_exponent_sweep(config, str(fresh))
    again = tmp_path / "again.csv"
    run_exponent_sweep(config, str(again))
    assert fresh.read_bytes() == again.read_bytes()
    # Resume: seed a partial file with only the first ladder rung, then
    # extend; the result must be byte-identical to the fresh run.
    partial = tmp_path / "partial.csv"
    small = ExperimentConfig(
        dist_json=toy_json(), n_ladder=(128,), seeds_per_n=2, master_seed=9
    )
    run_exponent_sweep(small, str(partial))
    run_exponent_sweep(config, str(partial))
    assert partial.read_bytes() == fresh.read_bytes()


def test_sweep_threads_match_serial(tmp_path):
    config = ExperimentConfig(
        dist_json=toy_json(), n_ladder=(128,), seeds_per_n=4, master_seed=2
    )
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_exponent_sweep(config, str(serial), threads=1)
    run_exponent_sweep(config, str(parallel), threads=3)
    assert serial.read_bytes() == parallel.read_bytes()


def test_cli_params_golden(tmp_path, capsys):
    dist = write_toy(tmp_path)
    assert main(["params", "--dist", dist, "--rate-grid", "8"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["exponent"] == pytest.approx(TOY_EXPONENT, abs=1e-4)
    assert len(record["rate_table"]) == 8


def test_cli_sample_stationary_roundtrip(tmp_path, capsys):
    dist = write_toy(tmp_path)
    edges = str(tmp_path / "g.edges")
    assert main(["sample", "--dist", dist, "--n", "400", "--seed", "3", "--out", edges]) == 0
    assert main(["stationary", "--graph", edges]) == 0
    from_graph = json.loads(capsys.readouterr().out)
    assert main(["--seed", "3", "stationary", "--dist", dist, "--n", "400"]) == 0
    from_dist = json.loads(capsys.readouterr().out)
    assert from_graph == from_dist
    assert from_graph["residual"] <= 1e-10


def test_cli_hitting_and_cover(tmp_path, capsys):
    dist = write_toy(tmp_path)
    edges = str(tmp_path / "g.edges")
    main(["sample", "--dist", dist, "--n", "120", "--seed", "3", "--out", edges])
    out = json.loads(
        (main(["stationary", "--graph", edges]), capsys.readouterr().out)[1]
    )
    assert out["support_size"] > 0
    hit_csv = str(tmp_path / "hit.csv")
    # Pick a supported target: reuse the sampled graph's stationary support.
    from dcmwalk import Multigraph, stationary_distribution

    g = Multigraph.from_edge_list(edges)
    support = stationary_distribution(g).support
    y = int(support[0])
    code = main([
        "hitting", "--graph", edges, "--x", str(int(support[-1])), "--y", str(y),
        "--reps", "40", "--step-cap", "1000000", "--seed", "1", "--out", hit_csv,
    ])
    assert code == 0
    lines = open(hit_csv).read().strip().splitlines()
    assert lines[0] == "replicate,steps,censored"
    assert len(lines) == 41
    cov_csv = str(tmp_path / "cov.csv")
    code = main([
        "cover", "--graph", edges, "--reps", "30", "--step-cap", "2000000",
        "--seed", "1", "--out", cov_csv,
    ])
    assert code == 0
    assert open(cov_csv).read().startswith("replicate,start,steps,censored")


def test_cli_bp_sim(tmp_path):
    dist = write_toy(tmp_path)
    out = str(tmp_path / "tail.csv")
    code = main([
        "bp-sim", "--dist", dist, "--t", "4,6", "--a", "1.0", "--omega", "50",
        "--reps", "8000", "--seed", "2", "--event", "ub", "--out", out,
    ])
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "t,a,successes,reps,p_hat,ci_lo,ci_hi,rate_hat,rate_theory"
    assert len(lines) == 3


def test_cli_exponent_sweep_with_config(tmp_path):
    cfg = {
        "distribution": json.loads(toy_json()),
        "n_ladder": [128, 256],
        "seeds_per_n": 2,
        "master_seed": 4,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "sweep.csv")
    assert main(["exponent-sweep", "--config", str(cfg_path), "--out", out]) == 0
    assert open(out).read().count("\n") >= 5


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"pmf": [')
    assert main(["params", "--dist", str(bad)]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["params", "--dist", missing]) == 2
    # Numerical failure: stationary on a graph with two closed classes.
    edges = tmp_path / "two.edges"
    edges.write_text("0 1 1\n1 0 1\n2 3 1\n3 2 1\n")
    assert main(["stationary", "--graph", str(edges)]) == 3


def test_cli_walker_exit_codes(tmp_path, capsys):
    cycle = tmp_path / "cycle.edges"
    cycle.write_text("0 1 1\n1 2 1\n2 0 1\n")
    base = ["--reps", "5", "--step-cap", "100", "--seed", "1"]
    assert main(["hitting", "--graph", str(cycle), "--x", "99999", "--y", "0", *base]) == 2
    assert main(["hitting", "--graph", str(cycle), "--x", "0", "--y", "-1", *base]) == 2
    assert main(["cover", "--graph", str(cycle), "--starts", "0", *base]) == 2
    # Vertex 2 has no out-edge: walk transitions are undefined.
    dead_end = tmp_path / "dead_end.edges"
    dead_end.write_text("0 1 1\n1 0 1\n1 2 1\n")
    assert main(["hitting", "--graph", str(dead_end), "--x", "0", "--y", "1", *base]) == 3
    assert main(["cover", "--graph", str(dead_end), *base]) == 3
    assert "Traceback" not in capsys.readouterr().err
