import hashlib
import json
import math
import os
import time
import warnings

import numpy as np
import pytest

from dcmwalk import ConfigError, ExperimentConfig, derive_seed, run_exponent_sweep, run_params
from dcmwalk import _threads, cli, harness, walks
from dcmwalk.cli import main
from dcmwalk.degrees import BiDegreeDistribution, realize_sequence
from dcmwalk.graph import sample_dcm
from dcmwalk.harness import _sweep_cell

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
    assert record["C_thin"] is None


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(dist_json=toy_json(), n_ladder=(), seeds_per_n=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(dist_json=toy_json(), n_ladder=(64, 32), seeds_per_n=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(dist_json=toy_json(), n_ladder=(64,), seeds_per_n=0)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_config_rejects_bad_power_tol(tmp_path, capsys, tol):
    with pytest.raises(ConfigError, match="power_tol"):
        ExperimentConfig(dist_json=toy_json(), n_ladder=(64,), seeds_per_n=1, power_tol=tol)
    blob = {"distribution": json.loads(toy_json()), "n_ladder": [64], "seeds_per_n": 1,
            "power_tol": tol}
    with pytest.raises(ConfigError, match="power_tol"):
        ExperimentConfig.from_json(json.dumps(blob))
    # A sweep whose every row is already done checks its tolerance too.
    out = tmp_path / "sweep.csv"
    run_exponent_sweep(
        ExperimentConfig(dist_json=toy_json(), n_ladder=(64,), seeds_per_n=1), str(out)
    )
    done = out.read_bytes()
    argv = ["--tol", repr(tol), "exponent-sweep", "--dist", write_toy(tmp_path),
            "--n-ladder", "64", "--out", str(out)]
    assert main(argv) == 2
    assert "power_tol" in capsys.readouterr().err
    assert out.read_bytes() == done


@pytest.mark.parametrize(
    "field, value", [("n_ladder", "64"), ("measures", "t_hit")], ids=["n_ladder", "measures"]
)
def test_config_rejects_string_for_list(field, value):
    # A string is refused, not iterated character by character.
    blob = {"distribution": json.loads(toy_json()), "n_ladder": [64], "seeds_per_n": 1,
            field: value}
    with pytest.raises(ConfigError, match=f"{field} must be a list"):
        ExperimentConfig.from_json(json.dumps(blob))


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


def _refuse_cover_mc(*args, **kwargs):
    raise AssertionError("the sweep's t_hit measure ran the cover Monte Carlo")


def test_sweep_t_hit_runs_no_cover_mc(monkeypatch):
    monkeypatch.setattr(walks, "cover_time_mc", _refuse_cover_mc)
    rows = [_sweep_cell((toy_json(), 300, s, 3, 1e-12, ("t_hit",))) for s in range(3)]
    assert any(row["status"] == "ok" for row in rows)
    assert all(math_isfinite(row["t_hit_hat"]) for row in rows if row["status"] == "ok")


def test_sweep_t_hit_is_walk_times_t_hit(toy_dist, monkeypatch):
    # The cover Monte Carlo plays no part in t_hit: it is stubbed out of the
    # reference call, and the cell must not run it at all.
    covers = []
    monkeypatch.setattr(walks, "cover_time_mc", lambda g, **kw: covers.append(kw))
    master, checked = 170, 0
    for n in (1024, 2000):
        seq = realize_sequence(toy_dist, n)
        for seed_idx in range(5):
            row = _sweep_cell((toy_json(), n, seed_idx, master, 1e-12, ("t_hit",)))
            assert covers == []
            if row["status"] != "ok":
                continue
            g = sample_dcm(seq, rng_seed=derive_seed(master, n, seed_idx))
            assert row["t_hit_hat"] == walks.walk_times_exact(g).t_hit
            covers.clear()
            checked += 1
    assert checked >= 8


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


def test_sweep_resume_refuses_rows_of_another_config(tmp_path):
    # Kept rows must be rows this config would write: one outside the
    # (ladder, seed) grid, or a smallest-n row that another master seed,
    # law or power_tol wrote, is refused, and the file is left alone.
    base = dict(dist_json=toy_json(), n_ladder=(128, 256), seeds_per_n=2, master_seed=9)
    out = tmp_path / "sweep.csv"
    run_exponent_sweep(ExperimentConfig(**base), str(out))
    written = out.read_bytes()
    other_law = BiDegreeDistribution({(2, 2): 0.5, (3, 3): 0.5}).to_json()
    changes = [
        {"master_seed": 10},
        {"dist_json": other_law},
        {"power_tol": 1e-13},
        {"n_ladder": (128,)},
        {"n_ladder": (256, 512)},
        {"seeds_per_n": 1},
    ]
    for change in changes:
        with pytest.raises(ConfigError):
            run_exponent_sweep(ExperimentConfig(**{**base, **change}), str(out))
        assert out.read_bytes() == written, change
    # A longer ladder or more seeds under the same config still resume.
    run_exponent_sweep(ExperimentConfig(**{**base, "seeds_per_n": 3}), str(out))
    assert out.read_text().count("\n256,2,") == 1


def test_sweep_threads_match_serial(tmp_path):
    config = ExperimentConfig(
        dist_json=toy_json(), n_ladder=(128,), seeds_per_n=4, master_seed=2
    )
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_exponent_sweep(config, str(serial), threads=1)
    run_exponent_sweep(config, str(parallel), threads=3)
    assert serial.read_bytes() == parallel.read_bytes()



def test_sweep_workers_share_the_cores(tmp_path, monkeypatch):
    # Each of a sweep's `threads` worker processes sizes its power loop's
    # thread pool by its share of the CPUs, so the pools do not outnumber
    # them.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(_threads, "_SIBLINGS", 1)
    assert _threads.usable_cores() == 4
    for siblings, share in ((2, 2), (3, 1), (8, 1)):
        _threads.share_cores(siblings)
        assert _threads.usable_cores() == share
    started = []

    class Pool(harness.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            started.append(kwargs)
            super().__init__(**kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    config = ExperimentConfig(dist_json=toy_json(), n_ladder=(64,), seeds_per_n=2)
    run_exponent_sweep(config, str(tmp_path / "s.csv"), threads=2)
    assert started == [
        {"max_workers": 2, "initializer": _threads.share_cores, "initargs": (2,)}
    ]

# sha256 of the toy-law sweep CSV below. The sweep CSV is a reproducibility
# contract: a change to the realize, sample, SCC or power-iteration path
# must leave these bytes alone (n = 1024 also runs the dense cross-check).
GOLDEN_SWEEP_SHA256 = "e6961c6cf53dcca45d35b5605540ad6583cfad6209ec139a7a65604e8d97e4b0"


def test_sweep_csv_golden_digest(tmp_path):
    out = tmp_path / "golden.csv"
    config = ExperimentConfig(
        dist_json=toy_json(), n_ladder=(1024, 2048, 4096), seeds_per_n=2,
        master_seed=20201,
    )
    run_exponent_sweep(config, str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SWEEP_SHA256


# sha256 of the toy-law bp-sim CSVs below, one per event. Splitting is a
# reproducibility contract too: a change to the draw, resampling or weight
# bookkeeping of `gwsim._SplittingPopulation` must leave these bytes alone.
GOLDEN_BP_SIM_SHA256 = {
    "lb": "7d905f933756165886748a6fb897ae5888fcf4626e6894456e95c8500c399ee4",
    "ub": "e7c4f4512539b60f68e2a80853c4b9460d10aea22cb77e9c192718a7a55f831e",
}


@pytest.mark.parametrize("event", ["lb", "ub"])
def test_bp_sim_csv_golden_digest(tmp_path, capsys, event):
    out = tmp_path / f"bp_{event}.csv"
    argv = ["--seed", "42", "bp-sim", "--dist", write_toy(tmp_path), "--t", "10,20",
            "--reps", "100000", "--event", event, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_BP_SIM_SHA256[event]


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


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"pmf": [')
    assert main(["params", "--dist", str(bad)]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["params", "--dist", missing]) == 2
    # Numerical failure: stationary on a graph with two closed classes.
    edges = tmp_path / "two.edges"
    edges.write_text("0 1 1\n1 0 1\n2 3 1\n3 2 1\n")
    assert main(["stationary", "--graph", str(edges)]) == 3
    token = tmp_path / "token.edges"
    token.write_text("0 1 1\n0 1 x\n")
    assert main(["stationary", "--graph", str(token)]) == 2
    assert f"{token}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["", "Unable to allocate 728. TiB for an array"])
def test_cli_out_of_memory_exits_4(tmp_path, capsys, monkeypatch, message):
    # An allocation the host cannot serve (numpy raises a MemoryError
    # subclass, e.g. for `# n=10^14`) is a capacity failure: exit 4 with
    # one error line. The command is patched, so nothing large is allocated.
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_params", refuse)
    code, err = run_cli(["params", "--dist", write_toy(tmp_path)], capsys)
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def run_cli(argv, capsys) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run; argparse errors
    arrive as SystemExit, any other escaping exception fails the test."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def corrupt_edge_file(rng) -> bytes:
    """A small edge list broken in one random way, so it can never load."""
    n = int(rng.integers(2, 7))
    lines = [f"{v} {(v + 1) % n} {int(rng.integers(1, 4))}" for v in range(n)]
    i = int(rng.integers(len(lines)))
    src, dst, mult = lines[i].split()
    kind = int(rng.integers(9))
    if kind == 0:
        lines[i] = f"-{int(rng.integers(1, 5))} {dst} {mult}"
    elif kind == 1:
        lines[i] = f"{src} {dst} {rng.choice(['1.5', '2e0', 'nan', 'inf', '0x1'])}"
    elif kind == 2:
        lines.insert(0, f"# n={int(rng.integers(0, n))}")
    elif kind == 3:
        lines = rng.choice(["", "\n\n", "# n=4"]).split("\n")
    elif kind == 4:
        lines[i] = f"{src} {dst}"
    elif kind == 5:
        lines[i] = f"{src} {dst} {mult} 1"
    elif kind == 6:
        lines[i] = f"{src} {dst} {-int(rng.integers(0, 3))}"
    elif kind == 7:
        lines.insert(0, rng.choice(["# vertices=4", "# n=", "# n=-2", "# n=4.0"]))
    else:
        return ("\n".join(lines) + "\n").encode() + b"\xff\xfe 0 1\n"
    return ("\n".join(lines) + "\n").encode("ascii")


def test_cli_fuzz_malformed_input_exits_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(41)
    good = tmp_path / "good.edges"
    good.write_text("0 1 1\n1 2 1\n2 0 1\n")
    dist = write_toy(tmp_path)
    out = str(tmp_path / "out.csv")
    runs = [
        ["stationary", "--graph", str(tmp_path)],
        ["--tol", "-1", "stationary", "--graph", str(good)],
        ["--tol", "nan", "stationary", "--graph", str(good)],
        ["--seed", "-1", "cover", "--graph", str(good), "--reps", "3"],
        ["hitting", "--graph", str(good), "--x", "0", "--y", "1", "--reps", "0"],
        ["hitting", "--graph", str(good), "--x", "0", "--y", "1.5"],
        ["cover", "--graph", str(good), "--reps", "0"],
        ["cover", "--graph", str(good), "--starts", "0"],
        ["bp-sim", "--dist", dist, "--t", "x"],
        ["bp-sim", "--dist", dist, "--t", "3", "--reps", "0"],
        ["bp-sim", "--dist", dist, "--t", "3", "--a", "nan"],
        ["bp-sim", "--dist", dist, "--t", "3", "--a", "inf"],
        ["exponent-sweep", "--dist", dist, "--n-ladder", "a,b", "--out", out],
        ["exponent-sweep", "--dist", dist, "--n-ladder", "-5", "--out", out],
        ["exponent-sweep", "--dist", dist, "--n-ladder", "64", "--seeds-per-n", "0",
         "--out", out],
        ["--threads", "0", "exponent-sweep", "--dist", dist, "--n-ladder", "64",
         "--out", out],
        ["--threads", "-2", "exponent-sweep", "--dist", dist, "--n-ladder", "64",
         "--out", out],
    ]
    # n = 1 has log(n) = 0, which the observed exponent divides by.
    regular = tmp_path / "regular.json"
    regular.write_text('{"pmf":[{"in":2,"out":2,"p":1.0}]}')
    runs.append(["exponent-sweep", "--dist", str(regular), "--n-ladder", "1,8", "--out", out])
    blobs = {
        "law.json": b'{"pmf": 3}',
        "latin1.json": b"\xff\xfe{}",
        # Not mean-balanced; its nu_hat = 1 once made phi(1) = 0.
        "unbalanced.json": b'{"pmf":[{"in":1,"out":3,"p":1.0}]}',
        "config.json": (
            f'{{"distribution": {toy_json()}, "n_ladder": [64], "seeds_per_n": 1, '
            f'"measures": 1}}'
        ).encode(),
        "seed.json": (
            f'{{"distribution": {toy_json()}, "n_ladder": [64], "seeds_per_n": 1, '
            f'"master_seed": -1}}'
        ).encode(),
        # Non-integers are refused, not rounded: rounded, this law is the
        # mean-balanced {(0,2): 0.5, (4,2): 0.5}.
        "float_degrees.json": (
            b'{"pmf":[{"in":0.9,"out":2,"p":0.5},{"in":4,"out":2.6,"p":0.5}]}'
        ),
        "float_marks.json": (
            b'{"pmf":[{"xi":3.7,"zeta":2,"p":0.5},{"xi":0,"zeta":3.5,"p":0.5}]}'
        ),
        # A probability must be a JSON number in [0, 1]: read as 1.0, the
        # string and the bool would each make a valid law, and so would
        # dropping the NaN entry.
        "string_p.json": b'{"pmf":[{"in":2,"out":2,"p":"1"}]}',
        "bool_p.json": b'{"pmf":[{"in":2,"out":2,"p":true}]}',
        "nan_p.json": b'{"pmf":[{"in":2,"out":2,"p":1.0},{"in":3,"out":3,"p":NaN}]}',
    }
    for name, fields in (
        ("float_ladder.json", '"n_ladder": [64.9, 128], "seeds_per_n": 1'),
        ("float_seeds.json", '"n_ladder": [64], "seeds_per_n": 1.5'),
        ("float_master.json", '"n_ladder": [64], "seeds_per_n": 1, "master_seed": 2.7'),
        # Read as 1.0 and 0.001, these tolerances once ran the sweep to exit 0
        # above n = 2000, where no direct solve cross-checks the power loop.
        ("bool_tol.json", '"n_ladder": [4096], "seeds_per_n": 1, "power_tol": true'),
        ("string_tol.json", '"n_ladder": [4096], "seeds_per_n": 1, "power_tol": "1e-3"'),
    ):
        blobs[name] = f'{{"distribution": {toy_json()}, {fields}}}'.encode()
    for name, blob in blobs.items():
        (tmp_path / name).write_bytes(blob)
    runs += [
        ["bp-sim", "--law", str(tmp_path / "law.json"), "--t", "3"],
        ["params", "--dist", str(tmp_path / "latin1.json")],
        ["params", "--dist", str(tmp_path / "unbalanced.json")],
        ["params", "--dist", dist, "--rate-grid", "0"],
        ["params", "--dist", dist, "--rate-grid", "-5"],
        ["exponent-sweep", "--config", str(tmp_path / "config.json"), "--out", out],
        ["exponent-sweep", "--config", str(tmp_path / "seed.json"), "--out", out],
        ["params", "--dist", str(tmp_path / "float_degrees.json")],
        ["bp-sim", "--law", str(tmp_path / "float_marks.json"), "--t", "3"],
    ]
    runs += [
        ["params", "--dist", str(tmp_path / name)]
        for name in ("string_p.json", "bool_p.json", "nan_p.json")
    ]
    runs += [
        ["exponent-sweep", "--config", str(tmp_path / name), "--out", out]
        for name in (
            "float_ladder.json", "float_seeds.json", "float_master.json",
            "bool_tol.json", "string_tol.json",
        )
    ]
    # int() reads 1_0 as 10; a field is an optional '-' and ASCII digits.
    underscore = tmp_path / "underscore.edges"
    underscore.write_text("0 1 1_0\n1 0 10\n")
    runs.append(["stationary", "--graph", str(underscore)])
    # One integer rule for argv words and file fields: an optional '-', then
    # ASCII digits, inside int64. int() would read '1_0', ' +1_0' and '+10'
    # as 10, and numpy cannot hold a value beyond int64.
    huge = "99999999999999999999"
    (tmp_path / "wide.edges").write_text(f"0 {huge} 1\n")
    (tmp_path / "header.edges").write_text(f"# n={huge}\n0 1 1\n1 0 1\n")
    runs += [
        ["stationary", "--graph", str(tmp_path / "wide.edges")],
        ["stationary", "--graph", str(tmp_path / "header.edges")],
        ["stationary", "--dist", dist, "--n", huge],
        ["cover", "--graph", str(good), "--reps", huge],
        ["exponent-sweep", "--dist", dist, "--n-ladder", huge, "--out", out],
        ["stationary", "--dist", dist, "--n", "4_00"],
        ["stationary", "--dist", dist, "--n", "400", "--seed", "0_1"],
    ]
    for i, text in enumerate(("1_0", " +1_0", "+10")):
        runs += [
            ["params", "--dist", dist, "--rate-grid", text],
            ["bp-sim", "--dist", dist, "--t", text, "--reps", "100"],
            ["exponent-sweep", "--dist", dist, "--n-ladder", f"{text},20",
             "--out", str(tmp_path / f"ladder{i}.csv")],
        ]
    # An n whose degree arrays the host cannot allocate is a capacity
    # failure, and so are multiplicities whose total, as successors, the
    # address space cannot hold.
    runs.append(["stationary", "--dist", dist, "--n", str(2**60)])
    assert run_cli(runs[-1], capsys)[0] == 4
    (tmp_path / "oversized.edges").write_text(f"0 1 {2**62}\n1 0 1\n")
    runs.append(["stationary", "--graph", str(tmp_path / "oversized.edges")])
    code, err = run_cli(runs[-1], capsys)
    assert code == 4 and "address space" in err
    for i in range(36):
        path = tmp_path / f"bad{i}.edges"
        path.write_bytes(corrupt_edge_file(rng))
        command = [
            ["stationary"],
            ["hitting", "--x", "0", "--y", "1", "--reps", "3", "--step-cap", "50"],
            ["cover", "--reps", "3", "--step-cap", "50"],
        ][i % 3]
        runs.append([*command, "--graph", str(path)])
    for argv in runs:
        code, err = run_cli(argv, capsys)
        assert code in (2, 3, 4), argv
        assert "Traceback" not in err, argv
        assert err.count("error:") == 1, argv
    # A one-vertex graph is valid input; its exponent (0/0) is JSON null.
    one = tmp_path / "one.edges"
    one.write_text("# n=1\n0 0 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stationary", "--graph", str(one)]) == 0
    record = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(c))
    assert record["exponent_observed"] is None and record["pi_min"] == 1.0


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
    # A step cap below 1 is a validation failure, also when x == y.
    for cap in ("0", "-3"):
        bad_cap = ["--reps", "5", "--step-cap", cap, "--seed", "1"]
        assert main(["hitting", "--graph", str(cycle), "--x", "0", "--y", "1", *bad_cap]) == 2
        assert main(["hitting", "--graph", str(cycle), "--x", "0", "--y", "0", *bad_cap]) == 2
        assert main(["cover", "--graph", str(cycle), *bad_cap]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["cover"], ["hitting", "--x", "0", "--y", "1"]], ids=["cover", "hitting"]
)
def test_cli_walker_count_beyond_address_space_exits_4(tmp_path, capsys, command):
    # 2^62 walkers fit int64, but their int64 step counts do not fit the
    # address space: a capacity failure before any walk starts, not numpy's
    # "array is too big" ValueError.
    cycle = tmp_path / "cycle.edges"
    cycle.write_text("0 1 1\n1 2 1\n2 0 1\n")
    code, err = run_cli([*command, "--graph", str(cycle), "--reps", str(2**62)], capsys)
    assert code == 4
    assert "Traceback" not in err and err.count("error:") == 1


def test_cli_hitting_unreachable_target_exits_2(tmp_path, capsys):
    # Vertex 2 has in-degree 0: no walk from 0 ever reaches it, so at the
    # default step cap (10^9) the walkers would never stop.
    edges = tmp_path / "tail.edges"
    edges.write_text("0 1 1\n1 0 1\n2 0 1\n2 2 1\n")
    out = tmp_path / "hit.csv"
    code = main(["hitting", "--graph", str(edges), "--x", "0", "--y", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot be reached" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_hitting_stops_walkers_that_cannot_reach_target(tmp_path, capsys):
    # Fork: from 0 a walk steps to 1 or to 2, then loops there forever, so
    # the walks that step to 2 never hit 1. At the default step cap (10^9)
    # they must be censored on arrival, not walked to the cap.
    edges = tmp_path / "fork.edges"
    edges.write_text("0 1 1\n0 2 1\n1 1 1\n2 2 1\n")
    out = tmp_path / "hit.csv"
    start = time.perf_counter()
    assert main([
        "--seed", "4", "hitting", "--graph", str(edges), "--x", "0", "--y", "1",
        "--reps", "1000", "--out", str(out),
    ]) == 0
    assert time.perf_counter() - start < 5.0
    rows = [line.split(",") for line in out.read_text().split()[1:]]
    censored = int(capsys.readouterr().err.split("censored=")[1])
    assert sum(int(r[-1]) for r in rows) == censored
    assert 400 <= censored <= 600
    assert all(r[1] == "1" for r in rows if r[2] == "0")


@pytest.mark.parametrize(
    "command, step_cap",
    [(["hitting", "--x", "0", "--y", "6", "--reps", "1000"], 7),
     (["cover", "--reps", "2000", "--starts", "1"], 9)],
)
def test_cli_censored_column_matches_count(tmp_path, capsys, command, step_cap):
    # Lollipop: a 4-clique with the path 3-4-5-6 hanging off vertex 3.
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    pairs += [(3, 4), (4, 3), (4, 5), (5, 4), (5, 6), (6, 5)]
    edges = tmp_path / "lollipop.edges"
    edges.write_text("".join(f"{a} {b} 1\n" for a, b in sorted(pairs)))
    out = tmp_path / "walks.csv"
    assert main([
        "--seed", "1", *command, "--graph", str(edges),
        "--step-cap", str(step_cap), "--out", str(out),
    ]) == 0
    rows = [line.split(",") for line in out.read_text().split()[1:]]
    censored = int(capsys.readouterr().err.split("censored=")[1])
    assert sum(int(r[-1]) for r in rows) == censored
    # Walks that finish exactly at the cap are not censored. A hitting walk
    # 0 -> 6 takes exactly 7 steps with probability 0.0183, and a cover walk
    # takes exactly 9 with probability at least 0.0107 from any start, so
    # no walk lands on the cap with probability below 1e-8 either way,
    # whatever the random stream.
    assert any(int(r[-2]) == step_cap and r[-1] == "0" for r in rows)

