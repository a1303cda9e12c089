import ast
import math
from pathlib import Path

import numpy as np
import pytest

import dcmwalk
from dcmwalk import (
    BiDegreeDistribution,
    BiDegreeSequence,
    ExperimentConfig,
    MarkedOffspringLaw,
    Multigraph,
    ValidationError,
    duality_check,
    empirical_tail,
    out_size_biased,
    realize_sequence,
    run_params,
    sample_rout,
    simulate_marked_gw,
    stationary_distribution,
    subcritical_tail_experiment,
)

from conftest import TOY_PMF

PACKAGE = Path(dcmwalk.__file__).parent

# Defaults on public functions and methods of the package. A new option has
# to raise this bound, so it shows in the diff.
MAX_PUBLIC_DEFAULTS = 25


def count_defaults(fn: ast.FunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def public_functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield fn


def test_public_optional_parameters_are_bounded():
    total = 0
    for path in sorted(Path(dcmwalk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        total += sum(count_defaults(fn) for fn in public_functions(tree))
    assert 0 < total <= MAX_PUBLIC_DEFAULTS


def input_checks(path: Path) -> list[str]:
    """Lines of `path` that define PROB_TOL, name numbers.Integral or
    numbers.Real, or pass `type=int` (an integer reader besides
    `_checks.read_int`) to argparse."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id == "PROB_TOL":
                found.append(f"{path.name}:{node.lineno}: defines PROB_TOL")
        for kind in ("Integral", "Real"):
            if (isinstance(node, ast.Attribute) and node.attr == kind) or (
                isinstance(node, ast.Name) and node.id == kind
            ):
                found.append(f"{path.name}:{node.lineno}: checks numbers.{kind}")
        if isinstance(node, ast.keyword) and node.arg == "type":
            if isinstance(node.value, ast.Name) and node.value.id == "int":
                found.append(f"{path.name}:{node.lineno}: parses argv with type=int")
    return found


def test_one_input_path():
    # `_checks` holds the one PROB_TOL, the one integer check, the one reader
    # of integer text and the one real check; every other module imports them.
    own = [line.split(": ", 1)[1] for line in input_checks(PACKAGE / "_checks.py")]
    assert own.count("defines PROB_TOL") == 1 and "checks numbers.Integral" in own
    assert "checks numbers.Real" in own
    others = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "_checks.py"]
    assert [line for p in others for line in input_checks(p)] == []


def toy_law():
    return BiDegreeDistribution(dict(TOY_PMF))


def config(**fields):
    base = dict(dist_json=toy_law().to_json(), n_ladder=(64,), seeds_per_n=1)
    return ExperimentConfig(**{**base, **fields})


def dist_json(p: str) -> str:
    return f'{{"pmf": [{{"in": 2, "out": 2, "p": 1.0}}, {{"in": 3, "out": 3, "p": {p}}}]}}'


def config_json(power_tol: str) -> str:
    fields = f'"n_ladder": [64], "seeds_per_n": 1, "power_tol": {power_tol}'
    return f'{{"distribution": {toy_law().to_json()}, {fields}}}'


def cycle() -> Multigraph:
    return Multigraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 0, 1)])


def written(name: str, text: str) -> Path:
    """A file `name` in the working directory (the test's tmp_path) holding `text`."""
    path = Path(name)
    path.write_text(text)
    return path


# Refused with ValidationError, neither rounded nor dropped nor left to crash
# further in: a non-integer key, count or id; a law key that is not a pair;
# a probability that is not a real number in [0, 1]; a tolerance or a
# threshold that is not a real number; an integer outside int64; a text-file
# field that is not an optional '-' followed by ASCII digits.
REFUSED = {
    "dist_float_degrees": lambda: BiDegreeDistribution({(2.7, 2.2): 1.0}),
    "law_float_keys": lambda: MarkedOffspringLaw({(1.9, 2.5): 1.0}),
    "seq_float_arrays": lambda: BiDegreeSequence(np.array([2.5, 2.0]), np.array([2.0, 2.5])),
    "seq_bool_arrays": lambda: BiDegreeSequence(np.array([True, True]), np.array([True, True])),
    "edges_float_multiplicity": lambda: Multigraph.from_edges([(0, 1, 1.5), (1, 0, 1)]),
    "realize_float_n": lambda: realize_sequence(BiDegreeDistribution({(2, 2): 1.0}), 10.7),
    "realize_bool_n": lambda: realize_sequence(BiDegreeDistribution({(2, 2): 1.0}), True),
    "config_float_ladder": lambda: config(n_ladder=(64.5, 128)),
    "config_float_seeds": lambda: config(seeds_per_n=1.5),
    "config_bool_master_seed": lambda: config(master_seed=True),
    "dist_nan_p": lambda: BiDegreeDistribution({(2, 2): 1.0, (3, 3): math.nan}),
    "dist_json_nan_p": lambda: BiDegreeDistribution.from_json(dist_json("NaN")),
    "dist_json_string_p": lambda: BiDegreeDistribution.from_json(
        '{"pmf": [{"in": 2, "out": 2, "p": "1"}]}'
    ),
    "dist_json_bool_p": lambda: BiDegreeDistribution.from_json(
        '{"pmf": [{"in": 2, "out": 2, "p": true}]}'
    ),
    "law_json_string_p": lambda: MarkedOffspringLaw.from_json(
        '{"pmf": [{"xi": 2, "zeta": 2, "p": "1"}]}'
    ),
    "law_json_bool_p": lambda: MarkedOffspringLaw.from_json(
        '{"pmf": [{"xi": 2, "zeta": 2, "p": true}]}'
    ),
    "duality_float_depth": lambda: duality_check({0: 0.25, 2: 0.75}, 1.5),
    "rout_float_n": lambda: sample_rout(10.5, 2),
    "gw_float_t_max": lambda: simulate_marked_gw(out_size_biased(toy_law()), 2.5),
    "params_float_rate_grid": lambda: run_params(toy_law(), rate_grid=2.5),
    "stationary_bool_tol": lambda: stationary_distribution(cycle(), tol=True),
    "stationary_string_tol": lambda: stationary_distribution(cycle(), tol="1"),
    "config_bool_power_tol": lambda: config(power_tol=True),
    "config_string_power_tol": lambda: config(power_tol="1e-3"),
    "config_json_bool_power_tol": lambda: ExperimentConfig.from_json(config_json("true")),
    "config_json_string_power_tol": lambda: ExperimentConfig.from_json(config_json('"1e-3"')),
    "dist_triple_key": lambda: BiDegreeDistribution({(2, 2, 9): 1.0}),
    "dist_int_key": lambda: BiDegreeDistribution({5: 1.0}),
    "dist_short_key": lambda: BiDegreeDistribution({(2,): 1.0}),
    "law_triple_key": lambda: MarkedOffspringLaw({(2, 2, 9): 1.0}),
    "law_int_key": lambda: MarkedOffspringLaw({5: 1.0}),
    "law_short_key": lambda: MarkedOffspringLaw({(2,): 1.0}),
    "tail_bool_alpha": lambda: empirical_tail(stationary_distribution(cycle()), True),
    "tail_string_alpha": lambda: empirical_tail(stationary_distribution(cycle()), "1"),
    "tail_experiment_bool_a": lambda: subcritical_tail_experiment(
        out_size_biased(toy_law()), t=2, a=True, omega=4, reps=16, runs=2
    ),
    "tail_experiment_string_a": lambda: subcritical_tail_experiment(
        out_size_biased(toy_law()), t=2, a="1", omega=4, reps=16, runs=2
    ),
    "edge_file_underscore": lambda: Multigraph.from_edge_list(written("g.edges", "0 1 1_0\n")),
    "graph_no_vertex": lambda: Multigraph(
        np.array([], dtype=np.int64), np.array([], dtype=np.int32)
    ),
    # Integers beyond int64, which numpy cannot hold.
    "seq_huge_pair": lambda: BiDegreeSequence([2], [10**20]),
    "edges_huge_vertex": lambda: Multigraph.from_edges([(0, 10**20, 1)]),
    "realize_huge_n": lambda: realize_sequence(BiDegreeDistribution({(2, 2): 1.0}), 10**20),
}


@pytest.mark.parametrize("name", REFUSED)
def test_inputs_are_refused_not_rounded(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError):
        REFUSED[name]()
