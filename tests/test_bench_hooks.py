import ast
import importlib
import sys
from pathlib import Path

import dcmwalk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_functions_resolve_in_dcmwalk(monkeypatch):
    # A traced bench run wraps every (module, attr) in LAYER_FUNCTIONS and
    # fails on the first one the library no longer defines.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    missing = [
        (module, attr)
        for targets in spans.LAYER_FUNCTIONS.values()
        for module, attr in targets
        if not module.startswith("dcmwalk.")
        or not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def dcmwalk_chains(tree: ast.AST) -> set[tuple[str, ...]]:
    """The attribute names of every `dcmwalk.a.b...` chain read in `tree`,
    each prefix of a longer chain included."""
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "dcmwalk":
            chains.add(tuple(reversed(names)))
    return chains


def test_worker_reads_resolve_in_dcmwalk():
    # Every bench workload calls the library through `dcmwalk.<name>` or
    # `dcmwalk.walks.<name>`: a deleted name fails here, not in a bench run.
    chains = dcmwalk_chains(ast.parse((PERFBENCH / "worker.py").read_text()))
    assert {("realize_sequence",), ("validate_sequence",), ("walks", "POWER_TOL")} <= chains
    unresolved = []
    for chain in sorted(chains):
        obj = dcmwalk
        for name in chain:
            if not hasattr(obj, name):
                unresolved.append(".".join(("dcmwalk", *chain)))
                break
            obj = getattr(obj, name)
    assert unresolved == []


def import_worker(monkeypatch):
    """perfbench/worker.py as a module, imported as the bench runs it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("spans", "worker"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("worker")


def test_large_cell_gate_passes_at_small_n(monkeypatch):
    # The large-n workload's gate reads the graph as `successors()`, `d_out`
    # and `n`, which the chains above do not resolve: run it on one cell.
    worker = import_worker(monkeypatch)
    g, stat = worker.large_cell({"dist": worker.toy(), "seed": 1}, 2**12)
    assert stat is not None
    res = worker.Outcome()
    worker.check_large_cell(g, stat, res)
    assert (res.attempted, res.failed) == (1, 0), res.errors


def test_walk_gate_passes(monkeypatch, tmp_path):
    # The walk-times workload's gates (cover time against Matthews' bound,
    # Kac's return times, the Monte Carlo hitting time) read the walkers'
    # degree tables and `return_times_exact`: run one repetition of them.
    worker = import_worker(monkeypatch)
    outs = worker.walk_graphs(worker.setup_walk(1, tmp_path))
    assert len(outs) == worker.WALK_GRAPHS
    res = worker.Outcome()
    for out in outs:
        worker.check_walk_graph(out, res)
    assert res.attempted >= 2 * worker.WALK_GRAPHS
    assert res.failed == 0, res.errors


def test_sweep_gate_passes(monkeypatch, tmp_path):
    # The sweep workload's gates (every cell ok or without an attractive
    # class, the slope row inside its band) read the sweep CSV: run one
    # repetition at a seed the design seeds do not use.
    worker = import_worker(monkeypatch)
    inp = worker.setup_sweep(2, tmp_path)
    res = worker.Outcome()
    worker.run_sweep(inp, res, worker.Stopwatch())
    assert res.attempted == len(worker.SWEEP_LADDER) * worker.SWEEP_SEEDS_PER_N
    assert res.failed == 0, res.errors
