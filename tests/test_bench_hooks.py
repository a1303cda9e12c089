import ast
import functools
import importlib
import inspect
import json
import sys
from pathlib import Path

import dcmwalk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCHMARK = PERFBENCH.parent / "BENCHMARK.json"


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


def dcmwalk_chain(node: ast.AST) -> tuple[str, ...] | None:
    """The attribute names of `node` when it reads a `dcmwalk.a.b...` chain,
    else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if names and isinstance(node, ast.Name) and node.id == "dcmwalk":
        return tuple(reversed(names))
    return None


def dcmwalk_chains(tree: ast.AST) -> set[tuple[str, ...]]:
    """The attribute names of every `dcmwalk.a.b...` chain read in `tree`,
    each prefix of a longer chain included."""
    return {chain for node in ast.walk(tree) if (chain := dcmwalk_chain(node))}


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


def test_worker_calls_bind_to_library_signatures():
    # Every `dcmwalk.<name>(...)` call of the bench binds to the library's
    # signature, its argument expressions standing in for their values: a
    # dropped or renamed parameter fails here, not in a bench run.
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    calls, unbound = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or (chain := dcmwalk_chain(node.func)) is None:
            continue
        assert not any(isinstance(arg, ast.Starred) for arg in node.args), node.lineno
        assert all(kw.arg for kw in node.keywords), node.lineno
        signature = inspect.signature(functools.reduce(getattr, chain, dcmwalk))
        try:
            signature.bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            unbound.append(f"worker.py:{node.lineno}: {'.'.join(chain)}: {exc}")
        calls += 1
    assert unbound == []
    assert calls >= 21


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


def test_tracer_reports_every_declared_layer(monkeypatch, tmp_path):
    # A traced bench run reads its counters from the results of the wrapped
    # calls (`iterations`, `targets`, `reps`, `censored`, `t`, `successes`):
    # run each workload's library calls once under the tracer, at small
    # sizes and without the gates, and check the per-layer metrics it reports.
    worker = import_worker(monkeypatch)
    spans = sys.modules["spans"]
    # `Tracer.install` rebinds module attributes; the snapshot undoes it.
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "dcmwalk" or name.startswith("dcmwalk.")):
            for key, value in list(vars(module).items()):
                monkeypatch.setattr(module, key, value)
    tracer = spans.Tracer("test")
    tracer.install()
    worker.setup_sweep(1, tmp_path)
    eta = worker.setup_tail(1, tmp_path)["eta"]
    for t in spans.TAIL_TS:
        dcmwalk.subcritical_tail_experiment(eta, t=t, a=1.0, omega=200, reps=800, rng_seed=1)
    worker.walk_graphs(worker.setup_walk(1, tmp_path))
    worker.large_cell(worker.setup_large(1, tmp_path), 2**12)
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    assert set(tracer.layer_metrics()) == declared - {"trace.overhead_s"}
    # Every layer but the sweep's own ran, which its gate test covers.
    assert {s["name"] for s in tracer.spans} == set(spans.LAYER_FUNCTIONS) - {"harness.sweep"}
    tracer.write_jsonl(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(tracer.spans)
