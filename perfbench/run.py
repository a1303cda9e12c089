"""dcmwalk benchmark: run one workload for a fixed time, check its outputs,
and print every metric by name with its unit.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Every workload in turn, from the repository root:

    for w in sweep large-n walk-times tail-ladder; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 15 --trace 0
    done

Workloads (why each was chosen is recorded in BENCHMARK.json):
  sweep        run_exponent_sweep, n in {2^10,2^11,2^12,2^14,2^16} x 16 seeds
  large-n      one sweep cell each at n = 2^20 and 2^21
  walk-times   walk_times_exact, Kac return times and hitting_time_mc on
               four n = 250 graphs
  tail-ladder  subcritical_tail_experiment at t = 10, 20, 30, 2e5 replicas

Each repetition is a fresh process (worker.py), run one after another
(closed loop, one client) until --seconds have passed; the metrics are
medians over repetitions. Set-up is timed in every repetition, and extra
set-up-only processes are started until there are MIN_SETUPS samples.
BLAS runs single-threaded and sweeps run serially, so one run keeps one
core busy.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (spans.py), plus trace.overhead_s, the
median traced wall time minus the median untraced one. Span files are
written to .perfbench_out/ in the repository root.

fail_frac = failed / attempted is carried by the "failed" and "attempted"
fields of the result line. An operation is a sweep cell, a tail cell or a
walk-time call. The run fails as a whole when the sweep CSV differs between
repetitions or when an exact count (spans.EXACT_COUNTS) drifts.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import EXACT_COUNTS

WORKLOADS = ("sweep", "large-n", "walk-times", "tail-ladder")
MIN_SETUPS = 5
MIN_TRACED = 2
TIME_LIMIT_S = 170.0  # every run must end within 180 s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchError(Exception):
    """The benchmark could not run (as opposed to an operation failing)."""


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, workdir: Path, rep: int, traced: bool, setup_only: bool,
          limit: float) -> dict:
    """Run one repetition in a fresh worker process and return its record."""
    repdir = workdir / f"rep{rep}"
    repdir.mkdir()
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--t0", repr(t0), "--workdir", str(repdir),
    ]
    if traced:
        cmd += ["--trace-out", str(workdir / f"spans-rep{rep}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, limit - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {rep} exceeded the time limit") from exc
    shutil.rmtree(repdir)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"repetition {rep} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(rec["dcmwalk"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported dcmwalk from {rec['dcmwalk']}, not {ROOT / 'src'}")
    rec["traced"] = traced
    return rec


def measure(args) -> tuple[list[dict], list[dict]]:
    """Repetitions until --seconds have passed; returns (work reps, set-up-only reps)."""
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.monotonic()
    limit = start + TIME_LIMIT_S
    reps: list[dict] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(spawn(args, workdir, len(reps), traced, False, limit))
        n_traced = sum(r["traced"] for r in reps)
        if time.monotonic() - start >= args.seconds and (
            not args.trace or n_traced >= MIN_TRACED
        ):
            break
    extra: list[dict] = []
    while len(reps) + len(extra) < MIN_SETUPS:
        extra.append(spawn(args, workdir, len(reps) + len(extra), False, True, limit))
    return reps, extra


def summarize(args, reps: list[dict], extra: list[dict], units: dict) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]

    # Run-level gates across repetitions of the same code and seed.
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        failed = attempted
        errors.append(f"outputs differ between repetitions: {sorted(digests)}")
    counts = {k: {r["layers"][k] for r in traced} for k in EXACT_COUNTS}
    drift = {k: sorted(v) for k, v in counts.items() if len(v) > 1}
    if drift:
        failed = attempted
        errors.append(f"exact counts drifted between repetitions: {drift}")

    if args.trace:
        metrics = {
            name: traced[0]["layers"][name] if name in EXACT_COUNTS
            else statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)
        )
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in reps + extra),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "errors": errors,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "dcmwalk" / "__init__.py").is_file():
        print(f"perfbench: no dcmwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    try:
        reps, extra = measure(args)
        summary = summarize(args, reps, extra, units)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        **reps[0]["record"],
        "repetitions": len(reps),
        "setup_samples": len(reps) + len(extra),
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)}")
    for name, m in summary["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':28s} {summary['failed']}/{summary['attempted']}")
    for err in summary["errors"][:20]:
        print(f"  FAILED: {err}")
    print(json.dumps({"run_record": record}))
    summary.pop("errors")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
