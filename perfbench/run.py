"""End-to-end benchmark of the deTector reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``plan-cold``,
``monitor-replan`` and ``monitor-storm``.  Each pass of a workload runs in a
fresh worker process, so ``peak_rss_mb`` is that pass's own high-water mark.

``--trace 0`` prints the end-to-end metrics, measured with no tracing:

* ``setup_s`` -- imports, topology build, pool spawn and (monitor workloads)
  the bootstrap cold plan: everything before the first timed operation.
  Every run sets up three times, each in its own process (a set-up-only
  pass, the measured pass, another set-up-only pass), and reports the
  median.
* ``op_s`` -- median wall time of one operation: a cold-plan round, the sum
  of each fabric's median cold plan (plan-cold); one re-plan cycle, timed
  by the engine around ``DetectorSystem.run_controller_cycle``
  (monitor-replan); or the streaming wall of one 30 s monitoring window
  (monitor-storm).
* ``work_rate`` -- candidate paths per second of enumeration (plan-cold),
  or probes per wall second of the streaming plane, controller cycles left
  out (monitor-*).
* ``peak_rss_mb`` -- max of ``RUSAGE_SELF`` and ``RUSAGE_CHILDREN``, so the
  PMC pool workers count.

The workload-specific figures (``plan_s.<fabric>``, ``replan_s``,
``probe_rate``, ``localize_sim_s``) are printed on the lines before the
final JSON line.

``--trace 1`` runs the same fixed work twice, untraced and then traced,
checks that the deterministic outputs of the two passes are identical, and
prints the per-layer metrics (self times and work counts) plus the tracing
overhead.  The full per-layer report, with the end-to-end metric each layer
metric should move, goes to ``perfbench/out/trace-<workload>-seed<n>.json``.

Each pass checks its plans: alpha=2 coverage and beta=1 identifiability of
every cold plan and re-plan, identical plans across plan-cold rounds, and a
localized fault for every storm operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when an output check fails, or without a result line when the
checkout holds no program source.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import LAYER_METRICS, WORKLOADS  # imports no program code

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
E2E_UNITS = {"setup_s": "s", "op_s": "s", "work_rate": "1/s", "peak_rss_mb": "MB"}
DEADLINE_S = 170.0


class PassFailed(RuntimeError):
    """A worker pass exited abnormally or ran out of time."""


def run_pass(spec: dict, deadline: float) -> dict:
    """Run one worker pass in its own process group; return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("no time left for another pass")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"{spec['workload']} pass timed out") from None
    finally:
        try:  # reap anything the pass left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise PassFailed(f"{spec['workload']} pass exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def print_named(result: dict) -> None:
    for name, (value, unit) in sorted(result["named"].items()):
        print(f"  {name:<28} {value:14.6g} {unit}")


def untraced(args, spec: dict, deadline: float):
    setups = [run_pass(dict(spec, setup_only=True), deadline)["setup_s"]]
    result = run_pass(spec, deadline)
    setups.append(result["setup_s"])
    setups.append(run_pass(dict(spec, setup_only=True), deadline)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": result["e2e"]["op_s"],
        "work_rate": result["e2e"]["work_rate"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"{args.workload} seed={args.seed}: {result['info']}")
    print_named(result)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:14.6g} {E2E_UNITS[name]}")
    return result, {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}


def traced(args, spec: dict, deadline: float):
    fixed = dict(spec, rounds=1)  # plan-cold: the same single round in both passes
    plain = run_pass(fixed, deadline)
    stem = f"trace-{args.workload}-seed{args.seed}"
    result = run_pass(dict(fixed, traced=True), deadline)
    errors = list(result["errors"])
    if plain["deterministic"] != result["deterministic"]:
        errors.append("traced and untraced passes disagree on deterministic outputs")
    layers = dict(result["layers"])
    layers["trace.overhead_s"] = result["wall_s"] - plain["wall_s"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "untraced_wall_s": plain["wall_s"], "traced_wall_s": result["wall_s"],
        "metrics": {
            name: {"value": layers[name], "unit": unit, "layer": layer, "moves": moves}
            for name, (unit, layer, moves) in LAYER_METRICS.items()
        },
        "stages": result["stages"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2))
    print(f"{args.workload} seed={args.seed} traced: wall {result['wall_s']:.3f} s, "
          f"untraced {plain['wall_s']:.3f} s")
    for name, entry in report["metrics"].items():
        print(f"  {name:<28} {entry['value']:14.6g} {entry['unit']:<6} "
              f"[{entry['layer']}] -> {entry['moves']}")
    result["errors"] = errors
    return result, {name: (layers[name], unit) for name, (unit, _, _) in LAYER_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="deTector end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: Fattree(4), VL2(4,4,2), BCube(4,1) for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (HERE.parent / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout that holds src/repro", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "scale": args.scale, "traced": False}
    try:
        if args.trace:
            result, metrics = traced(args, spec, deadline)
        else:
            result, metrics = untraced(args, spec, deadline)
    except PassFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if result.get("missed_links"):
        print(f"  not localized: {result['missed_links']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    correct = not result["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
