"""One workload pass in a fresh interpreter; prints its result as JSON.

Started by ``run.py`` so that each pass has its own process: peak RSS is
then that pass's own high-water mark, and set-up time includes the imports.
Usage (internal)::

    python3 perfbench/worker.py '{"workload": "plan-cold", "seed": 1, ...}'
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program.

    Fails when the checkout has no program source, instead of picking up
    some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv) -> int:
    args = json.loads(argv[1])
    import_program()
    import workloads

    scale = workloads.SCALES[args["scale"]]
    if args.get("setup_only"):
        from repro.parallel import shutdown_pools

        if args["workload"] == "plan-cold":
            workloads.setup_plan_cold(scale)
        else:
            workloads.setup_monitor(args["workload"], args["seed"], args["seconds"], scale)
        print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
        shutdown_pools()
        return 0
    tracer = counters = None
    if args["traced"]:
        from tracer import SpanTracer

        tracer = SpanTracer()
        counters = workloads.LayerCounters()
        tracer.install(workloads.STAGES, counters.hooks())
    if args["workload"] == "plan-cold":
        result = workloads.run_plan_cold(args["seconds"], scale, args.get("rounds"), STARTED)
    else:
        result = workloads.run_monitor(
            args["workload"], args["seed"], args["seconds"], scale, STARTED
        )
    result["wall_s"] = time.perf_counter() - STARTED
    result["peak_rss_mb"] = workloads.peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = workloads.layer_metrics(tracer, counters, result.get("layer_extra", {}))
        result["stages"] = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for name, s in tracer.stats.items()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
