"""The benchmark's workloads, run inside one worker process each.

Three workloads, all with alpha=2 and beta=1, each stressing different layers:

* ``plan-cold`` -- every round builds a fresh ``Controller`` (jobs=1) and runs
  a cold ``run_cycle()`` on Fattree(16), VL2(24,16,2) and BCube(6,2).  This is
  what a controller restart or an experiment sweep pays: candidate
  enumeration, incidence build and CELF, with no streaming plane, warm cache,
  link masks or worker pool.  Its inputs do not depend on the seed.
* ``monitor-replan`` -- a ``TelemetryEngine`` run on Fattree(16) with
  incremental controller cycles every 60 s under light known link churn,
  three flapping links and ``jobs=2``: the deployment loop, dominated by
  re-planning through link masks, the CELF warm cache and pooled dispatch.
  Nearly every probe row takes the vectorized fast path.
* ``monitor-storm`` -- one fixed plan on Fattree(16) and about 70 concurrent
  fault episodes (flapping links, congestion, gray failures and one ToR
  outage).  The controller is bypassed; the streaming plane and PLL carry
  the load, and many probe rows fall back to the scalar probing kernel.

Fault placement, churn and probe jitter come from ``SeededStreams(seed)``.
The program only receives the generated topology, episodes and schedule.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from tracer import SpanTracer, Stage, Target

ALPHA, BETA = 2, 1
WINDOW_S = 30.0
CYCLE_S = 60.0
PROBES_PER_SECOND = 100.0
MAX_CHURNED_LINKS = 3

WORKLOADS = ("plan-cold", "monitor-replan", "monitor-storm")


@dataclass(frozen=True)
class Scale:
    """Topology sizes and run-length calibration of one benchmark scale.

    ``plan_rounds_per_s`` and ``*_sim_per_s`` convert ``--seconds`` into a
    fixed number of cold-plan rounds or a fixed simulated duration, so the
    work of a run depends only on the seed and the requested length, never
    on machine speed.  They are calibrated so the timed part of a run takes
    about ``--seconds`` wall seconds on an idle 2-core x86 box.

    ``strict`` adds the checks that only hold at full scale: re-plans under
    churn stay alpha/beta over the links still up (a Fattree(4) with two
    links down is too thin for beta=1), and every storm fault is localized.
    """

    fattree_k: int
    vl2: Tuple[int, int, int]
    bcube: Tuple[int, int]
    plan_rounds_per_s: float
    replan_sim_per_s: float
    storm_sim_per_s: float
    storm_links: int
    strict: bool


SCALES = {
    "full": Scale(16, (24, 16, 2), (6, 2), plan_rounds_per_s=0.125, replan_sim_per_s=117.0,
                  storm_sim_per_s=126.0, storm_links=69, strict=True),
    # Test scale: same code paths on fabrics small enough for unit tests.
    "tiny": Scale(4, (4, 4, 2), (4, 1), plan_rounds_per_s=1.0, replan_sim_per_s=60.0,
                  storm_sim_per_s=30.0, storm_links=6, strict=False),
}


# ---------------------------------------------------------------------------
# per-layer stages (traced run only)
# ---------------------------------------------------------------------------

def _t(module: str, attr: str, cls: Optional[str] = None) -> Target:
    return Target(module=f"repro.{module}", attr=attr, cls=cls)


# End-to-end metric and workload each stage should move; the workload's own
# figure (printed by the untraced run) is named in brackets.  On the monitor
# workloads work_rate is the streaming plane's probe rate (probes per wall
# second spent outside controller cycles), and op_s on monitor-storm is the
# median streaming wall of one window.
PLAN = "op_s [plan_s.*] on plan-cold"
REPLAN = "op_s [replan_s] on monitor-replan"
RATE = "work_rate on monitor-*; op_s on monitor-storm"
STORM = "work_rate and op_s on monitor-storm"

STAGES: Tuple[Stage, ...] = (
    Stage("paths.enumerate", "routing.paths",
          (_t("monitor.controller", "enumerate_candidate_paths"),),
          moves=f"{PLAN} and work_rate on plan-cold; setup_s on monitor-*"),
    Stage("incidence.build", "core.incidence",
          (_t("core.incidence", "__init__", "IncidenceIndex"),),
          moves=f"{PLAN}; setup_s and peak_rss_mb on monitor-*"),
    Stage("decomposition", "core.decomposition",
          (_t("core.pmc", "decompose_routing_matrix"),
           _t("core.incidence", "components", "IncidenceIndex")),
          moves=f"{PLAN}; {REPLAN}", only_under=("pmc.solve",)),
    Stage("pmc.solve", "core.pmc",
          (_t("monitor.controller", "construct_probe_matrix"),
           _t("monitor.controller", "construct_probe_matrix_masked")),
          moves=f"{PLAN}; {REPLAN}"),
    Stage("celf.pop", "core.lazy_greedy",
          (_t("core.lazy_greedy", "pop_lazy_batch", "BatchCELFHeap"),),
          moves=f"{PLAN}; {REPLAN}"),
    Stage("parallel.pool_map", "parallel",
          (_t("core.pmc", "pool_map"),),
          moves=f"{REPLAN}; no change on plan-cold (jobs=1)"),
    Stage("watchdog.apply_delta", "monitor.watchdog",
          (_t("monitor.watchdog", "apply_delta", "Watchdog"),),
          # The engine applies the delta before it starts a cycle's timer.
          moves="work_rate on monitor-replan (outside the cycle timer, so not op_s)"),
    Stage("controller.cycle", "monitor.controller",
          (_t("monitor.controller", "run_cycle", "Controller"),
           _t("monitor.controller", "run_incremental_cycle", "Controller")),
          moves=f"{REPLAN}; {PLAN}"),
    Stage("controller.pinglists", "monitor.controller",
          (_t("monitor.controller", "select_pingers", "Controller"),
           _t("monitor.controller", "build_pinglists", "Controller")),
          moves=f"{REPLAN}; {PLAN}"),
    Stage("loop.run_until", "engine.loop",
          (_t("engine.loop", "run_until", "EventLoop"),),
          moves=RATE),
    Stage("probes.drain", "engine.probes",
          (_t("engine.probes", "drain", "ProbeScheduler"),),
          moves=RATE),
    Stage("network.bulk", "simulation.network",
          (_t("simulation.network", "probe_paths_bulk", "ProbeSimulator"),),
          moves="work_rate on monitor-*, most on monitor-replan; op_s on monitor-storm"),
    Stage("network.scalar", "simulation.network",
          (_t("simulation.network", "probe_path_batch", "ProbeSimulator"),),
          moves=STORM),
    Stage("aggregator.fold", "engine.aggregator",
          (_t("engine.aggregator", "record_batch", "StreamAggregator"),),
          moves=RATE),
    Stage("aggregator.close", "engine.aggregator",
          (_t("engine.aggregator", "close_window", "StreamAggregator"),),
          moves=RATE),
    Stage("pll.diagnose", "localization.pll",
          (_t("monitor.diagnoser", "diagnose", "Diagnoser"),),
          moves=f"{STORM}; localize_sim_s must not move",
          keep_samples=True),
)

def _layer_metric_table() -> Dict[str, Tuple[str, str, str]]:
    by_stage = {stage.name: stage for stage in STAGES}

    def timed(stage: str) -> Tuple[str, str, str]:
        return ("s", by_stage[stage].layer, by_stage[stage].moves)

    def count(stage: str, unit: str = "count") -> Tuple[str, str, str]:
        return (unit, by_stage[stage].layer, by_stage[stage].moves)

    return {
        "paths.enumerate_s": timed("paths.enumerate"),
        "paths.candidates": count("paths.enumerate"),
        "incidence.build_s": timed("incidence.build"),
        "incidence.nnz": count("incidence.build"),
        "decomposition.s": timed("decomposition"),
        "decomposition.subproblems": count("decomposition"),
        "pmc.solve_s": timed("pmc.solve"),
        "pmc.evaluations": count("pmc.solve"),
        "pmc.lazy_skips": count("pmc.solve"),
        "pmc.warm_reuse_ratio": count("pmc.solve", "ratio"),
        "celf.pop_s": timed("celf.pop"),
        "celf.pops": count("celf.pop"),
        "parallel.pool_map_s": timed("parallel.pool_map"),
        "parallel.pool_spawns": count("parallel.pool_map"),
        "parallel.dispatch_bytes": count("parallel.pool_map", "B"),
        "watchdog.apply_delta_s": timed("watchdog.apply_delta"),
        "controller.cycle_s": timed("controller.cycle"),
        "controller.pinglists_s": timed("controller.pinglists"),
        "controller.full_rebuild_share": count("controller.cycle", "ratio"),
        "loop.run_until_s": timed("loop.run_until"),
        "loop.events": count("loop.run_until"),
        "probes.drain_s": timed("probes.drain"),
        "probes.drains": count("probes.drain"),
        "network.bulk_s": timed("network.bulk"),
        "network.scalar_s": timed("network.scalar"),
        "network.scalar_row_share": count("network.scalar", "ratio"),
        "aggregator.fold_s": timed("aggregator.fold"),
        "aggregator.close_s": timed("aggregator.close"),
        "aggregator.rejected": count("aggregator.fold"),
        "pll.diagnose_s": ("s", "localization.pll",
                           "median per window; " + by_stage["pll.diagnose"].moves),
        "pll.suspects": count("pll.diagnose"),
        "pll.false_positives": count("pll.diagnose"),
        "pll.localize_sim_s": ("sim_s", "localization.pll",
                               "deterministic: a speed-only change leaves it identical"),
        "dynamics.transitions": ("count", "engine.dynamics",
                                 f"context for {STORM}"),
        "trace.overhead_s": ("s", "benchmark", "traced minus untraced wall of the same work"),
    }


#: Per-layer metrics of the traced run: name -> (unit, layer, end-to-end
#: metric and workload it should move).  Timings are self times summed over
#: the whole pass (set-up included) unless noted.
LAYER_METRICS = _layer_metric_table()


class LayerCounters:
    """Work counts gathered from the results of traced calls."""

    def __init__(self) -> None:
        self.candidates = 0
        self.nnz = 0
        self.subproblems = 0
        self.reused_subproblems = 0
        self.evaluations = 0
        self.lazy_skips = 0
        self.cycles = 0
        self.full_cycles = 0
        self.events = 0
        self.bulk_rows = 0
        self.suspects = 0

    def hooks(self) -> Dict[str, Callable]:
        def enumerate_done(paths, args):
            self.candidates += len(paths)

        def index_built(_result, args):
            self.nnz += int(args[0].nnz)

        def pmc_done(result, args):
            stats = result.stats
            self.subproblems += stats.subproblems
            self.reused_subproblems += stats.reused_subproblems
            self.evaluations += stats.greedy_evaluations
            self.lazy_skips += stats.lazy_skips

        def cycle_done(cycle, args):
            self.cycles += 1
            self.full_cycles += cycle.mode == "full"

        def ran_until(events, args):
            self.events += int(events)

        def bulk_done(_result, args):
            self.bulk_rows += len(args[1])

        def diagnosed(report, args):
            self.suspects += len(report.suspected_links)

        return {
            "paths.enumerate": enumerate_done,
            "incidence.build": index_built,
            "pmc.solve": pmc_done,
            "controller.cycle": cycle_done,
            "loop.run_until": ran_until,
            "network.bulk": bulk_done,
            "pll.diagnose": diagnosed,
        }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """High-water RSS of this process or any reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def plan_errors(probe_matrix, label: str, down: frozenset = frozenset(),
                properties: bool = True) -> List[str]:
    """What is wrong with a plan made while the links in ``down`` are known down.

    A probe path must not cross a down link.  With ``properties``, the plan
    must also be alpha-covering and beta-identifiable over the links that are
    still up.
    """
    from repro.core.probe_matrix import ProbeMatrix
    from repro.core.properties import check_coverage, check_identifiability

    if any(path.link_ids & down for path in probe_matrix.paths):
        return [f"{label}: a probe path crosses a link known to be down"]
    if not properties:
        return []
    if down:
        up = [link for link in probe_matrix.link_ids if link not in down]
        probe_matrix = ProbeMatrix(probe_matrix.topology, probe_matrix.paths, link_ids=up)
    if check_coverage(probe_matrix, ALPHA) and check_identifiability(probe_matrix, BETA):
        return []
    return [f"{label}: plan fails the alpha={ALPHA}/beta={BETA} check on the links that are up"]


# ---------------------------------------------------------------------------
# plan-cold
# ---------------------------------------------------------------------------

def _fabrics(scale: Scale) -> Dict[str, Callable]:
    from repro.topology import build_bcube, build_fattree, build_vl2

    return {
        f"fattree{scale.fattree_k}": lambda: build_fattree(scale.fattree_k),
        "vl2": lambda: build_vl2(*scale.vl2),
        "bcube": lambda: build_bcube(*scale.bcube),
    }


def setup_plan_cold(scale: Scale) -> Dict[str, object]:
    """Imports, lazy-import warm-up and the three fabrics."""
    import scipy.sparse.csgraph  # noqa: F401  (imported lazily by large decompositions)

    import repro.monitor  # noqa: F401

    return {name: build() for name, build in _fabrics(scale).items()}


def plan_rounds(seconds: float, scale: Scale) -> int:
    """Cold-plan rounds of a plan-cold run of ``seconds``: at least three, so
    that each fabric's median is taken over three plans or more."""
    return max(3, round(seconds * scale.plan_rounds_per_s))


def run_plan_cold(seconds: float, scale: Scale, rounds: Optional[int], started: float) -> dict:
    """``rounds`` (default: ``plan_rounds``) rounds of cold plans on every fabric.

    The fabrics are interleaved within each round, so drift of the machine's
    speed during the run touches every fabric alike.
    """
    from repro.monitor import Controller, ControllerConfig

    topologies = setup_plan_cold(scale)
    config = ControllerConfig(alpha=ALPHA, beta=BETA, jobs=1)
    setup_s = time.perf_counter() - started

    rounds = rounds or plan_rounds(seconds, scale)
    plan_walls: Dict[str, List[float]] = {name: [] for name in topologies}
    reference: Dict[str, dict] = {}
    attempted = failed = candidates = 0
    enumerate_s = 0.0
    errors: List[str] = []
    for round_index in range(1, rounds + 1):
        for name, topology in topologies.items():
            t0 = time.perf_counter()
            controller = Controller(topology, config)
            paths = controller.candidate_paths()  # run_cycle() reuses the enumeration
            t1 = time.perf_counter()
            cycle = controller.run_cycle()
            plan_walls[name].append(time.perf_counter() - t0)
            controller.close()
            enumerate_s += t1 - t0
            candidates += len(paths)
            attempted += 1
            outcome = {
                "selected": _digest(list(cycle.pmc_result.selected_indices)),
                "paths": cycle.probe_matrix.num_paths,
                "pmc_counters": cycle.pmc_result.stats.cost_counters(),
                "pingers": cycle.num_pingers,
            }
            if name not in reference:
                problems = plan_errors(cycle.probe_matrix, name)
                reference[name] = outcome
            elif outcome != reference[name]:
                problems = [f"{name}: round {round_index} selection differs from round 1"]
            else:
                problems = []
            errors += problems
            failed += bool(problems)
    medians = {name: _median(walls) for name, walls in plan_walls.items()}
    return {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "e2e": {
            # A median cold-plan round: one plan of every fabric.
            "op_s": sum(medians.values()),
            "work_rate": candidates / enumerate_s,
        },
        "named": {f"plan_s.{name}": (wall, "s") for name, wall in medians.items()},
        "deterministic": {"plans": reference, "rounds": rounds},
        "info": {"rounds": rounds},
    }


# ---------------------------------------------------------------------------
# monitoring workloads
# ---------------------------------------------------------------------------

def _bootstrap(scale: Scale, seed: int, jobs: int):
    """Topology, bootstrapped ``DetectorSystem`` and seeded streams."""
    import scipy.sparse.csgraph  # noqa: F401  (lazy import, kept in setup)

    from repro.monitor import ControllerConfig, DetectorSystem
    from repro.simulation import SeededStreams
    from repro.topology import build_fattree

    topology = build_fattree(scale.fattree_k)
    streams = SeededStreams(seed)
    system = DetectorSystem(
        topology, streams.generator("probing"),
        ControllerConfig(alpha=ALPHA, beta=BETA, jobs=jobs),
    )
    t0 = time.perf_counter()
    system.run_controller_cycle()  # cold bootstrap plan (spawns the pool when jobs > 1)
    bootstrap_s = time.perf_counter() - t0
    return topology, system, streams, bootstrap_s


def replan_episodes(topology, streams, duration: float):
    """Three flapping links and a light known-churn schedule.

    The churn alternates one and two link events per cycle (mean 1.5) with
    at most three links down at once.  A fixed event count keeps the share
    of cycles that re-solve the same for every seed; a Poisson count would
    leave about one cycle in five without churn, and the run's cycle time
    would then depend on how many such cycles the seed drew.  The flapping
    links are never churned: a link the watchdog knows to be down is not
    probed, so its fault could not be localized.
    """
    from repro.engine import FlappingLink
    from repro.simulation import ChurnSchedule
    from repro.topology import HealthSnapshot, TopologyDelta

    links = [link.link_id for link in topology.switch_links]
    picker = streams.generator("fault-placement")
    flapped = [int(links[i]) for i in picker.choice(len(links), size=3, replace=False)]
    episodes = [
        FlappingLink(link_id=link, start_time=WINDOW_S, half_life_up_seconds=60.0,
                     half_life_down_seconds=30.0)
        for link in flapped
    ]
    rng = streams.generator("churn")
    churnable = [link for link in links if link not in flapped]
    failed: set = set()
    deltas = []
    for cycle in range(int(duration // CYCLE_S) + 1):
        before = HealthSnapshot(failed_link_ids=frozenset(failed))
        touched: set = set()
        for _ in range(1 + cycle % 2):
            down = sorted(failed - touched)
            if down and (len(failed) >= MAX_CHURNED_LINKS or rng.random() < 0.4):
                link = down[int(rng.integers(len(down)))]
                failed.discard(link)
            else:
                healthy = [c for c in churnable if c not in failed and c not in touched]
                link = healthy[int(rng.integers(len(healthy)))]
                failed.add(link)
            touched.add(link)
        after = HealthSnapshot(failed_link_ids=frozenset(failed))
        deltas.append(TopologyDelta.between(before, after))
    return episodes, ChurnSchedule(deltas)


def storm_episodes(topology, probe_paths, streams, duration: float, num_links: int):
    """About 70 overlapping fault episodes and one ToR outage.

    Onsets are spread evenly over the first quarter of the run after a
    clean first window and every episode lasts half the run, so all of them
    overlap in the middle of the run.  Losses are heavy enough (20%
    congestion, half the flow space blackholed) for PLL to name each link in
    some window.  Every faulty link lies on the same number of probe paths
    (the fewest any link has), and the onset schedule is fixed, so the
    storm's probing work barely depends on which links the seed picks.

    No link of the fixed plan lies on probe paths of two faults (the outage
    counts as one).  A beta=1 plan only guarantees to identify a fault when
    it is alone on its paths, and PLL's greedy names a healthy link that
    sits on lossy paths of two faults before either fault; such placements
    would turn the storm into a test of multi-failure accuracy (Figure 6's
    subject), while every operation here must be one the plan can localize.
    """
    from repro.engine import CongestionEpisode, FlappingLink, GrayFailure, SwitchOutage

    picker = streams.generator("fault-placement")
    tors = [node.name for node in topology.tor_switches]
    outage = tors[int(picker.integers(0, len(tors)))]
    # neighbours[link]: every link on a probe path through ``link``.
    neighbours: Dict[int, set] = {}
    paths_through: Dict[int, int] = {}
    for path in probe_paths:
        for link in path.link_ids:
            neighbours.setdefault(link, set()).update(path.link_ids)
            paths_through[link] = paths_through.get(link, 0) + 1
    fewest = min(paths_through.values())
    taken: set = set()
    for link in topology.links_of(outage):
        taken.update(neighbours.get(link.link_id, ()))
    chosen: List[int] = []
    links = [link.link_id for link in topology.switch_links]
    for i in picker.permutation(len(links)):
        near = neighbours.get(links[i])
        if near and paths_through[links[i]] == fewest and taken.isdisjoint(near):
            chosen.append(int(links[i]))
            taken.update(near)
            if len(chosen) == num_links:
                break
    life = duration / 2
    episodes = []
    for i, link in enumerate(chosen):
        onset = WINDOW_S + duration / 4 * (i + 0.5) / len(chosen)
        if i % 3 == 0:
            episodes.append(FlappingLink(link_id=link, start_time=onset, end_time=onset + life,
                                         half_life_up_seconds=30.0, half_life_down_seconds=30.0))
        elif i % 3 == 1:
            episodes.append(CongestionEpisode(link_id=link, start_time=onset,
                                              duration_seconds=life, loss_rate=0.2))
        else:
            episodes.append(GrayFailure(link_id=link, start_time=onset, end_time=onset + life,
                                        match_fraction=0.5, salt=i))
    episodes.append(SwitchOutage(switch_name=outage, start_time=2 * WINDOW_S,
                                 duration_seconds=life))
    return episodes


@dataclass
class MonitorSetup:
    """A bootstrapped system, its generated inputs and the engine that runs them."""

    topology: object
    system: object
    model: object
    engine: object
    duration: float
    bootstrap_s: float


def setup_monitor(workload: str, seed: int, seconds: float, scale: Scale) -> MonitorSetup:
    """Imports, topology, bootstrap cold plan, pool spawn, inputs and engine."""
    from repro.engine import DynamicFaultModel, EngineConfig, TelemetryEngine
    from repro.obs import Observability

    replan = workload == "monitor-replan"
    topology, system, streams, bootstrap_s = _bootstrap(scale, seed, jobs=2 if replan else 1)
    if replan:
        duration = CYCLE_S * max(3, round(seconds * scale.replan_sim_per_s / CYCLE_S))
        episodes, schedule = replan_episodes(topology, streams, duration)
    else:
        duration = WINDOW_S * max(4, round(seconds * scale.storm_sim_per_s / WINDOW_S))
        episodes = storm_episodes(topology, system.probe_matrix.paths, streams, duration,
                                  scale.storm_links)
        schedule = None
    model = DynamicFaultModel(topology, episodes=episodes, rng=streams.generator("fault-dynamics"),
                              churn_schedule=schedule)
    config = EngineConfig(window_seconds=WINDOW_S, cycle_seconds=CYCLE_S,
                          probes_per_second=PROBES_PER_SECOND, run_controller_cycles=replan)
    engine = TelemetryEngine(system, model, config, rng=streams.generator("probe-jitter"),
                             obs=Observability.create(tracing=False))
    return MonitorSetup(topology, system, model, engine, duration, bootstrap_s)


def run_monitor(workload: str, seed: int, seconds: float, scale: Scale, started: float) -> dict:
    """One engine run of ``monitor-replan`` or ``monitor-storm``."""
    from repro.parallel import pool_telemetry, shutdown_pools

    replan = workload == "monitor-replan"
    run = setup_monitor(workload, seed, seconds, scale)
    topology, system, model, engine, duration = (
        run.topology, run.system, run.model, run.engine, run.duration
    )
    setup_s = time.perf_counter() - started
    errors = plan_errors(system.probe_matrix, "bootstrap plan")
    bootstrap_counters = system.cycle.pmc_result.stats.cost_counters()

    # The engine times each window and the controller cycles inside it; the
    # plan checks run between windows, outside those timers.
    window_walls: List[float] = []
    stream_walls: List[float] = []
    planned, checked = system.cycle, 0
    for served in engine.serve(duration=duration):
        window_walls.append(served.wall_seconds)
        stream_walls.append(served.wall_seconds - served.control_wall_seconds)
        if system.cycle is not planned:  # at most one cycle per window
            planned, checked = system.cycle, checked + 1
            down = frozenset(system.watchdog.failed_probe_link_ids())
            errors += plan_errors(planned.probe_matrix, f"re-plan {planned.version}", down,
                                  properties=scale.strict)
    served_s = sum(window_walls)
    result = engine.build_result(duration, served_s, sum(stream_walls))
    pool_after = pool_telemetry()
    shutdown_pools()
    if checked != len(result.cycles):
        errors.append(f"{len(result.cycles) - checked} re-plans went unchecked")

    # Operations: every switch link the fault model turned faulty at least
    # two windows before the horizon (a later onset cannot be localized in
    # time).  Server links are out of scope: the probe matrix covers
    # inter-switch links only.
    switch_links = {link.link_id for link in topology.switch_links}
    ops = [r for r in result.detections
           if r.link_id in switch_links and r.fault_start <= duration - 2 * WINDOW_S]
    missed = sorted(r.link_id for r in ops if not r.localized)
    if missed and scale.strict and not replan:
        # The storm places every fault where the plan can localize it.
        errors.append(f"storm faults never localized: {missed}")
    latencies = [r.localization_latency for r in ops if r.localized]
    cycle_walls = [c.wall_seconds for c in result.cycles]
    false_positives = 0
    for window in result.windows:
        truth = set(model.faulty_links_before(window.report.end))
        false_positives += sum(1 for link in window.diagnosis.suspected_links if link not in truth)
    pmc_counters = {name: count + int(engine.obs.registry.value(f"pmc_{name}"))
                    for name, count in bootstrap_counters.items()}
    named = {
        "probe_rate": (result.probes_sent / served_s, "probes/s"),
        "localize_sim_s": (_median(latencies), "sim_s"),
    }
    if replan:
        named["replan_s"] = (_median(cycle_walls), "s")
    named["bootstrap_plan_s"] = (run.bootstrap_s, "s")
    return {
        "setup_s": setup_s,
        "attempted": len(ops),
        "failed": len(missed),
        "errors": errors,
        "missed_links": missed,
        "e2e": {
            "op_s": _median(cycle_walls if replan else stream_walls),
            "work_rate": result.probe_events_per_second,
        },
        "named": named,
        "deterministic": {
            "sim_seconds": duration,
            "probes_sent": result.probes_sent,
            "probes_lost": result.probes_lost,
            "windows": len(result.windows),
            "cycles": [(c.mode, c.churn, c.num_paths) for c in result.cycles],
            "pmc_counters": pmc_counters,
            "engine_counters": result.counters,
            "localization": sorted((r.link_id, r.localization_latency) for r in ops
                                   if r.localized),
            "placement": sorted(r.link_id for r in ops),
        },
        "layer_extra": {
            "aggregator.rejected": result.counters.get("aggregator_events_rejected", 0),
            "pll.false_positives": false_positives,
            "pll.localize_sim_s": _median(latencies),
            "dynamics.transitions": len(model.transitions),
            "parallel.pool_spawns": pool_after["pool_spawns"],
            "parallel.dispatch_bytes": (
                pool_after["dispatch_payload_bytes"] + pool_after["dispatch_context_bytes"]
            ),
        },
        "info": {"sim_seconds": duration, "served_s": round(served_s, 3),
                 "cycle_walls": [round(w, 3) for w in cycle_walls],
                 "windows": len(result.windows), "probes_sent": result.probes_sent},
    }


def layer_metrics(
    tracer: SpanTracer, counters: LayerCounters, extra: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metric values of a traced run (see ``LAYER_METRICS``)."""
    stats = tracer.stats

    def self_s(stage: str) -> float:
        return stats[stage].self_s

    scalar = stats["network.scalar"]
    scalar_in_bulk = scalar.parents.get("network.bulk", 0)
    rows = counters.bulk_rows + scalar.calls - scalar_in_bulk
    values = {
        "paths.enumerate_s": self_s("paths.enumerate"),
        "paths.candidates": counters.candidates,
        "incidence.build_s": self_s("incidence.build"),
        "incidence.nnz": counters.nnz,
        "decomposition.s": self_s("decomposition"),
        "decomposition.subproblems": counters.subproblems,
        "pmc.solve_s": self_s("pmc.solve"),
        "pmc.evaluations": counters.evaluations,
        "pmc.lazy_skips": counters.lazy_skips,
        "pmc.warm_reuse_ratio": (counters.reused_subproblems / counters.subproblems
                                 if counters.subproblems else 0.0),
        "celf.pop_s": self_s("celf.pop"),
        "celf.pops": stats["celf.pop"].calls,
        "parallel.pool_map_s": self_s("parallel.pool_map"),
        "watchdog.apply_delta_s": self_s("watchdog.apply_delta"),
        "controller.cycle_s": self_s("controller.cycle"),
        "controller.pinglists_s": self_s("controller.pinglists"),
        "controller.full_rebuild_share": (counters.full_cycles / counters.cycles
                                          if counters.cycles else 0.0),
        "loop.run_until_s": self_s("loop.run_until"),
        "loop.events": counters.events,
        "probes.drain_s": self_s("probes.drain"),
        "probes.drains": stats["probes.drain"].calls,
        "network.bulk_s": self_s("network.bulk"),
        "network.scalar_s": self_s("network.scalar"),
        "network.scalar_row_share": scalar.calls / rows if rows else 0.0,
        "aggregator.fold_s": self_s("aggregator.fold"),
        "aggregator.close_s": self_s("aggregator.close"),
        "pll.diagnose_s": _median(stats["pll.diagnose"].samples),
        "pll.suspects": counters.suspects,
    }
    defaults = {"aggregator.rejected": 0, "pll.false_positives": 0, "pll.localize_sim_s": 0.0,
                "dynamics.transitions": 0, "parallel.pool_spawns": 0,
                "parallel.dispatch_bytes": 0}
    values.update({name: extra.get(name, default) for name, default in defaults.items()})
    return values
