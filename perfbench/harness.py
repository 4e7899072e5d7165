"""Workloads, measurement, output checks and metrics of the benchmark.

Two kinds of workload drive the program through its public entry points
only: the relocalization loops (``run_acr`` and ``run_bisection_baseline``
on ``SimulatedExecutor`` scenarios) and the estimator noise sweep
(``bench_noise_sweep``).  See NOTES.md for why each workload exists and
which metric each layer should move.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy

from acrkit import acr_loop, cli, fusion, plane_match, pose_estimation, simulator
from acrkit.acr_loop import AcrConfig, run_acr, run_bisection_baseline
from acrkit.geometry import Intrinsics, rotation_angle
from acrkit.metrics import afd
from acrkit.plane_match import PlaneGraph, PlaneSegmentMap
from acrkit.scale_solver import MAX_SYSTEM_POINTS

from tracing import ObservationClock, SpeedProbe, TimedExecutor, Tracer, patched

SETUP_REPEATS = 3
STATUSES = ("converged", "exhausted", "failed")
# A run_acr run that reports "converged" must really be back at the
# reference; these bounds are an order of magnitude above every converged
# seed-commit residual, so only a broken loop trips them.  The bisection
# baseline guesses its scale and may stop a degree off under noise, which
# is the contrast its AFD reports, so it is not held to them.
CONVERGED_MAX_ROT_DEG = 1.0
CONVERGED_MAX_TRANS_MM = 10.0

# Names patched in a traced pass, where their callers look them up.
TRACE_TARGETS = (
    (acr_loop, "solve_scale_system", "solve_scale_system"),
    (acr_loop, "i2pe", "i2pe"),
    (acr_loop, "reselect_candidates", "reselect_candidates"),
    (acr_loop, "estimate_epipolar", "estimate_epipolar"),
    (fusion, "match_plane_maps", "match_plane_maps"),
    (fusion, "estimate_homography_ransac", "estimate_homography_ransac"),
    (fusion, "decompose_homography_candidates", "decompose_homography_candidates"),
    # The sweep reaches the decomposition through decompose_homography.
    (pose_estimation, "decompose_homography_candidates", "decompose_homography_candidates"),
    (plane_match, "erode_mask", "erode_mask"),
    (PlaneSegmentMap, "eroded", "eroded"),
    (PlaneGraph, "from_mask", "PlaneGraph.from_mask"),
    (simulator, "observe", "observe"),
    (simulator, "render_plane_mask", "render_plane_mask"),
    (simulator, "estimate_homography_ransac", "estimate_homography_ransac"),
    (simulator, "estimate_epipolar", "estimate_epipolar"),
)

# (items_in, items_out) per call, for the per-layer ratios.
TRACE_SIZES = {
    "solve_scale_system": lambda args, kwargs, result: (
        min(len(args[0]), kwargs.get("max_points", MAX_SYSTEM_POINTS)),
        0,
    ),
    "estimate_homography_ransac": lambda args, kwargs, result: (
        len(args[0]),
        0 if result is None else int(result[1].sum()),
    ),
    "estimate_epipolar": lambda args, kwargs, result: (
        len(args[0]),
        0 if result is None else int(result.support),
    ),
    "decompose_homography_candidates": lambda args, kwargs, result: (
        0,
        0 if result is None else len(result),
    ),
}

# name -> unit of every metric the benchmark can print.  END_TO_END and
# PER_LAYER are what BENCHMARK.json declares and what the result line
# carries; REPORT_* are the workload-specific figures printed above it.
END_TO_END = {
    "setup_s": "s",
    "op_wall_s_norm": "s",
    "compute_ms_norm": "ms",
    "observations_per_op": "count",
}
REPORT_LOOP = {
    "setup_s": "s",
    "setup_s_raw": "s",
    "reloc_wall_s_norm": "s",
    "reloc_wall_s_mean": "s",
    "compute_per_move_ms_norm": "ms",
    "compute_per_move_ms_mean": "ms",
    "compute_per_move_ms_p50": "ms",
    "compute_per_move_ms_p90": "ms",
    "compute_per_move_samples": "count",
    "moves_mean": "count",
    "converged_frac": "fraction",
    "final_rot_err_deg_p50": "deg",
    "final_trans_err_mm_p50": "mm",
    "final_afd_px_p50": "px",
    "baseline_moves_mean": "count",
    "baseline_final_afd_px_p50": "px",
    "failed_frac": "fraction",
}
REPORT_SWEEP = {
    "setup_s": "s",
    "setup_s_raw": "s",
    "sweep_cells_per_s_norm": "cells/s",
    "sweep_cells_per_s": "cells/s",
    "compute_per_cell_ms_norm": "ms",
    "compute_per_cell_ms_mean": "ms",
    "compute_per_cell_ms_p50": "ms",
    "compute_per_cell_ms_p90": "ms",
    "compute_per_cell_samples": "count",
    "sweep_checks_failed": "count",
    "failed_frac": "fraction",
}
PER_LAYER = {
    "solve_scale_system.calls": "count",
    "solve_scale_system.chooser_calls": "count",
    "solve_scale_system.ms_p50": "ms",
    "solve_scale_system.ms_p90": "ms",
    "solve_scale_system.s_total": "s",
    "solve_scale_system.fail_frac": "fraction",
    "solve_scale_system.points_mean": "count",
    "i2pe.calls": "count",
    "i2pe.ms_p50": "ms",
    "i2pe.self_s_total": "s",
    "reselect_candidates.calls": "count",
    "reselect_candidates.self_s_total": "s",
    "erode_mask.calls": "count",
    "erode_mask.s_total": "s",
    "eroded.cache_hit_frac": "fraction",
    "PlaneGraph.from_mask.calls": "count",
    "PlaneGraph.from_mask.s_total": "s",
    "graphs_per_match": "count",
    "match_plane_maps.calls": "count",
    "match_plane_maps.self_s_total": "s",
    "estimate_homography_ransac.calls": "count",
    "estimate_homography_ransac.ms_p50": "ms",
    "estimate_homography_ransac.ms_p90": "ms",
    "estimate_homography_ransac.s_total": "s",
    "estimate_homography_ransac.inlier_frac": "fraction",
    "decompose_homography_candidates.calls": "count",
    "decompose_homography_candidates.s_total": "s",
    "decompose_homography_candidates.candidates_mean": "count",
    "estimate_epipolar.calls": "count",
    "estimate_epipolar.ms_p50": "ms",
    "estimate_epipolar.s_total": "s",
    "estimate_epipolar.inlier_frac": "fraction",
    "observe.calls": "count",
    "observe.ms_p50": "ms",
    "observe.s_total": "s",
    "render_plane_mask.calls": "count",
    "render_plane_mask.ms_p50": "ms",
    "render_plane_mask.s_total": "s",
    "run_acr.compute_s_total": "s",
    "run_acr.executor_s_total": "s",
    "run_bisection_baseline.s_total": "s",
    "trace_overhead_frac": "fraction",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for a layer that never ran."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def environment(thread_vars) -> dict:
    """What a result depends on besides the code: cores, versions, BLAS
    and the thread-count variables."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in thread_vars},
    }


# ---------------------------------------------------------------------------
# Relocalization loops
# ---------------------------------------------------------------------------


def _random_bounds(doc: dict):
    spec = doc["random"]
    return float(spec["max_rotation_deg"]), float(spec["max_offset_m"])


def build_executor(scenario: int, noise: simulator.NoiseSpec) -> simulator.SimulatedExecutor:
    """The executor ``acrkit simulate-acr --seed <scenario>`` builds from its
    bundled default config (corner scene, desk rig, random hand-eye pose and
    start offset, no lighting contamination), with the given matching noise."""
    doc = cli.default_acr_config()
    rng = np.random.default_rng(scenario)
    world = simulator.generate_scene(simulator.corner_scene(seed=scenario))
    rig_doc = doc["rig"]
    rig = simulator.RigSpec(
        hand_eye=simulator.random_pose(rng, *_random_bounds(rig_doc["hand_eye"])),
        intrinsics=Intrinsics(**rig_doc["intrinsics"]),
        image_size=tuple(rig_doc["image_size"]),
    )
    initial = simulator.random_pose(rng, *_random_bounds(doc["initial_offset"]))
    return simulator.SimulatedExecutor(
        world, rig, initial, noise=noise, lighting=simulator.LightingProxySpec(), seed=scenario
    )


@dataclass
class Outcome:
    """One relocalization run as the robot would see it, plus its timing."""

    scenario: int
    status: str
    iterations: int
    moves: int
    rot_err_deg: float
    trans_err_mm: float
    afd_px: float
    wall_s: float
    wall_ref_s: float
    observations: int
    gaps_s: list
    gaps_ref_s: list

    def digest_line(self, method: str) -> str:
        return (
            f"{self.scenario} {method} {self.status} {self.iterations} {self.moves}"
            f" {self.rot_err_deg:.12g} {self.trans_err_mm:.12g} {self.afd_px:.12g}"
        )


def _run_loop(runner, scenario: int, executor, cfg: AcrConfig, tracer, probe, problems: list) -> Outcome:
    clock = ObservationClock(probe)
    timed = TimedExecutor(executor, clock, tracer)
    call = runner if tracer is None else tracer.wrap(runner.__name__, runner)
    clock.start()
    trace = call(timed, cfg)
    clock.stop()

    name = f"scenario {scenario} {'bisection' if runner is run_bisection_baseline else 'acr'}"
    if trace.status not in STATUSES:
        problems.append(f"{name}: status {trace.status!r}")
    if trace.iterations > cfg.max_iterations:
        problems.append(f"{name}: {trace.iterations} iterations > {cfg.max_iterations}")
    if timed.moves != executor.motions_executed:
        problems.append(f"{name}: {timed.moves} moves, executor counted {executor.motions_executed}")
    commanded = sum(1 for r in trace.records if r.command is not None)
    if trace.status != "failed" and commanded != executor.motions_executed:
        problems.append(
            f"{name}: trace commands {commanded} moves, executor counted {executor.motions_executed}"
        )

    residual = executor.true_residual
    rot = rotation_angle(residual.rotation)
    trans_mm = 1000.0 * float(np.linalg.norm(residual.translation))
    far = rot > CONVERGED_MAX_ROT_DEG or trans_mm > CONVERGED_MAX_TRANS_MM
    if runner is run_acr and trace.status == "converged" and far:
        problems.append(f"{name}: converged but {rot:.3g} deg / {trans_mm:.3g} mm from the reference")
    # AFD as simulate-acr computes it: one untimed observation after the run.
    with nullcontext() if tracer is None else tracer.paused():
        truth = executor.observe().truth
    afd_px = afd(truth.clean_a, truth.clean_b).afd
    if not math.isfinite(afd_px):
        problems.append(f"{name}: AFD {afd_px}")
    return Outcome(
        scenario=scenario,
        status=trace.status,
        iterations=trace.iterations,
        moves=timed.moves,
        rot_err_deg=rot,
        trans_err_mm=trans_mm,
        afd_px=afd_px,
        wall_s=clock.wall_s,
        wall_ref_s=clock.wall_ref_s,
        observations=clock.observations,
        gaps_s=clock.gaps,
        gaps_ref_s=clock.gaps_ref,
    )


@dataclass
class LoopPass:
    acr: list
    baseline: list
    wall_s: float
    digest: str


@dataclass(frozen=True)
class LoopWorkload:
    """A fixed scenario set; the workload seed sets only the run order.

    Keeping the set fixed keeps every outcome field comparable between
    runs and commits; the order changes which scenario runs warm.
    """

    noise: simulator.NoiseSpec
    scenarios: tuple = tuple(range(8))
    report_units = REPORT_LOOP

    def build(self, seed: int) -> list:
        order = np.random.default_rng(seed).permutation(len(self.scenarios))
        return [
            (s, build_executor(s, self.noise), build_executor(s, self.noise))
            for s in (self.scenarios[i] for i in order)
        ]

    def measure(self, inputs, problems: list, probe: SpeedProbe = None, tracer: Tracer = None) -> LoopPass:
        cfg = AcrConfig()
        acr, baseline = [], []
        while inputs:  # consume, so each used executor's masks can be freed
            scenario, ex_acr, ex_base = inputs.pop(0)
            acr.append(_run_loop(run_acr, scenario, ex_acr, cfg, tracer, probe, problems))
            baseline.append(
                _run_loop(run_bisection_baseline, scenario, ex_base, cfg, tracer, probe, problems)
            )
        lines = sorted(o.digest_line("acr") for o in acr)
        lines += sorted(o.digest_line("bisection") for o in baseline)
        return LoopPass(
            acr=acr,
            baseline=baseline,
            wall_s=sum(o.wall_s for o in acr + baseline),
            digest=hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        )

    def summarize(self, passes: list, setup: tuple) -> dict:
        """``setup`` is the set-up time (at the reference speed, as measured)."""
        first = passes[0]
        acr = [o for p in passes for o in p.acr]
        gaps_ms = [1000.0 * g for o in acr for g in o.gaps_s]
        runs = [o for p in passes for o in p.acr + p.baseline]
        failed = sum(o.status == "failed" for o in runs)
        wall_norm = statistics.fmean(o.wall_ref_s for o in acr)
        compute_norm = 1000.0 * statistics.fmean(g for o in acr for g in o.gaps_ref_s)
        end_to_end = {
            "setup_s": setup[0],
            "op_wall_s_norm": wall_norm,
            "compute_ms_norm": compute_norm,
            "observations_per_op": statistics.fmean(o.observations for o in first.acr),
        }
        report = {
            "setup_s": setup[0],
            "setup_s_raw": setup[1],
            "reloc_wall_s_norm": wall_norm,
            "reloc_wall_s_mean": statistics.fmean(o.wall_s for o in acr),
            "compute_per_move_ms_norm": compute_norm,
            "compute_per_move_ms_mean": statistics.fmean(gaps_ms),
            "compute_per_move_ms_p50": percentile(gaps_ms, 50),
            "compute_per_move_ms_p90": percentile(gaps_ms, 90),
            "compute_per_move_samples": len(gaps_ms),
            "moves_mean": statistics.fmean(o.moves for o in first.acr),
            "converged_frac": statistics.fmean(o.status == "converged" for o in first.acr),
            "final_rot_err_deg_p50": percentile([o.rot_err_deg for o in first.acr], 50),
            "final_trans_err_mm_p50": percentile([o.trans_err_mm for o in first.acr], 50),
            "final_afd_px_p50": percentile([o.afd_px for o in first.acr], 50),
            "baseline_moves_mean": statistics.fmean(o.moves for o in first.baseline),
            "baseline_final_afd_px_p50": percentile([o.afd_px for o in first.baseline], 50),
            "failed_frac": failed / len(runs),
        }
        outcomes = [vars(o) | {"method": "acr"} for o in first.acr]
        outcomes += [vars(o) | {"method": "bisection"} for o in first.baseline]
        return {
            "attempted": len(runs),
            "failed": failed,
            "end_to_end": end_to_end,
            "report": report,
            "outcomes": outcomes,
        }


# ---------------------------------------------------------------------------
# Estimator noise sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepPass:
    rows: list
    cells: int
    wall_s: float
    wall_ref_s: float
    observations: int
    gaps_s: list
    gaps_ref_s: list
    digest: str


@dataclass(frozen=True)
class SweepWorkload:
    """``bench_noise_sweep`` on the Canon single-plane scene at the
    library's 200-draw budget, over an evenly spaced subsample of the
    documented grid.  The workload seed is the sweep seed, as in
    ``acrkit bench-noise --seed``."""

    r_values: tuple = (0, 10, 20, 30, 40, 50)
    mu_values: tuple = (0.01, 0.1, 0.3, 0.5, 0.8, 0.9)
    trials: int = 4
    report_units = REPORT_SWEEP

    def build(self, seed: int):
        # bench_noise_sweep samples the world itself, inside the timed call.
        return simulator.single_plane_scene(seed=seed), seed

    def measure(self, inputs, problems: list, probe: SpeedProbe = None, tracer: Tracer = None) -> SweepPass:
        scene, seed = inputs
        sweep = simulator.bench_noise_sweep
        if tracer is not None:
            sweep = tracer.wrap("bench_noise_sweep", sweep)
        clock = ObservationClock(probe)
        # Time each cell's computing as the loops time each move's: from
        # one observation returning to the next being requested.
        with patched(((simulator, "observe", "observe"),), lambda name, fn: clock.timed(fn)):
            clock.start()
            rows = sweep(
                scene,
                simulator.BENCH_MOTION,
                list(self.r_values),
                list(self.mu_values),
                self.trials,
                seed=seed,
                intr=simulator.CANON_INTRINSICS,
                image_size=simulator.CANON_IMAGE_SIZE,
                threshold_px=1.0,
                max_iters=simulator.BENCH_RANSAC_ITERS,
            )
            clock.stop()

        cells = len(self.r_values) * len(self.mu_values) * self.trials
        expected = {
            (float(r), float(mu), t, method)
            for r in self.r_values
            for mu in self.mu_values
            for t in range(self.trials)
            for method in ("de-h", "epipolar")
        }
        if len(rows) != 2 * cells or {(x.r, x.mu, x.trial, x.method) for x in rows} != expected:
            problems.append(f"sweep: {len(rows)} rows do not cover the {cells}-cell grid once per estimator")
        for x in rows:
            if math.isfinite(x.rot_err_deg) and not 0.0 <= x.rot_err_deg <= 180.0:
                problems.append(f"sweep: rotation error {x.rot_err_deg} outside [0, 180] deg")
        lines = [
            f"{x.r:g} {x.mu:g} {x.trial} {x.method} {x.rot_err_deg:.12g} {x.dir_err_deg:.12g}"
            for x in rows
        ]
        return SweepPass(
            rows=rows,
            cells=cells,
            wall_s=clock.wall_s,
            wall_ref_s=clock.wall_ref_s,
            observations=clock.observations,
            gaps_s=clock.gaps,
            gaps_ref_s=clock.gaps_ref,
            digest=hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        )

    def summarize(self, passes: list, setup: tuple) -> dict:
        """``setup`` is the set-up time (at the reference speed, as measured)."""
        rows = passes[0].rows
        cells = sum(p.cells for p in passes)
        gaps_ms = [1000.0 * g for p in passes for g in p.gaps_s]
        attempted = sum(len(p.rows) for p in passes)
        failed = sum(not math.isfinite(x.rot_err_deg) for p in passes for x in p.rows)
        # The ordering checks `acrkit bench-noise` prints, on this grid's rows.
        checks = cli._bench_summary(rows, list(self.r_values), list(self.mu_values))
        wall_norm = sum(p.wall_ref_s for p in passes) / cells
        compute_norm = 1000.0 * statistics.fmean(g for p in passes for g in p.gaps_ref_s)
        end_to_end = {
            "setup_s": setup[0],
            "op_wall_s_norm": wall_norm,
            "compute_ms_norm": compute_norm,
            "observations_per_op": sum(p.observations for p in passes) / cells,
        }
        report = {
            "setup_s": setup[0],
            "setup_s_raw": setup[1],
            "sweep_cells_per_s_norm": 1.0 / wall_norm,
            "sweep_cells_per_s": cells / sum(p.wall_s for p in passes),
            "compute_per_cell_ms_norm": compute_norm,
            "compute_per_cell_ms_mean": statistics.fmean(gaps_ms),
            "compute_per_cell_ms_p50": percentile(gaps_ms, 50),
            "compute_per_cell_ms_p90": percentile(gaps_ms, 90),
            "compute_per_cell_samples": len(gaps_ms),
            "sweep_checks_failed": sum(line.startswith("[FAIL]") for line in checks["lines"]),
            "failed_frac": failed / attempted,
        }
        return {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "report": report,
            "outcomes": [vars(x) for x in rows],
            "checks": checks["lines"],
        }


WORKLOADS = {
    "reloc-clean": LoopWorkload(noise=simulator.NoiseSpec()),
    "reloc-noisy": LoopWorkload(noise=simulator.NoiseSpec(magnitude_r=1.0, ratio_mu=0.5)),
    "noise-sweep": SweepWorkload(),
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of a traced pass
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    """Every PER_LAYER metric from one traced pass; 0 for a layer that
    did not run."""
    spans = tracer.spans
    own = tracer.self_times()
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span["name"]].append(index)

    def durations(name):
        return [spans[i]["end"] - spans[i]["start"] for i in by_name[name]]

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(durations(name))

    def self_total(name):
        return sum(own[i] for i in by_name[name])

    def ms(name, q):
        return percentile([1000.0 * d for d in durations(name)], q)

    def items(name, key):
        return sum(spans[i][key] for i in by_name[name])

    def under(name, parent):
        return [
            i for i in by_name[name]
            if spans[i]["parent"] is not None and spans[spans[i]["parent"]]["name"] == parent
        ]

    executor_s = sum(
        spans[i]["end"] - spans[i]["start"]
        for name in ("executor.observe", "executor.execute")
        for i in under(name, "run_acr")
    )
    return {
        "solve_scale_system.calls": calls("solve_scale_system"),
        "solve_scale_system.chooser_calls": len(under("solve_scale_system", "reselect_candidates")),
        "solve_scale_system.ms_p50": ms("solve_scale_system", 50),
        "solve_scale_system.ms_p90": ms("solve_scale_system", 90),
        "solve_scale_system.s_total": total("solve_scale_system"),
        "solve_scale_system.fail_frac": _ratio(
            sum(spans[i]["raised"] for i in by_name["solve_scale_system"]), calls("solve_scale_system")
        ),
        "solve_scale_system.points_mean": _ratio(
            items("solve_scale_system", "items_in"), calls("solve_scale_system")
        ),
        "i2pe.calls": calls("i2pe"),
        "i2pe.ms_p50": ms("i2pe", 50),
        "i2pe.self_s_total": self_total("i2pe"),
        "reselect_candidates.calls": calls("reselect_candidates"),
        "reselect_candidates.self_s_total": self_total("reselect_candidates"),
        "erode_mask.calls": calls("erode_mask"),
        "erode_mask.s_total": total("erode_mask"),
        "eroded.cache_hit_frac": _ratio(
            calls("eroded") - len(under("erode_mask", "eroded")), calls("eroded")
        ),
        "PlaneGraph.from_mask.calls": calls("PlaneGraph.from_mask"),
        "PlaneGraph.from_mask.s_total": total("PlaneGraph.from_mask"),
        "graphs_per_match": _ratio(calls("PlaneGraph.from_mask"), calls("match_plane_maps")),
        "match_plane_maps.calls": calls("match_plane_maps"),
        "match_plane_maps.self_s_total": self_total("match_plane_maps"),
        "estimate_homography_ransac.calls": calls("estimate_homography_ransac"),
        "estimate_homography_ransac.ms_p50": ms("estimate_homography_ransac", 50),
        "estimate_homography_ransac.ms_p90": ms("estimate_homography_ransac", 90),
        "estimate_homography_ransac.s_total": total("estimate_homography_ransac"),
        "estimate_homography_ransac.inlier_frac": _ratio(
            items("estimate_homography_ransac", "items_out"),
            items("estimate_homography_ransac", "items_in"),
        ),
        "decompose_homography_candidates.calls": calls("decompose_homography_candidates"),
        "decompose_homography_candidates.s_total": total("decompose_homography_candidates"),
        "decompose_homography_candidates.candidates_mean": _ratio(
            items("decompose_homography_candidates", "items_out"), calls("decompose_homography_candidates")
        ),
        "estimate_epipolar.calls": calls("estimate_epipolar"),
        "estimate_epipolar.ms_p50": ms("estimate_epipolar", 50),
        "estimate_epipolar.s_total": total("estimate_epipolar"),
        "estimate_epipolar.inlier_frac": _ratio(
            items("estimate_epipolar", "items_out"), items("estimate_epipolar", "items_in")
        ),
        "observe.calls": calls("observe"),
        "observe.ms_p50": ms("observe", 50),
        "observe.s_total": total("observe"),
        "render_plane_mask.calls": calls("render_plane_mask"),
        "render_plane_mask.ms_p50": ms("render_plane_mask", 50),
        "render_plane_mask.s_total": total("render_plane_mask"),
        "run_acr.compute_s_total": total("run_acr") - executor_s,
        "run_acr.executor_s_total": executor_s,
        "run_bisection_baseline.s_total": total("run_bisection_baseline"),
        "trace_overhead_frac": overhead,
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: dict
    digest: str
    passes: int
    pass_wall_s: list
    problems: list
    details: dict
    tracer: Tracer


def run(workload, seed: int, seconds: float, trace: bool, import_s: float) -> RunResult:
    """Set up, then measure whole passes until ``seconds`` have gone (the
    last pass may run over), or make one untraced and one traced pass;
    check and summarize.

    The builds and the passes' intervals are taken both as measured and
    at the speed probe's reference speed; the declared timings are the
    latter.  The import ran before the probe could, so it stays as
    measured."""
    problems = []
    probe = SpeedProbe()
    builds, builds_ref = [], []
    for _ in range(SETUP_REPEATS):
        probe.run()
        start = perf_counter()
        inputs = workload.build(seed)
        builds.append(perf_counter() - start)
        probe.run()
        builds_ref.append(probe.to_reference(builds[-1], len(probe.samples) - 2))
    setup = (import_s + statistics.median(builds_ref), import_s + statistics.median(builds))

    def next_inputs():
        nonlocal inputs
        ready, inputs = inputs, None
        return ready if ready is not None else workload.build(seed)

    passes = []
    tracer = None
    if trace:
        passes.append(workload.measure(next_inputs(), problems, probe))
        traced_inputs = next_inputs()  # built untraced, like the first pass's
        tracer = Tracer(TRACE_SIZES)
        with patched(TRACE_TARGETS, tracer.wrap):
            passes.append(workload.measure(traced_inputs, problems, tracer=tracer))
    else:
        start = perf_counter()
        while True:
            passes.append(workload.measure(next_inputs(), problems, probe))
            if perf_counter() - start >= seconds:
                break
    if len({p.digest for p in passes}) != 1:
        problems.append("outcomes differ between passes of the same inputs")

    summary = workload.summarize(passes[:1] if trace else passes, setup)
    if trace:
        overhead = passes[1].wall_s / passes[0].wall_s - 1.0
        metrics = _with_units(layer_metrics(tracer, overhead), PER_LAYER)
    else:
        metrics = _with_units(summary["end_to_end"], END_TO_END)
    return RunResult(
        correct=not problems,
        attempted=summary["attempted"],
        failed=summary["failed"],
        metrics=metrics,
        report=_with_units(summary["report"], workload.report_units),
        digest=passes[0].digest,
        passes=len(passes),
        pass_wall_s=[p.wall_s for p in passes],
        problems=problems,
        details={k: v for k, v in summary.items() if k in ("outcomes", "checks")},
        tracer=tracer,
    )
