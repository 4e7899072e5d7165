"""Command-line entry points.

Subcommands::

    estimate-pose   relative pose from correspondence + mask files
    match-planes    plane-region assignment between two masks
    solve-scale     depth/scale ratios for a correspondence file + pose
    simulate-acr    run the relocalization loop in the simulator
    bench-noise     noise-robustness sweep of both estimators (CSV)

All configuration is JSON (``--print-schema`` per subcommand documents the
fields), every output is machine-readable, and every run is deterministic
under a fixed seed.  Exit codes: 0 success (a non-converged but valid loop
run is still success), 1 configuration error, 2 runtime estimation
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
import typing
from pathlib import Path

import numpy as np

from .acr_loop import AcrConfig, run_acr, run_bisection_baseline
from .errors import AcrError, InvalidInputError, MissingInputError
from .fusion import I2peConfig, _select_consistent, i2pe, reselect_candidates
from .geometry import DirectionalPose, Intrinsics, Pose, Rotation
from .metrics import afd
from .plane_match import PlaneSegmentMap, erode_mask, match_plane_maps
from .pose_estimation import CorrespondenceSet, estimate_epipolar, estimate_homography_ransac
from .scale_solver import solve_scale_system
from . import simulator
from .simulator import (
    LightingProxySpec,
    NoiseSpec,
    PlaneSpec,
    RigSpec,
    SceneSpec,
    SimulatedExecutor,
    bench_noise_sweep,
    generate_scene,
    random_pose,
)

_FLOAT_FMT = "%.12g"


def _fmt(x) -> str:
    if x is None:
        return ""
    return _FLOAT_FMT % float(x)


def _fail(code: int, error_code: str, message: str) -> int:
    print(json.dumps({"error": error_code, "message": message}))
    return code


def _load_json(path):
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"missing input file: {path}")
    return json.loads(p.read_text())


def _intrinsics_from(doc) -> Intrinsics:
    return Intrinsics(
        fx=float(doc["fx"]), fy=float(doc["fy"]), cx=float(doc["cx"]), cy=float(doc["cy"])
    )


def _pose_spec(doc, rng) -> Pose:
    """Pose from JSON: explicit {"r", "t"} or {"random": {...}} bounds."""
    if doc is None:
        return Pose.identity()
    if "random" in doc:
        spec = doc["random"]
        return random_pose(
            rng,
            float(spec.get("max_rotation_deg", 0.0)),
            float(spec.get("max_offset_m", 0.0)),
        )
    return Pose.from_json_dict(doc)


def _scene_from(doc) -> SceneSpec:
    planes = []
    for p in doc.get("planes", []):
        planes.append(
            PlaneSpec(
                normal=tuple(p["normal"]),
                offset=float(p["offset"]),
                half_extents=tuple(p.get("half_extents", (0.2, 0.15))),
                polygon=None if p.get("polygon") is None else tuple(map(tuple, p["polygon"])),
                count=int(p.get("count", 250)),
                center=None if p.get("center") is None else tuple(p["center"]),
                detected=bool(p.get("detected", True)),
            )
        )
    clutter_box = doc.get("clutter_box")
    return SceneSpec(
        planes=tuple(planes),
        seed=int(doc.get("seed", 0)),
        clutter_count=int(doc.get("clutter_count", 0)),
        clutter_box=None if clutter_box is None else tuple(map(tuple, clutter_box)),
    )


def _builtin_scene(name: str, doc: dict):
    if name == "corner":
        return simulator.corner_scene(seed=int(doc.get("seed", 0)))
    if name == "mural":
        return simulator.mural_scene(seed=int(doc.get("seed", 0)))
    if name == "single-plane":
        return simulator.single_plane_scene(seed=int(doc.get("seed", 0)))
    raise MissingInputError(f"unknown built-in scene {name!r}")


ACR_SCHEMA = {
    "seed": "int, master seed",
    "scene": "object with planes[] (normal, offset, half_extents|polygon, count, center, detected), clutter_count, clutter_box, seed; or {'builtin': 'corner'|'mural'|'single-plane'}",
    "rig": {
        "intrinsics": {"fx": "px", "fy": "px", "cx": "px", "cy": "px"},
        "image_size": "[width, height]",
        "hand_eye": "pose {'r': [9], 't': [3]} or {'random': {'max_rotation_deg', 'max_offset_m'}}",
    },
    "initial_offset": "pose or {'random': ...}; current-camera extrinsic in the reference frame",
    "noise": {"magnitude_r": "px", "ratio_mu": "fraction"},
    "lighting": {
        "off_plane_outlier_fraction": "fraction",
        "in_plane_outlier_fraction": "fraction",
        "dropout_fraction": "fraction",
    },
    "acr": {
        "scale_epsilon": "m, stop threshold on the estimated remaining translation",
        "rotation_epsilon": "deg, stop threshold on the estimated remaining rotation",
        "max_iterations": "int",
        "init_translation": "[3] m, hand frame",
        "i2pe": {
            "erosion_radius": "px",
            "ransac_threshold_px": "px",
            "ransac_max_iters": "int",
            "seed": "int",
            "edge_sigma_frac": "fraction of the reference image diagonal",
            "min_pair_correspondences": "int",
        },
        "epipolar_threshold_px": "px, baseline only",
        "epipolar_max_iters": "int, baseline only",
        "parallax_min_deg": "deg, baseline only",
        "min_scale_points": "int",
        "max_scale_points": "int",
    },
    "baseline": "bool, use the scale-guessing epipolar loop",
    "output_dir": "directory for trace.jsonl and summary.csv",
}

BENCH_SCHEMA = {
    "seed": "int",
    "scene": "as in simulate-acr (default: the built-in single-plane scene)",
    "intrinsics": "fx/fy/cx/cy (default Canon-like)",
    "image_size": "[w, h] (default 5760x3840)",
    "motion": "pose {'r': [9], 't': [3]} (default built-in bench motion)",
    "r_values": "[px, ...] noise magnitudes (default 0..50 step 2)",
    "mu_values": "[fraction, ...] noise ratios (default [.01,.1,.3,.5,.8,.9])",
    "trials": "int per grid cell",
    "threshold_px": "RANSAC inlier gate",
    "max_iters": f"RANSAC budget (default {simulator.BENCH_RANSAC_ITERS})",
    "output": "CSV path",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integral(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _acr_config_from(doc, cls=AcrConfig, where: str = "acr"):
    """The ``cls`` configuration of the JSON object ``doc`` (null for the
    defaults) found at ``where``.

    Every key must be a field of the dataclass ``cls`` and every value must
    have its field's type: a number for a float, an integral number for an
    int, three numbers for a tuple and an object for a nested config.
    """
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{where} must be an object")
    kinds = typing.get_type_hints(cls)
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise InvalidInputError(f"unknown {where} key(s): {', '.join(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        kind, name = kinds[key], f"{where}.{key}"
        if dataclasses.is_dataclass(kind):
            kwargs[key] = _acr_config_from(value, kind, name)
        elif kind is float and _is_number(value):
            kwargs[key] = float(value)
        elif kind is int and _is_integral(value):
            kwargs[key] = int(value)
        elif kind is tuple and isinstance(value, list) and len(value) == 3 and all(
            map(_is_number, value)
        ):
            kwargs[key] = tuple(float(v) for v in value)
        else:
            wanted = {float: "a number", int: "an integer", tuple: "three numbers"}
            raise InvalidInputError(f"{name} must be {wanted[kind]}, got {value!r}")
    return cls(**kwargs)


def cmd_estimate_pose(args) -> int:
    try:
        corr = CorrespondenceSet.load(args.correspondences)
        intr = _intrinsics_from(_load_json(args.intrinsics))
        report = {"method": args.method, "warnings": []}
        if args.method == "i2pe":
            if not args.ref_mask or not args.cur_mask:
                raise MissingInputError("i2pe needs --ref-mask and --cur-mask")
            for path in (args.ref_mask, args.cur_mask):
                if not Path(path).exists():
                    raise MissingInputError(f"missing mask file: {path}")
            m_ref = PlaneSegmentMap.load(args.ref_mask)
            m_cur = PlaneSegmentMap.load(args.cur_mask)
            cfg = I2peConfig(seed=args.seed, ransac_threshold_px=args.threshold)
            estimate = reselect_candidates(
                i2pe(corr, m_ref, m_cur, intr, cfg), _select_consistent
            )
            pose_doc = {
                "r": [float(v) for v in estimate.pose.rotation.matrix.reshape(-1)],
                "direction": [float(v) for v in estimate.pose.direction],
                "zero_motion": estimate.zero_motion,
            }
            report.update(estimate.report())
        elif args.method == "epipolar":
            hyp = estimate_epipolar(
                corr, intr, threshold_px=args.threshold, seed=args.seed
            )
            pose_doc = {
                "r": [float(v) for v in hyp.pose.rotation.matrix.reshape(-1)],
                "direction": [float(v) for v in hyp.pose.direction],
                "zero_motion": False,
            }
            report["support"] = hyp.support
            report["unstable_translation"] = hyp.unstable_translation
            # Planar-degeneracy screen: if one homography explains nearly all
            # epipolar inliers the essential matrix is ill-determined.
            try:
                _, h_mask = estimate_homography_ransac(
                    corr, intr, threshold_px=args.threshold, seed=args.seed
                )
                ratio = float(h_mask.sum()) / max(hyp.support, 1)
                if ratio >= 0.9:
                    report["warnings"].append("planar-degeneracy")
            except AcrError:
                pass
        else:
            return _fail(1, "invalid-input", f"unknown method {args.method!r}")
        out = Path(args.output or "pose.json")
        out.write_text(json.dumps(pose_doc, indent=2))
        report_path = out.with_name(out.stem + "_report.json")
        report_path.write_text(json.dumps(report, indent=2))
        print(json.dumps({"pose": str(out), "report": str(report_path)}))
        return 0
    except AcrError as exc:
        return _fail(2, exc.code, str(exc))


def cmd_match_planes(args) -> int:
    try:
        for path in (args.ref_mask, args.cur_mask):
            if not Path(path).exists():
                raise MissingInputError(f"missing mask file: {path}")
        m_ref = PlaneSegmentMap.load(args.ref_mask)
        m_cur = PlaneSegmentMap.load(args.cur_mask)
        corr = CorrespondenceSet.load(args.correspondences)
        m_ref = erode_mask(m_ref, args.erosion)
        m_cur = erode_mask(m_cur, args.erosion)
        pairs = match_plane_maps(m_ref, m_cur, corr)
        doc = {"pairs": [list(p) for p in pairs]}
        if args.output:
            Path(args.output).write_text(json.dumps(doc))
        print(json.dumps(doc))
        return 0
    except AcrError as exc:
        return _fail(2, exc.code, str(exc))


def cmd_solve_scale(args) -> int:
    try:
        corr = CorrespondenceSet.load(args.correspondences)
        intr = _intrinsics_from(_load_json(args.intrinsics))
        pose_doc = _load_json(args.pose)
        rotation = Rotation.from_matrix(
            np.asarray(pose_doc["r"], dtype=float).reshape(3, 3), reproject=True
        )
        direction = np.asarray(
            pose_doc.get("direction", pose_doc.get("t")), dtype=float
        )
        solution = solve_scale_system(
            corr, intr, DirectionalPose(rotation, direction)
        )
        doc = {
            "y": [float(v) for v in solution.y],
            "residual": solution.residual,
            "s": solution.s,
            "depth_ratio_a": {
                str(int(t)): float(v)
                for t, v in zip(solution.track_id, solution.d_a / solution.s)
            },
            "depth_ratio_b": {
                str(int(t)): float(v)
                for t, v in zip(solution.track_id, solution.d_b / solution.s)
            },
        }
        if args.output:
            Path(args.output).write_text(json.dumps(doc))
        print(json.dumps({"residual": solution.residual, "s": solution.s}))
        return 0
    except AcrError as exc:
        return _fail(2, exc.code, str(exc))


def default_acr_config() -> dict:
    """Bundled simulate-acr configuration (a corner scene, random rig)."""
    return {
        "seed": 7,
        "scene": {"builtin": "corner"},
        "rig": {
            "intrinsics": {"fx": 1200.0, "fy": 1200.0, "cx": 640.0, "cy": 480.0},
            "image_size": [1280, 960],
            "hand_eye": {"random": {"max_rotation_deg": 8.0, "max_offset_m": 0.12}},
        },
        "initial_offset": {"random": {"max_rotation_deg": 3.0, "max_offset_m": 0.045}},
        "noise": {"magnitude_r": 0.0, "ratio_mu": 0.0},
        "lighting": {
            "off_plane_outlier_fraction": 0.0,
            "in_plane_outlier_fraction": 0.0,
            "dropout_fraction": 0.0,
        },
        "acr": {},
        "baseline": False,
        "output_dir": "acr_out",
    }


def cmd_simulate_acr(args) -> int:
    try:
        doc = _load_json(args.config) if args.config else default_acr_config()
        cfg = _acr_config_from(doc.get("acr"))
        noise = _acr_config_from(doc.get("noise"), NoiseSpec, "noise")
        lighting = _acr_config_from(doc.get("lighting"), LightingProxySpec, "lighting")
    except (MissingInputError, InvalidInputError, json.JSONDecodeError) as exc:
        return _fail(1, "invalid-input", str(exc))
    try:
        seed = int(doc.get("seed", 0)) if args.seed is None else args.seed
        rng = np.random.default_rng(seed)
        scene_doc = doc.get("scene", {"builtin": "corner"})
        if "builtin" in scene_doc:
            scene = _builtin_scene(scene_doc["builtin"], {**scene_doc, "seed": seed})
        else:
            scene = _scene_from(scene_doc)
        world = generate_scene(scene)
        rig_doc = doc.get("rig", {})
        intr = (
            _intrinsics_from(rig_doc["intrinsics"])
            if "intrinsics" in rig_doc
            else simulator.DESK_INTRINSICS
        )
        image_size = tuple(rig_doc.get("image_size", simulator.DESK_IMAGE_SIZE))
        hand_eye = _pose_spec(rig_doc.get("hand_eye"), rng)
        initial = _pose_spec(doc.get("initial_offset"), rng)
        use_baseline = bool(doc.get("baseline", False)) or args.baseline

        rig = RigSpec(hand_eye=hand_eye, intrinsics=intr, image_size=image_size)
        executor = SimulatedExecutor(
            world, rig, initial, noise=noise, lighting=lighting, seed=seed
        )
        runner = run_bisection_baseline if use_baseline else run_acr
        t0 = time.perf_counter()
        trace = runner(executor, cfg)
        elapsed = time.perf_counter() - t0

        out_dir = Path(doc.get("output_dir", "acr_out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        trace.save_jsonl(out_dir / "trace.jsonl")

        final = trace.records[-1] if trace.records else None
        final_afd = None
        obs = executor.observe()
        if obs.truth is not None:
            final_afd = afd(obs.truth.clean_a, obs.truth.clean_b).afd
        with open(out_dir / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "method",
                    "status",
                    "iterations",
                    "final_rot_err_deg",
                    "final_trans_err_m",
                    "final_afd_px",
                    "wall_time_s",
                ]
            )
            writer.writerow(
                [
                    "bisection" if use_baseline else "i2acr",
                    trace.status,
                    trace.iterations,
                    _fmt(final.rot_err_deg if final else None),
                    _fmt(final.trans_err_m if final else None),
                    _fmt(final_afd),
                    _fmt(round(elapsed, 3)),
                ]
            )
        print(
            json.dumps(
                {
                    "status": trace.status,
                    "iterations": trace.iterations,
                    "trace": str(out_dir / "trace.jsonl"),
                    "summary": str(out_dir / "summary.csv"),
                }
            )
        )
        return 0
    except AcrError as exc:
        return _fail(2, exc.code, str(exc))


def cmd_bench_noise(args) -> int:
    try:
        doc = _load_json(args.config) if args.config else {}
    except (MissingInputError, json.JSONDecodeError) as exc:
        return _fail(1, "invalid-input", str(exc))
    try:
        seed = int(doc.get("seed", 0)) if args.seed is None else args.seed
        scene_doc = doc.get("scene", {"builtin": "single-plane"})
        if "builtin" in scene_doc:
            scene = _builtin_scene(scene_doc["builtin"], {**scene_doc, "seed": seed})
        else:
            scene = _scene_from(scene_doc)
        intr = (
            _intrinsics_from(doc["intrinsics"])
            if "intrinsics" in doc
            else simulator.CANON_INTRINSICS
        )
        image_size = tuple(doc.get("image_size", simulator.CANON_IMAGE_SIZE))
        motion = (
            Pose.from_json_dict(doc["motion"])
            if "motion" in doc
            else simulator.BENCH_MOTION
        )
        r_values = doc.get("r_values", list(range(0, 51, 2)))
        mu_values = doc.get("mu_values", [0.01, 0.1, 0.3, 0.5, 0.8, 0.9])
        trials = int(doc.get("trials", args.trials))
        rows = bench_noise_sweep(
            scene,
            motion,
            r_values,
            mu_values,
            trials,
            seed=seed,
            intr=intr,
            image_size=image_size,
            threshold_px=float(doc.get("threshold_px", 1.0)),
            max_iters=int(doc.get("max_iters", simulator.BENCH_RANSAC_ITERS)),
        )
        out = Path(doc.get("output", args.output))
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "mu", "trial", "method", "rot_err_deg", "dir_err_deg"])
            for row in rows:
                writer.writerow(
                    [
                        _fmt(row.r),
                        _fmt(row.mu),
                        row.trial,
                        row.method,
                        _fmt(row.rot_err_deg),
                        _fmt(row.dir_err_deg),
                    ]
                )

        summary = _bench_summary(rows, r_values, mu_values)
        for line in summary["lines"]:
            print(line)
        print(json.dumps({"csv": str(out), "checks_passed": summary["passed"]}))
        return 0
    except AcrError as exc:
        return _fail(2, exc.code, str(exc))


def _bench_summary(rows, r_values, mu_values) -> dict:
    """Ordering checks of the noise sweep, printed as pass/fail lines."""

    def med(method, mu, r=None):
        vals = [
            x.rot_err_deg
            for x in rows
            if x.method == method
            and abs(x.mu - mu) < 1e-12
            and (r is None or abs(x.r - r) < 1e-12)
            and np.isfinite(x.rot_err_deg)
        ]
        return float(np.median(vals)) if vals else float("nan")

    lines = []
    passed = True
    if any(abs(mu - 0.01) < 1e-12 for mu in mu_values):
        ordering = all(
            med("epipolar", 0.01, r) > med("de-h", 0.01, r)
            for r in r_values
            if r >= 2
        )
        passed &= ordering
        lines.append(
            f"[{'PASS' if ordering else 'FAIL'}] mu=1%: epipolar median rotation"
            " error exceeds the homography path for every r >= 2"
        )
    if any(abs(mu - 0.5) < 1e-12 for mu in mu_values):
        deh = med("de-h", 0.5)
        ok = deh < 1.0
        passed &= ok
        lines.append(
            f"[{'PASS' if ok else 'FAIL'}] mu=50%: homography-path median"
            f" rotation error {deh:.4f} deg < 1 deg"
        )
    if any(abs(mu - 0.9) < 1e-12 for mu in mu_values):
        deh = med("de-h", 0.9)
        epi = med("epipolar", 0.9)
        ok = deh > 5.0 and epi > 5.0
        passed &= ok
        lines.append(
            f"[{'PASS' if ok else 'FAIL'}] mu=90%: both methods unreliable"
            f" (medians {deh:.2f} / {epi:.2f} deg > 5 deg)"
        )
    return {"lines": lines, "passed": bool(passed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="acrkit",
        description="Plane-mediated relative pose, absolute scale recovery, and"
        " active camera relocalization tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate-pose", help="relative pose from files")
    p.add_argument("correspondences", help="correspondence JSON file")
    p.add_argument("--intrinsics", required=True, help="intrinsics JSON file")
    p.add_argument("--ref-mask", help="reference plane mask (PGM)")
    p.add_argument("--cur-mask", help="current plane mask (PGM)")
    p.add_argument("--method", default="i2pe", choices=["i2pe", "epipolar"])
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="pose JSON output path")
    p.set_defaults(func=cmd_estimate_pose)

    p = sub.add_parser("match-planes", help="plane assignment between masks")
    p.add_argument("correspondences")
    p.add_argument("--ref-mask", required=True)
    p.add_argument("--cur-mask", required=True)
    p.add_argument("--erosion", type=int, default=5)
    p.add_argument("--output")
    p.set_defaults(func=cmd_match_planes)

    p = sub.add_parser("solve-scale", help="depth/scale ratios from files")
    p.add_argument("correspondences")
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--pose", required=True, help="directional pose JSON")
    p.add_argument("--output")
    p.set_defaults(func=cmd_solve_scale)

    p = sub.add_parser("simulate-acr", help="run the relocalization loop")
    p.add_argument("config", nargs="?", help="config JSON (bundled default if omitted)")
    p.add_argument("--baseline", action="store_true", help="scale-guessing baseline")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--print-schema", action="store_true")
    p.set_defaults(func=cmd_simulate_acr)

    p = sub.add_parser("bench-noise", help="noise-robustness sweep")
    p.add_argument("config", nargs="?", help="config JSON")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default="bench_noise.csv")
    p.add_argument("--print-schema", action="store_true")
    p.set_defaults(func=cmd_bench_noise)

    args = parser.parse_args(argv)
    if getattr(args, "print_schema", False):
        schema = ACR_SCHEMA if args.command == "simulate-acr" else BENCH_SCHEMA
        print(json.dumps(schema, indent=2))
        return 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
