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
run is still success); 1 for a bad config of ``simulate-acr`` or
``bench-noise``, a bad seed or threshold of ``estimate-pose`` or a
negative ``--erosion`` of ``match-planes``, with ``invalid-input``, before
any work starts; 2 for a missing or malformed input file of
``estimate-pose``, ``match-planes`` or ``solve-scale``, and for a runtime
estimation failure, with the error's code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import typing
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .acr_loop import AcrConfig, _truth_errors, run_acr, run_bisection_baseline
from .errors import AcrError, EmptyObservationError, InvalidInputError, MissingInputError
from .fusion import _select_consistent, i2pe, reselect_candidates
from .geometry import DirectionalPose, Intrinsics, Pose, Rotation
from .metrics import afd
from .plane_match import EROSION_RADIUS, PlaneSegmentMap, erode_mask, match_plane_maps
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

# simulate-acr's truth gate on the final residual: 0.1 degrees is where
# misalignment starts to corrupt change detection (see AcrConfig).
GATE_ROT_DEG = 0.1
GATE_TRANS_M = 2e-3


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
    try:
        return json.loads(p.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise InvalidInputError(f"{path} is not a JSON file: {exc}") from exc


def _load_mask(path) -> PlaneSegmentMap:
    if not Path(path).exists():
        raise MissingInputError(f"missing mask file: {path}")
    return PlaneSegmentMap.load(path)


def _intrinsics_from(doc, where: str = "intrinsics") -> Intrinsics:
    doc = _checked(doc, dict, where)
    fields = ("fx", "fy", "cx", "cy")
    return Intrinsics(**{k: _checked(doc.get(k), float, f"{where}.{k}") for k in fields})


def _pose_spec(doc, rng, where: str = "pose") -> Pose:
    """Pose from JSON: explicit {"r", "t"} or {"random": {...}} bounds."""
    if doc is None:
        return Pose.identity()
    if "random" in _checked(doc, dict, where):
        spec = _checked(doc["random"], dict, f"{where}.random")
        return random_pose(
            rng,
            *(
                _checked(spec.get(k, 0.0), float, f"{where}.random.{k}")
                for k in ("max_rotation_deg", "max_offset_m")
            ),
        )
    return _explicit_pose(doc, where)


def _explicit_pose(doc, where: str) -> Pose:
    """Pose from a JSON {"r": nine numbers, "t": three numbers} object."""
    _checked(doc, dict, where)
    r = _numbers(doc.get("r"), f"{where}.r", 9)
    return Pose.from_json_dict({"r": r, "t": _checked(doc.get("t"), tuple, f"{where}.t")})


def _clutter_box(value, where: str):
    """A clutter box found at ``where``: null, or three (low, high) ranges."""
    if value is None:
        return None
    box = _checked(value, list, where)
    if len(box) != 3:
        raise InvalidInputError(f"{where} must be three ranges, got {box!r}")
    return tuple(_numbers(v, f"{where}[{k}]", 2) for k, v in enumerate(box))


def _present(doc: dict, readers: dict, where: str) -> dict:
    """The keys of ``doc`` that ``readers`` name, each read by its reader;
    a key that ``doc`` leaves out keeps its dataclass default."""
    return {k: read(doc[k], f"{where}.{k}") for k, read in readers.items() if k in doc}


def _scene_from(doc) -> SceneSpec:
    plane_keys = {
        "half_extents": lambda v, where: _numbers(v, where, 2),
        "polygon": lambda v, where: None
        if v is None
        else tuple(_numbers(p, f"{where}[{k}]", 2) for k, p in enumerate(_checked(v, list, where))),
        "count": lambda v, where: _checked(v, int, where),
        "center": lambda v, where: None if v is None else _checked(v, tuple, where),
        "detected": lambda v, where: _checked(v, bool, where),
    }
    scene_keys = {
        "seed": lambda v, where: _checked(v, "non-negative", where),
        "clutter_count": lambda v, where: _checked(v, int, where),
        "clutter_box": _clutter_box,
    }
    planes = []
    for i, p in enumerate(_checked(doc.get("planes", []), list, "scene.planes")):
        where = f"scene.planes[{i}]"
        p = _checked(p, dict, where)
        planes.append(
            PlaneSpec(
                normal=_checked(p.get("normal"), tuple, f"{where}.normal"),
                offset=_checked(p.get("offset"), float, f"{where}.offset"),
                **_present(p, plane_keys, where),
            )
        )
    return SceneSpec(planes=tuple(planes), **_present(doc, scene_keys, "scene"))


def _builtin_scene(name: str, seed: int):
    if name == "corner":
        return simulator.corner_scene(seed=seed)
    if name == "mural":
        return simulator.mural_scene(seed=seed)
    if name == "single-plane":
        return simulator.single_plane_scene(seed=seed)
    raise InvalidInputError(f"unknown built-in scene {name!r}")


def _scene_spec(doc, seed: int) -> SceneSpec:
    """The scene of a ``scene`` object: a built-in one, seeded by ``seed``,
    or the planes it lists."""
    if "builtin" in _checked(doc, dict, "scene"):
        return _builtin_scene(doc["builtin"], seed)
    return _scene_from(doc)


ACR_SCHEMA = {
    "seed": "int >= 0, master seed",
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
    },
    "baseline": "bool, use the scale-guessing epipolar loop",
    "output_dir": "directory for trace.jsonl and summary.csv",
}

BENCH_SCHEMA = {
    "seed": "int >= 0",
    "scene": "as in simulate-acr (default: the built-in single-plane scene)",
    "intrinsics": "fx/fy/cx/cy (default Canon-like)",
    "image_size": "[w, h] (default 5760x3840)",
    "motion": "pose {'r': [9], 't': [3]} (default built-in bench motion)",
    "r_values": "[px, ...] noise magnitudes (default 0..50 step 2)",
    "mu_values": "[fraction, ...] noise ratios (default [.01,.1,.3,.5,.8,.9])",
    "trials": "int per grid cell",
    "threshold_px": "px, finite and > 0, RANSAC inlier gate",
    "max_iters": f"RANSAC budget (default {simulator.BENCH_RANSAC_ITERS})",
    "output": "CSV path",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integral(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


_KINDS = {
    float: ("a number", _is_number),
    int: ("an integer", _is_integral),
    "non-negative": ("a non-negative integer", lambda v: _is_integral(v) and v >= 0),
    "threshold": ("a positive, finite number", lambda v: _is_number(v) and 0 < v < np.inf),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    list: ("a list", lambda v: isinstance(v, list)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: (
        "three numbers",
        lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)),
    ),
}


def _checked(value, kind, name: str):
    """``value``, a JSON value or flag found at ``name``, as the type
    ``kind``: a float from a number, an int from an integral number, a
    ``"non-negative"`` int (a seed or an erosion radius) from a
    non-negative one, a ``"threshold"`` float from a positive, finite one
    (a RANSAC inlier gate in pixels), a bool, a dict, a list, a string, or
    a tuple of three floats; anything else is ``InvalidInputError``."""
    wanted, accepts = _KINDS[kind]
    if not accepts(value):
        raise InvalidInputError(f"{name} must be {wanted}, got {value!r}")
    if kind is tuple:
        return tuple(float(v) for v in value)
    if kind in (float, "threshold"):
        return float(value)
    return int(value) if kind in (int, "non-negative") else value


def _numbers(value, name: str, size: int = None) -> tuple:
    """``value`` found at ``name`` as a tuple of floats: a list of numbers,
    exactly ``size`` of them when given."""
    if not (
        isinstance(value, list)
        and all(map(_is_number, value))
        and (size is None or len(value) == size)
    ):
        count = "numbers" if size is None else f"{size} numbers"
        raise InvalidInputError(f"{name} must be a list of {count}, got {value!r}")
    return tuple(float(v) for v in value)


def _image_size(value, name: str) -> tuple:
    """``value`` found at ``name`` as a (width, height) of positive integers."""
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(_is_integral(v) and v > 0 for v in value)
    ):
        raise InvalidInputError(f"{name} must be two positive integers, got {value!r}")
    return tuple(int(v) for v in value)


def _acr_config_from(doc, cls=AcrConfig, where: str = "acr"):
    """The ``cls`` configuration of the JSON object ``doc`` (null for the
    defaults) found at ``where``.

    Every key must be a field of the dataclass ``cls`` and every value must
    have its field's type (see :func:`_checked`).
    """
    doc = _checked({} if doc is None else doc, dict, where)
    kinds = typing.get_type_hints(cls)
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise InvalidInputError(f"unknown {where} key(s): {', '.join(unknown)}")
    return cls(**{k: _checked(v, kinds[k], f"{where}.{k}") for k, v in doc.items()})


def cmd_estimate_pose(args) -> int:
    try:
        _checked(args.seed, "non-negative", "--seed")
        _checked(args.threshold, "threshold", "--threshold")
    except AcrError as exc:
        return _fail(1, "invalid-input", str(exc))
    try:
        corr = CorrespondenceSet.from_json_dict(_load_json(args.correspondences))
        intr = _intrinsics_from(_load_json(args.intrinsics))
        report = {"method": args.method, "warnings": []}
        if args.method == "i2pe":
            if not args.ref_mask or not args.cur_mask:
                raise MissingInputError("i2pe needs --ref-mask and --cur-mask")
            m_ref, m_cur = _load_mask(args.ref_mask), _load_mask(args.cur_mask)
            estimate = reselect_candidates(
                i2pe(corr, m_ref, m_cur, intr, threshold_px=args.threshold, seed=args.seed),
                _select_consistent,
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
                    corr, threshold_px=args.threshold, seed=args.seed
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
        _checked(args.erosion, "non-negative", "--erosion")
    except AcrError as exc:
        return _fail(1, "invalid-input", str(exc))
    try:
        m_ref, m_cur = _load_mask(args.ref_mask), _load_mask(args.cur_mask)
        corr = CorrespondenceSet.from_json_dict(_load_json(args.correspondences))
        m_ref = erode_mask(m_ref, args.erosion)
        m_cur = erode_mask(m_cur, args.erosion)
        pairs = match_plane_maps(m_ref, m_cur, m_ref.label_at(corr.a), m_cur.label_at(corr.b))
        doc = {"pairs": [list(p) for p in pairs]}
        if args.output:
            Path(args.output).write_text(json.dumps(doc))
        print(json.dumps(doc))
        return 0
    except AcrError as exc:
        return _fail(2, exc.code, str(exc))


def cmd_solve_scale(args) -> int:
    try:
        corr = CorrespondenceSet.from_json_dict(_load_json(args.correspondences))
        intr = _intrinsics_from(_load_json(args.intrinsics))
        pose_doc = _checked(_load_json(args.pose), dict, "pose")
        rotation = Rotation.from_matrix(
            np.reshape(_numbers(pose_doc.get("r"), "pose.r", 9), (3, 3))
        )
        direction = _numbers(pose_doc.get("direction", pose_doc.get("t")), "pose.direction", 3)
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
    """Bundled simulate-acr configuration as plain JSON: a corner scene seen
    by the simulator's desk rig with a random hand-eye pose."""
    return {
        "seed": 7,
        "scene": {"builtin": "corner"},
        "rig": {
            "intrinsics": asdict(simulator.DESK_INTRINSICS),
            "image_size": list(simulator.DESK_IMAGE_SIZE),
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
        doc = _checked(doc, dict, "the configuration")
        cfg = _acr_config_from(doc.get("acr"))
        noise = _acr_config_from(doc.get("noise"), NoiseSpec, "noise")
        lighting = _acr_config_from(doc.get("lighting"), LightingProxySpec, "lighting")
        seed = _checked(doc.get("seed", 0), "non-negative", "seed")
        seed = seed if args.seed is None else _checked(args.seed, "non-negative", "--seed")
        use_baseline = _checked(doc.get("baseline", False), bool, "baseline")
        use_baseline = use_baseline or args.baseline
        scene = _scene_spec(doc.get("scene", {"builtin": "corner"}), seed)
        rig_doc = _checked(doc.get("rig", {}), dict, "rig")
        intr = (
            _intrinsics_from(rig_doc["intrinsics"], "rig.intrinsics")
            if "intrinsics" in rig_doc
            else simulator.DESK_INTRINSICS
        )
        image_size = _image_size(
            rig_doc.get("image_size", list(simulator.DESK_IMAGE_SIZE)), "rig.image_size"
        )
        rng = np.random.default_rng(seed)
        hand_eye = _pose_spec(rig_doc.get("hand_eye"), rng, "rig.hand_eye")
        initial = _pose_spec(doc.get("initial_offset"), rng, "initial_offset")
        out_dir = Path(_checked(doc.get("output_dir", "acr_out"), str, "output_dir"))
    except AcrError as exc:
        return _fail(1, "invalid-input", str(exc))
    try:
        world = generate_scene(scene)
        rig = RigSpec(hand_eye=hand_eye, intrinsics=intr, image_size=image_size)
        executor = SimulatedExecutor(
            world, rig, initial, noise=noise, lighting=lighting, seed=seed
        )
        runner = run_bisection_baseline if use_baseline else run_acr
        t0 = time.perf_counter()
        trace = runner(executor, cfg)
        elapsed = time.perf_counter() - t0

        out_dir.mkdir(parents=True, exist_ok=True)
        trace.save_jsonl(out_dir / "trace.jsonl")

        # The final figures describe the pose after the last move, from one
        # more observation; the last record holds the pose before it.  A
        # final pose that sees no track leaves them empty.
        final_rot = final_trans = final_afd = in_gate = None
        try:
            obs = executor.observe()
        except EmptyObservationError:
            obs = None
        if obs is not None and obs.truth is not None:
            final_rot, final_trans = _truth_errors(obs)
            final_afd = afd(obs.truth.clean_a, obs.truth.clean_b).afd
            in_gate = final_rot <= GATE_ROT_DEG and final_trans <= GATE_TRANS_M
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
                    "in_gate",
                    "wall_time_s",
                ]
            )
            writer.writerow(
                [
                    "bisection" if use_baseline else "i2acr",
                    trace.status,
                    trace.iterations,
                    _fmt(final_rot),
                    _fmt(final_trans),
                    _fmt(final_afd),
                    "" if in_gate is None else str(in_gate).lower(),
                    _fmt(round(elapsed, 3)),
                ]
            )
        print(
            json.dumps(
                {
                    "status": trace.status,
                    "failure": trace.failure,
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
        doc = _checked(doc, dict, "the configuration")
        seed = _checked(doc.get("seed", 0), "non-negative", "seed")
        seed = seed if args.seed is None else _checked(args.seed, "non-negative", "--seed")
        scene = _scene_spec(doc.get("scene", {"builtin": "single-plane"}), seed)
        intr = (
            _intrinsics_from(doc["intrinsics"])
            if "intrinsics" in doc
            else simulator.CANON_INTRINSICS
        )
        image_size = _image_size(
            doc.get("image_size", list(simulator.CANON_IMAGE_SIZE)), "image_size"
        )
        motion = (
            _explicit_pose(doc["motion"], "motion")
            if "motion" in doc
            else simulator.BENCH_MOTION
        )
        r_values = _numbers(doc.get("r_values", list(range(0, 51, 2))), "r_values")
        mu_values = _numbers(
            doc.get("mu_values", [0.01, 0.1, 0.3, 0.5, 0.8, 0.9]), "mu_values"
        )
        trials = _checked(doc.get("trials", args.trials), int, "trials")
        threshold_px = _checked(doc.get("threshold_px", 1.0), "threshold", "threshold_px")
        max_iters = _checked(
            doc.get("max_iters", simulator.BENCH_RANSAC_ITERS), int, "max_iters"
        )
        out = Path(_checked(doc.get("output", args.output), str, "output"))
        if trials < 1:
            raise InvalidInputError(f"trials must be at least 1, got {trials}")
        if max_iters < 1:
            raise InvalidInputError(f"max_iters must be at least 1, got {max_iters}")
        if not all(0.0 <= r < np.inf for r in r_values):
            raise InvalidInputError(
                f"r_values must be finite and non-negative, got {list(r_values)}"
            )
        if not all(0.0 <= mu <= 1.0 for mu in mu_values):
            raise InvalidInputError(f"mu_values must lie in [0, 1], got {list(mu_values)}")
    except AcrError as exc:
        return _fail(1, "invalid-input", str(exc))
    try:
        rows = bench_noise_sweep(
            scene,
            motion,
            r_values,
            mu_values,
            trials,
            seed=seed,
            intr=intr,
            image_size=image_size,
            threshold_px=threshold_px,
            max_iters=max_iters,
        )
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
    """Ordering checks of the noise sweep, printed as pass/fail lines.

    ``passed`` is None, under one ``[SKIP]`` line, when the grid holds none
    of the mu values a check reads.
    """

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
    if not lines:
        lines, passed = ["[SKIP] no ordering check applies to this grid (needs mu = 0.01, 0.5 or 0.9)"], None
    return {"lines": lines, "passed": None if passed is None else bool(passed)}


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
    p.add_argument("--erosion", type=int, default=EROSION_RADIUS)
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
