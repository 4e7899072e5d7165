"""Command-line entry points.

Subcommands::

    estimate-pose   relative pose from correspondence + mask files
    match-planes    plane-region assignment between two masks, in their own ids
    solve-scale     depth/scale ratios for a correspondence file + pose
    simulate-acr    run the relocalization loop in the simulator
    bench-noise     noise-robustness sweep of both estimators (CSV)

All configuration is JSON (``--print-schema`` per subcommand documents the
fields), every output is machine-readable, and every run is deterministic
under a fixed seed.  Exit codes: 0 success (a non-converged but valid loop
run is still success); 1 with ``invalid-input``, before any input file is
read, for a bad flag value, a bad config (its file included) or a bad
output path (a directory, a file outside an existing directory, an
``output_dir`` that cannot be made); 2 with the error's code for an input
file that is malformed or is not a readable file (``missing-input``), for
an output file that cannot be written (``write-failure``), and for a
runtime estimation failure.  An unknown key, a NaN, an infinity or a
number beyond a float's range is a bad config or a malformed file; a
correspondence file's unread keys are ignored.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .acr_loop import AcrConfig, _truth_errors, run_acr, run_bisection_baseline
from .errors import (
    AcrError,
    EmptyObservationError,
    InvalidInputError,
    MissingInputError,
    WriteFailureError,
)
from .fusion import _select_consistent, i2pe, reselect_candidates
from .geometry import DirectionalPose, Intrinsics, Pose, Rotation
from .metrics import afd
from .plane_match import EROSION_RADIUS, PlaneSegmentMap, erode_mask, match_plane_maps
from .pose_estimation import (
    RANSAC_THRESHOLD_PX,
    CorrespondenceSet,
    estimate_epipolar,
    estimate_homography_ransac,
)
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

# A config's size bounds.  An image side of 2.8x the full frame's 5760 px
# keeps a label map's int32 pixel array within 1 GiB; 4000x the default 250
# points per plane, or of clutter, keep every point array in tens of MB.
MAX_IMAGE_SIDE, MAX_POINTS = 16384, 1_000_000


def _fmt(x) -> str:
    if x is None:
        return ""
    return _FLOAT_FMT % float(x)


def _fail(code: int, error_code: str, message: str) -> int:
    print(json.dumps({"error": error_code, "message": message}))
    return code


def _input(path, what: str):
    """The ``what`` file at ``path``, a mask or else its bytes: the one place
    the CLI opens an input file.  A path that is not a readable file is
    ``MissingInputError``."""
    try:
        return PlaneSegmentMap.load(path) if what == "mask" else Path(path).read_bytes()
    except OSError as exc:
        reason = "" if isinstance(exc, FileNotFoundError) else f" ({exc.strerror})"
        raise MissingInputError(f"missing {what} file: {path}{reason}") from exc


def _write(path, text: str) -> None:
    """Write ``text`` to the output file at ``path``: the one place the CLI
    writes a file.  A write that fails is ``WriteFailureError``."""
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise WriteFailureError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _csv(rows) -> str:
    """``rows``, each a list of cells, as CSV text."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


def _load_json(path):
    """The JSON document in the file at ``path``, the one place the CLI
    parses JSON.  A number that no float holds (NaN, Infinity, 1e400, a
    400-digit integer) is refused here, by its key, so every reader sees
    finite numbers only."""
    refused = []

    def finite(parse):
        def number(token):
            if math.isfinite(float(token)):
                return parse(token)
            refused.append(token)
            return math.nan  # for _nan_key to find
        return number

    hooks = dict(parse_int=finite(int), parse_float=finite(float), parse_constant=finite(float))
    try:
        doc = json.loads(_input(path, "input").decode(), **hooks)
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise InvalidInputError(f"{path} is not a JSON file: {exc}") from exc
    if refused:
        where = _nan_key(doc, "") or "the document"
        raise InvalidInputError(f"{path}: {where} must be a finite number, got {refused[0]}")
    return doc


def _nan_key(value, where: str):
    """The key path, below ``where``, of the first NaN in ``value``, or None."""
    if isinstance(value, float) and math.isnan(value):
        return where
    if isinstance(value, dict):
        items = ((f"{where}.{k}" if where else k, v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next((at for w, v in items if (at := _nan_key(v, w)) is not None), None)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integral(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


_KINDS = {
    float: ("a number", _is_number),
    int: ("an integer", _is_integral),
    "non-negative": ("a non-negative integer", lambda v: _is_integral(v) and v >= 0),
    "positive": ("a positive integer", lambda v: _is_integral(v) and v > 0),
    "side": (f"an integer in 1..{MAX_IMAGE_SIDE}", lambda v: _is_integral(v) and 0 < v <= MAX_IMAGE_SIDE),
    "points": (f"an integer in 0..{MAX_POINTS}", lambda v: _is_integral(v) and 0 <= v <= MAX_POINTS),
    "threshold": ("a positive, finite number", lambda v: _is_number(v) and 0 < v < np.inf),
    "bound": ("a non-negative number", lambda v: _is_number(v) and v >= 0),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    list: ("a list", lambda v: isinstance(v, (list, tuple))),  # a tuple as a default
    str: ("a string", lambda v: isinstance(v, str)),
}


def _checked(value, kind, name: str):
    """``value``, a JSON value or flag found at ``name``, as ``kind`` (see
    ``_KINDS``; a ``"threshold"`` is a RANSAC inlier gate in pixels, a
    ``"bound"`` a random pose's limit): a float from a number, an int from
    an integral number; anything else is ``InvalidInputError``."""
    wanted, accepts = _KINDS[kind]
    if not accepts(value):
        raise InvalidInputError(f"{name} must be {wanted}, got {value!r}")
    if kind in (float, "threshold", "bound"):
        return float(value)
    return value if kind in (bool, dict, list, str) else int(value)


def _output(value, where) -> Path:
    """``value``, found at ``where``, as an output file's path in an existing directory."""
    path = Path(_checked(value, str, where))
    if path.is_dir() or not path.parent.is_dir():
        raise InvalidInputError(f"{where} must be a file in an existing directory, got {value!r}")
    return path


# A reader turns the JSON value at the key path ``where`` into what a
# command uses, or raises InvalidInputError naming ``where``.  A key table
# maps each key of a JSON object to (reader, default, schema text): the
# default is read like a given value (a tuple as a list), or is REQUIRED;
# the schema text is what --print-schema prints, or the key table of a
# nested object.
REQUIRED = object()


def _of(kind):
    """The reader of one value of ``kind`` (see :func:`_checked`)."""
    return lambda value, where: _checked(value, kind, where)


def _each(read, size: int = None):
    """The reader of a list, exactly ``size`` items long when given: the
    tuple of its items, each read by ``read``."""

    def read_list(value, where):
        if size not in (None, len(_checked(value, list, where))):
            raise InvalidInputError(f"{where} must be a list of {size} items, got {value!r}")
        return tuple(read(v, f"{where}[{i}]") for i, v in enumerate(value))

    return read_list


def _nullable(read):
    """The reader of null, as None, or of a value that ``read`` reads."""
    return lambda value, where: None if value is None else read(value, where)


def _rotation(value, where) -> Rotation:
    """The reader of a rotation matrix, row by row, as the rotation nearest
    to it.  Its determinant must be positive and its drift max|R^T R - I|
    at most 1e-3: a matrix typed to 4 decimals drifts below 4e-4, and a
    scaled matrix, a reflection or a zero matrix far past it."""
    m = np.reshape(_each(_of(float), 9)(value, where), (3, 3))
    if not (np.linalg.det(m) > 0 and np.abs(m.T @ m - np.eye(3)).max() <= 1e-3):
        raise InvalidInputError(f"{where} must be a rotation matrix, got {list(value)}")
    return Rotation.from_matrix(m)


def _read(doc, table: dict, where: str) -> dict:
    """The value of every key of ``table`` in the JSON object ``doc`` at
    ``where`` ("" for a whole configuration), read from the object or from
    the key's default.  An unknown key, or a missing required one, is
    ``InvalidInputError``."""
    name = where or "configuration"
    unknown = sorted(set(_checked(doc, dict, name)) - set(table))
    if unknown:
        raise InvalidInputError(f"unknown {name} key(s): {', '.join(unknown)}")
    values = {}
    for key, (read, default, _) in table.items():
        if key not in doc and default is REQUIRED:
            raise InvalidInputError(f"missing {name} key: {key}")
        values[key] = read(doc.get(key, default), f"{where}.{key}" if where else key)
    return values


def _object(table: dict, build=dict):
    """The reader of an object with the keys of ``table``: ``build(**values)``."""
    return lambda value, where: build(**_read(value, table, where))


def _fields(cls, **keys) -> dict:
    """The key table of fields of the dataclass ``cls``: ``keys`` maps each
    to its (reader, schema text), and its default is the field's own (a
    tuple for a list), or REQUIRED where it has none."""
    defaults = {f.name: REQUIRED if f.default is MISSING else f.default for f in fields(cls)}
    return {key: (read, defaults[key], doc) for key, (read, doc) in keys.items()}


def _schema(table: dict) -> dict:
    """What ``--print-schema`` prints for ``table``."""
    return {k: _schema(doc) if isinstance(doc, dict) else doc for k, (_, _, doc) in table.items()}


def _config(doc, table: dict, **flags) -> dict:
    """A command's configuration: the JSON object ``doc`` read by
    ``table``, with each flag that was given read in place of its key."""
    cfg = _read(doc, table, "")
    cfg.update({k: table[k][0](v, f"--{k}") for k, v in flags.items() if v is not None})
    return cfg


_NUMBER = _of(float)
_VECTOR = _each(_NUMBER, 3)
_IMAGE_SIZE = _each(_of("side"), 2)

INTRINSICS_KEYS = _fields(
    Intrinsics, fx=(_NUMBER, "px"), fy=(_NUMBER, "px"), cx=(_NUMBER, "px"), cy=(_NUMBER, "px")
)
_intrinsics = _object(INTRINSICS_KEYS, Intrinsics)
POSE_KEYS = {"r": (_rotation, REQUIRED, "[9], row by row"), "t": (_VECTOR, REQUIRED, "[3]")}
_rigid = _object(POSE_KEYS, lambda r, t: Pose(r, t))
_BOUNDS = {"max_rotation_deg": (_of("bound"), 0.0, "deg"), "max_offset_m": (_of("bound"), 0.0, "m")}
RANDOM_POSE_KEYS = {"random": (_object(_BOUNDS), REQUIRED, "bounds of a uniform random pose")}


def _pose(value, where):
    """A pose: null for none, a rigid pose, or ``{"random": bounds}`` for
    the bounds, from which :func:`_drawn` draws."""
    if value is None:
        return Pose.identity()
    if isinstance(value, dict) and "random" in value:
        return _read(value, RANDOM_POSE_KEYS, where)["random"]
    return _rigid(value, where)


def _drawn(pose, rng) -> Pose:
    """A pose that :func:`_pose` read, its random bounds drawn from ``rng``."""
    return pose if isinstance(pose, Pose) else random_pose(rng, **pose)


PLANE_KEYS = _fields(
    PlaneSpec,
    normal=(_VECTOR, "[3]"),
    offset=(_NUMBER, "m, of normal . X = offset"),
    half_extents=(_each(_NUMBER, 2), "[2] m"),
    polygon=(_nullable(_each(_each(_NUMBER, 2))), "[[u, v], ...] m, or null for half_extents"),
    count=(_of("points"), "points"),
    center=(_nullable(_VECTOR), "[3] m"),
    detected=(_of(bool), "bool, known to the segmentation"),
)
SCENE_KEYS = _fields(
    SceneSpec,
    seed=(_of("non-negative"), "int >= 0"),
    clutter_count=(_of("points"), "free points"),
    clutter_box=(_nullable(_each(_each(_NUMBER, 2), 3)), "[[low, high]] * 3 m"),
)
SCENE_KEYS["planes"] = (_each(lambda value, where: PlaneSpec(**_read(value, PLANE_KEYS, where))),
                        [], "[plane, ...]")
# Each built-in scene, made with the master seed.
_BUILTIN_SCENES = {
    "corner": lambda seed: simulator.corner_scene(seed=seed),
    "mural": lambda seed: simulator.mural_scene(seed=seed),
    "single-plane": lambda seed: simulator.single_plane_scene(seed=seed),
}
BUILTIN_KEYS = {"builtin": (_of(str), REQUIRED, "'corner'|'mural'|'single-plane'")}


def _scene(value, where):
    """A scene: the SceneSpec of the planes it lists, or for
    ``{"builtin": name}`` the built-in scene, which :func:`_seeded` makes."""
    if isinstance(value, dict) and "builtin" in value:
        name = _read(value, BUILTIN_KEYS, where)["builtin"]
        if name not in _BUILTIN_SCENES:
            raise InvalidInputError(f"unknown built-in scene {name!r}")
        return _BUILTIN_SCENES[name]
    return SceneSpec(**_read(value, SCENE_KEYS, where))


def _seeded(scene, seed: int) -> SceneSpec:
    """A scene that :func:`_scene` read, a built-in one made with ``seed``."""
    return scene if isinstance(scene, SceneSpec) else scene(seed)


LOOP_KEYS = _fields(
    AcrConfig,
    scale_epsilon=(_NUMBER, "m, stop threshold on the estimated remaining translation"),
    rotation_epsilon=(_NUMBER, "deg, stop threshold on the estimated remaining rotation"),
    max_iterations=(_of(int), "int"),
    init_translation=(_VECTOR, "[3] m, hand frame"),
)
NOISE_KEYS = _fields(NoiseSpec, magnitude_r=(_NUMBER, "px"), ratio_mu=(_NUMBER, "fraction"))
LIGHTING_KEYS = _fields(
    LightingProxySpec,
    off_plane_outlier_fraction=(_NUMBER, "fraction"),
    in_plane_outlier_fraction=(_NUMBER, "fraction"),
    dropout_fraction=(_NUMBER, "fraction"),
)
_POSE_TEXT = "pose {'r': [9], 't': [3]}"
RIG_KEYS = {
    "intrinsics": (_intrinsics, asdict(simulator.DESK_INTRINSICS), INTRINSICS_KEYS),
    "image_size": (_IMAGE_SIZE, list(simulator.DESK_IMAGE_SIZE), "[width, height]"),
    "hand_eye": (_pose, None,
                 f"{_POSE_TEXT} or {{'random': {{'max_rotation_deg', 'max_offset_m'}}}}"),
}
# A null acr, noise or lighting object stands for the defaults.
ACR_KEYS = {
    "seed": (_of("non-negative"), 0, "int >= 0, master seed"),
    "scene": (_scene, {"builtin": "corner"},
              "object with planes[] (normal, offset, half_extents|polygon, count, center,"
              " detected), clutter_count, clutter_box, seed; or"
              " {'builtin': 'corner'|'mural'|'single-plane'}"),
    "rig": (_object(RIG_KEYS), {}, RIG_KEYS),
    "initial_offset": (_pose, None,
                       "pose or {'random': ...}; current-camera extrinsic in the reference frame"),
    "noise": (_nullable(_object(NOISE_KEYS, NoiseSpec)), {}, NOISE_KEYS),
    "lighting": (_nullable(_object(LIGHTING_KEYS, LightingProxySpec)), {}, LIGHTING_KEYS),
    "acr": (_nullable(_object(LOOP_KEYS, AcrConfig)), {}, LOOP_KEYS),
    "baseline": (_of(bool), False, "bool, use the scale-guessing epipolar loop"),
    "output_dir": (_of(str), "acr_out", "directory for trace.jsonl and summary.csv"),
}


def _grid(field: str):
    """The reader of a sweep's noise values: numbers that NoiseSpec takes as
    its ``field``."""

    def read(value, where):
        values = _each(_NUMBER)(value, where)
        try:
            return tuple(getattr(NoiseSpec(**{field: v}), field) for v in values)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{where}: {exc}, got {list(values)}") from exc

    return read


BENCH_KEYS = {
    "seed": (_of("non-negative"), 0, "int >= 0"),
    "scene": (_scene, {"builtin": "single-plane"},
              "as in simulate-acr (default: the built-in single-plane scene)"),
    "intrinsics": (_intrinsics, asdict(simulator.CANON_INTRINSICS),
                   "fx/fy/cx/cy (default Canon-like)"),
    "image_size": (_IMAGE_SIZE, list(simulator.CANON_IMAGE_SIZE), "[w, h] (default 5760x3840)"),
    # Null for the built-in motion, which no JSON rotation holds bit for bit.
    "motion": (_nullable(_rigid), None, f"{_POSE_TEXT} (default built-in bench motion)"),
    "r_values": (_grid("magnitude_r"), list(range(0, 51, 2)),
                 "[px, ...] noise magnitudes (default 0..50 step 2)"),
    "mu_values": (_grid("ratio_mu"), [0.01, 0.1, 0.3, 0.5, 0.8, 0.9],
                  "[fraction, ...] noise ratios (default [.01,.1,.3,.5,.8,.9])"),
    "trials": (_of("positive"), 20, "int per grid cell"),
    "threshold_px": (_of("threshold"), RANSAC_THRESHOLD_PX,
                     "px, finite and > 0, RANSAC inlier gate"),
    "max_iters": (_of("positive"), simulator.BENCH_RANSAC_ITERS,
                  f"RANSAC budget (default {simulator.BENCH_RANSAC_ITERS})"),
    "output": (_output, "bench_noise.csv", "CSV path"),
}
# estimate-pose's pose file as solve-scale reads it; "zero_motion" goes unread.
POSE_FILE_KEYS = {
    "r": POSE_KEYS["r"],
    "direction": (_VECTOR, REQUIRED, "[3], the unit translation direction"),
    "zero_motion": (_of(bool), False, "bool, a pure rotation"),
}


def read_estimate_pose(args):
    _checked(args.seed, "non-negative", "--seed")
    _checked(args.threshold, "threshold", "--threshold")
    if args.method == "i2pe" and not (args.ref_mask and args.cur_mask):
        raise InvalidInputError("i2pe needs --ref-mask and --cur-mask")
    out = _output(args.output or "pose.json", "--output")
    return args, out, _output(str(out.with_name(out.stem + "_report.json")), "--output")


def run_estimate_pose(args, out: Path, report_path: Path) -> None:
    corr = CorrespondenceSet.from_json_dict(_load_json(args.correspondences))
    intr = _intrinsics(_load_json(args.intrinsics), "intrinsics")
    report = {"method": args.method, "warnings": []}
    if args.method == "i2pe":
        m_ref, m_cur = _input(args.ref_mask, "mask"), _input(args.cur_mask, "mask")
        estimate = reselect_candidates(
            i2pe(corr, m_ref, m_cur, intr, threshold_px=args.threshold, seed=args.seed),
            _select_consistent,
        )
        pose, zero_motion = estimate.pose, estimate.zero_motion
        report.update(estimate.report())
    else:  # epipolar
        hyp = estimate_epipolar(corr, intr, threshold_px=args.threshold, seed=args.seed)
        pose, zero_motion = hyp.pose, False
        report.update(support=hyp.support, unstable_translation=hyp.unstable_translation)
        # Planar-degeneracy screen: if one homography explains nearly all
        # epipolar inliers the essential matrix is ill-determined.
        try:
            _, h_mask = estimate_homography_ransac(corr, threshold_px=args.threshold,
                                                   seed=args.seed)
            if float(h_mask.sum()) / max(hyp.support, 1) >= 0.9:
                report["warnings"].append("planar-degeneracy")
        except AcrError:
            pass
    pose_doc = {"r": pose.rotation.matrix.reshape(-1).tolist(),
                "direction": pose.direction.tolist(), "zero_motion": zero_motion}
    _write(out, json.dumps(pose_doc, indent=2))
    _write(report_path, json.dumps(report, indent=2))
    print(json.dumps({"pose": str(out), "report": str(report_path)}))


def read_match_planes(args):
    _checked(args.erosion, "non-negative", "--erosion")
    return args, args.output and _output(args.output, "--output")


def run_match_planes(args, out) -> None:
    m_ref, m_cur = _input(args.ref_mask, "mask"), _input(args.cur_mask, "mask")
    corr = CorrespondenceSet.from_json_dict(_load_json(args.correspondences))
    pairs = match_plane_maps(m_ref, m_cur, erode_mask(m_ref, args.erosion, corr.a),
                             erode_mask(m_cur, args.erosion, corr.b))
    doc = {"pairs": [list(p) for p in pairs]}
    if out:
        _write(out, json.dumps(doc))
    print(json.dumps(doc))


def read_solve_scale(args):
    return args, args.output and _output(args.output, "--output")


def run_solve_scale(args, out) -> None:
    corr = CorrespondenceSet.from_json_dict(_load_json(args.correspondences))
    intr = _intrinsics(_load_json(args.intrinsics), "intrinsics")
    pose = _read(_load_json(args.pose), POSE_FILE_KEYS, "pose")
    solution = solve_scale_system(corr, intr, DirectionalPose(pose["r"], pose["direction"]))
    tracks = [str(int(t)) for t in solution.track_id]
    doc = {
        "y": [float(v) for v in solution.y],
        "residual": solution.residual,
        "s": solution.s,
        "depth_ratio_a": dict(zip(tracks, map(float, solution.d_a / solution.s))),
        "depth_ratio_b": dict(zip(tracks, map(float, solution.d_b / solution.s))),
    }
    if out:
        _write(out, json.dumps(doc))
    print(json.dumps({"residual": solution.residual, "s": solution.s}))


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
        "lighting": dict.fromkeys(LIGHTING_KEYS, 0.0),
        "acr": {},
        "baseline": False,
        "output_dir": "acr_out",
    }


def _executor(cfg: dict) -> SimulatedExecutor:
    """The simulated rig of a read simulate-acr configuration; a random
    hand-eye pose is drawn before a random start offset."""
    seed, rig = cfg["seed"], cfg["rig"]
    rng = np.random.default_rng(seed)
    hand_eye = _drawn(rig["hand_eye"], rng)
    return SimulatedExecutor(
        generate_scene(_seeded(cfg["scene"], seed)),
        RigSpec(hand_eye=hand_eye, intrinsics=rig["intrinsics"], image_size=rig["image_size"]),
        _drawn(cfg["initial_offset"], rng),
        noise=cfg["noise"], lighting=cfg["lighting"], seed=seed,
    )


def read_simulate_acr(args):
    doc = _load_json(args.config) if args.config else default_acr_config()
    cfg = _config(doc, ACR_KEYS, seed=args.seed)
    try:
        Path(cfg["output_dir"]).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, or on its path
        raise InvalidInputError(f"output_dir cannot be made: {exc}") from exc
    return cfg, cfg["baseline"] or args.baseline


def run_simulate_acr(cfg: dict, use_baseline: bool) -> None:
    out_dir = Path(cfg["output_dir"])
    executor = _executor(cfg)
    runner = run_bisection_baseline if use_baseline else run_acr
    t0 = time.perf_counter()
    trace = runner(executor, cfg["acr"])
    elapsed = time.perf_counter() - t0
    _write(out_dir / "trace.jsonl", trace.to_jsonl())

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
    summary = {
        "method": "bisection" if use_baseline else "i2acr",
        "status": trace.status,
        "iterations": trace.iterations,
        "final_rot_err_deg": _fmt(final_rot),
        "final_trans_err_m": _fmt(final_trans),
        "final_afd_px": _fmt(final_afd),
        "in_gate": "" if in_gate is None else str(in_gate).lower(),
        "wall_time_s": _fmt(round(elapsed, 3)),
    }
    _write(out_dir / "summary.csv", _csv([list(summary), list(summary.values())]))
    report = {"status": trace.status, "failure": trace.failure, "iterations": trace.iterations}
    report.update(trace=str(out_dir / "trace.jsonl"), summary=str(out_dir / "summary.csv"))
    print(json.dumps(report))


def read_bench_noise(args):
    doc = _load_json(args.config) if args.config else {}
    return (_config(doc, BENCH_KEYS, seed=args.seed, trials=args.trials, output=args.output),)


def run_bench_noise(cfg: dict) -> None:
    r_values, mu_values = cfg["r_values"], cfg["mu_values"]
    rows = bench_noise_sweep(
        _seeded(cfg["scene"], cfg["seed"]), cfg["motion"] or simulator.BENCH_MOTION,
        r_values, mu_values, cfg["trials"], seed=cfg["seed"], intr=cfg["intrinsics"],
        image_size=cfg["image_size"], threshold_px=cfg["threshold_px"],
        max_iters=cfg["max_iters"],
    )
    header = ["r", "mu", "trial", "method", "rot_err_deg", "dir_err_deg"]
    cells = [
        [_fmt(row.r), _fmt(row.mu), row.trial, row.method]
        + [_fmt(row.rot_err_deg), _fmt(row.dir_err_deg)]
        for row in rows
    ]
    _write(cfg["output"], _csv([header] + cells))

    summary = _bench_summary(rows, r_values, mu_values)
    for line in summary["lines"]:
        print(line)
    print(json.dumps({"csv": str(cfg["output"]), "checks_passed": summary["passed"]}))


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
    p.add_argument("--threshold", type=float, default=RANSAC_THRESHOLD_PX)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="pose JSON output path")
    p.set_defaults(read=read_estimate_pose, run=run_estimate_pose)

    p = sub.add_parser("match-planes", help="plane assignment in the input masks' ids")
    p.add_argument("correspondences")
    p.add_argument("--ref-mask", required=True)
    p.add_argument("--cur-mask", required=True)
    p.add_argument("--erosion", type=int, default=EROSION_RADIUS, help="erosion disk radius, px")
    p.add_argument("--output")
    p.set_defaults(read=read_match_planes, run=run_match_planes)

    p = sub.add_parser("solve-scale", help="depth/scale ratios from files")
    p.add_argument("correspondences")
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--pose", required=True, help="directional pose JSON")
    p.add_argument("--output")
    p.set_defaults(read=read_solve_scale, run=run_solve_scale)

    p = sub.add_parser("simulate-acr", help="run the relocalization loop")
    p.add_argument("config", nargs="?", help="config JSON (bundled default if omitted)")
    p.add_argument("--baseline", action="store_true", help="scale-guessing baseline")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--print-schema", dest="schema", action="store_const", const=ACR_KEYS)
    p.set_defaults(read=read_simulate_acr, run=run_simulate_acr)

    p = sub.add_parser("bench-noise", help="noise-robustness sweep")
    p.add_argument("config", nargs="?", help="config JSON")
    p.add_argument("--trials", type=int, default=None, help="override config trials")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--output", default=None, help="override config output")
    p.add_argument("--print-schema", dest="schema", action="store_const", const=BENCH_KEYS)
    p.set_defaults(read=read_bench_noise, run=run_bench_noise)

    args = parser.parse_args(argv)
    if getattr(args, "schema", None):
        print(json.dumps(_schema(args.schema), indent=2))
        return 0
    try:
        work = args.read(args)
    except AcrError as exc:
        return _fail(1, "invalid-input", str(exc))
    try:
        args.run(*work)
    except AcrError as exc:
        return _fail(2, exc.code, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
