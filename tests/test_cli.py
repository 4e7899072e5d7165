"""Command-line entry points, driven through ``cli.main``."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from acrkit import cli, fusion, simulator
from acrkit.acr_loop import AcrConfig
from acrkit.errors import EstimationFailureError
from acrkit.fusion import i2pe, reselect_candidates
from acrkit.plane_match import PlaneSegmentMap
from acrkit.pose_estimation import CorrespondenceSet
from acrkit.geometry import Intrinsics, Pose, Rotation, rotation_angle
from acrkit.simulator import BenchRow
from conftest import general_pair_set, observe_world, plane_pair_set


class TestBenchNoise:
    def test_default_budget_is_the_library_constant(self, monkeypatch, tmp_path, capsys):
        # The sweep itself is stubbed: only the budget the command hands it
        # and the exit code are under test.
        calls = []

        def fake_sweep(scene, motion, r_values, mu_values, trials, **kwargs):
            calls.append(kwargs)
            return [
                BenchRow(r, mu, t, method, 0.1, 0.1)
                for r in r_values
                for mu in mu_values
                for t in range(trials)
                for method in ("de-h", "epipolar")
            ]

        monkeypatch.setattr(cli, "bench_noise_sweep", fake_sweep)
        config = tmp_path / "bench.json"
        output = tmp_path / "bench.csv"
        config.write_text(
            json.dumps({"r_values": [4], "mu_values": [0.5], "trials": 1})
        )
        code = cli.main(["bench-noise", str(config), "--output", str(output)])
        assert code == 0
        assert len(calls) == 1
        assert calls[0]["max_iters"] == simulator.BENCH_RANSAC_ITERS
        assert output.read_text().count("\n") == 3  # header + two methods
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["checks_passed"]

    def test_config_budget_overrides_default(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(
            cli, "bench_noise_sweep", lambda *args, **kwargs: calls.append(kwargs) or []
        )
        config = tmp_path / "bench.json"
        config.write_text(
            json.dumps({"r_values": [0], "mu_values": [0.5], "trials": 1, "max_iters": 50})
        )
        code = cli.main(
            ["bench-noise", str(config), "--output", str(tmp_path / "bench.csv")]
        )
        assert code == 0
        assert calls[0]["max_iters"] == 50

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"seed": "x"}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": -3}, "seed"),
            ({"trials": "many"}, "trials"),
            ({"trials": 0}, "trials"),
            ({"threshold_px": "wide"}, "threshold_px"),
            ({"threshold_px": 0}, "threshold_px"),
            ({"threshold_px": float("inf")}, "threshold_px"),
            ({"max_iters": 2.5}, "max_iters"),
            ({"max_iters": 0}, "max_iters"),
            ({"max_iters": -3}, "max_iters"),
            ({"r_values": ["a"]}, "r_values"),
            ({"r_values": 4}, "r_values"),
            ({"r_values": [-1]}, "r_values"),
            ({"r_values": [float("nan")]}, "r_values"),
            ({"r_values": [2.0, float("inf")]}, "r_values"),
            ({"mu_values": [0.5, "b"]}, "mu_values"),
            ({"mu_values": [1.5]}, "mu_values"),
            ({"mu_values": [-0.1]}, "mu_values"),
            ({"scene": {"planes": [{"normal": "up", "offset": 1}]}}, "scene.planes[0].normal"),
            ({"scene": {"planes": [{"normal": [0, 0, 1], "offset": "far"}]}}, "offset"),
            (
                {"scene": {"planes": [{"normal": [0, 0, 1], "offset": 1, "count": "x"}]}},
                "scene.planes[0].count",
            ),
            (
                {"scene": {"planes": [{"normal": [0, 0, 1], "offset": 1, "half_extents": [1]}]}},
                "half_extents",
            ),
            ({"scene": {"planes": {"normal": [0, 0, 1]}}}, "scene.planes"),
            ({"image_size": [5760]}, "image_size"),
            ({"motion": {"r": [1.0], "t": [0.0, 0.0, 0.1]}}, "motion.r"),
            ({"output": 5}, "output"),
            ([], "configuration"),
        ],
        ids=[
            "string-seed",
            "fractional-seed",
            "negative-seed",
            "string-trials",
            "zero-trials",
            "string-threshold",
            "zero-threshold",
            "infinite-threshold",
            "fractional-budget",
            "zero-budget",
            "negative-budget",
            "string-r",
            "scalar-r",
            "negative-r",
            "nan-r",
            "infinite-r",
            "string-mu",
            "mu-above-one",
            "negative-mu",
            "string-normal",
            "string-offset",
            "string-count",
            "short-half-extents",
            "planes-object",
            "short-image-size",
            "short-motion-rotation",
            "numeric-output",
            "list-config",
        ],
    )
    def test_bad_config_is_invalid_input(self, doc, key, monkeypatch, tmp_path, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep run for an invalid config")

        monkeypatch.setattr(cli, "bench_noise_sweep", no_sweep)
        config = tmp_path / "bench.json"
        config.write_text(json.dumps(doc))
        code = cli.main(["bench-noise", str(config), "--output", str(tmp_path / "b.csv")])
        assert code == 1
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["error"] == "invalid-input"
        assert key in report["message"]

    def test_negative_seed_flag_is_invalid_input(self, monkeypatch, tmp_path, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep run for an invalid seed")

        monkeypatch.setattr(cli, "bench_noise_sweep", no_sweep)
        code = cli.main(["bench-noise", "--seed", "-1", "--output", str(tmp_path / "b.csv")])
        assert code == 1
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["error"] == "invalid-input" and "--seed" in report["message"]

    def test_tiny_real_grid(self, tmp_path, capsys):
        # The real sweep on a 2x2 grid: every (r, mu) cell appears once per
        # estimator, and a second run writes the same bytes.
        config = tmp_path / "bench.json"
        config.write_text(
            json.dumps(
                {"r_values": [0, 40], "mu_values": [0.01, 0.9], "trials": 1, "max_iters": 20}
            )
        )
        outputs = []
        for name in ("first.csv", "second.csv"):
            outputs.append(tmp_path / name)
            code = cli.main(["bench-noise", str(config), "--output", str(outputs[-1])])
            assert code == 0
            report = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert report["csv"] == str(outputs[-1])
            assert report["checks_passed"] is True
        lines = outputs[0].read_text().splitlines()
        assert lines[0] == "r,mu,trial,method,rot_err_deg,dir_err_deg"
        cells = sorted(tuple(line.split(",")[:4]) for line in lines[1:])
        assert cells == sorted(
            (r, mu, "0", method)
            for r in ("0", "40")
            for mu in ("0.01", "0.9")
            for method in ("de-h", "epipolar")
        )
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_grid_without_checks_reports_skip(self, tmp_path, capsys):
        # No ordering check reads mu = 0.3: the sweep says so instead of
        # reporting that its checks passed.
        config = tmp_path / "bench.json"
        config.write_text(
            json.dumps({"r_values": [4], "mu_values": [0.3], "trials": 1, "max_iters": 20})
        )
        code = cli.main(["bench-noise", str(config), "--output", str(tmp_path / "b.csv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == (
            "[SKIP] no ordering check applies to this grid (needs mu = 0.01, 0.5 or 0.9)"
        )
        assert not any(line.startswith(("[PASS]", "[FAIL]")) for line in lines)
        assert json.loads(lines[-1])["checks_passed"] is None


def _strip_inputs(tmp_path) -> list:
    """Equal masks of a 4 px strip (region 1), which erosion empties, and
    wide regions 2 and 3; 40 correspondences of one plane, all inside
    region 3 on both sides, and their intrinsics.  Returns the mask flags."""
    lab = np.zeros((100, 120), dtype=np.int32)
    lab[:, 0:4], lab[:, 8:48], lab[:, 52:120] = 1, 2, 3
    intr = Intrinsics(fx=100.0, fy=100.0, cx=85.0, cy=50.0)
    c, _ = plane_pair_set(
        intr, Rotation.about_z(2.0), [0.02, 0.01, 0.0], [0.0, 0.0, 1.0], 2.0, count=40, extent=0.4
    )
    c.save(tmp_path / "corr.json")
    (tmp_path / "intr.json").write_text(json.dumps(dataclasses.asdict(intr)))
    flags = []
    for name in ("ref", "cur"):
        PlaneSegmentMap(lab).save(tmp_path / f"{name}.pgm")
        flags += [f"--{name}-mask", str(tmp_path / f"{name}.pgm")]
    return flags


class TestMatchPlanes:
    @staticmethod
    def _squares():
        # Two 20 px squares side by side; the correspondences of _inputs
        # cross them, so the assignment must pair each with the other.
        lab = np.zeros((30, 60), dtype=np.int32)
        lab[5:25, 5:25] = 1
        lab[5:25, 35:55] = 2
        return lab

    @classmethod
    def _inputs(cls, tmp_path):
        for name in ("ref.pgm", "cur.pgm"):
            PlaneSegmentMap(cls._squares()).save(tmp_path / name)
        a = np.array([[15.0, 15.0]] * 7 + [[45.0, 15.0]] * 9)
        b = np.array([[45.0, 15.0]] * 7 + [[15.0, 15.0]] * 9)
        CorrespondenceSet(a, b).save(tmp_path / "corr.json")
        return [
            "match-planes",
            str(tmp_path / "corr.json"),
            "--ref-mask",
            str(tmp_path / "ref.pgm"),
            "--cur-mask",
            str(tmp_path / "cur.pgm"),
        ]

    @staticmethod
    def _last_json(capsys):
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    def test_mask_files_hold_each_label_as_a_big_endian_pixel(self, tmp_path):
        self._inputs(tmp_path)
        header = b"P5\n60 30\n65535\n"
        assert (tmp_path / "ref.pgm").read_bytes() == header + self._squares().astype(">u2").tobytes()

    def test_pairs_after_default_erosion(self, tmp_path, capsys):
        code = cli.main(self._inputs(tmp_path))
        assert code == 0
        assert sorted(self._last_json(capsys)["pairs"]) == [[1, 2], [2, 1]]

    def test_pairs_name_the_input_masks_ids(self, tmp_path, capsys):
        # Erosion empties region 1, a 4 px strip; the pair of region 3,
        # where every correspondence lies, keeps the masks' own id.
        masks = _strip_inputs(tmp_path)
        assert cli.main(["match-planes", str(tmp_path / "corr.json")] + masks) == 0
        assert [3, 3] in self._last_json(capsys)["pairs"]

    def test_output_file_holds_the_printed_pairs(self, tmp_path, capsys):
        output = tmp_path / "pairs.json"
        assert cli.main(self._inputs(tmp_path) + ["--output", str(output)]) == 0
        assert json.loads(output.read_text()) == self._last_json(capsys) == {"pairs": [[1, 2], [2, 1]]}

    def test_negative_erosion_is_invalid_input(self, tmp_path, capsys):
        # None of the three input files exists: the flag is checked first.
        args = ["match-planes", str(tmp_path / "corr.json"), "--ref-mask", str(tmp_path / "ref.pgm")]
        code = cli.main(args + ["--cur-mask", str(tmp_path / "cur.pgm"), "--erosion", "-1"])
        assert code == 1
        assert self._last_json(capsys)["error"] == "invalid-input"

    def test_ten_planes_a_side_is_invalid_input(self, tmp_path, capsys):
        # 10! injections of ten 20 px squares, each 10 px after erosion:
        # past the matcher's limit of a million.
        argv = self._inputs(tmp_path)
        lab = np.zeros((30, 300), dtype=np.int32)
        for k in range(10):
            lab[5:25, 30 * k + 5 : 30 * k + 25] = k + 1
        for name in ("ref.pgm", "cur.pgm"):
            PlaneSegmentMap(lab).save(tmp_path / name)
        code = cli.main(argv)
        assert code == 2
        doc = self._last_json(capsys)
        assert doc["error"] == "invalid-input"
        assert "10 reference and 10 current planes" in doc["message"]

    def test_missing_mask_is_missing_input(self, tmp_path, capsys):
        argv = self._inputs(tmp_path)
        argv[argv.index("--cur-mask") + 1] = str(tmp_path / "absent.pgm")
        code = cli.main(argv)
        assert code == 2
        assert self._last_json(capsys)["error"] == "missing-input"


class TestEstimatePose:
    @staticmethod
    def _inputs(tmp_path):
        # Exact pairs of one plane: the essential matrix is ill-determined.
        intr = Intrinsics(fx=1100.0, fy=1100.0, cx=640.0, cy=480.0)
        c, _ = plane_pair_set(
            intr, Rotation.about_z(4.0), [0.1, -0.03, 0.02], [0.1, 0.0, 1.0], 2.0, count=120
        )
        c.save(tmp_path / "corr.json")
        (tmp_path / "intr.json").write_text(
            json.dumps({"fx": 1100.0, "fy": 1100.0, "cx": 640.0, "cy": 480.0})
        )
        return [
            "estimate-pose",
            str(tmp_path / "corr.json"),
            "--intrinsics",
            str(tmp_path / "intr.json"),
            "--output",
            str(tmp_path / "pose.json"),
        ]

    @staticmethod
    def _last_json(capsys):
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    def test_epipolar_on_one_plane_warns(self, tmp_path, capsys):
        code = cli.main(self._inputs(tmp_path) + ["--method", "epipolar"])
        assert code == 0
        paths = self._last_json(capsys)
        report = json.loads(Path(paths["report"]).read_text())
        assert report["method"] == "epipolar"
        assert "planar-degeneracy" in report["warnings"]
        assert len(json.loads(Path(paths["pose"]).read_text())["r"]) == 9

    def test_epipolar_whose_planar_screen_fails_warns_nothing(self, tmp_path, monkeypatch, capsys):
        # The planar-degeneracy screen only advises: a homography RANSAC
        # that fails leaves the epipolar pose, written without a warning.
        def fail(*args, **kwargs):
            raise EstimationFailureError("stubbed failure")

        monkeypatch.setattr(cli, "estimate_homography_ransac", fail)
        assert cli.main(self._inputs(tmp_path) + ["--method", "epipolar"]) == 0
        report = json.loads(Path(self._last_json(capsys)["report"]).read_text())
        assert report["method"] == "epipolar" and report["warnings"] == []

    def test_i2pe_report_names_the_input_masks_ids(self, tmp_path, capsys):
        # As in match-planes: the one usable pair is region 3 on both sides.
        argv = ["estimate-pose", str(tmp_path / "corr.json")] + _strip_inputs(tmp_path)
        argv += ["--intrinsics", str(tmp_path / "intr.json"), "--output", str(tmp_path / "pose.json")]
        assert cli.main(argv) == 0
        report = json.loads(Path(self._last_json(capsys)["report"]).read_text())
        assert report["plane_pairs"] == [[3, 3]]
        assert [(h["ref_plane"], h["cur_plane"]) for h in report["hypotheses"]] == [(3, 3)]

    def test_i2pe_without_masks_is_invalid_input(self, tmp_path, capsys):
        code = cli.main(self._inputs(tmp_path) + ["--method", "i2pe"])
        assert code == 1
        assert self._last_json(capsys)["error"] == "invalid-input"

    @pytest.mark.parametrize(
        "masks", [[], ["--ref-mask"], ["--cur-mask"]], ids=["none", "ref", "cur"]
    )
    def test_i2pe_without_both_masks_reads_no_input(self, masks, tmp_path, monkeypatch, capsys):
        # A missing mask flag is a bad flag: refused before the
        # correspondence and intrinsics files are read.
        def no_read(*args, **kwargs):
            raise AssertionError("input read for an invalid flag")

        monkeypatch.setattr(cli, "_input", no_read)
        flags = [a for flag in masks for a in (flag, str(tmp_path / "mask.pgm"))]
        code = cli.main(self._inputs(tmp_path) + ["--method", "i2pe"] + flags)
        out, err = capsys.readouterr()
        assert (code, err, len(out.splitlines())) == (1, "", 1)
        report = json.loads(out)
        assert report["error"] == "invalid-input"
        assert report["message"] == "i2pe needs --ref-mask and --cur-mask"

    @staticmethod
    def _corner_inputs(tmp_path):
        """``estimate-pose`` arguments for a clean corner observation with
        both masks, and the ``i2pe`` inputs read back from those files."""
        world = simulator.generate_scene(simulator.corner_scene(seed=1))
        offset = Pose(Rotation.about_z(5.0), np.array([0.03, -0.02, 0.025]))
        intr = simulator.DESK_INTRINSICS
        obs = observe_world(world, offset, seed=3)
        obs.correspondences.save(tmp_path / "corr.json")
        obs.mask_ref.save(tmp_path / "ref.pgm")
        obs.mask_cur.save(tmp_path / "cur.pgm")
        (tmp_path / "intr.json").write_text(
            json.dumps({"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy})
        )
        argv = [
            "estimate-pose",
            str(tmp_path / "corr.json"),
            "--intrinsics",
            str(tmp_path / "intr.json"),
            "--ref-mask",
            str(tmp_path / "ref.pgm"),
            "--cur-mask",
            str(tmp_path / "cur.pgm"),
            "--output",
            str(tmp_path / "pose.json"),
        ]
        inputs = (
            CorrespondenceSet.load(tmp_path / "corr.json"),
            PlaneSegmentMap.load(tmp_path / "ref.pgm"),
            PlaneSegmentMap.load(tmp_path / "cur.pgm"),
            cli._intrinsics(json.loads((tmp_path / "intr.json").read_text()), "intrinsics"),
        )
        return argv, inputs

    @staticmethod
    def _pose_doc(estimate):
        return {
            "r": estimate.pose.rotation.matrix.reshape(-1).tolist(),
            "direction": estimate.pose.direction.tolist(),
            "zero_motion": estimate.zero_motion,
        }

    def test_i2pe_writes_the_agreed_fusion(self, tmp_path, capsys):
        # A corner observation with both masks: the pose is the agreement
        # choice fused and refined, and the report holds one hypothesis per
        # fused pair.
        argv, inputs = self._corner_inputs(tmp_path)
        code = cli.main(argv)
        assert code == 0
        paths = self._last_json(capsys)
        expected = reselect_candidates(i2pe(*inputs), fusion._select_consistent)
        assert json.loads(Path(paths["pose"]).read_text()) == self._pose_doc(expected)
        report = json.loads(Path(paths["report"]).read_text())
        assert report["plane_pairs"] == [list(pair) for pair in expected.plane_pairs]
        assert len(report["hypotheses"]) == len(expected.plane_pairs) == 3
        assert [[h["ref_plane"], h["cur_plane"]] for h in report["hypotheses"]] == report[
            "plane_pairs"
        ]
        # The joint refinement's iterations and RMS transfer error, in px.
        refined = expected.refinement
        assert report["refinement"] == {
            "iterations": refined.iterations,
            "rms_before_px": refined.rms_before_px,
            "rms_after_px": refined.rms_after_px,
        }
        assert 0.0 <= refined.rms_after_px <= refined.rms_before_px < 1e-6

    def test_i2pe_report_weights_sum_to_one_and_carry_no_spread(self, tmp_path, capsys):
        argv, _ = self._corner_inputs(tmp_path)
        assert cli.main(argv) == 0
        report = json.loads(Path(self._last_json(capsys)["report"]).read_text())
        hypotheses = report["hypotheses"]
        assert sum(h["weight"] for h in hypotheses) == pytest.approx(1.0, rel=0, abs=1e-12)
        assert all(h["support"] > 0 < h["weight"] for h in hypotheses)
        assert {key for h in hypotheses for key in h} == {
            "ref_plane", "cur_plane", "support", "weight", "zero_motion",
            "rotation", "direction", "plane_normal",
        }

    def test_i2pe_threshold_and_seed_reach_the_estimator(self, tmp_path, capsys, monkeypatch):
        argv, inputs = self._corner_inputs(tmp_path)
        seen = []

        def recording_i2pe(*args, **kwargs):
            seen.append(kwargs)
            return i2pe(*args, **kwargs)

        monkeypatch.setattr(cli, "i2pe", recording_i2pe)
        code = cli.main(argv + ["--method", "i2pe", "--threshold", "2.0", "--seed", "5"])
        assert code == 0
        assert seen == [{"threshold_px": 2.0, "seed": 5}]
        expected = reselect_candidates(
            i2pe(*inputs, threshold_px=2.0, seed=5), fusion._select_consistent
        )
        pose = json.loads(Path(self._last_json(capsys)["pose"]).read_text())
        assert pose == self._pose_doc(expected)

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--seed", "-1"], "--seed"),
            (["--threshold", "0"], "--threshold"),
            (["--threshold", "-1"], "--threshold"),
            (["--threshold", "nan"], "--threshold"),
            (["--threshold", "inf"], "--threshold"),
        ],
        ids=[
            "negative-seed",
            "zero-threshold",
            "negative-threshold",
            "nan-threshold",
            "infinite-threshold",
        ],
    )
    def test_bad_seed_or_threshold_is_invalid_input(
        self, flags, key, tmp_path, monkeypatch, capsys
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("input read for an invalid flag")

        monkeypatch.setattr(cli, "_load_json", no_read)
        code = cli.main(self._inputs(tmp_path) + ["--method", "epipolar"] + flags)
        assert code == 1
        report = self._last_json(capsys)
        assert report["error"] == "invalid-input" and key in report["message"]

    def test_missing_intrinsics_is_missing_input(self, tmp_path, capsys):
        argv = self._inputs(tmp_path)
        argv[argv.index("--intrinsics") + 1] = str(tmp_path / "absent.json")
        code = cli.main(argv + ["--method", "epipolar"])
        assert code == 2
        assert self._last_json(capsys)["error"] == "missing-input"


class TestSimulateAcr:
    @staticmethod
    def _last_json(capsys):
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    def test_default_rig_is_the_desk_rig_as_plain_json(self):
        rig = cli.default_acr_config()["rig"]
        assert json.loads(json.dumps(rig)) == rig
        assert Intrinsics(**rig["intrinsics"]) == simulator.DESK_INTRINSICS
        assert all(type(v) is float for v in rig["intrinsics"].values())
        assert rig["image_size"] == list(simulator.DESK_IMAGE_SIZE)
        assert all(type(v) is int for v in rig["image_size"])

    def test_malformed_config_is_invalid_input(self, tmp_path, capsys):
        config = tmp_path / "acr.json"
        config.write_text('{"seed": 0, "scene": ')
        code = cli.main(["simulate-acr", str(config)])
        assert code == 1
        assert self._last_json(capsys)["error"] == "invalid-input"

    def _rejected(self, doc, tmp_path, monkeypatch, capsys, section="acr") -> str:
        """The invalid-input message for ``doc`` as the config's ``section``
        object, after checking that the command stops before it builds the
        executor."""

        def no_executor(*args, **kwargs):
            raise AssertionError("executor built for an invalid config")

        monkeypatch.setattr(cli, "SimulatedExecutor", no_executor)
        config = tmp_path / "acr.json"
        config.write_text(json.dumps({**cli.default_acr_config(), section: doc}))
        code = cli.main(["simulate-acr", str(config)])
        assert code == 1
        report = self._last_json(capsys)
        assert report["error"] == "invalid-input"
        return report["message"]

    def test_negative_epsilon_is_invalid_input(self, tmp_path, monkeypatch, capsys):
        message = self._rejected({"scale_epsilon": -1}, tmp_path, monkeypatch, capsys)
        assert "epsilon" in message

    def test_misspelled_key_is_invalid_input(self, tmp_path, monkeypatch, capsys):
        message = self._rejected(
            {"scale_epsilom": 0.002}, tmp_path, monkeypatch, capsys
        )
        assert "scale_epsilom" in message

    # Keys of earlier releases, each at its old default value.
    REMOVED_ACR_KEYS = {
        "i2pe": {},
        "erosion_radius": 5,
        "ransac_threshold_px": 1.0,
        "ransac_max_iters": 2000,
        "edge_sigma_frac": 0.1,
        "min_pair_correspondences": 4,
        "epipolar_threshold_px": 1.0,
        "epipolar_max_iters": 2000,
        "parallax_min_deg": 0.1,
        "min_scale_points": 8,
        "max_scale_points": 512,
    }

    @pytest.mark.parametrize("key", list(REMOVED_ACR_KEYS))
    def test_removed_key_is_invalid_input(self, key, tmp_path, monkeypatch, capsys):
        doc = {key: self.REMOVED_ACR_KEYS[key]}
        message = self._rejected(doc, tmp_path, monkeypatch, capsys)
        assert "unknown acr key" in message and key in message

    def test_wrongly_typed_output_dir_is_invalid_input(self, tmp_path, monkeypatch, capsys):
        message = self._rejected(5, tmp_path, monkeypatch, capsys, section="output_dir")
        assert "output_dir" in message

    @pytest.mark.parametrize(
        "acr_doc, key",
        [
            ({"max_iterations": "x"}, "acr.max_iterations"),
            ({"scale_epsilon": "x"}, "acr.scale_epsilon"),
            ({"init_translation": 5}, "acr.init_translation"),
        ],
    )
    def test_wrongly_typed_value_is_invalid_input(
        self, acr_doc, key, tmp_path, monkeypatch, capsys
    ):
        assert key in self._rejected(acr_doc, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "acr_doc, key",
        [
            ({"init_translation": [0, 0, 0]}, "init_translation"),
            ({"scale_epsilon": float("nan")}, "epsilon"),
            ({"rotation_epsilon": float("nan")}, "epsilon"),
            ({"scale_epsilon": float("inf")}, "epsilon"),
        ],
    )
    def test_out_of_range_acr_value_is_invalid_input(
        self, acr_doc, key, tmp_path, monkeypatch, capsys
    ):
        assert key in self._rejected(acr_doc, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "section, doc, key",
        [
            ("noise", {"magnitude_r": -1}, "noise magnitude"),
            ("noise", {"magnitude_r": float("nan"), "ratio_mu": 0.5}, "noise.magnitude_r"),
            ("noise", {"magnitude_r": float("inf"), "ratio_mu": 0.5}, "noise.magnitude_r"),
            ("noise", {"magnitud_r": 5}, "magnitud_r"),
            ("lighting", {"dropout_fraction": "lots"}, "lighting.dropout_fraction"),
            ("lighting", [], "lighting"),
        ],
        ids=[
            "negative-noise",
            "nan-noise",
            "infinite-noise",
            "misspelled-noise-key",
            "untyped-lighting",
            "lighting-list",
        ],
    )
    def test_bad_noise_or_lighting_is_invalid_input(
        self, section, doc, key, tmp_path, monkeypatch, capsys
    ):
        assert key in self._rejected(doc, tmp_path, monkeypatch, capsys, section)

    @pytest.mark.parametrize(
        "section, doc, key",
        [
            ("seed", "seven", "seed"),
            ("seed", True, "seed"),
            ("seed", -2, "seed"),
            ("baseline", "no", "baseline"),
            (
                "rig",
                {"intrinsics": {"fx": "x", "fy": 1200.0, "cx": 640.0, "cy": 480.0}},
                "rig.intrinsics.fx",
            ),
            ("rig", {"image_size": [1280]}, "rig.image_size"),
            (
                "initial_offset",
                {"random": {"max_rotation_deg": "a", "max_offset_m": 0.045}},
                "initial_offset.random.max_rotation_deg",
            ),
            ("initial_offset", {"r": [1.0, 0.0], "t": [0.0, 0.0, 0.0]}, "initial_offset.r"),
            (
                "initial_offset",
                {"random": {"max_rotation_deg": -3.0, "max_offset_m": 0.045}},
                "initial_offset.random.max_rotation_deg",
            ),
            (
                "rig",
                {"hand_eye": {"random": {"max_offset_m": [0.1]}}},
                "rig.hand_eye.random.max_offset_m",
            ),
            ("scene", 5, "scene"),
            ("scene", {"builtin": "nope"}, "nope"),
            ("scene", {"planes": [{"normal": [0, 0, 1], "offset": 1}], "seed": -1}, "scene.seed"),
        ],
        ids=[
            "string-seed",
            "bool-seed",
            "negative-seed",
            "string-baseline",
            "string-fx",
            "short-image-size",
            "string-offset-bound",
            "short-offset-rotation",
            "negative-offset-bound",
            "list-hand-eye-bound",
            "number-scene",
            "unknown-builtin-scene",
            "negative-scene-seed",
        ],
    )
    def test_bad_scenario_field_is_invalid_input(
        self, section, doc, key, tmp_path, monkeypatch, capsys
    ):
        assert key in self._rejected(doc, tmp_path, monkeypatch, capsys, section)

    @pytest.mark.parametrize(
        "plane, key",
        [
            ({"normal": "up", "offset": 1}, "scene.planes[0].normal"),
            ({"normal": [0, 0, 1], "offset": 1, "polygon": [[0, 0], [1]]}, "polygon[1]"),
            ({"normal": [0, 0, 1], "offset": 1, "detected": "yes"}, "detected"),
            ({"normal": [0, 0, 1], "offset": 1, "center": [0, 0]}, "center"),
        ],
        ids=["string-normal", "short-polygon-vertex", "string-detected", "short-center"],
    )
    def test_bad_custom_plane_is_invalid_input(
        self, plane, key, tmp_path, monkeypatch, capsys
    ):
        doc = {"planes": [plane]}
        assert key in self._rejected(doc, tmp_path, monkeypatch, capsys, "scene")

    def test_a_listed_scene_passes_only_the_keys_it_holds(self):
        def fields(spec):
            return {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}

        plane = {"normal": [0, 0, 1], "offset": 1}
        bare = cli._scene({"planes": [plane]}, "scene")
        default = simulator.PlaneSpec(normal=(0.0, 0.0, 1.0), offset=1.0)
        assert fields(bare.planes[0]) == fields(default)
        assert (bare.seed, bare.clutter_count, bare.clutter_box) == (0, 0, None)
        given = {"half_extents": [0.3, 0.1], "count": 40, "center": [0, 0, 1], "detected": False}
        full = cli._scene(
            {"planes": [{**plane, **given}], "seed": 4, "clutter_count": 5,
             "clutter_box": [[0, 1], [0, 1], [1, 2]]},
            "scene",
        )
        read = fields(full.planes[0])
        assert {k: read[k] for k in given} == {
            "half_extents": (0.3, 0.1), "count": 40, "center": (0.0, 0.0, 1.0), "detected": False
        }
        assert (full.seed, full.clutter_count, full.clutter_box) == (4, 5, ((0.0, 1.0), (0.0, 1.0), (1.0, 2.0)))

    def test_negative_seed_flag_is_invalid_input(self, tmp_path, monkeypatch, capsys):
        def no_executor(*args, **kwargs):
            raise AssertionError("executor built for an invalid seed")

        monkeypatch.setattr(cli, "SimulatedExecutor", no_executor)
        monkeypatch.chdir(tmp_path)
        code = cli.main(["simulate-acr", "--seed", "-1"])
        assert code == 1
        report = self._last_json(capsys)
        assert report["error"] == "invalid-input" and "--seed" in report["message"]

    def test_failed_run_reports_its_failure(self, tmp_path, capsys):
        config = tmp_path / "acr.json"
        doc = {
            **cli.default_acr_config(),
            "acr": {"init_translation": [0.0, 0.0, 1e-9]},
            "output_dir": str(tmp_path / "out"),
        }
        config.write_text(json.dumps(doc))
        code = cli.main(["simulate-acr", str(config), "--seed", "0"])
        assert code == 0  # a valid run that did not converge is still success
        report = self._last_json(capsys)
        assert report["status"] == "failed" and report["iterations"] == 0
        assert report["failure"].startswith("estimation-failure")
        lines = [json.loads(line) for line in Path(report["trace"]).read_text().splitlines()]
        assert lines == [{"status": "failed", "failure": report["failure"]}]

    def test_an_unwritable_summary_is_a_write_failure(self, tmp_path, capsys):
        # The run of test_final_pose_that_sees_nothing_... with a directory
        # where its summary.csv goes: the trace is written, the summary not.
        config = tmp_path / "acr.json"
        doc = {
            **cli.default_acr_config(),
            "initial_offset": {"r": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [3.0, 0.0, 0.0]},
            "output_dir": str(tmp_path / "out"),
        }
        config.write_text(json.dumps(doc))
        (tmp_path / "out" / "summary.csv").mkdir(parents=True)
        assert cli.main(["simulate-acr", str(config), "--seed", "0"]) == 2
        [line] = capsys.readouterr().out.splitlines()
        report = json.loads(line)
        assert report["error"] == "write-failure"
        assert report["message"].startswith(f"cannot write {tmp_path / 'out' / 'summary.csv'}:")
        assert json.loads((tmp_path / "out" / "trace.jsonl").read_text())["status"] == "failed"

    def test_final_pose_that_sees_nothing_leaves_the_final_figures_empty(self, tmp_path, capsys):
        # Three metres to the side no track is in view, so the run fails at
        # its first observation and the final observation sees nothing too.
        config = tmp_path / "acr.json"
        doc = {
            **cli.default_acr_config(),
            "initial_offset": {"r": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [3.0, 0.0, 0.0]},
            "output_dir": str(tmp_path / "out"),
        }
        config.write_text(json.dumps(doc))
        assert cli.main(["simulate-acr", str(config), "--seed", "0"]) == 0
        report = self._last_json(capsys)
        assert report["status"] == "failed"
        assert report["failure"].startswith("empty-observation:")
        with open(report["summary"], newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row["method"] == "i2acr" and row["status"] == "failed"
        for column in ("final_rot_err_deg", "final_trans_err_m", "final_afd_px", "in_gate"):
            assert row[column] == "", column

    def test_every_field_accepted_at_its_default(self, capsys):
        # Every field of the flat AcrConfig, as JSON, and the schema lists
        # exactly those fields.
        doc = json.loads(json.dumps(dataclasses.asdict(AcrConfig())))
        assert cli._read({"acr": doc}, cli.ACR_KEYS, "")["acr"] == AcrConfig()
        assert cli.main(["simulate-acr", "--print-schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert set(schema["acr"]) == set(doc) == {
            "scale_epsilon",
            "rotation_epsilon",
            "max_iterations",
            "init_translation",
        }

    def test_default_config_converges(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the bundled config writes to acr_out/
        code = cli.main(["simulate-acr", "--seed", "0"])
        assert code == 0
        report = self._last_json(capsys)
        assert report["status"] == "converged" and report["failure"] is None
        lines = [json.loads(line) for line in Path(report["trace"]).read_text().splitlines()]
        assert lines[-1]["status"] == "converged" and "failure" not in lines[-1]
        assert Path(report["summary"]).read_text().splitlines()[1].startswith("i2acr,converged,")

    def test_summary_gates_the_final_truth(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate-acr", "--seed", "0"]) == 0
        with open(self._last_json(capsys)["summary"], newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == [
            "method",
            "status",
            "iterations",
            "final_rot_err_deg",
            "final_trans_err_m",
            "final_afd_px",
            "in_gate",
            "wall_time_s",
        ]
        [row] = [dict(zip(header, r)) for r in rows]
        assert row["method"] == "i2acr" and row["status"] == "converged"
        assert row["in_gate"] == "true"
        assert float(row["final_rot_err_deg"]) < cli.GATE_ROT_DEG
        assert float(row["final_trans_err_m"]) < cli.GATE_TRANS_M

    def test_summary_gate_reads_false_off_the_reference(self, tmp_path, capsys):
        # One corrective move from a 25 degree start cannot reach the gate.
        config = tmp_path / "acr.json"
        doc = {
            **cli.default_acr_config(),
            "initial_offset": {"random": {"max_rotation_deg": 25.0, "max_offset_m": 0.4}},
            "acr": {"max_iterations": 1},
            "output_dir": str(tmp_path / "out"),
        }
        config.write_text(json.dumps(doc))
        assert cli.main(["simulate-acr", str(config), "--seed", "1"]) == 0
        report = self._last_json(capsys)
        assert report["status"] == "exhausted"
        with open(report["summary"], newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row["in_gate"] == "false"

    def test_exhausted_summary_reports_the_final_pose(self, tmp_path, monkeypatch, capsys):
        # The last trace record holds the pose before its own move; the
        # summary must report the pose the run ends at.
        executors = []

        def recording(*args, **kwargs):
            executors.append(simulator.SimulatedExecutor(*args, **kwargs))
            return executors[-1]

        monkeypatch.setattr(cli, "SimulatedExecutor", recording)
        config = tmp_path / "acr.json"
        doc = {
            **cli.default_acr_config(),
            "initial_offset": {"random": {"max_rotation_deg": 25.0, "max_offset_m": 0.4}},
            "acr": {"max_iterations": 1},
            "output_dir": str(tmp_path / "out"),
        }
        config.write_text(json.dumps(doc))
        assert cli.main(["simulate-acr", str(config), "--seed", "1"]) == 0
        report = self._last_json(capsys)
        assert report["status"] == "exhausted"
        with open(report["summary"], newline="") as fh:
            [row] = list(csv.DictReader(fh))
        [executor] = executors
        residual = executor.true_residual
        assert row["final_rot_err_deg"] == cli._fmt(rotation_angle(residual.rotation))
        assert row["final_trans_err_m"] == cli._fmt(np.linalg.norm(residual.translation))


class TestSolveScale:
    @staticmethod
    def _inputs(tmp_path, count=40):
        # Exact pairs of points in general position under a known motion.
        rotation = Rotation.about_z(4.0).compose(Rotation.about_x(-3.0))
        direction = np.array([0.6, -0.3, 0.74])
        direction /= np.linalg.norm(direction)
        c, _ = general_pair_set(
            Intrinsics(fx=1100.0, fy=1100.0, cx=640.0, cy=480.0),
            rotation,
            0.08 * direction,
            count=count,
        )
        c.save(tmp_path / "corr.json")
        (tmp_path / "intr.json").write_text(
            json.dumps({"fx": 1100.0, "fy": 1100.0, "cx": 640.0, "cy": 480.0})
        )
        (tmp_path / "pose.json").write_text(
            json.dumps(
                {
                    "r": rotation.matrix.reshape(-1).tolist(),
                    "direction": direction.tolist(),
                }
            )
        )
        return [
            "solve-scale",
            str(tmp_path / "corr.json"),
            "--intrinsics",
            str(tmp_path / "intr.json"),
            "--pose",
            str(tmp_path / "pose.json"),
        ]

    @staticmethod
    def _last_json(capsys):
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    def test_exact_files_solve(self, tmp_path, capsys):
        output = tmp_path / "scale.json"
        code = cli.main(self._inputs(tmp_path) + ["--output", str(output)])
        assert code == 0
        assert self._last_json(capsys)["residual"] < 1e-6
        assert len(json.loads(output.read_text())["depth_ratio_a"]) == 40

    def test_every_pair_of_the_file_is_solved(self, tmp_path, capsys):
        output = tmp_path / "scale.json"
        assert cli.main(self._inputs(tmp_path, count=700) + ["--output", str(output)]) == 0
        doc = json.loads(output.read_text())
        assert len(doc["depth_ratio_a"]) == len(doc["depth_ratio_b"]) == 700

    def test_a_rotation_typed_to_four_decimals_solves(self, tmp_path, capsys):
        argv = self._inputs(tmp_path)
        pose = tmp_path / "pose.json"
        doc = json.loads(pose.read_text())
        pose.write_text(json.dumps({**doc, "r": [round(v, 4) for v in doc["r"]]}))
        assert cli.main(argv) == 0
        assert self._last_json(capsys)["residual"] < 1e-3

    def test_missing_pose_is_missing_input(self, tmp_path, capsys):
        argv = self._inputs(tmp_path)
        argv[argv.index("--pose") + 1] = str(tmp_path / "absent.json")
        code = cli.main(argv)
        assert code == 2
        assert self._last_json(capsys)["error"] == "missing-input"

    def test_pose_without_a_direction_is_invalid_input(self, tmp_path, capsys):
        # A pose file without its direction is malformed.
        argv = self._inputs(tmp_path)
        pose = tmp_path / "pose.json"
        pose.write_text(json.dumps({"r": json.loads(pose.read_text())["r"]}))
        assert cli.main(argv) == 2
        assert self._last_json(capsys) == {
            "error": "invalid-input", "message": "missing pose key: direction"
        }

    def test_a_direction_named_t_is_an_unknown_key(self, tmp_path, capsys):
        argv = self._inputs(tmp_path)
        pose = tmp_path / "pose.json"
        doc = json.loads(pose.read_text())
        pose.write_text(json.dumps({"r": doc["r"], "t": doc["direction"]}))
        assert cli.main(argv) == 2
        assert self._last_json(capsys) == {
            "error": "invalid-input", "message": "unknown pose key(s): t"
        }


def _full_device_argv(command, tmp_path) -> list:
    """A run of ``command`` whose output file is the full device."""
    if command == "match-planes":
        return TestMatchPlanes._inputs(tmp_path) + ["--output", "/dev/full"]
    if command == "solve-scale":
        return TestSolveScale._inputs(tmp_path) + ["--output", "/dev/full"]
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"r_values": [0], "mu_values": [0.3], "trials": 1, "max_iters": 20}))
    return ["bench-noise", str(config), "--output", "/dev/full"]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the full device")
@pytest.mark.parametrize("command", ["match-planes", "solve-scale", "bench-noise"])
def test_an_output_that_cannot_be_written_is_one_json_line(command, tmp_path, capsys):
    # /dev/full passes the output path check and fails the write itself.
    assert cli.main(_full_device_argv(command, tmp_path)) == 2
    out = capsys.readouterr()
    [line] = out.out.splitlines()
    assert json.loads(line) == {
        "error": "write-failure", "message": "cannot write /dev/full: No space left on device"
    }
    assert out.err == ""


_TWO_PAIRS = [[1.0, 2.0, 3.0, 4.0]] * 2


class TestFileInputs:
    """A file command that cannot use an input file exits 2 with the
    error's code, never with a traceback."""

    COMMANDS = {
        "estimate-pose": TestEstimatePose._inputs,
        "match-planes": TestMatchPlanes._inputs,
        "solve-scale": TestSolveScale._inputs,
    }

    @pytest.mark.parametrize("command", ["estimate-pose", "match-planes"])
    @pytest.mark.parametrize("maxval, sample_bytes", [(255, 1), (65535, 2)], ids=["8-bit", "16-bit"])
    def test_truncated_mask_is_invalid_input(self, command, maxval, sample_bytes, tmp_path, capsys):
        # The pixel block is one byte shorter than the header's 8 x 6 samples.
        argv = self.COMMANDS[command](tmp_path)
        path = tmp_path / "short.pgm"
        path.write_bytes(f"P5\n8 6\n{maxval}\n".encode("ascii") + bytes(8 * 6 * sample_bytes - 1))
        if command == "estimate-pose":
            argv += ["--ref-mask", str(path), "--cur-mask", str(path)]
        else:
            argv[argv.index("--ref-mask") + 1] = str(path)
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["error"] == "invalid-input"

    @pytest.mark.parametrize(
        "command, flag, content, error",
        [
            ("solve-scale", "--pose", {"direction": [0.0, 0.0, 1.0]}, "invalid-input"),
            ("solve-scale", "--pose", {"r": [1.0] * 8, "t": [0.0, 0.0, 1.0]}, "invalid-input"),
            ("solve-scale", "--pose", [1.0, 0.0, 0.0], "invalid-input"),
            ("solve-scale", "--pose", "{not json", "invalid-input"),
            ("solve-scale", "--intrinsics", "{not json", "invalid-input"),
            ("solve-scale", None, {}, "invalid-input"),
            ("solve-scale", None, [[1.0, 2.0, 3.0, 4.0]], "invalid-input"),
            ("solve-scale", None, "{not json", "invalid-input"),
            ("solve-scale", None, None, "missing-input"),
            ("estimate-pose", None, {}, "invalid-input"),
            ("estimate-pose", None, [], "invalid-input"),
            ("estimate-pose", None, "{not json", "invalid-input"),
            ("estimate-pose", "--intrinsics", "{not json", "invalid-input"),
            ("estimate-pose", None, None, "missing-input"),
            ("match-planes", None, {"track_id": [0]}, "invalid-input"),
            ("match-planes", None, {"pairs": [["x", 1.0, 2.0, 3.0]]}, "invalid-input"),
            ("match-planes", None, None, "missing-input"),
            # Track ids key the track joins and depth maps, so a file's
            # ids must be distinct integers, never truncated floats.
            ("match-planes", None, {"pairs": _TWO_PAIRS, "track_id": [1.5, 1.9]}, "invalid-input"),
            ("estimate-pose", None, {"pairs": _TWO_PAIRS, "track_id": [4, 4]}, "invalid-input"),
            ("solve-scale", None, {"pairs": _TWO_PAIRS, "track_id": [1.0, 2]}, "invalid-input"),
            ("solve-scale", None, {"pairs": _TWO_PAIRS[:1], "track_id": [True]}, "invalid-input"),
            ("solve-scale", None, {"pairs": _TWO_PAIRS[:1], "track_id": [2**64]}, "invalid-input"),
            ("solve-scale", None, {"pairs": _TWO_PAIRS[:1], "track_id": 3}, "invalid-input"),
        ],
    )
    def test_unusable_file_is_a_typed_error(self, command, flag, content, error, tmp_path, capsys):
        """``content`` is written as JSON, a string verbatim, None not at all."""
        argv = self.COMMANDS[command](tmp_path)
        path = tmp_path / "input.json"
        if isinstance(content, str):
            path.write_text(content)
        elif content is not None:
            path.write_text(json.dumps(content))
        argv[1 if flag is None else argv.index(flag) + 1] = str(path)
        if command == "estimate-pose":
            argv += ["--method", "epipolar"]
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["error"] == error


def _raw_json(doc) -> str:
    """``doc`` as JSON text, each string ``"@token"`` written as the bare
    token: NaN, Infinity, 1e400 or a 400-digit integer."""
    return re.sub(r'"@([^"]*)"', r"\1", json.dumps(doc))


def _set(doc, path: tuple, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


_LISTED_SCENE = {
    "planes": [
        {"normal": [0, 0, 1], "offset": 1.0, "half_extents": [0.3, 0.2], "center": [0, 0, 1]}
    ],
    "clutter_count": 5,
    "clutter_box": [[-1, 1], [-1, 1], [1, 2]],
}
_PLANE = ("scene", "planes", 0)
_IDENTITY = [1, 0, 0, 0, 1, 0, 0, 0, 1]
_REFLECTION = [1, 0, 0, 0, 1, 0, 0, 0, -1]
_BOW_TIE = [[0, 0], [0.1, 0.1], [0.1, 0], [0, 0.1]]

# Inputs that a typo, a non-finite number or a size outside its range once
# let through to a traceback, to a run that cannot succeed, or to a run of
# the wrong experiment: (command, the input edited, key path, value, exit
# code, the message).  A non-finite number is refused with its key path and
# file.  A size is probed one past its bound only, never far past it: code
# without the bound would try to allocate what it names.
PROBES = {
    "random-rotation-nan": (
        "simulate-acr", "config", ("initial_offset", "random", "max_rotation_deg"), "@NaN", 1,
        "initial_offset.random.max_rotation_deg must be a finite number, got NaN",
    ),
    "random-offset-infinity": (
        "simulate-acr", "config", ("initial_offset", "random", "max_offset_m"), "@Infinity", 1,
        "initial_offset.random.max_offset_m must be a finite number, got Infinity",
    ),
    "hand-eye-r-nan": (
        "simulate-acr", "config", ("rig", "hand_eye", "r", 0), "@NaN", 1,
        "rig.hand_eye.r[0] must be a finite number, got NaN",
    ),
    "half-extents-infinity": (
        "simulate-acr", "config", (*_PLANE, "half_extents"), ["@Infinity", 0.1], 1,
        "scene.planes[0].half_extents[0] must be a finite number, got Infinity",
    ),
    "clutter-box-nan": (
        "simulate-acr", "config", ("scene", "clutter_box", 0, 1), "@NaN", 1,
        "scene.clutter_box[0][1] must be a finite number, got NaN",
    ),
    "offset-400-digits": (
        "simulate-acr", "config", (*_PLANE, "offset"), "@" + "1" * 400, 1,
        "scene.planes[0].offset must be a finite number, got 111",
    ),
    "epsilon-1e400": (
        "simulate-acr", "config", ("acr", "scale_epsilon"), "@1e400", 1,
        "acr.scale_epsilon must be a finite number, got 1e400",
    ),
    "cx-nan": (
        "simulate-acr", "config", ("rig", "intrinsics", "cx"), "@NaN", 1,
        "rig.intrinsics.cx must be a finite number, got NaN",
    ),
    "fx-infinity": (
        "simulate-acr", "config", ("rig", "intrinsics", "fx"), "@Infinity", 1,
        "rig.intrinsics.fx must be a finite number, got Infinity",
    ),
    "offset-nan": (
        "simulate-acr", "config", (*_PLANE, "offset"), "@NaN", 1,
        "scene.planes[0].offset must be a finite number, got NaN",
    ),
    "offset-infinity": (
        "simulate-acr", "config", (*_PLANE, "offset"), "@Infinity", 1,
        "scene.planes[0].offset must be a finite number, got Infinity",
    ),
    "normal-nan": (
        "simulate-acr", "config", (*_PLANE, "normal", 1), "@NaN", 1,
        "scene.planes[0].normal[1] must be a finite number, got NaN",
    ),
    "center-nan": (
        "simulate-acr", "config", (*_PLANE, "center", 2), "@NaN", 1,
        "scene.planes[0].center[2] must be a finite number, got NaN",
    ),
    "misspelled-initial-offset": (
        "simulate-acr", "config", ("intial_offset",), {"r": _IDENTITY, "t": [0.1, 0, 0]}, 1,
        "unknown configuration key(s): intial_offset",
    ),
    "misspelled-hand-eye": (
        "simulate-acr", "config", ("rig", "handeye"), {"r": _IDENTITY, "t": [0.1, 0, 0]}, 1,
        "unknown rig key(s): handeye",
    ),
    "misspelled-half-extents": (
        "simulate-acr", "config", (*_PLANE, "half_extent"), [0.05, 0.05], 1,
        "unknown scene.planes[0] key(s): half_extent",
    ),
    "motion-r-nan": (
        "bench-noise", "config", ("motion", "r", 8), "@NaN", 1,
        "motion.r[8] must be a finite number, got NaN",
    ),
    "bench-cx-infinity": (
        "bench-noise", "config", ("intrinsics", "cx"), "@Infinity", 1,
        "intrinsics.cx must be a finite number, got Infinity",
    ),
    "i2pe-pair-nan": (
        "i2pe", "corr.json", ("pairs", 0, 1), "@NaN", 2,
        "pairs[0][1] must be a finite number, got NaN",
    ),
    "epipolar-pair-infinity": (
        "epipolar", "corr.json", ("pairs", 0, 1), "@Infinity", 2,
        "pairs[0][1] must be a finite number, got Infinity",
    ),
    "match-planes-pair-nan": (
        "match-planes", "corr.json", ("pairs", 0, 1), "@NaN", 2,
        "pairs[0][1] must be a finite number, got NaN",
    ),
    "intrinsics-file-cx-nan": (
        "epipolar", "intr.json", ("cx",), "@NaN", 2, ": cx must be a finite number, got NaN",
    ),
    "pose-direction-nan": (
        "solve-scale", "pose.json", ("direction", 0), "@NaN", 2,
        ": direction[0] must be a finite number, got NaN",
    ),
    "pose-r-nan": (
        "solve-scale", "pose.json", ("r", 4), "@NaN", 2, ": r[4] must be a finite number, got NaN",
    ),
    "rig-image-side-past-bound": (
        "simulate-acr", "config", ("rig", "image_size"), [16385, 960], 1,
        "rig.image_size[0] must be an integer in 1..16384, got 16385",
    ),
    "bench-image-side-past-bound": (
        "bench-noise", "config", ("image_size",), [5760, 16385], 1,
        "image_size[1] must be an integer in 1..16384, got 16385",
    ),
    "plane-count-past-bound": (
        "simulate-acr", "config", (*_PLANE, "count"), 1_000_001, 1,
        "scene.planes[0].count must be an integer in 0..1000000, got 1000001",
    ),
    "clutter-count-past-bound": (
        "simulate-acr", "config", ("scene", "clutter_count"), 1_000_001, 1,
        "scene.clutter_count must be an integer in 0..1000000, got 1000001",
    ),
    "clutter-count-negative": (
        "simulate-acr", "config", ("scene", "clutter_count"), -1, 1,
        "scene.clutter_count must be an integer in 0..1000000, got -1",
    ),
    "plane-normal-zero": (
        "simulate-acr", "config", (*_PLANE, "normal"), [0, 0, 0], 1, "plane normal must be nonzero",
    ),
    "plane-half-extent-zero": (
        "simulate-acr", "config", (*_PLANE, "half_extents"), [0.0, 0.2], 1,
        "degenerate polygon extents",
    ),
    "plane-bow-tie": (
        "simulate-acr", "config", (*_PLANE, "polygon"), _BOW_TIE, 1, "strictly convex",
    ),
    "plane-two-vertices": (
        "simulate-acr", "config", (*_PLANE, "polygon"), [[0, 0], [0.1, 0]], 1, "at least 3",
    ),
    "bench-plane-bow-tie": (
        "bench-noise", "config", ("scene",),
        {"planes": [{"normal": [0, 0, 1], "offset": 1.5, "polygon": _BOW_TIE}]}, 1,
        "strictly convex",
    ),
    "hand-eye-r-zero": (
        "simulate-acr", "config", ("rig", "hand_eye", "r"), [0] * 9, 1,
        "rig.hand_eye.r must be a rotation matrix",
    ),
    "hand-eye-r-reflection": (
        "simulate-acr", "config", ("rig", "hand_eye", "r"), _REFLECTION, 1,
        "rig.hand_eye.r must be a rotation matrix",
    ),
    "hand-eye-r-doubled": (
        "simulate-acr", "config", ("rig", "hand_eye", "r"), [2 * v for v in _IDENTITY], 1,
        "rig.hand_eye.r must be a rotation matrix",
    ),
    "motion-r-reflection": (
        "bench-noise", "config", ("motion", "r"), _REFLECTION, 1, "motion.r must be a rotation matrix",
    ),
    "pose-r-reflection": (
        "solve-scale", "pose.json", ("r",), _REFLECTION, 2, "pose.r must be a rotation matrix",
    ),
    "pose-r-zero": (
        "solve-scale", "pose.json", ("r",), [0] * 9, 2, "pose.r must be a rotation matrix",
    ),
}

# What a command runs once its inputs are read.
_WORK = (
    "SimulatedExecutor",
    "generate_scene",
    "bench_noise_sweep",
    "i2pe",
    "estimate_epipolar",
    "estimate_homography_ransac",
    "match_plane_maps",
    "erode_mask",
    "solve_scale_system",
)


class _Reached(Exception):
    """Raised by a stub of the work a command runs after reading its inputs."""


def _stub_work(monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    for name in _WORK:
        monkeypatch.setattr(cli, name, reached)


def _probe_argv(command, tmp_path) -> list:
    """The arguments of ``command`` on valid input files in ``tmp_path``."""
    if command in ("simulate-acr", "bench-noise"):
        if command == "simulate-acr":
            doc = cli.default_acr_config()
            doc["rig"]["hand_eye"] = {"r": _IDENTITY, "t": [0.05, 0, 0]}
            doc["scene"] = _LISTED_SCENE
        else:
            doc = {
                "motion": simulator.BENCH_MOTION.to_json_dict(),
                "intrinsics": dataclasses.asdict(simulator.CANON_INTRINSICS),
            }
        (tmp_path / "config").write_text(json.dumps(doc))
        return [command, str(tmp_path / "config"), "--seed", "0"]
    if command == "match-planes":
        return TestMatchPlanes._inputs(tmp_path)
    if command == "solve-scale":
        return TestSolveScale._inputs(tmp_path)
    masks = []
    for name in ("ref.pgm", "cur.pgm"):
        PlaneSegmentMap(TestMatchPlanes._squares()).save(tmp_path / name)
        masks += [f"--{name[:3]}-mask", str(tmp_path / name)]
    return TestEstimatePose._inputs(tmp_path) + ["--method", command] + masks


@pytest.mark.parametrize("probe", list(PROBES))
def test_probed_input_is_invalid_before_any_work(probe, tmp_path, monkeypatch, capsys):
    command, name, path, value, code, message = PROBES[probe]
    argv = _probe_argv(command, tmp_path)
    _stub_work(monkeypatch)
    edited = tmp_path / name
    doc = json.loads(edited.read_text())
    _set(doc, path, value)
    edited.write_text(_raw_json(doc))
    assert cli.main(argv) == code
    [line] = capsys.readouterr().out.splitlines()
    report = json.loads(line)
    assert report["error"] == "invalid-input"
    assert message in report["message"]
    if "finite" in message:
        assert report["message"].startswith(f"{edited}: ")


def test_the_module_runs_as_a_process(tmp_path):
    # ``python -m acrkit.cli`` reaches main through the module's last line:
    # a bad flag exits 1 with one JSON line on stdout and nothing on stderr.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "acrkit.cli", "bench-noise", "--seed", "-1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1
    [line] = out.stdout.splitlines()
    assert json.loads(line) == {
        "error": "invalid-input", "message": "--seed must be a non-negative integer, got -1"
    }
    assert out.stderr == ""


@pytest.mark.parametrize(
    "command, table", [("simulate-acr", "ACR_KEYS"), ("bench-noise", "BENCH_KEYS")]
)
def test_printed_schema_keys_are_the_keys_read(command, table, tmp_path, monkeypatch, capsys):
    # Every key the schema prints, each at its default, reaches the work;
    # one more key in any printed object is refused.
    table = getattr(cli, table)
    assert cli.main([command, "--print-schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    objects = []

    def at_defaults(schema, table, given, path):
        # A required key takes the value of its enclosing object's default.
        assert set(schema) == set(table)
        objects.append(path)
        doc = {}
        for key, text in schema.items():
            _, default, nested = table[key]
            default = given[key] if default is cli.REQUIRED else default
            nested_doc = isinstance(text, dict)
            doc[key] = at_defaults(text, nested, default, path + (key,)) if nested_doc else default
        return doc

    full = at_defaults(schema, table, {}, ())
    assert len(objects) == (6 if command == "simulate-acr" else 1)
    _stub_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(full))
    with pytest.raises(_Reached):
        cli.main([command, str(config)])
    for path in objects:
        doc = json.loads(json.dumps(full))
        _set(doc, path + ("extra_key",), 0)
        config.write_text(json.dumps(doc))
        assert cli.main([command, str(config)]) == 1
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["error"] == "invalid-input"
        assert report["message"] == f"unknown {'.'.join(path) or 'configuration'} key(s): extra_key"


class TestBenchFlags:
    def test_flags_override_the_config(self, monkeypatch, tmp_path, capsys):
        calls = []
        monkeypatch.setattr(
            cli, "bench_noise_sweep", lambda *args, **kwargs: calls.append((args, kwargs)) or []
        )
        config = tmp_path / "bench.json"
        in_config = tmp_path / "config.csv"
        doc = {"r_values": [4], "mu_values": [0.5], "trials": 2, "seed": 3, "output": str(in_config)}
        config.write_text(json.dumps(doc))
        flagged = tmp_path / "flag.csv"
        argv = ["bench-noise", str(config)]
        assert cli.main(argv + ["--trials", "1", "--seed", "5", "--output", str(flagged)]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["csv"] == str(flagged)
        assert flagged.exists() and not in_config.exists()
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["csv"] == str(in_config)
        assert [(args[4], kwargs["seed"]) for args, kwargs in calls] == [(1, 5), (2, 3)]

    def test_zero_trials_flag_is_invalid_input(self, monkeypatch, tmp_path, capsys):
        _stub_work(monkeypatch)
        code = cli.main(["bench-noise", "--trials", "0", "--output", str(tmp_path / "b.csv")])
        assert code == 1
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["error"] == "invalid-input" and "--trials" in report["message"]


@pytest.mark.parametrize("method", ["i2pe", "epipolar"])
def test_estimate_pose_output_is_a_solve_scale_pose(method, tmp_path, capsys):
    # The pose file holds r, direction and zero_motion, and solve-scale
    # reads it back for the same correspondences.
    argv, _ = TestEstimatePose._corner_inputs(tmp_path)
    assert cli.main(argv + ["--method", method]) == 0
    pose = tmp_path / "pose.json"
    assert set(json.loads(pose.read_text())) == {"r", "direction", "zero_motion"}
    corr, intr = str(tmp_path / "corr.json"), str(tmp_path / "intr.json")
    assert cli.main(["solve-scale", corr, "--intrinsics", intr, "--pose", str(pose)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(report) == {"residual", "s"}


# Each file argument of each command, with a path that cannot serve in its
# place: (command, the argument, what stands in for it, exit code, error
# code).  The argument is the position of a positional file, a flag, or a
# key of the command's config file.  An input file is a directory; an
# output file lies in a directory that does not exist, lies under a plain
# file, or names a directory itself or in its report; ``output_dir`` names
# a plain file or lies under one.
FILE_ARGUMENTS = {
    "estimate-pose-correspondences": ("i2pe", 1, "directory", 2, "missing-input"),
    "estimate-pose-intrinsics": ("i2pe", "--intrinsics", "directory", 2, "missing-input"),
    "estimate-pose-ref-mask": ("i2pe", "--ref-mask", "directory", 2, "missing-input"),
    "estimate-pose-cur-mask": ("i2pe", "--cur-mask", "directory", 2, "missing-input"),
    "match-planes-correspondences": ("match-planes", 1, "directory", 2, "missing-input"),
    "match-planes-ref-mask": ("match-planes", "--ref-mask", "directory", 2, "missing-input"),
    "match-planes-cur-mask": ("match-planes", "--cur-mask", "directory", 2, "missing-input"),
    "solve-scale-correspondences": ("solve-scale", 1, "directory", 2, "missing-input"),
    "solve-scale-intrinsics": ("solve-scale", "--intrinsics", "directory", 2, "missing-input"),
    "solve-scale-pose": ("solve-scale", "--pose", "directory", 2, "missing-input"),
    "simulate-acr-config": ("simulate-acr", 1, "directory", 1, "invalid-input"),
    "bench-noise-config": ("bench-noise", 1, "directory", 1, "invalid-input"),
    "estimate-pose-output": ("epipolar", "--output", "missing-directory", 1, "invalid-input"),
    "estimate-pose-output-directory": ("i2pe", "--output", "directory", 1, "invalid-input"),
    "estimate-pose-report-directory": ("i2pe", "--output", "report-directory", 1, "invalid-input"),
    "match-planes-output": ("match-planes", "--output", "missing-directory", 1, "invalid-input"),
    "solve-scale-output": ("solve-scale", "--output", "missing-directory", 1, "invalid-input"),
    "solve-scale-output-under-file": ("solve-scale", "--output", "under-file", 1, "invalid-input"),
    "bench-noise-output-flag": ("bench-noise", "--output", "missing-directory", 1, "invalid-input"),
    "bench-noise-output-key": ("bench-noise", "output", "missing-directory", 1, "invalid-input"),
    "simulate-acr-output-dir-file": ("simulate-acr", "output_dir", "file", 1, "invalid-input"),
    "simulate-acr-output-dir-under-file": (
        "simulate-acr", "output_dir", "under-file", 1, "invalid-input"
    ),
}


def _stand_in(kind, tmp_path) -> str:
    """A path of ``kind`` (see FILE_ARGUMENTS) in ``tmp_path``."""
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_dir_report.json").mkdir()
    (tmp_path / "a_file").write_text("")
    names = {
        "directory": "a_dir",
        "missing-directory": "absent/out",
        "report-directory": "a_dir.json",
        "file": "a_file",
        "under-file": "a_file/out",
    }
    return str(tmp_path / names[kind])


@pytest.mark.parametrize("case", list(FILE_ARGUMENTS))
def test_a_file_argument_that_cannot_serve_is_one_json_line(case, tmp_path, monkeypatch, capsys):
    command, argument, kind, code, error = FILE_ARGUMENTS[case]
    argv = _probe_argv(command, tmp_path)
    _stub_work(monkeypatch)
    monkeypatch.chdir(tmp_path)  # the default output paths are relative
    path = _stand_in(kind, tmp_path)
    if isinstance(argument, int):
        argv[argument] = path
    elif argument in argv:
        argv[argv.index(argument) + 1] = path
    elif argument.startswith("--"):
        argv += [argument, path]
    else:
        doc = json.loads((tmp_path / "config").read_text())
        (tmp_path / "config").write_text(json.dumps({**doc, argument: path}))
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    [line] = out.splitlines()
    report = json.loads(line)
    assert (report["error"], err) == (error, "")
    # An input file is named by its path, an output by its flag or key.
    named = path if error == "missing-input" or isinstance(argument, int) else argument
    assert named in report["message"]
