"""Command-line entry points, driven through ``cli.main``."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from acrkit import cli, fusion, simulator
from acrkit.acr_loop import AcrConfig
from acrkit.fusion import I2peConfig, i2pe, reselect_candidates
from acrkit.plane_match import PlaneSegmentMap
from acrkit.pose_estimation import CorrespondenceSet
from acrkit.geometry import Intrinsics, Pose, Rotation
from acrkit.simulator import BenchRow
from conftest import general_pair_set, plane_pair_set


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


class TestMatchPlanes:
    @staticmethod
    def _inputs(tmp_path):
        # Two 20 px squares side by side in both masks; the correspondences
        # cross them, so the assignment must pair each with the other.
        lab = np.zeros((30, 60), dtype=np.int32)
        lab[5:25, 5:25] = 1
        lab[5:25, 35:55] = 2
        for name in ("ref.pgm", "cur.pgm"):
            PlaneSegmentMap(lab).save(tmp_path / name)
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

    def test_pairs_after_default_erosion(self, tmp_path, capsys):
        code = cli.main(self._inputs(tmp_path))
        assert code == 0
        assert sorted(self._last_json(capsys)["pairs"]) == [[1, 2], [2, 1]]

    def test_negative_erosion_is_invalid_input(self, tmp_path, capsys):
        code = cli.main(self._inputs(tmp_path) + ["--erosion", "-1"])
        assert code == 2
        assert self._last_json(capsys)["error"] == "invalid-input"

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

    def test_i2pe_without_masks_is_missing_input(self, tmp_path, capsys):
        code = cli.main(self._inputs(tmp_path) + ["--method", "i2pe"])
        assert code == 2
        assert self._last_json(capsys)["error"] == "missing-input"

    def test_i2pe_writes_the_agreed_fusion(self, tmp_path, capsys):
        # A corner observation with both masks: the pose is the agreement
        # choice fused, and the report holds one hypothesis per fused pair.
        world = simulator.generate_scene(simulator.corner_scene(seed=1))
        offset = Pose(Rotation.about_z(5.0), np.array([0.03, -0.02, 0.025]))
        intr = simulator.DESK_INTRINSICS
        obs = simulator.observe(world, offset, intr, simulator.DESK_IMAGE_SIZE, seed=3)
        obs.correspondences.save(tmp_path / "corr.json")
        obs.mask_ref.save(tmp_path / "ref.pgm")
        obs.mask_cur.save(tmp_path / "cur.pgm")
        (tmp_path / "intr.json").write_text(
            json.dumps({"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy})
        )
        code = cli.main(
            [
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
        )
        assert code == 0
        paths = self._last_json(capsys)
        expected = reselect_candidates(
            i2pe(
                CorrespondenceSet.load(tmp_path / "corr.json"),
                PlaneSegmentMap.load(tmp_path / "ref.pgm"),
                PlaneSegmentMap.load(tmp_path / "cur.pgm"),
                cli._intrinsics_from(json.loads((tmp_path / "intr.json").read_text())),
            ),
            fusion._select_consistent,
        )
        assert json.loads(Path(paths["pose"]).read_text()) == {
            "r": expected.pose.rotation.matrix.reshape(-1).tolist(),
            "direction": expected.pose.direction.tolist(),
            "zero_motion": expected.zero_motion,
        }
        report = json.loads(Path(paths["report"]).read_text())
        assert report["plane_pairs"] == [list(pair) for pair in expected.plane_pairs]
        assert len(report["hypotheses"]) == len(expected.plane_pairs) == 3
        assert [[h["ref_plane"], h["cur_plane"]] for h in report["hypotheses"]] == report[
            "plane_pairs"
        ]

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

    def test_removed_key_is_invalid_input(self, tmp_path, monkeypatch, capsys):
        message = self._rejected(
            {"i2pe": {"fusion": "winner"}}, tmp_path, monkeypatch, capsys
        )
        assert "acr.i2pe" in message and "fusion" in message

    @pytest.mark.parametrize(
        "acr_doc, key",
        [
            ({"max_iterations": "x"}, "acr.max_iterations"),
            ({"scale_epsilon": "x"}, "acr.scale_epsilon"),
            ({"init_translation": 5}, "acr.init_translation"),
            ({"min_scale_points": "x"}, "acr.min_scale_points"),
        ],
    )
    def test_wrongly_typed_value_is_invalid_input(
        self, acr_doc, key, tmp_path, monkeypatch, capsys
    ):
        assert key in self._rejected(acr_doc, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "i2pe_doc, key",
        [({"erosion_radius": -1}, "erosion_radius"), ({"edge_sigma_frac": 0}, "edge_sigma_frac")],
    )
    def test_out_of_range_i2pe_value_is_invalid_input(
        self, i2pe_doc, key, tmp_path, monkeypatch, capsys
    ):
        message = self._rejected({"i2pe": i2pe_doc}, tmp_path, monkeypatch, capsys)
        assert key in message

    @pytest.mark.parametrize(
        "acr_doc, key",
        [
            ({"init_translation": [0, 0, 0]}, "init_translation"),
            ({"max_scale_points": 4}, "max_scale_points"),
            ({"min_scale_points": 3}, "min_scale_points"),
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
            ("noise", {"magnitud_r": 5}, "magnitud_r"),
            ("lighting", {"dropout_fraction": "lots"}, "lighting.dropout_fraction"),
            ("lighting", [], "lighting"),
        ],
        ids=["negative-noise", "misspelled-noise-key", "untyped-lighting", "lighting-list"],
    )
    def test_bad_noise_or_lighting_is_invalid_input(
        self, section, doc, key, tmp_path, monkeypatch, capsys
    ):
        assert key in self._rejected(doc, tmp_path, monkeypatch, capsys, section)

    def test_every_field_accepted_at_its_default(self):
        # Every field of AcrConfig and of its nested I2peConfig, as JSON.
        doc = json.loads(json.dumps(dataclasses.asdict(AcrConfig())))
        assert set(doc["i2pe"]) == {f.name for f in dataclasses.fields(I2peConfig)}
        assert cli._acr_config_from(doc) == AcrConfig()
        schema = cli.ACR_SCHEMA["acr"]
        assert set(schema) == set(doc)
        assert set(schema["i2pe"]) == set(doc["i2pe"])

    def test_default_config_converges(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the bundled config writes to acr_out/
        code = cli.main(["simulate-acr", "--seed", "0"])
        assert code == 0
        report = self._last_json(capsys)
        assert report["status"] == "converged"
        assert Path(report["trace"]).is_file()
        assert Path(report["summary"]).read_text().splitlines()[1].startswith("i2acr,converged,")


class TestSolveScale:
    @staticmethod
    def _inputs(tmp_path):
        # Exact pairs of points in general position under a known motion.
        rotation = Rotation.about_z(4.0).compose(Rotation.about_x(-3.0))
        direction = np.array([0.6, -0.3, 0.74])
        direction /= np.linalg.norm(direction)
        c, _ = general_pair_set(
            Intrinsics(fx=1100.0, fy=1100.0, cx=640.0, cy=480.0),
            rotation,
            0.08 * direction,
            count=40,
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

    def test_missing_pose_is_missing_input(self, tmp_path, capsys):
        argv = self._inputs(tmp_path)
        argv[argv.index("--pose") + 1] = str(tmp_path / "absent.json")
        code = cli.main(argv)
        assert code == 2
        assert self._last_json(capsys)["error"] == "missing-input"
