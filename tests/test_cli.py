"""Command-line entry points, driven through ``cli.main``."""

from __future__ import annotations

import json

from acrkit import cli, simulator
from acrkit.simulator import BenchRow


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
