"""Fast smoke test of the benchmark harness.

Runs one scenario per loop workload and a one-cell sweep, untraced and
traced.  Run from the repository root with::

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from acrkit import acr_loop  # noqa: E402
from acrkit.plane_match import PlaneGraph  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "reloc-clean": harness.LoopWorkload(noise=harness.WORKLOADS["reloc-clean"].noise, scenarios=(0,)),
    "reloc-noisy": harness.LoopWorkload(noise=harness.WORKLOADS["reloc-noisy"].noise, scenarios=(4,)),
    "noise-sweep": harness.SweepWorkload(r_values=(10,), mu_values=(0.5,), trials=1),
}


def _units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_declared_workloads_and_metrics_match_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(harness.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_reports_every_metric(name):
    workload = SMALL[name]
    result = harness.run(workload, seed=0, seconds=0.001, trace=False, import_s=0.0)
    assert result.correct, result.problems
    assert result.passes == 1 and result.attempted >= 1 and result.failed == 0
    assert _units(result.metrics) == harness.END_TO_END
    assert all(m["value"] > 0 for m in result.metrics.values())
    assert _units(result.report) == workload.report_units


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_layer_and_restores_names(name):
    originals = (acr_loop.solve_scale_system, vars(PlaneGraph)["from_mask"])
    result = harness.run(SMALL[name], seed=0, seconds=0.001, trace=True, import_s=0.0)
    assert result.correct, result.problems
    assert _units(result.metrics) == harness.PER_LAYER
    assert (acr_loop.solve_scale_system, vars(PlaneGraph)["from_mask"]) == originals

    own = result.tracer.self_times()
    assert min(own) >= -1e-9
    # Self times partition the traced calls, which the pass wall encloses.
    assert sum(own) <= result.pass_wall_s[1]


class _FixedProbe(tracing.SpeedProbe):
    """A probe whose every sample reads ``reading`` seconds."""

    def __init__(self, reading):
        super().__init__()
        self.reading = reading

    def run(self):
        self.samples.append(self.reading)


@pytest.mark.parametrize("slowdown", [1.0, 2.0])
def test_clock_rescales_intervals_by_the_probe(slowdown):
    probe = _FixedProbe(tracing.SpeedProbe.REFERENCE_S * slowdown)
    clock = tracing.ObservationClock(probe)
    observe = clock.timed(lambda: sum(range(10000)))
    clock.start()
    for _ in range(3):
        observe()
        sum(range(20000))
    clock.stop()
    assert clock.observations == 3 and len(clock.gaps) == 3
    assert len(probe.samples) == 5  # start, three observations, stop
    assert clock.gaps_ref == pytest.approx([g / slowdown for g in clock.gaps])
    assert clock.wall_ref_s == pytest.approx(clock.wall_s / slowdown)
    assert sum(clock.gaps) < clock.wall_s
