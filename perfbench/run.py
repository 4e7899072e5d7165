"""Relocalization benchmark: one workload per call, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload reloc-noisy --seed 0 --seconds 10 --trace 0

``--trace 0`` measures for about ``--seconds`` seconds in whole passes over
the workload's inputs and reports the end-to-end metrics.  ``--trace 1``
makes one untraced and one traced pass and reports the per-layer metrics,
including the tracing overhead.  The lines before the last one give every
workload-specific figure by name and unit, the environment and the outcome
digest; the last line is the result object.  Results, and the spans of a
traced run, are also written under ``.perfbench_out/``.  See NOTES.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ACRKIT_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("reloc-clean", "reloc-noisy", "noise-sweep")


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "acrkit" / "__init__.py").is_file():
        print(f"perfbench: no acrkit sources under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded, set before numpy loads: pinned OpenBLAS is both
    # faster and steadier on this code than its thread pool.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import acrkit  # noqa: F401
    import acrkit.cli  # noqa: F401
    import acrkit.simulator  # noqa: F401

    import_s = perf_counter() - start
    if SRC not in Path(acrkit.__file__).resolve().parents:
        print(f"perfbench: acrkit imported from {acrkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness

    result = harness.run(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s
    )
    env = harness.environment(THREAD_VARS)

    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}"
        f" passes={result.passes} correct={result.correct}"
    )
    threads = ",".join(f"{k}={v}" for k, v in env["threads"].items())
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads") + f" {threads}")
    for name, metric in result.report.items():
        print(f"report {name} = {_fmt(metric['value'])} {metric['unit']}")
    for line in result.details.get("checks", ()):
        print(f"check {line}")
    print(f"digest {result.digest}")
    for problem in result.problems:
        print(f"problem {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "passes": result.passes,
        "digest": result.digest,
        "problems": result.problems,
        "report": result.report,
        "metrics": result.metrics,
        **result.details,
    }
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1, default=float))
    if result.tracer is not None:
        result.tracer.save_jsonl(stem.with_suffix(".spans.jsonl"))

    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
