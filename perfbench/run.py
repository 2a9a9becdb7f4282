"""Repository benchmark: host time of the STAR datapath and fleet simulator.

Run one workload (the last line of standard output is the JSON result)::

    python3 perfbench/run.py --workload softmax_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
variant and prints the per-layer metrics, and writes every span to
``perfbench/out/``.  ``--workload all`` runs every workload, each in its own
process, and prints all their metrics.  The workloads and metrics are
described in ``BENCHMARK.json`` and ``perfbench/spec.json``.
"""

from __future__ import annotations

import os

# BLAS / OpenMP pools must be sized before NumPy is first imported: one
# thread keeps timings steady on a shared machine (always <= nproc).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOAD_NAMES = list(SPEC["workloads"])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=SPEC["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    run = harness.traced_run if args.trace else harness.untraced_run
    outcome = run(cls, args.seed, args.seconds)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": harness.provenance(),
        **outcome["details"],
        "metrics": metrics,
    }
    if args.trace:
        record["ratio_bases"] = harness.ratio_bases(outcome["metrics"], outcome["details"]["totals"])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(outcome["spans"]))

    for name, entry in metrics.items():
        print(f"{args.workload}  {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({k: v for k, v in record.items() if k not in ("metrics", "call_ms", "raw_call_ms", "host_slowdown")}))
    correct = outcome["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
