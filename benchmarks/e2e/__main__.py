"""Command line: ``run`` workloads, ``compare`` two sets of results.

::

    python -m benchmarks.e2e run --workload csv-events-pipe --seed 1
    python -m benchmarks.e2e run --seed 1 --out results/a   # all four
    python -m benchmarks.e2e run --workload sim-weaver --seed 1 --trace-out t/
    python -m benchmarks.e2e compare results/a results/b

``run`` prints every metric by name and unit, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
``per_layer`` metrics.  It exits 1 when a pass or check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import ROOT


def _result_line(document: dict, declared: dict) -> dict:
    if document["trace"]:
        section, measured = "per_layer", document.get("per_layer", {})
    else:
        section, measured = "end_to_end", document["metrics"]
    metrics = {}
    for metric in declared[section]:
        if metric["name"] in measured:
            metrics[metric["name"]] = {
                "value": measured[metric["name"]]["value"],
                "unit": metric["unit"],
            }
    return {
        "correct": document["correct"] and len(metrics) == len(declared[section]),
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }


def _print_summary(document: dict, declared: dict) -> None:
    print(
        f"{document['workload']}  seed {document['seed']}  "
        f"{document['passes']['measured']} measured passes "
        f"({document['passes']['traced']} traced) in {document['seconds']:g} s, "
        f"{document['failed']}/{document['attempted']} failed"
    )
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in declared["per_layer"]})
    for name, stats in document["metrics"].items():
        print(
            f"  {name:<22} {stats['value']:>14.6g} {units[name]:<9} "
            f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n {stats['n']}"
        )
    for name, stats in document["extras"].items():
        samples = f"  samples {stats['samples']}" if "samples" in stats else ""
        print(f"  {name:<22} {stats['value']:>14.6g} {stats['unit']}{samples}")
    for name, stats in document.get("per_layer", {}).items():
        print(f"  {name:<30} {stats['value']:>14.6g} {units.get(name, '')}")
    for problem in document["problems"]:
        print(f"  problem: {problem}")
    for warning in document.get("warnings", ()):
        print(f"  warning: {warning}")


def _write_result(document: dict, out: Path) -> None:
    from repro.perfdb.provenance import machine_info, snapshot_provenance

    # Keep git's repository discovery inside the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    provenance = snapshot_provenance(cwd=str(ROOT))
    document = dict(
        document,
        machine=machine_info(),
        nproc=os.cpu_count(),
        provenance=provenance,
        baseline_eligible=provenance["git_dirty"] is False,
    )
    out.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if document["trace"] else ""
    path = out / f"{document['workload']}-seed{document['seed']}{suffix}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def _run_one(args, declared: dict) -> int:
    from benchmarks.e2e.runner import run_workload

    document = run_workload(
        args.workload[0],
        args.seed,
        args.seconds,
        trace=bool(args.trace) or args.trace_out is not None,
        trace_out=args.trace_out,
    )
    _print_summary(document, declared)
    if args.out is not None:
        _write_result(document, args.out)
    line = _result_line(document, declared)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def _run_each(args, names: list[str]) -> int:
    """Each workload in its own fresh Python process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        command = [
            sys.executable, "-m", "benchmarks.e2e", "run",
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace_out is not None:
            command += ["--trace-out", str(args.trace_out)]
        if args.out is not None:
            command += ["--out", str(args.out)]
        completed = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {completed.returncode})")
            correct = False
            continue
        correct = correct and line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        for metric, value in line["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n", 1)[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads")
    run.add_argument(
        "--workload", action="append", default=None,
        help="workload name (repeatable; default: all four)",
    )
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--seconds", "--duration", type=float, default=None,
        help="measured seconds per workload (default: BENCHMARK.json)",
    )
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument(
        "--trace-out", type=Path, default=None,
        help="traced run: write the Chrome trace and layer metrics here",
    )
    run.add_argument(
        "--out", type=Path, default=None,
        help="write each workload's full result JSON into this directory",
    )
    compare = commands.add_parser("compare", help="compare two result sets")
    compare.add_argument("baseline", type=Path)
    compare.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        # Measure the checkout's own program, never an installed copy.
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.command == "compare":
        from benchmarks.e2e.compare import compare_sets

        return compare_sets(args.baseline, args.candidate, declared)

    from benchmarks.e2e.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if len(names) == 1:
        args.workload = names
        return _run_one(args, declared)
    return _run_each(args, names)


if __name__ == "__main__":
    raise SystemExit(main())
