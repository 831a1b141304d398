"""``BENCHMARK.json`` against the code: schema, lockstep, smoke runs.

Each smoke run is a one-second ``run`` of one workload in a fresh
process, exactly as a benchmark driver invokes it.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import ROOT
from benchmarks.e2e.workloads import WORKLOADS

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _smoke(workload: str, trace: int, out) -> tuple[dict, dict]:
    completed = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e", "run",
            "--workload", workload, "--seed", "3", "--duration", "1",
            "--trace", str(trace), "--out", str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    line = json.loads(completed.stdout.splitlines()[-1])
    suffix = "-trace" if trace else ""
    document = json.loads(
        (out / f"{workload}-seed3{suffix}.json").read_text(encoding="utf-8")
    )
    return line, document


def test_schema():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert 1 <= DECLARED["run_seconds"] <= 60
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_workloads_in_lockstep():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(workload, tmp_path):
    line, document = _smoke(workload, 0, tmp_path)
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())
    # Lockstep: the code measures exactly the declared metrics.
    assert set(document["metrics"]) == set(declared)
    assert document["nproc"] >= 1 and "provenance" in document
    assert document["baseline_eligible"] is (
        document["provenance"]["git_dirty"] is False
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_run_emits_every_per_layer_metric(workload, tmp_path):
    line, document = _smoke(workload, 1, tmp_path)
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert line["correct"], document["problems"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert set(document["per_layer"]) == set(declared)
