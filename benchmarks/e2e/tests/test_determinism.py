"""Inputs are a function of the seed alone."""

from __future__ import annotations

import pytest

from benchmarks.e2e.workloads import WORKLOADS, build_inputs


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    def digest(seed: int, name: str) -> str:
        directory = tmp_path / name
        directory.mkdir()
        return build_inputs(WORKLOADS[workload], seed, directory)["digest"]

    first = digest(7, "a")
    assert digest(7, "b") == first
    assert digest(8, "c") != first
