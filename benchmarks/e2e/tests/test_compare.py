"""The ``compare`` verdicts: regression, unresolved, ok."""

from __future__ import annotations

import json

from benchmarks.e2e.compare import compare_sets, verdict

HIGHER = {"name": "delivered_eps", "better": "higher", "bound": 0.1}
LOWER = {"name": "lag_p50_ms", "better": "lower", "bound": 0.1}
STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_verdicts():
    assert verdict(HIGHER, STEADY, [v * 0.97 for v in STEADY])[0] == "ok"
    assert verdict(HIGHER, STEADY, [v * 0.8 for v in STEADY])[0] == "regression"
    assert verdict(LOWER, STEADY, [v * 1.2 for v in STEADY])[0] == "regression"
    assert verdict(LOWER, STEADY, [v * 0.8 for v in STEADY])[0] == "ok"
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert verdict(HIGHER, noisy, noisy)[0] == "unresolved"
    # Unless every run of B beats every run of A.
    assert verdict(HIGHER, noisy, [200.0, 210.0])[0] == "ok"


def _write(directory, workload, seed, value, failed=0):
    directory.mkdir(exist_ok=True)
    document = {
        "workload": workload,
        "trace": False,
        "attempted": 10,
        "failed": failed,
        "metrics": {"delivered_eps": {"value": value}},
    }
    (directory / f"{workload}-seed{seed}.json").write_text(json.dumps(document))


def test_compare_sets_exit_code(tmp_path, capsys):
    declared = {"end_to_end": [HIGHER]}
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for seed, value in enumerate(STEADY):
        _write(a, "w", seed, value)
        _write(b, "w", seed, value * 0.99)
        _write(c, "w", seed, value * 0.5)
    assert compare_sets(a, b, declared) == 0
    assert compare_sets(a, c, declared) == 1
    assert "regression" in capsys.readouterr().out
    _write(b, "w", 0, 100.0, failed=1)
    assert compare_sets(a, b, declared) == 1
