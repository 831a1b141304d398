"""``compare A/ B/``: two sets of untraced results, metric by metric.

Each directory holds the result JSON files that ``run --out DIR``
writes, one per workload and seed.  For every workload x end-to-end
metric of ``BENCHMARK.json`` the table gives each side's median and
quartiles over its runs, how much B is worse than A as a share of A's
median, and A's own spread (quartile distance over median).  A pair is

* ``regression`` when B is worse than A by more than the metric's bound;
* ``unresolved`` when A's spread already exceeds the bound, unless every
  run of B reads better than every run of A;
* ``ok`` otherwise.

Exits 1 on any regression or any failed pass, else 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_set(directory: Path) -> dict[str, list[dict]]:
    """Untraced result documents of one set, by workload."""
    documents: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        if not document.get("trace"):
            documents.setdefault(document["workload"], []).append(document)
    return documents


def _stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(metric: dict, a: list[float], b: list[float]) -> tuple[str, float, float]:
    """``(label, worsening, spread)`` of one workload x metric pair."""
    a_median, a_q1, a_q3 = _stats(a)
    b_median = statistics.median(b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worsening = sign * (b_median - a_median) / a_median
    spread = (a_q3 - a_q1) / a_median
    b_always_better = (
        min(b) > max(a) if metric["better"] == "higher" else max(b) < min(a)
    )
    if worsening > metric["bound"]:
        label = "regression"
    elif spread > metric["bound"] and not b_always_better:
        label = "unresolved"
    else:
        label = "ok"
    return label, worsening, spread


def compare_sets(baseline: Path, candidate: Path, declared: dict) -> int:
    sets = {"A": load_set(baseline), "B": load_set(candidate)}
    print(f"A = {baseline}   B = {candidate}")
    print(
        f"{'workload':<16} {'metric':<18} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'worse':>7} {'A sprd':>7} {'bound':>6}  verdict"
    )
    failing = False
    for workload in sorted(set(sets["A"]) | set(sets["B"])):
        sides = {side: sets[side].get(workload, []) for side in sets}
        if not sides["A"] or not sides["B"]:
            print(f"{workload:<16} only in one set")
            failing = True
            continue
        for metric in declared["end_to_end"]:
            name = metric["name"]
            values = {
                side: [d["metrics"][name]["value"] for d in docs if name in d["metrics"]]
                for side, docs in sides.items()
            }
            if not values["A"] or not values["B"]:
                print(f"{workload:<16} {name:<18} missing")
                failing = True
                continue
            label, worsening, spread = verdict(metric, values["A"], values["B"])
            failing = failing or label == "regression"
            cells = []
            for side in ("A", "B"):
                median, q1, q3 = _stats(values[side])
                cells.append(
                    f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values[side])}"
                )
            print(
                f"{workload:<16} {name:<18} {cells[0]:>34} {cells[1]:>34} "
                f"{worsening:>+7.3f} {spread:>7.3f} {metric['bound']:>6.2f}  {label}"
            )
        for side, docs in sides.items():
            attempted = sum(d["attempted"] for d in docs)
            failed = sum(d["failed"] for d in docs)
            print(
                f"{workload:<16} {'error_rate ' + side:<18} "
                f"{failed}/{attempted} passes failed"
            )
            failing = failing or failed > 0
    return 1 if failing else 0
