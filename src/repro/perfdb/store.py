"""Append-only JSONL store of per-commit benchmark records.

The database is one JSON record per line, appended and never rewritten
— the perf history *is* the file's line order, which doubles as the
commit-time order (``recorded_at_utc`` breaks ties for humans).  The
checked-in baseline lives at :data:`DEFAULT_DB_PATH`; CI runs use
throwaway stores.

Smoke records (runs shorter than ``BENCHMARK.json``'s ``run_seconds``)
may be appended for same-machine A/B comparisons, but they are never
eligible as *baselines*: :meth:`PerfDatabase.commit_sets` skips them
unless explicitly asked.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import PerfDbError
from repro.perfdb.schema import PerfRecord

__all__ = ["DEFAULT_DB_PATH", "PerfDatabase"]

#: Repo-relative location of the committed baseline database.
DEFAULT_DB_PATH = "perf/perfdb.jsonl"


class PerfDatabase:
    """Append-only perf-record store backed by one JSONL file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def exists(self) -> bool:
        """Whether the backing file exists on disk."""
        return self.path.is_file()

    def append(self, record: PerfRecord) -> None:
        """Append one record; creates the file (and parent dir) lazily."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_json_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def records(
        self,
        benchmark: str | None = None,
        include_smoke: bool = True,
    ) -> list[PerfRecord]:
        """All records in append order, optionally filtered."""
        if not self.exists():
            return []
        loaded: list[PerfRecord] = []
        with open(self.path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise PerfDbError(
                        f"{self.path}:{number}: not valid JSON: {exc}"
                    ) from exc
                record = PerfRecord.from_json_dict(payload)
                if benchmark is not None and record.benchmark != benchmark:
                    continue
                if record.smoke and not include_smoke:
                    continue
                loaded.append(record)
        return loaded

    def benchmarks(self) -> list[str]:
        """Distinct benchmark names, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.records():
            seen.setdefault(record.benchmark, None)
        return list(seen)

    def commit_sets(
        self, benchmark: str, include_smoke: bool = False
    ) -> list[list[PerfRecord]]:
        """``benchmark``'s records grouped by commit, oldest set first.

        A set is every record of one benchmark at one commit, in append
        order.  Sets are ordered by their newest record, so the last set
        is the newest commit's and the one before it is its baseline.
        Smoke records are skipped unless ``include_smoke`` — a smoke run
        is never silently promoted to a baseline.
        """
        sets: dict[str | None, list[PerfRecord]] = {}
        for record in self.records(benchmark, include_smoke=include_smoke):
            group = sets.pop(record.git_commit, [])
            group.append(record)
            sets[record.git_commit] = group
        return list(sets.values())
