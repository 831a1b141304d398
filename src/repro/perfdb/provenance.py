"""Shared machine and git provenance for benchmark snapshots.

Benchmarks write their ``machine`` block and ``provenance`` block
through these helpers (``benchmarks/e2e`` stamps every result document
with them), so perfdb ingestion can compare records without
per-benchmark schema special cases.

Provenance is stamped *at write time*: the commit hash and dirty flag
describe the tree the numbers were measured on, and the UTC timestamp
orders records within one commit.  Outside a git checkout the git
fields degrade to ``None`` rather than failing the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Any

__all__ = [
    "machine_info",
    "machine_fingerprint",
    "git_provenance",
    "snapshot_provenance",
    "config_fingerprint",
]

_GIT_TIMEOUT = 10.0


def machine_info() -> dict[str, Any]:
    """The normalized ``machine`` block shared by every benchmark."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def machine_fingerprint(machine: dict[str, Any]) -> str:
    """Stable digest of the comparison-relevant machine fields.

    Two records are rate-comparable only when they ran on the same
    interpreter, platform, and core count; the fingerprint collapses
    that tuple into one comparable token.
    """
    relevant = {
        key: machine.get(key)
        for key in ("python", "implementation", "platform", "cpu_count")
    }
    payload = json.dumps(relevant, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _git(args: list[str], cwd: str | None) -> str | None:
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=_GIT_TIMEOUT,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip()


def git_provenance(cwd: str | None = None) -> dict[str, Any]:
    """Commit hash and dirty-tree flag of the checkout at ``cwd``.

    Returns ``{"git_commit": None, "git_dirty": None}`` when git is
    unavailable or ``cwd`` is not inside a repository, so callers can
    stamp provenance unconditionally.
    """
    commit = _git(["rev-parse", "HEAD"], cwd)
    if commit is None:
        return {"git_commit": None, "git_dirty": None}
    status = _git(["status", "--porcelain"], cwd)
    dirty = None if status is None else bool(status)
    return {"git_commit": commit, "git_dirty": dirty}


def snapshot_provenance(cwd: str | None = None) -> dict[str, Any]:
    """The full ``provenance`` block stamped into a BENCH snapshot."""
    stamp = git_provenance(cwd)
    stamp["recorded_at_utc"] = datetime.now(timezone.utc).isoformat()
    return stamp


def config_fingerprint(config: dict[str, Any]) -> str:
    """Order-independent digest of a benchmark's ``config`` block.

    Records with different fingerprints measured different workloads
    (event counts, worker matrices, ...), so their absolute rates are
    not directly comparable; ``perf diff`` downgrades such comparisons.
    """
    payload = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
