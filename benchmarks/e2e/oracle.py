"""Per-pass correctness checks.

Each check returns a list of problems; an empty list is a correct pass.
A failed pass adds to the run's ``failed`` count instead of aborting the
run.  The expected count is always the stream's own graph-event count,
taken once at set-up.
"""

from __future__ import annotations


def check_live(expected: int, reply: dict) -> list[str]:
    """A live pass: the receiver saw every graph event, cleanly."""
    problems = []
    if not reply["completed"]:
        problems.append("receiver pass was aborted")
    if reply["total"] != expected:
        problems.append(
            f"receiver counted {reply['total']} events, "
            f"the stream holds {expected}"
        )
    if reply["error"] is not None:
        problems.append(f"receiver error: {reply['error']}")
    if reply["shm_left_behind"]:
        problems.append("shared-memory segment left behind in /dev/shm")
    return problems


def sim_signature(result) -> tuple:
    """What a deterministic simulated run must reproduce exactly."""
    return (result.events_processed, result.rejected_attempts, result.duration)


def check_sim(expected: int, result) -> list[str]:
    """A simulated pass: every graph event committed and the run drained."""
    problems = []
    if result.events_processed != expected:
        problems.append(
            f"platform committed {result.events_processed} events, "
            f"the stream holds {expected}"
        )
    if not result.drained:
        problems.append("platform did not drain")
    return problems


def check_repeat(reference: tuple | None, signature: tuple | None) -> list[str]:
    """Simulated passes of one stream must be identical to the first."""
    if reference is None or signature == reference:
        return []
    return [f"simulated run {signature} differs from first run {reference}"]
