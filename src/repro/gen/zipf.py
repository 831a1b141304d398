"""Zipf-biased selection helpers.

The Weaver experiment (Table 3) selects vertices with Zipf
distributions biased by degree: removals prefer *less* connected
vertices, edge targets prefer *strongly* connected vertices.  This
module implements weighted selection where the weight of an item is a
Zipf-like power of its rank in a caller-supplied scoring.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["zipf_weights", "ZipfSelector"]


def zipf_weights(n: int, exponent: float = 1.0) -> list[float]:
    """Unnormalised Zipf weights ``1 / rank**exponent`` for ranks 1..n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return [1.0 / (rank**exponent) for rank in range(1, n + 1)]


#: Exponent -> running sums of :func:`zipf_weights`, grown on demand.
_PREFIX_SUMS: dict[float, list[float]] = {}


def _cumulative_weights(n: int, exponent: float) -> list[float]:
    """Running sums of :func:`zipf_weights` for at least ``n`` ranks.

    The sums are a left fold, so the first ``n`` entries of a longer
    table are bit for bit the table for ``n``: every pool size shares
    one table per exponent (callers read only its first ``n`` entries).
    It grows by at least doubling, so it is rebuilt a handful of times.
    """
    table = _PREFIX_SUMS.get(exponent, [])
    if len(table) < n:
        size = max(n, 2 * len(table))
        table = list(itertools.accumulate(zipf_weights(size, exponent)))
        _PREFIX_SUMS[exponent] = table
    return table


class ZipfSelector:
    """Selects items with probability decaying in their score rank.

    Items are ranked by ``key`` (descending by default, so higher
    scores get the heaviest Zipf weight).  With ``ascending=True`` the
    *lowest*-scoring items are preferred instead — the paper's
    "bias towards less connected vertices" for removals.
    """

    def __init__(
        self,
        rng: random.Random,
        exponent: float = 1.0,
        ascending: bool = False,
    ):
        if exponent <= 0:
            raise ValueError(f"exponent must be positive, got {exponent}")
        self._rng = rng
        self._exponent = exponent
        self._ascending = ascending

    def select(self, items: Sequence[T], key: Callable[[T], float]) -> T:
        """Pick one item, Zipf-weighted by score rank.

        Raises :class:`ValueError` on an empty sequence.
        """
        if not items:
            raise ValueError("cannot select from an empty sequence")
        ranked = sorted(items, key=key, reverse=not self._ascending)
        return ranked[self.select_rank(len(ranked))]

    def select_rank(self, n: int) -> int:
        """Pick a 0-based rank out of ``n`` with Zipf weighting.

        Useful when the caller keeps its own ranked structure and only
        needs the index.  Raises :class:`ValueError` when ``n <= 0``.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        cumulative = _cumulative_weights(n, self._exponent)
        pick = self._rng.random() * cumulative[n - 1]
        index = bisect.bisect_left(cumulative, pick, 0, n)
        return min(index, n - 1)
