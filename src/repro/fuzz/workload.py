"""Fuzz workloads: serialized stream candidates plus their base builders.

A :class:`Workload` is the unit the fuzzer mutates, evaluates and
minimizes — a stream file's exact bytes in one of the two on-disk
formats.  Keeping candidates as bytes (not event lists) means byte-level
mutators and the minimizer operate on precisely what the parsers see,
including malformed content no event object could represent.

Base workloads come from the real generator engine
(:class:`~repro.core.generator.StreamGenerator`), parameterised by a
small :class:`BaseConfig` the engine's config mutators perturb — the
"mutators over generator configs" half of the fuzzer.
"""

from __future__ import annotations

import tempfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core import codec
from repro.core.events import Event
from repro.core.generator import StreamGenerator
from repro.core.models import SocialNetworkRules, UniformRules

__all__ = [
    "Workload",
    "BaseConfig",
    "build_base",
    "events_to_bytes",
    "bytes_to_events",
    "mutate_base_config",
]


@dataclass(frozen=True, slots=True)
class Workload:
    """One fuzz candidate: the exact bytes of a stream file.

    ``fmt`` is ``"csv"`` or ``"binary"`` — the format the bytes claim
    to be (the evaluator still autodetects, so a byte mutator that
    destroys the magic simply demotes a binary candidate to CSV
    parsing, which is itself an interesting path).
    """

    fmt: str
    data: bytes

    @property
    def suffix(self) -> str:
        if self.fmt == "binary":
            return ".gtb"
        return ".csv"

    @property
    def digest(self) -> int:
        """Process-stable content fingerprint (used for sub-seeding)."""
        return zlib.crc32(self.data)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_bytes(self.data)
        return path

    @classmethod
    def from_file(cls, path: str | Path) -> "Workload":
        path = Path(path)
        return cls(fmt=codec.detect_stream_format(path), data=path.read_bytes())


def events_to_bytes(events: list[Event], fmt: str) -> bytes:
    """Serialize events to stream-file bytes in ``fmt``, through
    :func:`repro.core.codec.write_stream_file`."""
    with tempfile.TemporaryDirectory(prefix="graphtides-fuzz-") as tmp:
        path = Path(tmp) / "workload"
        codec.write_stream_file(path, events, format=fmt)
        return path.read_bytes()


def bytes_to_events(workload: Workload) -> list[Event]:
    """Parse a workload's bytes back into events (raises on malformed)."""
    with tempfile.TemporaryDirectory(prefix="graphtides-fuzz-") as tmp:
        path = workload.write(Path(tmp) / f"workload{workload.suffix}")
        return codec.parse_stream_file(path)


# ---------------------------------------------------------------------------
# Base workload builders (generator-config mutation targets)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BaseConfig:
    """Generator parameters a config mutator perturbs.

    Every field is part of the candidate's identity: the engine caches
    built base streams keyed on this config, so equal configs always
    produce byte-identical workloads.
    """

    model: str = "uniform"  # "uniform" | "social"
    rounds: int = 120
    bootstrap_vertices: int = 12
    bootstrap_edges: int = 16
    seed: int = 0
    fmt: str = "csv"


_MODELS = ("uniform", "social")
_FORMATS = ("csv", "binary")


def build_base(config: BaseConfig) -> Workload:
    """Generate the base stream for ``config`` and serialize it."""
    if config.model == "social":
        rules = SocialNetworkRules()
    else:
        rules = UniformRules(
            bootstrap_vertices=config.bootstrap_vertices,
            bootstrap_edges=config.bootstrap_edges,
        )
    stream = StreamGenerator(
        rules, rounds=config.rounds, seed=config.seed
    ).generate()
    return Workload(config.fmt, events_to_bytes(list(stream), config.fmt))


def mutate_base_config(config: BaseConfig, rng) -> BaseConfig:
    """Perturb one generator parameter (seeded; identity-preserving)."""
    choice = rng.randrange(5)
    if choice == 0:
        return replace(config, model=_MODELS[rng.randrange(len(_MODELS))])
    if choice == 1:
        return replace(config, rounds=max(10, rng.randrange(20, 400)))
    if choice == 2:
        return replace(
            config,
            bootstrap_vertices=rng.randrange(2, 40),
            bootstrap_edges=rng.randrange(0, 60),
        )
    if choice == 3:
        return replace(config, seed=rng.randrange(1 << 16))
    return replace(config, fmt=_FORMATS[rng.randrange(len(_FORMATS))])
