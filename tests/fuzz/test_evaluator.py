"""Evaluator oracles: each verdict class fires on its target defect,
stays quiet on clean input, and is cheap enough to fuzz with.
"""

import random
import time

import pytest

from repro.fuzz import (
    BaseConfig,
    EvaluatorConfig,
    Workload,
    apply_byte_mutator,
    apply_event_mutators,
    build_base,
    bytes_to_events,
    calibrate,
    evaluate,
    events_to_bytes,
)


@pytest.fixture(scope="module")
def base():
    return build_base(BaseConfig())


@pytest.fixture(scope="module")
def config():
    return EvaluatorConfig(deadline=6.0)


@pytest.fixture(scope="module")
def baseline(base, config):
    return calibrate(base, config)


def test_clean_base_is_ok(base, config, baseline):
    verdict = evaluate(base, config, baseline)
    assert verdict.status == "ok"
    assert not verdict.is_finding


def test_clean_base_is_fast(base, config, baseline):
    start = time.monotonic()
    evaluate(base, config, baseline)
    assert time.monotonic() - start < 3.0


def test_malformed_binary_is_rejected_not_crash(base, config, baseline):
    data = events_to_bytes(bytes_to_events(base), "binary")
    mutated = apply_byte_mutator(data, "corrupt_header", random.Random("g"))
    verdict = evaluate(Workload("binary", mutated), config, baseline)
    # Typed refusal is the *correct* response to garbage: any other
    # status here means an untyped exception leaked (crash) or the
    # parser wedged (hang).
    assert verdict.status == "rejected"
    assert verdict.kind == "StreamFormatError"


def test_non_utf8_csv_is_rejected(config, baseline):
    verdict = evaluate(
        Workload("csv", b"ADD_VERTEX,1,\xff\xfe\n"), config, baseline
    )
    assert verdict.status == "rejected"
    assert verdict.kind == "StreamFormatError"


def test_burst_fires_platform_cliff(base, config, baseline):
    # Seed chosen so the burst window is wide enough to overflow the
    # bounded queue (the mutator draws window width and factor).
    events = apply_event_mutators(
        bytes_to_events(base), ["burst_train"], random.Random("smoke:burst:2")
    )
    verdict = evaluate(
        Workload("csv", events_to_bytes(events, "csv")), config, baseline
    )
    assert verdict.signature == "cliff:platform:queue-overflow"


def test_pause_bomb_is_predicted_hang_without_waiting(config, baseline):
    workload = Workload("csv", b"ADD_VERTEX,1,\nPAUSE,3600,\n")
    start = time.monotonic()
    verdict = evaluate(workload, config, baseline)
    elapsed = time.monotonic() - start
    assert verdict.signature == "hang:replay"
    assert verdict.kind == "pause-budget"
    assert elapsed < 2.0  # predicted from the controls, not waited out


def test_slow_speed_bomb_is_predicted_hang(config, baseline):
    workload = Workload(
        "csv", b"SPEED,1e-09,\n" + b"".join(
            b"ADD_VERTEX,%d,\n" % i for i in range(5)
        )
    )
    verdict = evaluate(workload, config, baseline)
    assert verdict.signature == "hang:replay"


def test_verdict_signature_shape():
    from repro.fuzz.evaluator import Verdict

    assert Verdict("hang", "replay", kind="pause-budget").signature == "hang:replay"
    assert (
        Verdict("cliff", "platform", kind="queue-overflow").signature
        == "cliff:platform:queue-overflow"
    )
    assert Verdict("ok", "replay").signature == "ok:replay:"
    assert not Verdict("rejected", "parse").is_finding
    assert Verdict("crash", "parse").is_finding


def test_evaluator_config_round_trips_through_dict(config):
    restored = EvaluatorConfig.from_dict(config.as_dict())
    assert restored == config
