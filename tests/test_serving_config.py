"""Serving inputs fail loudly: configs, stored histograms, bad wiring.

Serving configs arrive from the CLI and from campaign specs, and
histogram payloads come back out of campaign stores, so each is
outside input.  A non-finite time, rate, dwell or bound used to pass
construction and then crash deep inside the event loop (``t_miss=nan``
died in ``LatencyHistogram.record`` with a bare ``ValueError``); a
corrupt bucket landed silently in the wrong bucket.  Both must now
raise :class:`~repro.errors.ConfigurationError` naming the culprit.
"""

import math

import pytest

from repro.core.engine import Engine
from repro.errors import ConfigurationError
from repro.policies import make_policy
from repro.serving import (
    ArrivalSpec,
    LatencyHistogram,
    ServiceModel,
    ServingConfig,
    serve,
)
from repro.telemetry.recorder import Recorder
from repro.workloads import uniform_random

NON_FINITE = [math.nan, math.inf, -math.inf]

#: (constructor, field) for every float knob that must be finite.
FLOAT_FIELDS = [
    (ServiceModel, "t_hit"),
    (ServiceModel, "t_miss"),
    (ServiceModel, "t_item"),
    (ServiceModel, "size_scale"),
    (ServiceModel, "size_shape"),
    (lambda **kw: ArrivalSpec(process="poisson", **kw), "rate"),
    (lambda **kw: ArrivalSpec(process="mmpp", **kw), "rate_on"),
    (lambda **kw: ArrivalSpec(process="mmpp", **kw), "rate_off"),
    (lambda **kw: ArrivalSpec(process="mmpp", **kw), "mean_on"),
    (lambda **kw: ArrivalSpec(process="mmpp", **kw), "mean_off"),
    (lambda **kw: ArrivalSpec(process="closed", **kw), "think"),
    (ServingConfig, "timeout"),
    (ServingConfig, "hist_lo"),
]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "make,name", FLOAT_FIELDS, ids=[name for _, name in FLOAT_FIELDS]
)
def test_non_finite_config_value_is_rejected_by_name(make, name, value):
    with pytest.raises(ConfigurationError, match=name):
        make(**{name: value})


@pytest.mark.parametrize(
    "name,value",
    [
        ("concurrency", 2.5),
        ("queue_limit", math.nan),
        ("queue_limit", 4.0),
        ("hist_per_decade", 20.5),
        ("hist_decades", math.inf),
    ],
)
def test_count_fields_must_be_integers(name, value):
    with pytest.raises(ConfigurationError, match=name):
        ServingConfig(**{name: value})


def test_non_finite_value_in_a_stored_config_is_rejected():
    payload = ServingConfig().as_dict()
    payload["service"]["t_miss"] = math.nan
    with pytest.raises(ConfigurationError, match="t_miss"):
        ServingConfig.from_dict(payload)


@pytest.mark.parametrize(
    "kwargs",
    [{"rate_on": 0.0}, {"rate_on": -1.0}, {"rate_off": -0.5}],
    ids=["rate_on-zero", "rate_on-negative", "rate_off-negative"],
)
def test_mmpp_state_rates_are_checked(kwargs):
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        ArrivalSpec(process="mmpp", **kwargs)


def test_hist_lo_must_be_positive():
    with pytest.raises(ConfigurationError, match="hist_lo"):
        ServingConfig(hist_lo=0.0)


def test_engine_and_recorder_together_are_rejected():
    """A recorder only attaches to an engine serve() builds itself; given
    a ready engine it used to record nothing while the run succeeded."""
    trace = uniform_random(200, 64, 4, 0)
    engine = Engine(make_policy("iblp", 16, trace.mapping), trace.mapping)
    with pytest.raises(ConfigurationError, match="recorder"):
        serve(None, trace, engine=engine, recorder=Recorder(window=50))
    assert engine.result.accesses == 0


def _payload():
    hist = LatencyHistogram(lo=1.0, per_decade=4, decades=2)
    for value in (0.5, 1.5, 3.0, 3.0, 250.0):
        hist.record(value)
    return hist, hist.as_dict()


def test_histogram_payload_round_trips():
    hist, payload = _payload()
    assert payload["buckets"] == [[0, 1], [1, 2]]
    assert (payload["underflow"], payload["overflow"]) == (1, 1)
    back = LatencyHistogram.from_dict(payload)
    assert back == hist
    assert back.counts == hist.counts
    assert back.quantile(0.5) == hist.quantile(0.5)


@pytest.mark.parametrize(
    "buckets,match",
    [
        ([[0, 1], [-1, 2]], r"\[-1, 2\].*index"),
        ([[0, 1], [8, 2]], r"\[8, 2\].*index"),
        ([[0, 1], [1, 0]], r"\[1, 0\].*count"),
        ([[0, 1], [1, -2]], r"\[1, -2\].*count"),
        ([[0, 1, 2]], r"\[index, count\]"),
    ],
    ids=["negative-index", "index-past-end", "zero-count", "negative-count",
         "wrong-arity"],
)
def test_corrupt_histogram_bucket_is_rejected(buckets, match):
    _, payload = _payload()
    payload["buckets"] = buckets
    with pytest.raises(ConfigurationError, match=match):
        LatencyHistogram.from_dict(payload)


@pytest.mark.parametrize(
    "key,value", [("count", 6), ("underflow", 0), ("overflow", -1)]
)
def test_histogram_count_identity_is_checked(key, value):
    _, payload = _payload()
    payload[key] = value
    with pytest.raises(ConfigurationError, match="histogram"):
        LatencyHistogram.from_dict(payload)
