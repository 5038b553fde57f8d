"""The incremental band index equals one-shot grouping of its window.

``BandWindow`` must return exactly what ``bucketize(tuples_from_samples
(window))`` returns for the same samples — bucket order, per-bucket
lists, tuple count — and therefore the same ``SCTEstimate``, under any
sequence of appends (idle and NaN-RT intervals included), window
eviction, ``maxlen`` eviction, trims and resets.
"""

from __future__ import annotations

import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimationError
from repro.monitoring.interval import IntervalSample
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.request import Request
from repro.sct.grouping import BandWindow, bucketize
from repro.sct.model import SCTModel
from repro.sct.tuples import tuples_from_samples
from repro.sim.engine import Simulator

from tests.monitoring.test_warehouse import busy_flow, make_server

DT = 0.05

concurrency = st.one_of(
    st.sampled_from([0.0, 1e-12, 0.4, 1.0, 2.5, 3.49, 16.0, 17.2, 40.0, 41.0]),
    st.floats(0.0, 300.0),
)
append = st.tuples(
    st.just("append"),
    concurrency,
    st.floats(0.0, 400.0),  # throughput
    st.one_of(st.just(math.nan), st.floats(0.001, 2.0)),  # response time
    st.one_of(st.just({}), st.builds(lambda u: {"cpu": u}, st.floats(0.0, 1.0))),
)
operation = st.one_of(
    append,
    append,
    append,
    st.tuples(st.just("query")),
    st.tuples(st.just("idle"), st.integers(1, 40)),  # time passes, no samples
    st.tuples(st.just("trim"), st.integers(0, 30)),
    st.tuples(st.just("reset")),
)


def _assert_same(bands: BandWindow, window: list[IntervalSample], model: SCTModel):
    tuples = tuples_from_samples(window)
    want = bucketize(tuples, model.min_samples, model.bucket_width)
    got = bands.buckets(model.min_samples)
    assert list(got) == list(want)  # first-appearance order
    assert got == want  # q, tps, rts, utils, element by element
    assert bands.n_tuples == len(tuples)
    assert len(bands) == len(window)
    assert bands.newest == (window[-1].t_end if window else -math.inf)
    try:
        expected = model.estimate(tuples)
    except EstimationError as exc:
        with pytest.raises(EstimationError) as raised:
            model.estimate_buckets(got, bands.n_tuples)
        assert str(raised.value) == str(exc)
    else:
        assert model.estimate_buckets(got, bands.n_tuples) == expected


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(operation, max_size=120),
    maxlen=st.one_of(st.none(), st.integers(1, 40)),
    window=st.sampled_from([0.2, 0.5, 1.0, 60.0]),
    width=st.one_of(st.none(), st.integers(1, 4)),
    min_samples=st.integers(1, 4),
)
def test_band_window_equals_bucketize(ops, maxlen, window, width, min_samples):
    model = SCTModel(min_samples=min_samples, min_buckets=2, bucket_width=width)
    samples: deque[IntervalSample] = deque(maxlen=maxlen)
    appended = 0
    now = 0.0
    bands = BandWindow(width)
    for op in ops + [("query",)]:
        kind = op[0]
        if kind == "append":
            _, q, tp, rt, util = op
            now += DT
            samples.append(IntervalSample(
                t_end=now, concurrency=q, throughput=tp, response_time=rt,
                completions=0 if math.isnan(rt) else 1, utilization=util,
            ))
            appended += 1
        elif kind == "idle":
            now += op[1] * DT
        elif kind == "trim":
            keep_after = now - op[1] * DT
            while samples and samples[0].t_end < keep_after:
                samples.popleft()
        elif kind == "reset":
            samples.clear()
        else:
            cutoff = now - window
            bands.sync(samples, appended, cutoff)
            _assert_same(bands, [s for s in samples if s.t_end >= cutoff], model)


def test_returned_buckets_are_fresh_lists():
    """A later sync must not alter buckets handed out earlier (they end
    up in the run's estimate history)."""
    samples = deque(
        IntervalSample(t_end=i * DT, concurrency=2.0, throughput=10.0 + i,
                       response_time=0.01, completions=1, utilization={})
        for i in range(1, 6)
    )
    bands = BandWindow()
    bands.sync(samples, len(samples), 0.0)
    first = bands.buckets(1)
    snapshot = list(first[2].tps)
    samples.append(IntervalSample(t_end=0.3, concurrency=2.0, throughput=99.0,
                                  response_time=0.01, completions=1,
                                  utilization={}))
    bands.sync(samples, 6, 0.2)
    assert first[2].tps == snapshot
    assert bands.buckets(1)[2].tps == [14.0, 15.0, 99.0]


def test_warehouse_band_index_tracks_reset_and_trim():
    """The warehouse's per-server index follows the live deque through
    the warehouse's own evictions (vertical scale-up reset, drift trim)."""
    sim = Simulator()
    wh = MetricWarehouse(sim, fine_interval=0.05, fine_history=300)
    server = make_server(sim)
    wh.register_server(server)
    for i in range(2500):
        t = i * 0.01
        if 10.0 <= t < 11.0:
            continue  # an idle second: zero-concurrency samples
        request = Request(i, "X", t, {"db": 1.0})
        flow = busy_flow(server, 0.01 + 0.03 * (i % 7))
        sim.schedule(t, lambda r=request, f=flow: server.admit(r, f))
    model = SCTModel(min_samples=2)

    def check(window: float) -> None:
        bands = wh.fine_bands("db-1", window, model.bucket_width)
        _assert_same(bands, wh.fine_samples("db-1", window), model)

    for until, action in [
        (5.0, None), (9.0, None), (12.0, "trim"), (14.0, None),
        (17.0, "reset"), (18.0, None), (25.0, None),
    ]:
        sim.run(until=until)
        if action == "trim":
            assert wh.trim_fine_history("db-1", keep_after=sim.now - 1.5) > 0
        elif action == "reset":
            wh.reset_fine_history("db-1")
        check(3.0)
        check(60.0)
