"""Tests for fine-grained interval monitoring."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.monitoring.interval import IntervalMonitor
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.sim.engine import Simulator

from tests.conftest import simple_capacity


def make_server(sim, a_sat=10.0):
    return Server(sim, ServerConfig("db-1", "db", simple_capacity(a_sat), 1000))


def flow(server, demand):
    def _start(r):
        server.work(r, demand, lambda x: server.release(x))
    return _start


def test_invalid_interval():
    sim = Simulator()
    server = make_server(sim)
    with pytest.raises(ConfigurationError):
        IntervalMonitor(sim, server, interval=0.0)


def test_idle_intervals_report_zero():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1)
    sim.run(until=0.35)
    assert len(mon.samples) == 3
    for s in mon.samples:
        assert s.concurrency == 0.0
        assert s.throughput == 0.0
        assert math.isnan(s.response_time)
        assert not s.has_completions


def test_throughput_counts_completions_per_interval():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1)
    # 5 sequential-ish jobs of 10ms each, all inside the first interval
    for i in range(5):
        sim.schedule(i * 0.011, server.admit,
                     Request(i, "X", 0.0, {"db": 0.01}), flow(server, 0.01))
    sim.run(until=0.25)
    first = mon.samples[0]
    assert first.completions == 5
    assert first.throughput == pytest.approx(50.0)
    assert first.response_time == pytest.approx(0.01, rel=0.05)


def test_concurrency_is_time_weighted():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1)
    # one request occupying the server for exactly half the interval
    sim.schedule(0.0, server.admit, Request(0, "X", 0.0, {"db": 1.0}),
                 flow(server, 0.05))
    sim.run(until=0.15)
    assert mon.samples[0].concurrency == pytest.approx(0.5)


def test_utilization_reported():
    sim = Simulator()
    server = make_server(sim, a_sat=10)
    mon = IntervalMonitor(sim, server, interval=0.1)
    sim.schedule(0.0, server.admit, Request(0, "X", 0.0, {"db": 1.0}),
                 flow(server, 0.1))
    sim.run(until=0.12)
    # one active request on a_sat=10 -> util 0.1 for the whole interval
    assert mon.samples[0].utilization["cpu"] == pytest.approx(0.1)


def test_history_bound():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1, history=5)
    sim.run(until=2.0)
    assert len(mon.samples) == 5


def test_recent_window():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1)
    sim.run(until=1.05)
    recent = mon.recent(0.35)
    assert len(recent) == 3
    assert all(s.t_end >= 0.7 for s in recent)
    # the backward scan returns exactly the forward filter, in order
    for window in (0.0, 0.1, 0.35, 0.99, 1.05, 50.0):
        cutoff = sim.now - window
        assert mon.recent(window) == [s for s in mon.samples if s.t_end >= cutoff]
    assert mon.appended == len(mon.samples) == 10


def test_stop_halts_sampling():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1)
    sim.schedule(0.25, mon.stop)
    sim.run(until=1.0)
    assert len(mon.samples) == 2
