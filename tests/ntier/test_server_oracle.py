"""Program fuzz: the coalescing PS server against the eager oracle.

Each fuzzed program runs twice, on one shared :class:`Simulator` per
run: once over :class:`repro.ntier.server.Server` and once over the
eager reference copy in :mod:`tests.ntier.eager_server`. Requests walk
nested routes over 2-3 servers (hold a thread, compute, visit the next
server through a shared :class:`FifoPool`, compute again, release), so
completions, admissions and releases cascade through each other at one
instant. Programs add zero-demand phases, aborts (scheduled, and fired
from inside a cascade) and capacity swaps. Everything the two runs
observe must be bit-identical.

Events sharing a (time, priority) pair are concurrent: the simulator's
contract lets their order change, and the coalescing server does
sequence its completion event later or earlier than the eager one
within such a batch. So programs must be free of tie-order races:
phase demands sit on a lattice, which makes same-instant completions
on one server common, but each server scales them by its own
irrational factor, so two servers' completions, or a completion and an
injected event, never fall on one float instant.

The oracle keeps the eager server's one known defect: a zero-demand
phase never counted in ``work_completions``. The observation subtracts
those phases from the coalescing server's count, so every other phase
completion is still compared.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.pools import FifoPool
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.sim.engine import Simulator
from tests.ntier.eager_server import EagerServer

#: Phase demands: zero, and a lattice that makes same-instant
#: completions on one server common.
_DEMANDS = (0.0, 0.25, 0.5, 1.0, 1.5, 0.75)
#: Per-server demand scale: keeps servers' completion instants apart
#: from each other and from the lattice of arrivals and injected events.
_SCALES = (math.sqrt(2.0) / 2.0, math.sqrt(3.0) / 2.0, math.sqrt(5.0) / 2.0)


def _capacity(a_sat: float, cores: float, sigma: float, kappa: float) -> CapacityModel:
    return CapacityModel(
        [Resource("cpu", cores, 1.0 / a_sat), Resource("disk", 1.0, 0.05)],
        ContentionModel(sigma=sigma, kappa=kappa),
    )


_server = st.tuples(
    st.sampled_from((1.0, 2.0, 3.0, 8.0)),  # a_sat
    st.sampled_from((0.0, 0.05)),  # sigma
    st.sampled_from((0.0, 0.01)),  # kappa
    st.integers(1, 4),  # thread limit
)

#: A side effect fired from inside a cascade, when a request's first
#: phase on a server finishes: abort another request, or swap a
#: server's capacity.
_side = st.one_of(
    st.none(),
    st.tuples(st.just("abort"), st.integers(0, 31)),
    st.tuples(st.just("cap"), st.integers(0, 2), st.sampled_from((0.5, 2.0))),
)


@st.composite
def _programs(draw: Callable[..., Any]) -> dict[str, Any]:
    servers = draw(st.lists(_server, min_size=2, max_size=3))
    n = len(servers)
    requests = []
    for _ in range(draw(st.integers(1, 16))):
        depth = draw(st.integers(1, n))
        order = draw(st.permutations(range(n)))[:depth]
        route = [
            (k, draw(st.sampled_from(_DEMANDS)), draw(st.sampled_from(_DEMANDS)), draw(_side))
            for k in order
        ]
        requests.append((draw(st.integers(0, 8)) * 0.25, route))
    top = st.one_of(
        st.tuples(st.just("abort"), st.integers(0, 31)),
        st.tuples(st.just("cap"), st.integers(0, 2), st.sampled_from((0.5, 2.0))),
    )
    events = draw(st.lists(st.tuples(st.integers(0, 12), top), max_size=4))
    return {
        "servers": servers,
        "pool": draw(st.integers(1, 3)),
        "requests": requests,
        "events": [(slot * 0.25, ev) for slot, ev in events],
    }


class _World:
    """One run of a program over one server class."""

    def __init__(self, server_cls: type, program: dict[str, Any]) -> None:
        self.sim = Simulator()
        self.specs = program["servers"]
        self.servers = [
            server_cls(
                self.sim,
                ServerConfig(f"s{k}", "db", _capacity(a_sat, 1.0, sigma, kappa), threads),
            )
            for k, (a_sat, sigma, kappa, threads) in enumerate(self.specs)
        ]
        self.pool = FifoPool("shared", program["pool"])
        self.requests: list[Request] = []
        self.finished: dict[int, float] = {}
        self.failed: list[int] = []
        self.holding: dict[int, list[Any]] = {}
        self.has_permit: set[int] = set()
        # Zero-demand phases the eager oracle leaves out of its count.
        self.uncounted = [0] * len(self.servers)
        for i, (arrival, route) in enumerate(program["requests"]):
            req = Request(req_id=i, interaction="X", arrival=arrival, demands={})
            self.requests.append(req)
            self.holding[i] = []
            self.sim.schedule(arrival, self._visit, req, route, 0, self._finish)
        for time, event in program["events"]:
            self.sim.schedule(time, self._apply, event)

    # -- the request flow ---------------------------------------------
    def _visit(self, req: Request, route: list, depth: int, cont: Callable) -> None:
        k, pre, post, side = route[depth]
        server = self.servers[k]
        pre *= _SCALES[k]
        post *= _SCALES[k]
        self.holding[req.req_id].append(server)

        def work(r: Request, demand: float, done: Callable) -> None:
            if demand <= 0.0 and not isinstance(server, EagerServer):
                self.uncounted[k] += 1
            server.work(r, demand, done)

        def admitted(r: Request) -> None:
            if not r.failed:
                work(r, pre, pre_done)

        def pre_done(r: Request) -> None:
            if r.failed:
                return
            if side is not None:
                self._apply(side)
                if r.failed:
                    return
            if depth + 1 < len(route):
                self.pool.acquire(r, lambda q: self._child(q, route, depth, post_child))
            else:
                post_child(r)

        def post_child(r: Request) -> None:
            if not r.failed:
                work(r, post, post_done)

        def post_done(r: Request) -> None:
            if r.failed:
                return
            self.holding[r.req_id].remove(server)
            server.release(r)
            cont(r)

        server.admit(req, admitted)

    def _child(self, req: Request, route: list, depth: int, post_child: Callable) -> None:
        if req.failed:
            self.pool.release()
            return
        self.has_permit.add(req.req_id)

        def child_done(r: Request) -> None:
            self.has_permit.discard(r.req_id)
            self.pool.release()
            post_child(r)

        self._visit(req, route, depth + 1, child_done)

    def _finish(self, req: Request) -> None:
        req.completion = self.sim.now
        self.finished[req.req_id] = self.sim.now

    # -- injected events ------------------------------------------------
    def _apply(self, event: tuple) -> None:
        if event[0] == "abort":
            self._abort(self.requests[event[1] % len(self.requests)])
        else:
            k = event[1] % len(self.servers)
            a_sat, sigma, kappa, _threads = self.specs[k]
            self.servers[k].set_capacity(_capacity(a_sat, event[2], sigma, kappa))

    def _abort(self, req: Request) -> None:
        """Unwind a request the way the application fails one."""
        if req.failed or req.done or self.sim.now < req.arrival:
            return
        req.failed = True
        self.failed.append(req.req_id)
        if req.req_id in self.has_permit:
            self.has_permit.discard(req.req_id)
            self.pool.release()
        else:
            self.pool.cancel(req)
        for server in reversed(self.holding[req.req_id]):
            if not server.abort(req):
                server.threads.cancel(req)
        self.holding[req.req_id].clear()

    # -- the observation ------------------------------------------------
    def observe(self, horizon: float) -> tuple:
        self.sim.run(until=horizon)
        for server in self.servers:
            server.sync_monitors()
        visits = [
            [(v.server_name, v.arrival, v.departure) for v in req.visits]
            for req in self.requests
        ]
        monitors = [
            (
                s.concurrency_integral,
                s.active_integral,
                sorted(s.util_integral.items()),
                s.latency_total,
                s.completions,
                s.arrivals,
                s.work_completions - uncounted,
                s.admitted,
                s.active,
            )
            for s, uncounted in zip(self.servers, self.uncounted)
        ]
        return (
            sorted(self.finished.items()),
            self.failed,
            visits,
            monitors,
            self.sim.events_executed,
            self.sim.now,
        )


@settings(max_examples=300, deadline=None)
@given(program=_programs())
def test_coalesced_server_matches_eager_oracle(program):
    horizon = 40.0
    want = _World(EagerServer, program).observe(horizon)
    got = _World(Server, program).observe(horizon)
    assert got == want
