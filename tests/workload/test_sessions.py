"""Tests for the Markov session workload model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.sessions import (
    SessionRequestFactory,
    TransitionMatrix,
    browse_session_matrix,
)

BASE = {"web": (0.001, 0.1), "app": (0.002, 0.2), "db": (0.005, 0.3)}


def two_state():
    return TransitionMatrix(
        ["ViewStory", "ViewComment"],
        [[0.2, 0.8], [0.6, 0.4]],
    )


# ----------------------------------------------------------------------
# TransitionMatrix
# ----------------------------------------------------------------------

def test_validation():
    with pytest.raises(ConfigurationError):
        TransitionMatrix([], [])
    with pytest.raises(ConfigurationError):
        TransitionMatrix(["ViewStory"], [[0.5]])  # row does not sum to 1
    with pytest.raises(ConfigurationError):
        TransitionMatrix(["ViewStory", "ViewComment"], [[1.0, 0.0]])  # shape
    with pytest.raises(ConfigurationError):
        TransitionMatrix(["ViewStory"], [[-1.0]])
    with pytest.raises(KeyError):
        TransitionMatrix(["NoSuchServlet"], [[1.0]])


def test_stationary_matches_eigenvector():
    tm = two_state()
    pi = tm.stationary()
    # analytic stationary of [[.2,.8],[.6,.4]]: pi = (3/7, 4/7)
    assert pi == pytest.approx([3 / 7, 4 / 7], rel=1e-6)
    # and it is a fixed point
    assert pi @ tm.p == pytest.approx(pi, rel=1e-9)


def test_sample_next_follows_rows():
    tm = two_state()
    rng = np.random.default_rng(0)
    draws = [tm.sample_next(rng, "ViewStory") for _ in range(4000)]
    frac_comment = draws.count("ViewComment") / len(draws)
    assert frac_comment == pytest.approx(0.8, abs=0.02)


def test_non_finite_probabilities_rejected():
    with pytest.raises(ConfigurationError):
        TransitionMatrix(["ViewStory", "ViewComment"], [[np.nan, 1.0], [0.5, 0.5]])


def test_cached_row_cdf_draws_match_rng_choice():
    """Bisecting a row's cached CDF is numpy's own choice(p=row): the
    same next interaction on every draw and the same stream afterwards.
    The walk follows the chain, so every row is exercised, and it mixes
    in fresh-session draws (rng.integers) between the row draws."""
    tm = browse_session_matrix()
    names = tm.interactions
    fast = np.random.default_rng(2024)
    reference = np.random.default_rng(2024)
    current = None
    for step in range(100_000):
        got = tm.sample_next(fast, current)
        if current is None:
            want = names[int(reference.integers(len(names)))]
        else:
            row = tm.p[names.index(current)]
            want = names[int(reference.choice(len(row), p=row))]
        assert got == want, step
        current = None if step % 50 == 49 else got
    assert fast.bit_generator.state == reference.bit_generator.state


def test_fresh_session_uniform_entry():
    tm = two_state()
    rng = np.random.default_rng(1)
    draws = [tm.sample_next(rng, None) for _ in range(4000)]
    assert draws.count("ViewStory") / len(draws) == pytest.approx(0.5, abs=0.03)


def test_stationary_mix_demands():
    tm = two_state()
    mix = tm.stationary_mix(BASE)
    # db demand: ViewStory mult 1.0, ViewComment 0.9 weighted 3/7, 4/7
    expected = 0.005 * (1.0 * 3 / 7 + 0.9 * 4 / 7)
    assert mix.mean_demand("db") == pytest.approx(expected, rel=1e-6)


# ----------------------------------------------------------------------
# the built-in browse graph
# ----------------------------------------------------------------------

def test_browse_matrix_is_well_formed():
    tm = browse_session_matrix()
    assert len(tm.interactions) == 8
    pi = tm.stationary()
    assert pi.sum() == pytest.approx(1.0)
    assert (pi > 0).all()  # irreducible
    # ViewStory is the hub page: highest long-run frequency
    idx = tm.interactions.index("ViewStory")
    assert pi[idx] == pi.max()


# ----------------------------------------------------------------------
# SessionRequestFactory
# ----------------------------------------------------------------------

def test_factory_sequential_correlation():
    """Per-user sequences must follow the chain: after a ViewStory the
    same user's next request is ViewComment far more often than the
    stationary frequency."""
    tm = two_state()
    rng = np.random.default_rng(2)
    factory = SessionRequestFactory(tm, BASE, rng, n_users=4,
                                    session_length=10_000)
    per_user: dict[int, list[str]] = {u: [] for u in range(4)}
    for i in range(8000):
        req = factory.create(0.0)
        per_user[i % 4].append(req.interaction)
    follows = 0
    total = 0
    for seq in per_user.values():
        for a, b in zip(seq, seq[1:]):
            if a == "ViewStory":
                total += 1
                follows += b == "ViewComment"
    assert follows / total == pytest.approx(0.8, abs=0.04)


def test_factory_session_reset():
    tm = two_state()
    rng = np.random.default_rng(3)
    factory = SessionRequestFactory(tm, BASE, rng, n_users=1, session_length=3)
    for _ in range(3):
        factory.create(0.0)
    # after session_length requests the user's state resets
    assert factory._state[0] is None


def test_factory_validation():
    tm = two_state()
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        SessionRequestFactory(tm, BASE, rng, n_users=0)
    with pytest.raises(ConfigurationError):
        SessionRequestFactory(tm, BASE, rng, session_length=0)


def test_factory_drives_generators_end_to_end(sim, rng):
    from repro.workload.generator import ClosedLoopGenerator
    from tests.conftest import build_app

    app = build_app(sim, db_a_sat=1000)
    factory = SessionRequestFactory(
        browse_session_matrix(), BASE, rng.stream("s"), n_users=8
    )
    gen = ClosedLoopGenerator(sim, app, 8, factory, rng.stream("u"))
    gen.start()
    sim.run(until=5.0)
    assert app.completed > 1000
    assert app.in_flight <= 8
