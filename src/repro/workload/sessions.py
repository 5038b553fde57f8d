"""Markov session model: users navigate, they don't draw i.i.d. pages.

The RUBBoS client emulates browsing sessions — after viewing a story a
user most likely views its comments, after a search they open a result,
and so on. This module adds that structure on top of the plain mixes:

* :class:`TransitionMatrix` — a first-order Markov chain over the
  interaction catalog, with stationary-distribution computation;
* :class:`SessionRequestFactory` — a drop-in replacement for
  :class:`~repro.workload.generator.RequestFactory` that samples each
  virtual user's next interaction from the chain, preserving the
  sequential correlation that i.i.d. sampling destroys;
* :func:`browse_session_matrix` — a plausible navigation graph for the
  browse-only catalog.

The chain's *stationary distribution* is what the capacity math needs
(mean demands per tier), so :meth:`TransitionMatrix.stationary_mix`
derives an equivalent :class:`~repro.workload.mixes.WorkloadMix`.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import ConfigurationError
from repro.ntier.request import Request
from repro.workload.mixes import WorkloadMix, choice_cdf
from repro.workload.rubbos import interaction_by_name

__all__ = [
    "TransitionMatrix",
    "SessionRequestFactory",
    "browse_session_matrix",
]


class TransitionMatrix:
    """A first-order Markov chain over interaction names."""

    def __init__(self, interactions: list[str], matrix) -> None:
        if not interactions:
            raise ConfigurationError("need at least one interaction")
        for name in interactions:
            interaction_by_name(name)  # raises on unknown names
        p = np.asarray(matrix, dtype=float)
        n = len(interactions)
        if p.shape != (n, n):
            raise ConfigurationError(
                f"matrix shape {p.shape} does not match {n} interactions"
            )
        if not np.all(np.isfinite(p)):
            # rng.choice used to reject these on the first draw; the
            # cached row CDFs below would silently misdraw instead.
            raise ConfigurationError("transition probabilities must be finite")
        if np.any(p < 0):
            raise ConfigurationError("transition probabilities must be >= 0")
        rows = p.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ConfigurationError(
                f"each row must sum to 1, got sums {rows.round(6)}"
            )
        self.interactions = list(interactions)
        self.p = p
        self._index = {name: i for i, name in enumerate(interactions)}
        self._cdfs = [choice_cdf(row) for row in p]

    # ------------------------------------------------------------------
    def sample_next(self, rng: np.random.Generator, current: str | None) -> str:
        """Draw the next interaction (uniform entry when ``current`` is
        None — a fresh session)."""
        if current is None:
            idx = int(rng.integers(len(self.interactions)))
            return self.interactions[idx]
        cdf = self._cdfs[self._index[current]]
        return self.interactions[bisect_right(cdf, rng.random())]

    def stationary(self) -> np.ndarray:
        """Stationary distribution (power iteration; the chains used
        here are irreducible and aperiodic)."""
        pi = np.full(len(self.interactions), 1.0 / len(self.interactions))
        for _ in range(10_000):
            nxt = pi @ self.p
            if np.abs(nxt - pi).max() < 1e-12:
                return nxt
            pi = nxt
        return pi

    def stationary_mix(
        self, base_demands: dict[str, tuple[float, float]], name: str = "session"
    ) -> WorkloadMix:
        """The WorkloadMix whose weights equal the chain's long-run
        interaction frequencies (for capacity/demand calculations)."""
        pi = self.stationary()
        weights = {
            inter: float(w) for inter, w in zip(self.interactions, pi) if w > 0
        }
        return WorkloadMix(name, weights, base_demands)


class SessionRequestFactory:
    """Request factory with per-virtual-user Markov session state.

    ``n_users`` independent chains are multiplexed round-robin, which
    matches how a closed-loop population interleaves: each virtual
    user's own request sequence follows the chain exactly.
    """

    def __init__(
        self,
        chain: TransitionMatrix,
        base_demands: dict[str, tuple[float, float]],
        rng: np.random.Generator,
        n_users: int = 32,
        dataset_scale: float = 1.0,
        demand_scale: float = 1.0,
        session_length: int = 20,
    ) -> None:
        if n_users < 1:
            raise ConfigurationError(f"n_users must be >= 1, got {n_users!r}")
        if session_length < 1:
            raise ConfigurationError(
                f"session_length must be >= 1, got {session_length!r}"
            )
        self.chain = chain
        self.mix = chain.stationary_mix(base_demands)
        self.rng = rng
        self.n_users = int(n_users)
        self.dataset_scale = float(dataset_scale)
        self.demand_scale = float(demand_scale)
        self.session_length = int(session_length)
        self._state: list[str | None] = [None] * self.n_users
        self._steps: list[int] = [0] * self.n_users
        self._turn = 0
        self._next_id = 0

    def create(self, now: float) -> Request:
        """Create the next request (drop-in RequestFactory interface)."""
        user = self._turn % self.n_users
        self._turn += 1
        current = self._state[user]
        name = self.chain.sample_next(self.rng, current)
        self._steps[user] += 1
        if self._steps[user] >= self.session_length:
            # session ends; the next request starts a fresh one
            self._state[user] = None
            self._steps[user] = 0
        else:
            self._state[user] = name
        demands = self.mix.profile(name).draw(
            self.rng, self.dataset_scale, self.demand_scale
        )
        req = Request(
            req_id=self._next_id, interaction=name, arrival=now, demands=demands
        )
        self._next_id += 1
        return req


def browse_session_matrix() -> TransitionMatrix:
    """A plausible browse-only navigation graph.

    Encodes the obvious flows: the front page leads to stories, a story
    leads to its comments, category browsing leads to stories, searches
    lead to stories, and most paths occasionally return to the front
    page.
    """
    names = [
        "StoriesOfTheDay",
        "ViewStory",
        "ViewComment",
        "BrowseCategories",
        "BrowseStoriesByCategory",
        "OlderStories",
        "SearchInStories",
        "ViewUserInfo",
    ]
    rows = {
        "StoriesOfTheDay": {
            "ViewStory": 0.55, "BrowseCategories": 0.2,
            "OlderStories": 0.1, "SearchInStories": 0.15,
        },
        "ViewStory": {
            "ViewComment": 0.5, "StoriesOfTheDay": 0.2,
            "ViewUserInfo": 0.1, "ViewStory": 0.2,
        },
        "ViewComment": {
            "ViewComment": 0.3, "ViewStory": 0.3,
            "ViewUserInfo": 0.1, "StoriesOfTheDay": 0.3,
        },
        "BrowseCategories": {
            "BrowseStoriesByCategory": 0.8, "StoriesOfTheDay": 0.2,
        },
        "BrowseStoriesByCategory": {
            "ViewStory": 0.6, "BrowseCategories": 0.2,
            "BrowseStoriesByCategory": 0.2,
        },
        "OlderStories": {
            "ViewStory": 0.6, "OlderStories": 0.25, "StoriesOfTheDay": 0.15,
        },
        "SearchInStories": {
            "ViewStory": 0.55, "SearchInStories": 0.3, "StoriesOfTheDay": 0.15,
        },
        "ViewUserInfo": {
            "StoriesOfTheDay": 0.5, "ViewStory": 0.5,
        },
    }
    matrix = np.zeros((len(names), len(names)))
    index = {n: i for i, n in enumerate(names)}
    for src, targets in rows.items():
        for dst, prob in targets.items():
            matrix[index[src], index[dst]] = prob
    return TransitionMatrix(names, matrix)
