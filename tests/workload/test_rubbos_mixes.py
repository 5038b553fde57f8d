"""Tests for the RUBBoS catalog and workload mixes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.mixes import WorkloadMix, browse_only_mix, read_write_mix
from repro.workload.rubbos import CATALOG, interaction_by_name

BASE = {"web": (0.001, 0.1), "app": (0.002, 0.2), "db": (0.005, 0.3)}


def test_catalog_has_24_interactions():
    assert len(CATALOG) == 24
    assert len({i.name for i in CATALOG}) == 24


def test_catalog_has_writes_and_reads():
    writes = [i for i in CATALOG if i.write]
    assert 3 <= len(writes) <= 8
    assert all(i.name.startswith("Store") for i in writes)


def test_interaction_lookup():
    assert interaction_by_name("ViewStory").db_mult == 1.0
    with pytest.raises(KeyError):
        interaction_by_name("NoSuchServlet")


def test_browse_only_mix_has_no_writes():
    mix = browse_only_mix(BASE)
    assert mix.write_fraction() == 0.0


def test_read_write_mix_has_writes():
    mix = read_write_mix(BASE)
    assert 0.08 <= mix.write_fraction() <= 0.25


def test_mix_validation():
    with pytest.raises(ConfigurationError):
        WorkloadMix("empty", {}, BASE)
    with pytest.raises(ConfigurationError):
        WorkloadMix("bad", {"NoSuchServlet": 1.0}, BASE)
    with pytest.raises(ConfigurationError):
        WorkloadMix("zero", {"ViewStory": 0.0}, BASE)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            WorkloadMix("bad", {"ViewStory": 2.0, "SearchInStories": bad}, BASE)


def test_sampling_follows_weights():
    mix = WorkloadMix("two", {"ViewStory": 3.0, "SearchInStories": 1.0}, BASE)
    rng = np.random.default_rng(0)
    draws = [mix.sample_interaction(rng) for _ in range(2000)]
    frac = draws.count("ViewStory") / len(draws)
    assert frac == pytest.approx(0.75, abs=0.03)


def test_mean_demand_is_weighted():
    mix = WorkloadMix("two", {"ViewStory": 1.0, "SearchInStories": 1.0}, BASE)
    # db multipliers: ViewStory 1.0, SearchInStories 2.0 -> mean 1.5x base
    assert mix.mean_demand("db") == pytest.approx(0.005 * 1.5)


def test_mean_demand_dataset_scaling():
    mix = WorkloadMix("one", {"ViewStory": 1.0}, BASE)
    # db demand scales linearly with the dataset
    assert mix.mean_demand("db", dataset_scale=2.0) == pytest.approx(0.010)
    # web demand does not
    assert mix.mean_demand("web", dataset_scale=2.0) == pytest.approx(0.001)


def test_profile_access():
    mix = browse_only_mix(BASE)
    profile = mix.profile("ViewStory")
    assert profile.interaction == "ViewStory"
    assert set(profile.tiers) == {"web", "app", "db"}


def test_interactions_sorted():
    mix = browse_only_mix(BASE)
    assert mix.interactions == sorted(mix.interactions)


@pytest.mark.parametrize("factory", [browse_only_mix, read_write_mix])
def test_cached_cdf_draws_match_rng_choice(factory):
    """Bisecting the cached CDF is numpy's own choice(p=...) algorithm:
    the same interaction on every draw and the same stream afterwards."""
    mix = factory(BASE)
    names = mix.interactions
    probs = mix._probs
    fast = np.random.default_rng(2024)
    reference = np.random.default_rng(2024)
    # per-call choice, as the draws were made before
    for _ in range(2_000):
        got = mix.sample_interaction(fast)
        assert got == names[int(reference.choice(len(names), p=probs))]
    assert fast.bit_generator.state == reference.bit_generator.state
    # one vectorised choice consumes the stream exactly as n scalar calls
    n = 200_000
    got = [mix.sample_interaction(fast) for _ in range(n)]
    want = [names[i] for i in reference.choice(len(names), size=n, p=probs)]
    assert got == want
    assert fast.bit_generator.state == reference.bit_generator.state
