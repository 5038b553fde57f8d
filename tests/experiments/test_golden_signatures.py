"""Golden pins: exact artifact signatures and pickle bytes of tiny specs.

Every performance change to the simulation hot path must be
byte-identical. ``RunArtifact.signature()`` covers the recorded series;
the sha256 of the pickled artifact additionally catches type leaks the
signature cannot see (a numpy scalar where a Python float used to be
pickles differently but digests the same).

The specs cover each path a hot-path cache could get wrong: discrete
and hybrid ConScale, EC2 without the estimator, the drift guard, a
slow-node capacity swap, vertical scale-up (which resets a server's
fine-grained history) and the QoS controller's windowed reads.

Regenerate only when simulated behaviour changes on purpose (a
``SCHEMA_VERSION`` bump): run each spec and copy the two digests.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.experiments.artifact import RunSpec
from repro.experiments.fluid_equiv import steady_trace_csv
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.faults.plan import parse_faults
from repro.scaling.policy import TierPolicyConfig


def _config(**kwargs) -> ScenarioConfig:
    defaults = dict(
        name="golden", trace_name="dual_phase",
        load_scale=300.0, duration=60.0, seed=2,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def _hybrid_spec() -> RunSpec:
    # A relative trace path keeps the spec digest independent of the
    # temporary directory the test runs in.
    trace = steady_trace_csv(".", users=4000.0, duration=90.0)
    return RunSpec("conscale", _config(
        trace_name=trace, duration=90.0, seed=11,
        topology=(1, 2, 2), mode="hybrid",
    ))


SPECS = {
    "conscale-discrete": lambda: RunSpec("conscale", _config()),
    "conscale-hybrid": _hybrid_spec,
    "ec2": lambda: RunSpec("ec2", _config()),
    "conscale-drift-check": lambda: RunSpec(
        "conscale", _config(sct_drift_check=True, duration=120.0)
    ),
    "conscale-slow-node": lambda: RunSpec(
        "conscale", _config(topology=(1, 2, 2)),
        faults=parse_faults("slow:db:20:20:4"),
    ),
    "ec2-vertical": lambda: RunSpec(
        "ec2", _config(policy=TierPolicyConfig(prefer_vertical=True))
    ),
    "qos": lambda: RunSpec("qos", _config()),
}

# name -> (signature, sha256 of pickle.dumps(artifact, HIGHEST_PROTOCOL))
GOLDEN = {
    "conscale-discrete": (
        "526f5e8db2679e020cd7dcf10fabd95b07d0c71072e1dc5ac61ba8805a7f93f3",
        "5635a25cbcd6101c0b0e973dba846d583284a201bcdec0a73852458c6e196a0e",
    ),
    "conscale-hybrid": (
        "f2d47760f337493af6463bcf84e380f7a15bebe96c8f8e736c8b97f174f301bc",
        "402ffc5e97675acfc3ac7f6e778d65991cadf300dc971862ea957eb193d146cc",
    ),
    "ec2": (
        "f5f87fd3d8842224869c8b6c5c0b52c781b5f2505e35605cd91d04420658cd49",
        "8da3461a8f7d3ae63b9b6b33a0e12e058cd387404ee8b81bfbc6cab26738d3f7",
    ),
    "conscale-drift-check": (
        "a6ad548360cb7955153fa88bf56d08476a909f3aae8a6c95f2bc55faf0896011",
        "dd551c671561de61786e5f2463d14e4e4bb91b0bbf8a7fe3a4f86bb0ea09caeb",
    ),
    "conscale-slow-node": (
        "4ccc2ead3068cdde6ec46f90b4a911d6649bf97e007e546fc25556c66785e57c",
        "3ac918c1c4141d42d0f25118df06e633c7ed1bb82a9eb6cd4b98374fbe194acc",
    ),
    "ec2-vertical": (
        "3cb70e293a4c5e58f2f64a8941081f69b6c0d391df6edf8206bda00e6a5e076c",
        "54bbadd64dbf0a8fbecdcd495c91a91ef072d7e56985b65def99e652d2fd25a7",
    ),
    "qos": (
        "e02ef7e7d7d87841c375bc4e55306e9704f843937abef0157bd97fb1713f448a",
        "114efd04551cc676066c3ebe703982d3f85dd7d813c9c40939df1d464836c9eb",
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_golden_signature_and_pickle(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    artifact = execute_spec(SPECS[name]())
    blob = pickle.dumps(artifact, pickle.HIGHEST_PROTOCOL)
    got = (artifact.signature(), hashlib.sha256(blob).hexdigest())
    assert got == GOLDEN[name]
