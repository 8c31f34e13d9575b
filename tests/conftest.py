"""Shared helpers for the moddemix test suite."""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import configuration
from hypothesis import strategies as st

from moddemix import TrialSpec, synthesize
from moddemix.operators import BlockFactorPair, Dimensions


def pytest_configure(config):
    """Hypothesis caches the constants of the code under test on disk, from
    test collection on: keep that cache in a temporary directory removed at
    the end of the run, not in the working tree's .hypothesis/."""
    home = tempfile.TemporaryDirectory(prefix="moddemix-hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)


def random_pair(dims: Dimensions, rng: np.random.Generator,
                scale: float = 1.0) -> BlockFactorPair:
    """Random complex Gaussian factor pair of the given geometry."""
    h = rng.standard_normal((dims.N, dims.M)) + 1j * rng.standard_normal((dims.N, dims.M))
    x = rng.standard_normal((dims.N, dims.K)) + 1j * rng.standard_normal((dims.N, dims.K))
    return BlockFactorPair(scale * h, scale * x)


def strict_json(text: str):
    """`json.loads` that rejects NaN and Infinity, which are not JSON (RFC 8259)."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def make_instance(dims: Dimensions, seed: int = 0, snr_db=None):
    """Ensemble/truth/observation triple for a seeded instance."""
    return synthesize(TrialSpec(dims, seed=seed, snr_db=snr_db))


@st.composite
def small_dimensions(draw) -> Dimensions:
    """Any small geometry `synthesize` accepts: L odd or even, Q <= L,
    M <= L, K * N <= Q."""
    L = draw(st.integers(1, 40))
    Q = draw(st.integers(1, L))
    N = draw(st.integers(1, min(Q, 3)))
    return Dimensions(L=L, Q=Q, M=draw(st.integers(1, L)),
                      K=draw(st.integers(1, Q // N)), N=N)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


SMALL_DIMS = [
    Dimensions(L=16, Q=8, M=3, K=2, N=1),
    Dimensions(L=32, Q=16, M=6, K=4, N=2),
    Dimensions(L=48, Q=24, M=5, K=3, N=3),
    Dimensions(L=64, Q=64, M=8, K=8, N=2),
]
