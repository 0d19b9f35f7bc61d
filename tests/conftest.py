"""Shared fixtures: a small model zoo and the full 8-bit seed space."""

from fractions import Fraction

import pytest

from filterbounds.core import UniverseParams
from filterbounds.filters import ExactSetModel, NoisyExactModel, seed_space

P62 = UniverseParams(6, 2)


@pytest.fixture(scope="session")
def seeds8():
    return list(seed_space(8))


@pytest.fixture(scope="session")
def exact62():
    return ExactSetModel(P62)


@pytest.fixture(scope="session")
def noisy62():
    # one noise element; seed-dependent false positives, never incomplete
    return NoisyExactModel(P62, Fraction(1, 6), noise_m=1)
