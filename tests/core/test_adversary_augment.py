"""Privacy adversary study."""

import numpy as np
import pytest

from repro.core import (
    CnnConfig,
    DriverIdentificationAdversary,
    PrivacyLevel,
    run_privacy_adversary_study,
)
from repro.core.adversary import AdversaryResult
from repro.exceptions import ConfigurationError


FAST = CnnConfig(epochs=2, width=0.5)


def test_adversary_requires_two_drivers():
    with pytest.raises(ConfigurationError):
        DriverIdentificationAdversary(1, None)


def test_adversary_result_privacy_margin():
    private = AdversaryResult(level=PrivacyLevel.HIGH, accuracy=0.5,
                              chance=0.5)
    assert private.privacy_margin == pytest.approx(1.0)
    leaky = AdversaryResult(level=None, accuracy=1.0, chance=0.5)
    assert leaky.privacy_margin == pytest.approx(0.0)
    below_chance = AdversaryResult(level=PrivacyLevel.HIGH, accuracy=0.3,
                                   chance=0.5)
    assert below_chance.privacy_margin == 1.0  # clipped


def test_adversary_identifies_drivers_on_clean_frames(
        tiny_alternative_dataset):
    """On clean frames, driver identity is learnable above chance."""
    ds = tiny_alternative_dataset
    adversary = DriverIdentificationAdversary(
        2, None, config=CnnConfig(epochs=4, width=0.5),
        rng=np.random.default_rng(0))
    adversary.fit(ds.images, ds.drivers)
    result = adversary.evaluate(ds.images, ds.drivers)
    # At toy scale the adversary must at least match the majority-class
    # floor; the strong separation check runs at bench scale.
    assert result.accuracy >= result.chance - 1e-9


def test_adversary_study_covers_levels(tiny_alternative_dataset):
    ds = tiny_alternative_dataset
    results = run_privacy_adversary_study(
        ds.images, ds.drivers, config=FAST,
        levels=(None, PrivacyLevel.HIGH), rng=np.random.default_rng(1))
    assert set(results) == {"clean", "high"}
    for result in results.values():
        assert 0.0 <= result.accuracy <= 1.0
        assert 0.0 < result.chance < 1.0


def test_adversary_observes_distorted_frames(tiny_alternative_dataset):
    ds = tiny_alternative_dataset
    adversary = DriverIdentificationAdversary(
        2, PrivacyLevel.HIGH, config=FAST, rng=np.random.default_rng(2))
    observed = adversary._observed(ds.images[:2])
    # Restored frames keep NCHW shape but carry only 16x16 information.
    assert observed.shape == ds.images[:2].shape
    assert len(np.unique(observed[0, 0])) <= 16 * 16

