"""Tests for the §2.2 quality estimators."""

import random
from fractions import Fraction

import pytest

from repro.exceptions import SourceError
from repro.model import fact
from repro.sources.quality import (
    clopper_pearson_lower,
    completeness_from_fd,
    estimate_completeness,
    estimate_soundness,
    intended_size_from_fd,
    required_sample_size,
)


class TestClopperPearson:
    def test_all_successes_high_bound(self):
        assert clopper_pearson_lower(100, 100, 0.95) > 0.96

    def test_zero_successes(self):
        assert clopper_pearson_lower(0, 50, 0.95) == 0.0

    def test_bound_below_point_estimate(self):
        assert clopper_pearson_lower(80, 100, 0.95) < 0.8

    def test_monotone_in_confidence(self):
        loose = clopper_pearson_lower(80, 100, 0.9)
        tight = clopper_pearson_lower(80, 100, 0.99)
        assert tight < loose

    # Expected values are the Beta quantiles B(1 - confidence; x, n - x + 1)
    # that define the exact bound, to 15 significant digits.
    @pytest.mark.parametrize(
        "successes, trials, confidence, expected",
        [
            (0, 1, 0.99, 0.0),
            (1, 1, 0.95, 0.05),
            (100, 100, 0.95, 0.970486950392960),
            (50, 50, 0.99, 0.912010839355910),
            (385, 385, 0.95, 0.992249071780833),
            (1, 10, 0.95, 0.00511619689182371),
            (5, 20, 0.9, 0.126926059935809),
            (80, 100, 0.95, 0.722799750329086),
            (80, 100, 0.99, 0.690791286593435),
            (99, 100, 0.5, 0.983273329454237),
            (2000, 2500, 0.95, 0.786383431775568),
            (1000, 16588, 0.95, 0.0572718965531934),
        ],
    )
    def test_pinned_values(self, successes, trials, confidence, expected):
        bound = clopper_pearson_lower(successes, trials, confidence)
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(SourceError):
            clopper_pearson_lower(5, 0, 0.95)
        with pytest.raises(SourceError):
            clopper_pearson_lower(5, 4, 0.95)
        with pytest.raises(SourceError):
            clopper_pearson_lower(1, 4, 1.5)


class TestEstimateSoundness:
    def test_lower_bound_actually_holds(self):
        rng = random.Random(11)
        truth = {fact("V", i) for i in range(80)}
        junk = {fact("V", 1000 + i) for i in range(20)}
        extension = truth | junk  # true soundness 0.8
        bound = estimate_soundness(
            extension, lambda f: f in truth, sample_size=60,
            confidence=0.95, rng=rng,
        )
        assert 0 < bound <= 0.9

    def test_empty_extension_is_sound(self):
        assert estimate_soundness([], lambda f: True, 10) == 1.0

    def test_sample_larger_than_extension_uses_all(self):
        truth = {fact("V", 1)}
        bound = estimate_soundness(truth, lambda f: True, 100, rng=random.Random(0))
        assert bound > 0


class TestSampleSize:
    def test_classic_values(self):
        # 95% confidence, 5% margin, p=0.5 -> ~385
        assert 380 <= required_sample_size(0.95, 0.05) <= 390

    @pytest.mark.parametrize(
        "confidence, margin, p_guess, expected",
        [
            (0.95, 0.05, 0.5, 385),
            (0.99, 0.01, 0.5, 16588),
            (0.9, 0.1, 0.3, 57),
            (0.5, 0.2, 0.5, 3),
            (0.999, 0.001, 0.5, 2706892),
            (0.95, 0.5, 0.01, 1),
        ],
    )
    def test_pinned_values(self, confidence, margin, p_guess, expected):
        assert required_sample_size(confidence, margin, p_guess) == expected

    def test_tighter_margin_needs_more(self):
        assert required_sample_size(0.95, 0.01) > required_sample_size(0.95, 0.1)

    def test_invalid(self):
        with pytest.raises(SourceError):
            required_sample_size(0, 0.05)
        with pytest.raises(SourceError):
            required_sample_size(0.95, 0)


class TestFDBasedCompleteness:
    def test_intended_size(self):
        # the paper's climatology case: stations x months
        assert intended_size_from_fd([6000, 12 * 294]) == 6000 * 3528

    def test_completeness_from_fd(self):
        assert completeness_from_fd(50, [10, 10]) == Fraction(1, 2)

    def test_capped_at_one(self):
        assert completeness_from_fd(200, [10, 10]) == 1

    def test_zero_domain(self):
        assert completeness_from_fd(0, [0, 5]) == 1

    def test_negative_rejected(self):
        with pytest.raises(SourceError):
            completeness_from_fd(-1, [10])
        with pytest.raises(SourceError):
            intended_size_from_fd([-2])


class TestEstimateCompleteness:
    def test_basic(self):
        assert estimate_completeness(50, 100, 0.8) == pytest.approx(0.4)

    def test_capped(self):
        assert estimate_completeness(300, 100, 1.0) == 1.0

    def test_trivial_intended(self):
        assert estimate_completeness(5, 0, 0.5) == 1.0

    def test_invalid(self):
        with pytest.raises(SourceError):
            estimate_completeness(-1, 10, 0.5)
        with pytest.raises(SourceError):
            estimate_completeness(1, 10, 1.5)
