import math

import numpy as np
import pytest

from grayfuzz.image_core import GrayImage, histogram
from grayfuzz.metrics import MetricsRecord, SplitCensus, compare, format_metric

import oracles


def random_pair(rng, n=64):
    side = int(math.isqrt(n))
    a = GrayImage(side, side, rng.integers(0, 256, size=side * side))
    b = GrayImage(side, side, rng.integers(0, 256, size=side * side))
    return a, b


class TestExamples:
    def test_identical_images(self):
        img = GrayImage(3, 3, np.arange(9, dtype=np.uint8) * 20)
        record = compare(img, img)
        assert record.mae == 0.0 and record.mse == 0.0
        assert math.isinf(record.psnr_db) and math.isinf(record.snr_db)

    def test_black_vs_white(self):
        black = GrayImage(4, 4, [0] * 16)
        white = GrayImage(4, 4, [255] * 16)
        record = compare(black, white)
        assert record.mae == 255.0
        assert record.mse == 65025.0
        assert record.psnr_db == 0.0

    def test_half_pixels_differ(self):
        test = GrayImage(2, 1, [0, 100])
        ref = GrayImage(2, 1, [255, 100])
        record = compare(test, ref)
        assert record.mse == 32512.5
        assert record.psnr_db == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)


class TestInvariants:
    def test_psnr_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, b = random_pair(rng)
            record = compare(a, b)
            if record.mse > 0:
                assert abs(record.psnr_db - 10.0 * math.log10(255.0 ** 2 / record.mse)) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a, b = random_pair(rng)
            fwd, rev = compare(a, b), compare(b, a)
            assert fwd.mae == rev.mae and fwd.mse == rev.mse

    def test_mae_at_most_rmse(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            a, b = random_pair(rng)
            record = compare(a, b)
            assert record.mae <= math.sqrt(record.mse) + 1e-12

    def test_monotone_in_single_pixel_error(self):
        ref = GrayImage(2, 2, [100, 100, 100, 100])
        base = GrayImage(2, 2, [100, 100, 100, 110])
        worse = GrayImage(2, 2, [100, 100, 100, 130])
        rec_base, rec_worse = compare(base, ref), compare(worse, ref)
        assert rec_worse.mae >= rec_base.mae
        assert rec_worse.mse >= rec_base.mse
        assert rec_worse.psnr_db <= rec_base.psnr_db

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compare(GrayImage(2, 1, [0, 0]), GrayImage(1, 2, [0, 0]))


def random_images(rng, count):
    """Pairs of random size and content, with all-equal, all-zero-reference
    and black/white pairs mixed in."""
    for k in range(count):
        width, height = (int(v) for v in rng.integers(1, 24, size=2))
        a = rng.integers(0, 256, size=width * height)
        b = [rng.integers(0, 256, size=width * height), a, np.zeros_like(a),
             rng.choice([0, 255], size=width * height)][k % 4]
        yield GrayImage(width, height, a), GrayImage(width, height, b)


class TestCensus:
    def test_compare_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(34)
        seen_inf = seen_neg_inf = False
        for a, b in random_images(rng, 200):
            record, expected = compare(a, b), oracles.compare_per_pixel(a, b)
            assert record == expected
            seen_inf |= math.isinf(record.psnr_db)
            seen_neg_inf |= record.snr_db == -math.inf
        assert seen_inf and seen_neg_inf

    def test_split_scores_match_two_level_images(self):
        rng = np.random.default_rng(35)
        for noisy, clean in random_images(rng, 8):
            census = SplitCensus(noisy, clean)
            assert census.source == histogram(noisy) and census.reference == histogram(clean)
            for level in range(256):
                expected = compare(oracles.two_level_image(noisy, level), clean)
                assert census.score(level) == expected

    @pytest.mark.parametrize("level", [-1, 256, 2.5, True])
    def test_bad_reading_rejected(self, level):
        img = GrayImage(2, 1, [0, 100])
        census = SplitCensus(img, img)
        with pytest.raises(ValueError):
            census.score(level)
        with pytest.raises(ValueError):
            census.source.class_means(level)

    def test_census_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SplitCensus(GrayImage(2, 1, [0, 0]), GrayImage(1, 2, [0, 0]))


class TestSerialization:
    def test_four_decimals(self):
        record = MetricsRecord(mae=1.0, mse=2.0, snr_db=18.99321, psnr_db=45.12341)
        assert record.to_json_dict() == {"mae": 1.0, "mse": 2.0, "snr_db": 18.9932, "psnr_db": 45.1234}

    def test_inf_sentinel(self):
        record = MetricsRecord(mae=0.0, mse=0.0, snr_db=math.inf, psnr_db=math.inf)
        payload = record.to_json_dict()
        assert payload["psnr_db"] == "inf"

    def test_format_metric(self):
        assert format_metric(3.01029995) == "3.0103"
        assert format_metric(-math.inf) == "-inf"
