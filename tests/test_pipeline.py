import dataclasses
import math

import numpy as np
import pytest

from grayfuzz.image_core import (
    GrayImage,
    NoiseSpec,
    add_gaussian_noise,
    bimodal_phantom,
    histogram,
    two_level_phantom,
)
from grayfuzz.metrics import compare
from grayfuzz.fuzzy import build_partition
from grayfuzz.pipeline import (
    WINDOW,
    PipelineConfig,
    _pixel_keys,
    extract,
)

import oracles
from oracles import defuzzify, fuzzify_image, infer, neighborhood_mean


class TestConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.min_regions >= 3 and cfg.training_stride >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_regions": 2},
            {"min_regions": 0},
            {"training_stride": -1},
            {"training_stride": 0},
            {"min_regions": 7.5},
            {"training_stride": 2.5},
            {"training_stride": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)


class TestNeighborhoodMean:
    def test_window_one_is_identity(self):
        img = bimodal_phantom(8, 8)
        assert np.array_equal(neighborhood_mean(img, 1), img.to_array().astype(float))

    def test_clamped_corner(self):
        img = GrayImage(3, 3, [9, 0, 0, 0, 0, 0, 0, 0, 0])
        means = neighborhood_mean(img, 3)
        # corner window replicates the edge: 4 copies of 9 out of 9 samples
        assert means[0, 0] == pytest.approx(4 * 9 / 9)
        assert means[2, 2] == pytest.approx(0.0)

    def test_interior_mean(self):
        arr = np.arange(25, dtype=np.uint8).reshape(5, 5)
        img = GrayImage.from_array(arr)
        means = neighborhood_mean(img, 3)
        assert means[2, 2] == pytest.approx(arr[1:4, 1:4].mean())


class TestPixelKeys:
    def test_keys_match_explicit_window_sums(self):
        rng = np.random.default_rng(14)
        shapes = [(1, 1), (1, 9), (9, 1), (2, 3)]
        shapes += [(int(rng.integers(1, 24)), int(rng.integers(1, 24))) for _ in range(12)]
        images = [GrayImage(w, h, rng.integers(0, 256, size=w * h)) for w, h in shapes]
        images.append(GrayImage(7, 5, np.full(35, 255, dtype=np.uint8)))
        for img in images:
            expected = [
                value * (255 * WINDOW * WINDOW + 1) + total
                for value, total in zip(img.pixels.tolist(), oracles.window_sums(img, WINDOW))
            ]
            assert _pixel_keys(img).tolist() == expected, (img.width, img.height)


class TestRuleLearning:
    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5, 10 ** 12])
    def test_rules_match_lattice_bruteforce(self, stride):
        cfg = PipelineConfig(training_stride=stride)
        for (w, h), seed in (((13, 9), 1), ((7, 17), 2), ((11, 11), 3)):
            noisy = add_gaussian_noise(bimodal_phantom(w, h), NoiseSpec(sigma=40.0, seed=seed))
            result = extract(noisy, cfg)
            levels = result.report.converged_levels()
            pixels = noisy.pixels.tolist()
            fg = oracles.majority_vote(pixels, levels).tolist()
            assert (noisy.pixels > result.level).tolist() == fg
            classes = {
                flag: [p for p, f in zip(pixels, fg) if f == flag] for flag in (False, True)
            }
            means = {flag: sum(c) / len(c) for flag, c in classes.items() if c}
            bg_mean = means.get(False, means.get(True))
            fg_mean = means.get(True, bg_mean)
            in_part = build_partition([float(t) for t in levels], cfg.min_regions)
            out_part = build_partition(sorted({bg_mean, fg_mean}), cfg.min_regions)
            assert result.rulebase.in_partitions == (in_part, in_part)
            assert result.rulebase.out_partition == out_part

            window = oracles.window_means(noisy, WINDOW)
            pairs = [
                ((float(pixels[i]), window[i]), fg_mean if fg[i] else bg_mean)
                for i in range(w * h)
                if (i % w - i // w) % stride == 0
            ]
            expected = oracles.wang_mendel_bruteforce(pairs, (in_part, in_part), out_part)
            assert result.rulebase.rules == expected, ((w, h), seed)


class TestExtract:
    def test_two_class_zero_noise_exact(self, two_level_image_40_210):
        result = extract(two_level_image_40_210, PipelineConfig())
        assert result.extracted == two_level_image_40_210
        assert sorted(set(result.extracted.pixels.tolist())) == [40, 210]
        assert math.isinf(compare(result.extracted, two_level_image_40_210).psnr_db)
        assert result.no_rule_pixels == 0
        assert not result.degenerate

    def test_constant_image_degenerate(self):
        img = GrayImage(16, 16, np.full(256, 128, dtype=np.uint8))
        result = extract(img, PipelineConfig())
        assert result.degenerate
        assert result.extracted == img
        assert result.rulebase is None
        assert result.level == 128

    def test_deterministic(self):
        noisy = add_gaussian_noise(bimodal_phantom(48, 48), NoiseSpec(sigma=30.0, seed=5))
        a = extract(noisy, PipelineConfig())
        b = extract(noisy, PipelineConfig())
        assert a.extracted == b.extracted
        assert a.rulebase.rules == b.rulebase.rules
        assert a.no_rule_pixels == b.no_rule_pixels
        assert a == b
        assert a != dataclasses.replace(a, level=a.level + 1)

    def test_output_in_range_and_shape(self):
        rng = np.random.default_rng(9)
        img = GrayImage(20, 15, rng.integers(0, 256, size=300))
        result = extract(img, PipelineConfig())
        assert (result.extracted.width, result.extracted.height) == (20, 15)
        assert result.extracted.pixels.min() >= 0
        assert result.extracted.pixels.max() <= 255

    def test_batched_inference_matches_per_pixel(self):
        cfg = PipelineConfig()
        noisy = add_gaussian_noise(bimodal_phantom(24, 24), NoiseSpec(sigma=40.0, seed=11))
        result = extract(noisy, cfg)
        base = result.rulebase
        means = neighborhood_mean(noisy, WINDOW).reshape(-1)
        for i in range(noisy.pixels.size):
            out = infer(base, (float(noisy.pixels[i]), float(means[i])))
            decoded = defuzzify(out)
            expected = 0 if decoded.no_rule_fired else decoded.level
            assert result.extracted.pixels[i] == expected

    def test_two_class_fidelity_random_splits(self):
        rng = np.random.default_rng(21)
        cfg = PipelineConfig(training_stride=1)
        for _ in range(8):
            low = int(rng.integers(5, 120))
            high = low + 64 + int(rng.integers(0, 255 - (low + 64)))
            orientation = "vertical" if rng.integers(2) else "horizontal"
            split = float(rng.uniform(0.2, 0.8))
            img = two_level_phantom(40, 40, low=low, high=high,
                                    orientation=orientation, split=split)
            result = extract(img, cfg)
            assert result.extracted == img, (low, high, orientation, split)


class TestFuzzifyImage:
    def test_partition_of_unity_and_peak(self):
        img = bimodal_phantom(16, 16)
        result = extract(add_gaussian_noise(img, NoiseSpec(sigma=20.0, seed=2)),
                         PipelineConfig())
        part = result.rulebase.in_partitions[0]
        maps = fuzzify_image(img, part)
        assert maps.shape == (part.region_count, 16, 16)
        assert np.abs(maps.sum(axis=0) - 1.0).max() < 1e-9

    def test_constant_image_constant_maps(self):
        from grayfuzz.fuzzy import build_partition

        part = build_partition([128], min_regions=3)
        img = GrayImage(4, 4, np.full(16, 77, dtype=np.uint8))
        maps = fuzzify_image(img, part)
        for region in range(part.region_count):
            assert np.unique(maps[region]).size == 1


class TestTwoLevelImage:
    def test_class_means_rounded(self):
        img = GrayImage(4, 1, [10, 20, 200, 210])
        assert histogram(img).class_means(100) == (15.0, 205.0)
        assert oracles.two_level_image(img, 100).pixels.tolist() == [15, 15, 205, 205]

    def test_empty_class_borrows_other(self):
        img = GrayImage(2, 1, [10, 20])
        assert histogram(img).class_means(100) == (15.0, 15.0)  # no foreground
        assert oracles.two_level_image(img, 100).pixels.tolist() == [15, 15]

    def test_split_edges(self):
        # background iff value <= level: at 255 nothing is foreground, at 0
        # only zeros are background
        img = GrayImage(3, 1, [0, 1, 255])
        assert histogram(img).class_means(255) == (256 / 3, 256 / 3)
        assert histogram(img).class_means(0) == (0.0, 128.0)
        assert oracles.two_level_image(img, 255).pixels.tolist() == [85, 85, 85]
        assert oracles.two_level_image(img, 0).pixels.tolist() == [0, 128, 128]


class TestTotality:
    def test_extract_never_aborts(self):
        rng = np.random.default_rng(61)
        cases = [
            GrayImage(1, 1, [0]),
            GrayImage(1, 1, [255]),
            GrayImage(2, 1, [0, 255]),
            GrayImage(1, 7, [0, 0, 0, 255, 255, 255, 128]),
            GrayImage(3, 3, np.full(9, 255, dtype=np.uint8)),
        ]
        for _ in range(15):
            w = int(rng.integers(1, 21))
            h = int(rng.integers(1, 21))
            cases.append(GrayImage(w, h, rng.integers(0, 256, size=w * h)))
        for img in cases:
            result = extract(img, PipelineConfig())
            assert (result.extracted.width, result.extracted.height) == (img.width, img.height)
            assert result.extracted.pixels.min() >= 0
            assert result.extracted.pixels.max() <= 255
