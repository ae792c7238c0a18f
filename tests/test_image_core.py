import numpy as np
import pytest

from grayfuzz.image_core import (
    GrayImage,
    Histogram,
    MalformedHeaderError,
    NoiseSpec,
    RasterAboveMaxvalError,
    TruncatedRasterError,
    UnsupportedMaxvalError,
    add_gaussian_noise,
    bimodal_phantom,
    histogram,
    load_pgm,
    round_half_up,
    save_pgm,
    two_level_phantom,
)
from grayfuzz.fuzzy import RuleCandidates

import oracles
from oracles import RegionLabeling, range_predicate, validate_partition


def random_image(rng, max_side=32):
    w = int(rng.integers(1, max_side))
    h = int(rng.integers(1, max_side))
    return GrayImage(w, h, rng.integers(0, 256, size=w * h))


class TestPgm:
    def test_minimal_file(self):
        img = load_pgm(b"P5 2 1 255 " + bytes([0, 255]))
        assert (img.width, img.height) == (2, 1)
        assert img.pixels.tolist() == [0, 255]

    def test_comment_lines_ignored(self):
        plain = load_pgm(b"P5\n2 1\n255\n" + bytes([7, 9]))
        commented = load_pgm(b"P5\n# test\n2 1\n# another\n255\n" + bytes([7, 9]))
        assert plain == commented

    def test_truncated_raster(self):
        with pytest.raises(TruncatedRasterError):
            load_pgm(b"P5 2 2 255 " + bytes([1, 2, 3]))

    def test_maxval_too_large(self):
        with pytest.raises(UnsupportedMaxvalError):
            load_pgm(b"P5 1 1 65535 " + bytes([1, 1]))

    def test_raster_byte_above_maxval(self):
        assert load_pgm(b"P5 2 1 15 " + bytes([0, 15])).pixels.tolist() == [0, 15]
        with pytest.raises(RasterAboveMaxvalError):
            load_pgm(b"P5 2 1 15 " + bytes([0, 0xFF]))

    def test_bad_magic_and_header(self):
        with pytest.raises(MalformedHeaderError):
            load_pgm(b"P6 1 1 255 " + bytes([1, 2, 3]))
        with pytest.raises(MalformedHeaderError):
            load_pgm(b"P5 x 1 255 " + bytes([1]))
        with pytest.raises(MalformedHeaderError):
            load_pgm(b"P5 1 1")

    def test_canonical_serialization(self):
        data = save_pgm(GrayImage(1, 1, [128]))
        assert data == b"P5\n1 1\n255\n" + bytes([128])

    def test_raster_length(self):
        data = save_pgm(GrayImage(3, 2, [1, 2, 3, 4, 5, 6]))
        header_end = data.index(b"255\n") + 4
        assert len(data) - header_end == 6

    def test_round_trip_random_images(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            img = random_image(rng)
            assert load_pgm(save_pgm(img)) == img


class TestGrayImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(1, 2, [0, 300])
        for bad in (3.7, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                GrayImage(1, 1, [bad])
        assert GrayImage(1, 1, [3.0]).pixels.tolist() == [3]

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            GrayImage(2, 2, [1, 2, 3])

    @pytest.mark.parametrize("width, height", [(2.0, 2), (2, 2.0), (True, 1)])
    def test_rejects_non_integer_dimensions(self, width, height):
        # a float width would reach the PGM header as "2.0", which load_pgm rejects
        with pytest.raises(ValueError):
            GrayImage(width, height, [5] * int(width * height))

    @pytest.mark.parametrize("pixels", [[True, False], ["1", "0"]], ids=["bool", "str"])
    def test_rejects_non_numeric_dtype(self, pixels):
        # a bool raster must not pass as 0/1
        with pytest.raises(ValueError):
            GrayImage(2, 1, pixels)

    def test_immutable(self):
        img = GrayImage(1, 1, [5])
        with pytest.raises(AttributeError):
            img.width = 2
        with pytest.raises(ValueError):
            img.pixels[0] = 1


@pytest.mark.parametrize(
    "cls, fields, changed",
    [
        (GrayImage, {"width": 2, "height": 1, "pixels": [0, 9]},
         {"width": 2, "height": 1, "pixels": [9, 0]}),
        (Histogram, {"counts": list(range(256)), "total": 32640},
         {"counts": list(range(255, -1, -1)), "total": 32640}),
        (RegionLabeling, {"labels": [0, 1, 1], "region_count": 2},
         {"labels": [1, 0, 0], "region_count": 2}),
        (RuleCandidates, {"antecedents": [[0, 1]], "consequents": [2], "degrees": [0.5]},
         {"antecedents": [[0, 1]], "consequents": [2], "degrees": [0.25]}),
    ],
    ids=["GrayImage", "Histogram", "RegionLabeling", "RuleCandidates"],
)
def test_array_values_compare_by_value(cls, fields, changed):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert a != cls(**changed) and not a == cls(**changed)
    assert a != object()


class TestHistogram:
    def test_constant_image(self):
        hist = histogram(GrayImage(4, 4, [128] * 16))
        assert hist.counts[128] == 16
        assert hist.counts.sum() == hist.total == 16

    def test_extremes(self):
        hist = histogram(GrayImage(2, 1, [0, 255]))
        assert hist.counts[0] == 1 and hist.counts[255] == 1

    def test_conservation_random(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            img = random_image(rng)
            hist = histogram(img)
            assert int(hist.counts.sum()) == img.width * img.height

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Histogram(counts=np.zeros(10, dtype=np.int64), total=0)
        with pytest.raises(ValueError):
            Histogram(counts=np.ones(256, dtype=np.int64), total=5)

    @pytest.mark.parametrize("total", [256.0, np.float64(256), True], ids=["float", "numpy", "bool"])
    def test_non_integer_total_rejected(self, total):
        counts = np.ones(256, dtype=np.int64) if total != 1 else np.eye(256, dtype=np.int64)[0]
        with pytest.raises(ValueError):
            Histogram(counts=counts, total=total)

    @pytest.mark.parametrize(
        "counts", [np.full(256, 1.5), np.ones(256, dtype=bool)], ids=["float", "bool"]
    )
    def test_non_integer_counts_rejected(self, counts):
        # 1.5 per bin must not be truncated to 1
        with pytest.raises(ValueError):
            Histogram(counts=counts, total=256)

    def test_class_means_match_per_pixel_oracle(self):
        rng = np.random.default_rng(13)
        # random censuses, then censuses occupied only at 0 or only at 255,
        # where one class is empty at every level
        images = [random_image(rng, max_side=12) for _ in range(6)]
        images += [GrayImage(3, 1, [v] * 3) for v in (0, 255)]
        for img in images:
            hist = histogram(img)
            for level in range(256):
                assert hist.class_means(level) == oracles.class_means(img, level)
        with pytest.raises(ValueError):
            Histogram(counts=np.zeros(256, dtype=np.int64), total=0).class_means(0)

    def test_cumulative_sums_read_only(self):
        hist = histogram(GrayImage(3, 1, [0, 2, 255]))
        assert hist.cum_squares[-1] == 4 + 255 * 255 and hist.cum_sums[2] == 2
        for name in ("cum_counts", "cum_sums", "cum_squares"):
            with pytest.raises(ValueError):
                getattr(hist, name)[0] = 1
            with pytest.raises(AttributeError):
                setattr(hist, name, None)


class TestNoise:
    def test_sigma_zero_is_identity(self):
        img = two_level_phantom(16, 16)
        assert add_gaussian_noise(img, NoiseSpec(sigma=0.0, seed=42)) == img

    def test_deterministic(self):
        img = bimodal_phantom(32, 32)
        spec = NoiseSpec(sigma=20.0, seed=7)
        assert add_gaussian_noise(img, spec) == add_gaussian_noise(img, spec)

    def test_different_seeds_differ(self):
        img = bimodal_phantom(32, 32)
        a = add_gaussian_noise(img, NoiseSpec(sigma=20.0, seed=1))
        b = add_gaussian_noise(img, NoiseSpec(sigma=20.0, seed=2))
        assert a != b

    def test_statistics_mid_gray(self):
        img = GrayImage(512, 512, np.full(512 * 512, 128, dtype=np.uint8))
        noisy = add_gaussian_noise(img, NoiseSpec(sigma=15.0, seed=20240817))
        err = noisy.pixels.astype(np.float64) - 128.0
        assert abs(err.mean()) <= 0.5
        assert 0.98 * 15.0 <= err.std() <= 1.02 * 15.0

    def test_output_clamped(self):
        img = GrayImage(64, 64, np.full(64 * 64, 250, dtype=np.uint8))
        noisy = add_gaussian_noise(img, NoiseSpec(sigma=60.0, seed=3))
        assert noisy.pixels.min() >= 0 and noisy.pixels.max() <= 255

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-1.0, seed=0)

    @pytest.mark.parametrize(
        "sigma, seed",
        [(float("nan"), 0), (float("inf"), 0), (10.0, 1.5), (10.0, -0.5), (10.0, True),
         (True, 0), ("10", 0)],
    )
    def test_bad_spec_rejected(self, sigma, seed):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=sigma, seed=seed)


class TestRoundHalfUp:
    def test_convention(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(-0.5) == 0
        assert round_half_up(100.49) == 100
        assert round_half_up(np.array([0.5, 1.5, 2.4])).tolist() == [1, 2, 2]


class TestValidatePartition:
    def _halves(self):
        img = GrayImage(4, 2, [10, 10, 200, 200] * 2)
        labels = np.array([0, 0, 1, 1] * 2)
        return img, RegionLabeling(labels=labels, region_count=2)

    def test_two_region_passes(self):
        img, labeling = self._halves()
        verdict = validate_partition(img, labeling, range_predicate(5))
        assert verdict.homogeneous_ok and verdict.adjacent_merge_fails

    def test_single_region_not_homogeneous(self):
        img, _ = self._halves()
        labeling = RegionLabeling(labels=np.zeros(8, dtype=int), region_count=1)
        verdict = validate_partition(img, labeling, range_predicate(5))
        assert not verdict.homogeneous_ok
        assert verdict.adjacent_merge_fails  # vacuous: no adjacent pair

    def test_unused_region_id_rejected(self):
        with pytest.raises(ValueError):
            RegionLabeling(labels=np.zeros(8, dtype=int), region_count=2)

    @pytest.mark.parametrize("labels, region_count", [([0, 1, 1], 2.0), ([0], True)])
    def test_non_integer_region_count_rejected(self, labels, region_count):
        with pytest.raises(ValueError):
            RegionLabeling(labels=labels, region_count=region_count)

    def test_length_mismatch(self):
        img, _ = self._halves()
        labeling = RegionLabeling(labels=np.array([0, 1]), region_count=2)
        with pytest.raises(ValueError):
            validate_partition(img, labeling, range_predicate(5))


class TestPhantoms:
    def test_two_level_levels(self):
        img = two_level_phantom(8, 4, low=40, high=210)
        values = set(img.pixels.tolist())
        assert values == {40, 210}

    def test_bimodal_histogram_has_two_lobes(self):
        img = bimodal_phantom()
        hist = histogram(img)
        # intensity mass splits into a low lobe and a high lobe with a gap
        low_mass = int(hist.counts[:128].sum())
        high_mass = int(hist.counts[128:].sum())
        assert low_mass > 0 and high_mass > 0
        assert int(hist.counts[116:140].sum()) == 0


class TestLoadImage:
    def test_png_decodes_like_pgm(self, tmp_path):
        PIL_Image = pytest.importorskip("PIL.Image")
        from grayfuzz.image_core import load_image

        rng = np.random.default_rng(55)
        img = random_image(rng)
        pgm_path = tmp_path / "img.pgm"
        pgm_path.write_bytes(save_pgm(img))
        png_path = tmp_path / "img.png"
        PIL_Image.fromarray(img.to_array(), mode="L").save(png_path)
        assert load_image(str(png_path)) == load_image(str(pgm_path)) == img


class TestNoiseSweep:
    @pytest.mark.parametrize("sigma", [5.0, 15.0, 40.0])
    def test_statistics_across_sigmas(self, sigma):
        img = GrayImage(512, 512, np.full(512 * 512, 128, dtype=np.uint8))
        noisy = add_gaussian_noise(img, NoiseSpec(sigma=sigma, seed=99))
        err = noisy.pixels.astype(np.float64) - 128.0
        assert abs(err.mean()) <= 0.5
        assert 0.98 * sigma <= err.std() <= 1.02 * sigma
