import numpy as np
import pytest

from grayfuzz.image_core import GrayImage, Histogram
from grayfuzz.thresholding import (
    METHOD_ORDER,
    ThresholdFailure,
    ThresholdMethod,
    compute_threshold,
    threshold_report,
)

import oracles


def hist_from_counts(mapping) -> Histogram:
    counts = np.zeros(256, dtype=np.int64)
    for level, count in mapping.items():
        counts[level] = count
    return Histogram(counts=counts, total=int(counts.sum()))


def uniform_hist() -> Histogram:
    return Histogram(counts=np.ones(256, dtype=np.int64), total=256)


def lobes_hist(c1=60, s1=12.0, c2=180, s2=18.0, amp=4000) -> Histogram:
    """Deterministic two-Gaussian-lobe histogram."""
    bins = np.arange(256, dtype=np.float64)
    counts = np.round(
        amp * np.exp(-0.5 * ((bins - c1) / s1) ** 2)
        + 0.8 * amp * np.exp(-0.5 * ((bins - c2) / s2) ** 2)
    ).astype(np.int64)
    return Histogram(counts=counts, total=int(counts.sum()))


CRITERION_ORACLES = {
    ThresholdMethod.OTSU: oracles.oracle_otsu,
    ThresholdMethod.LI: oracles.oracle_li,
    ThresholdMethod.MAX_ENTROPY: oracles.oracle_max_entropy,
    ThresholdMethod.MIN_ERROR: oracles.oracle_min_error,
    ThresholdMethod.RENYI_ENTROPY: oracles.oracle_renyi,
    ThresholdMethod.YEN: oracles.oracle_yen,
    ThresholdMethod.SHANBHAG: oracles.oracle_shanbhag,
    ThresholdMethod.HUANG: oracles.oracle_huang,
    ThresholdMethod.MOMENTS: oracles.oracle_moments,
    ThresholdMethod.TRIANGLE: oracles.oracle_triangle,
    ThresholdMethod.MINIMUM: oracles.oracle_minimum,
}


def level_or_none(method, hist, **kw):
    try:
        return compute_threshold(method, hist, **kw)
    except ThresholdFailure:
        return None


class TestSpecExamples:
    def test_mean_uniform(self):
        assert compute_threshold(ThresholdMethod.MEAN, uniform_hist()) == 127

    def test_otsu_two_spike(self):
        hist = hist_from_counts({50: 100, 200: 100})
        assert compute_threshold(ThresholdMethod.OTSU, hist) == 50
        assert oracles.oracle_otsu(hist.counts) == 50

    def test_percentile_convention(self):
        # |cumulative fraction - 0.5| is minimized at level 10 (0.25 vs 0.5)
        hist = hist_from_counts({10: 100, 20: 300})
        assert compute_threshold(ThresholdMethod.PERCENTILE, hist) == 10
        assert oracles.oracle_percentile(hist.counts) == 10

    def test_isodata_symmetric_bimodal(self):
        hist = hist_from_counts({60: 500, 180: 500})
        assert compute_threshold(ThresholdMethod.ISODATA, hist) == 120
        # fixed-point iteration started from 127 reaches the same level
        assert oracles.oracle_isodata(hist.counts, t0=127) == 120

    def test_minimum_smoothing_operand_order(self):
        # summing the 3-tap window as (mid + right) + left instead of
        # (left + mid) + right moves this level from 151 to 217
        hist = hist_from_counts({91: 2, 93: 4, 212: 19, 250: 5})
        assert compute_threshold(ThresholdMethod.MINIMUM, hist) == 151
        assert oracles.oracle_minimum(hist.counts) == 151


class TestReport:
    def test_exactly_fifteen_entries(self):
        report = threshold_report(uniform_hist())
        assert set(report.entries) == set(METHOD_ORDER)
        assert len(report.entries) == 15

    def test_bimodal_lobes_levels_between_peaks(self):
        report = threshold_report(lobes_hist())
        levels = report.converged_levels()
        assert len(levels) == 15
        assert all(60 < level < 180 for level in levels)

    def test_single_spike_degenerate(self):
        report = threshold_report(hist_from_counts({77: 1000}))
        assert report.entries[ThresholdMethod.MEAN].level == 77
        assert report.entries[ThresholdMethod.PERCENTILE].level == 77
        for method in METHOD_ORDER:
            if method in (ThresholdMethod.MEAN, ThresholdMethod.PERCENTILE):
                assert report.entries[method].status == "converged"
            else:
                assert report.entries[method].status == "failed"
                assert report.entries[method].level is None

    def test_csv_shape(self):
        text = threshold_report(uniform_hist()).to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "method,level,status"
        assert len(lines) == 16
        assert lines[1].startswith("Default,")


class TestOracleAgreement:
    def test_criterion_methods_match_bruteforce(self):
        rng = np.random.default_rng(404)
        for _ in range(20):
            counts = oracles.random_histogram(rng)
            hist = Histogram(counts=counts, total=int(counts.sum()))
            for method, oracle in CRITERION_ORACLES.items():
                assert level_or_none(method, hist) == oracle(counts), method

    def test_mean_and_percentile_match_bruteforce(self):
        rng = np.random.default_rng(405)
        for _ in range(20):
            counts = oracles.random_histogram(rng)
            hist = Histogram(counts=counts, total=int(counts.sum()))
            assert compute_threshold(ThresholdMethod.MEAN, hist) == oracles.oracle_mean(counts)
            assert compute_threshold(ThresholdMethod.PERCENTILE, hist) == oracles.oracle_percentile(counts)
            assert level_or_none(ThresholdMethod.ISODATA, hist) == oracles.oracle_isodata(counts)
            assert level_or_none(ThresholdMethod.DEFAULT, hist) == oracles.oracle_default(counts)


class TestInvariants:
    def test_levels_within_occupied_range(self):
        rng = np.random.default_rng(406)
        for _ in range(25):
            counts = oracles.random_histogram(rng)
            hist = Histogram(counts=counts, total=int(counts.sum()))
            first, last = hist.occupied_range()
            for level in threshold_report(hist).converged_levels():
                assert first <= level <= last

    def test_shift_covariance(self):
        rng = np.random.default_rng(407)
        shift = 30
        shiftable = (
            ThresholdMethod.MEAN,
            ThresholdMethod.PERCENTILE,
            ThresholdMethod.OTSU,
            ThresholdMethod.ISODATA,
        )
        for _ in range(10):
            base = np.zeros(256, dtype=np.int64)
            base[20:200] = rng.integers(0, 50, size=180)
            if base.sum() == 0 or np.count_nonzero(base) < 2:
                continue
            shifted = np.zeros(256, dtype=np.int64)
            shifted[20 + shift : 200 + shift] = base[20:200]
            h1 = Histogram(counts=base, total=int(base.sum()))
            h2 = Histogram(counts=shifted, total=int(shifted.sum()))
            for method in shiftable:
                assert level_or_none(method, h2) == level_or_none(method, h1) + shift

    def test_deterministic_report(self):
        counts = oracles.random_histogram(np.random.default_rng(408))
        hist = Histogram(counts=counts, total=int(counts.sum()))
        a = threshold_report(hist)
        b = threshold_report(hist)
        assert a.to_csv_text() == b.to_csv_text()

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            threshold_report(Histogram(counts=np.zeros(256, dtype=np.int64), total=0))


class TestFusion:
    def _report_with_levels(self, levels):
        entries = threshold_report(lobes_hist()).entries.copy()
        from grayfuzz.thresholding import ThresholdEntry, ThresholdReport

        out = {}
        for i, method in enumerate(METHOD_ORDER):
            if i < len(levels):
                out[method] = ThresholdEntry(level=levels[i], status="converged")
            else:
                out[method] = ThresholdEntry(level=None, status="failed")
        return ThresholdReport(entries=out)

    def test_majority_unanimity_and_ties(self):
        # fifteen converged levels 10..24; pixels around them
        levels = list(range(10, 25))
        report = self._report_with_levels(levels)
        img = GrayImage(3, 1, [5, 18, 200])  # below all; above exactly 8; above all
        assert (img.pixels > report.majority_level()).tolist() == [False, True, True]
        img2 = GrayImage(1, 1, [17])  # above exactly 7 of 15 -> background
        assert (img2.pixels > report.majority_level()).tolist() == [False]

    @pytest.mark.parametrize(
        "level, status",
        [
            (None, "converged"),
            (2.5, "converged"),
            (True, "converged"),
            (np.int64(100), "converged"),
            (-1, "converged"),
            (256, "converged"),
            (100, "failed"),
            (100, "banana"),
            (None, "banana"),
        ],
    )
    def test_inconsistent_entry_rejected(self, level, status):
        from grayfuzz.thresholding import ThresholdEntry

        with pytest.raises(ValueError):
            ThresholdEntry(level=level, status=status)

