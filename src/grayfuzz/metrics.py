"""Objective image-quality criteria: MAE, MSE, SNR and PSNR.

Every record is reduced from two exact integer censuses: a 511-bin
histogram of the pixel differences ``test - reference`` and the
``Histogram`` of the reference.  Sums are taken in 64-bit integers before
the single final division, so results are platform-identical.  A zero-error
pair reports infinite SNR/PSNR, serialized as the sentinel string "inf"
(never a crash).  All serialized floats carry four decimal places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image_core import GrayImage, Histogram, histogram, round_half_up

__all__ = ["MetricsRecord", "SplitCensus", "compare", "format_metric", "PSNR_PEAK"]

PSNR_PEAK = 255  # 8-bit domain


def format_metric(value: float) -> str:
    """Four decimal places; infinities become 'inf' / '-inf'."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.4f}"


@dataclass(frozen=True)
class MetricsRecord:
    mae: float
    mse: float
    snr_db: float
    psnr_db: float

    def to_json_dict(self) -> dict:
        def jsonable(v: float):
            return format_metric(v) if math.isinf(v) else round(v, 4)

        return {
            "mae": jsonable(self.mae),
            "mse": jsonable(self.mse),
            "snr_db": jsonable(self.snr_db),
            "psnr_db": jsonable(self.psnr_db),
        }


def _record(diff_counts: np.ndarray, reference: Histogram) -> MetricsRecord:
    """The record of a census pair: ``diff_counts[d + 255]`` pixels differ
    from the reference by ``d``, and ``reference`` is the reference's
    census.  mae = mean |t-r|, mse = mean (t-r)^2, psnr = 10
    log10(255^2/mse), snr = 10 log10(sum r^2 / sum (t-r)^2).  Zero mse
    yields the infinite sentinel for both ratios."""
    diffs = np.arange(-255, 256, dtype=np.int64)
    n = reference.total
    abs_sum = int((np.abs(diffs) * diff_counts).sum())
    sq_sum = int((diffs * diffs * diff_counts).sum())
    ref_sq_sum = int(reference.cum_squares[-1])

    mae = abs_sum / n
    mse = sq_sum / n
    if sq_sum == 0:
        return MetricsRecord(mae=mae, mse=mse, snr_db=math.inf, psnr_db=math.inf)
    psnr = 10.0 * math.log10(PSNR_PEAK * PSNR_PEAK / mse)
    if ref_sq_sum == 0:
        snr = -math.inf
    else:
        snr = 10.0 * math.log10(ref_sq_sum / sq_sum)
    return MetricsRecord(mae=mae, mse=mse, snr_db=snr, psnr_db=psnr)


def _check_dimensions(test: GrayImage, reference: GrayImage) -> None:
    if (test.width, test.height) != (reference.width, reference.height):
        raise ValueError(
            f"dimension mismatch: {test.width}x{test.height} vs "
            f"{reference.width}x{reference.height}"
        )


def compare(test: GrayImage, reference: GrayImage) -> MetricsRecord:
    """Pixelwise error statistics of ``test`` against ``reference``."""
    _check_dimensions(test, reference)
    diff = np.subtract(test.pixels, reference.pixels, dtype=np.int16)
    return _record(np.bincount(diff + 255, minlength=511), histogram(reference))


class SplitCensus:
    """Scores every two-means reading of ``source`` against ``reference``
    from one joint census of their pixel pairs, without building an image.

    The reading at ``level`` replaces each source value <= level by the
    background level and each one above by the foreground level: the two
    class means of ``source.class_means(level)``, rounded half-up.
    ``score`` returns the record ``compare`` gives that image.  ``source``
    and ``reference`` are the two images' histograms.
    """

    def __init__(self, source: GrayImage, reference: GrayImage):
        _check_dimensions(source, reference)
        joint = np.bincount(
            source.pixels.astype(np.int32) * 256 + reference.pixels, minlength=256 * 256
        ).reshape(256, 256)
        # row v: reference histogram of the pixels whose source value is <= v
        self._at_or_below = np.cumsum(joint, axis=0)
        self.source = Histogram(joint.sum(axis=1), source.pixels.size)
        self.reference = Histogram(self._at_or_below[-1], source.pixels.size)

    def score(self, level: int) -> MetricsRecord:
        low, high = round_half_up(self.source.class_means(level)).tolist()
        background = self._at_or_below[level]
        # a class at level L against reference value r lands in bin L - r + 255
        diff_counts = np.zeros(511, dtype=np.int64)
        diff_counts[low:low + 256] += background[::-1]
        diff_counts[high:high + 256] += (self.reference.counts - background)[::-1]
        return _record(diff_counts, self.reference)
