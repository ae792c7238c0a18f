"""End-to-end extraction: noisy image in, threshold fusion, rule learning,
per-pixel inference, restored image out.

Stages, in order: (1) histogram and the fifteen-threshold report; (2) pixel
attributes - each pixel carries its own intensity and the mean of its
clamp-padded square neighbourhood, both exact in one integer key,
``value * 2296 + window_sum``; (3) an anchor partition built from the
converged thresholds covers both input variables; (4) the distinct keys of
a 1-in-``training_stride`` staggered pixel lattice map those attributes to
the mean intensity of the pixel's majority-vote class, so learning needs no
clean reference; (5) ``apply_rulebase`` then restores every pixel through
min/max inference and centroid decoding, rounded half-up and clamped, once
per distinct key.  A pixel whose attributes fire no rule is restored to 0.

The whole path is deterministic: a fixed (image, config) always produces a
bit-identical result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fuzzy import (
    FuzzyPartition,
    RuleBase,
    build_partition,
    combine,
    generate_rules,
)
from .image_core import GrayImage, histogram, round_half_up
from .thresholding import (
    BinaryMask,
    ThresholdReport,
    binarize,
    fuse_decision_level,
    threshold_report,
)

__all__ = [
    "PipelineConfig",
    "ExtractionResult",
    "WINDOW",
    "apply_rulebase",
    "extract",
    "fuzzify_image",
    "two_level_image",
    "neighborhood_mean",
]


WINDOW = 3  # side of the square neighbourhood behind each pixel's mean attribute
_SUM_LEVELS = 255 * WINDOW * WINDOW + 1  # window sums run over 0..2295


@dataclass(frozen=True)
class PipelineConfig:
    """The two freedoms the method leaves open: the minimum number of fuzzy
    regions per partition and the 1-in-``training_stride`` training lattice."""

    min_regions: int = 7
    training_stride: int = 4

    def __post_init__(self):
        if self.min_regions < 3:
            raise ValueError("min_regions must be at least 3")
        if self.training_stride < 1:
            raise ValueError("training_stride must be at least 1")


@dataclass(frozen=True)
class ExtractionResult:
    extracted: GrayImage
    report: ThresholdReport
    rulebase: Optional[RuleBase]
    mask: BinaryMask
    no_rule_pixels: int
    degenerate: bool = False


def _window_sums(image: GrayImage, window: int) -> np.ndarray:
    """Integer window x window neighbourhood sums, clamp-to-edge at the
    borders, from an int64 summed-area table (Crow 1984)."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd positive integer")
    padded = np.pad(image.to_array().astype(np.int64), window // 2, mode="edge")
    integral = np.pad(padded.cumsum(axis=0).cumsum(axis=1), ((1, 0), (1, 0)))
    w = window
    return integral[w:, w:] - integral[:-w, w:] - integral[w:, :-w] + integral[:-w, :-w]


def neighborhood_mean(image: GrayImage, window: int = 3) -> np.ndarray:
    """Mean of the window x window neighbourhood around every pixel,
    clamp-to-edge at the borders.  Exact: integer window sums divided once."""
    return _window_sums(image, window) / float(window * window)


def _pixel_keys(image: GrayImage) -> np.ndarray:
    """One int64 key per pixel, ``value * _SUM_LEVELS + window sum``."""
    sums = _window_sums(image, WINDOW).reshape(-1)
    return image.pixels.astype(np.int64) * _SUM_LEVELS + sums


def _key_inputs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(value, window mean) of each key, exactly as ``neighborhood_mean``."""
    return keys // _SUM_LEVELS, (keys % _SUM_LEVELS) / float(WINDOW * WINDOW)


def _training_indices(height: int, width: int, stride: int) -> np.ndarray:
    """Flat indices of every stride-th pixel per row, with the column phase
    shifted by the row index.  The stagger keeps the 1-in-stride budget while
    covering all columns even when the width is a multiple of the stride."""
    return np.flatnonzero((np.arange(width) - np.arange(height)[:, None]) % stride == 0)


def _class_means(image: GrayImage, mask: BinaryMask) -> Tuple[float, float]:
    """(background mean, foreground mean); an empty class borrows the other's."""
    pixels = image.pixels.astype(np.int64)
    bits = mask.bits
    fg_count = int(bits.sum())
    bg_count = pixels.size - fg_count
    fg_mean = float(pixels[bits].sum() / fg_count) if fg_count else None
    bg_mean = float(pixels[~bits].sum() / bg_count) if bg_count else None
    if fg_mean is None:
        fg_mean = bg_mean
    if bg_mean is None:
        bg_mean = fg_mean
    return bg_mean, fg_mean


def two_level_image(image: GrayImage, mask: BinaryMask) -> GrayImage:
    """Replace each class by its rounded mean intensity (the binarized-means
    reconstruction used for single-method benchmark rows)."""
    if (mask.width, mask.height) != (image.width, image.height):
        raise ValueError("mask dimensions do not match image")
    bg_mean, fg_mean = _class_means(image, mask)
    bg_level = int(np.clip(round_half_up(bg_mean), 0, 255))
    fg_level = int(np.clip(round_half_up(fg_mean), 0, 255))
    pixels = np.where(mask.bits, np.uint8(fg_level), np.uint8(bg_level))
    return GrayImage(image.width, image.height, pixels)


def fuzzify_image(image: GrayImage, partition: FuzzyPartition) -> np.ndarray:
    """Per-region membership maps, shape (region_count, height, width).

    At every pixel the maps sum to one (Ruspini partition).
    """
    grades = partition.memberships(image.pixels.astype(np.float64))
    return grades.reshape(partition.region_count, image.height, image.width)


def _apply_rulebase(base: RuleBase, keys: np.ndarray) -> Tuple[np.ndarray, int]:
    """Restored level of each key (0 where no rule fires), and how many fire none.

    Evaluated once per occupied key: each rule fires at degree * min of its
    memberships, each spike level keeps its strongest rule, and the centroid
    of the spikes is rounded half-up.
    """
    table = np.zeros(256 * _SUM_LEVELS, dtype=np.int16)  # level per key, -1: no rule
    table[keys] = 1
    occupied = np.flatnonzero(table)
    values, means = _key_inputs(occupied)
    grades_v = base.in_partitions[0].memberships(values)
    grades_m = base.in_partitions[1].memberships(means)

    heights: dict[int, np.ndarray] = {}
    for antecedent, (consequent, degree) in sorted(base.rules.items()):
        firing = degree * np.minimum(grades_v[antecedent[0]], grades_m[antecedent[1]])
        level = base.out_partition.spike_level(consequent)
        heights[level] = np.maximum(heights.get(level, 0.0), firing)

    numerator = np.zeros(occupied.size, dtype=np.float64)
    mass = np.zeros(occupied.size, dtype=np.float64)
    for level in sorted(heights):
        numerator += level * heights[level]
        mass += heights[level]

    fired = mass > 0.0
    centroid = np.divide(numerator, mass, out=np.zeros_like(numerator), where=fired)
    levels = np.clip(round_half_up(centroid), 0, 255)
    table[occupied] = np.where(fired, levels, -1)
    restored = table[keys]
    return np.maximum(restored, 0).astype(np.uint8), int(np.count_nonzero(restored < 0))


def apply_rulebase(base: RuleBase, image: GrayImage) -> Tuple[GrayImage, int]:
    """Restore every pixel of ``image`` with a two-input rule base over the
    pixel value and its WINDOW x WINDOW mean, as ``extract`` does.  Returns
    the restored image and the number of pixels that fired no rule (set to 0).
    """
    if len(base.in_partitions) != 2:
        raise ValueError(f"need a rule base with 2 inputs, not {len(base.in_partitions)}")
    levels, no_rule = _apply_rulebase(base, _pixel_keys(image))
    return GrayImage(image.width, image.height, levels), no_rule


def extract(noisy: GrayImage, cfg: PipelineConfig = PipelineConfig()) -> ExtractionResult:
    """Restore a noisy gray image without any external reference.

    A single-intensity input cannot be thresholded; it comes back unchanged
    with the degenerate flag set.  Pixels whose attribute combination fires
    no rule take level 0 and are counted in no_rule_pixels.
    """
    hist = histogram(noisy)
    report = threshold_report(hist)
    first, last = hist.occupied_range()
    if first == last:
        return ExtractionResult(
            extracted=noisy,
            report=report,
            rulebase=None,
            mask=binarize(noisy, first),
            no_rule_pixels=0,
            degenerate=True,
        )

    mask = fuse_decision_level(noisy, report)
    anchors = [float(level) for level in report.converged_levels()]
    in_partition = build_partition(anchors, cfg.min_regions)
    in_partitions = (in_partition, in_partition)

    keys = _pixel_keys(noisy)
    bg_mean, fg_mean = _class_means(noisy, mask)
    out_partition = build_partition(sorted({bg_mean, fg_mean}), cfg.min_regions)

    # The mask depends on the value alone, so equal keys give equal candidates.
    idx = _training_indices(noisy.height, noisy.width, cfg.training_stride)
    train_keys, at = np.unique(keys[idx], return_index=True)
    targets = np.where(mask.bits[idx[at]], fg_mean, bg_mean)
    candidates = generate_rules(
        np.stack(_key_inputs(train_keys), axis=1), targets, in_partitions, out_partition,
    )
    base = combine(candidates, in_partitions, out_partition)

    restored, no_rule = _apply_rulebase(base, keys)
    extracted = GrayImage(noisy.width, noisy.height, restored)
    return ExtractionResult(
        extracted=extracted,
        report=report,
        rulebase=base,
        mask=mask,
        no_rule_pixels=no_rule,
        degenerate=False,
    )
