"""End-to-end extraction: noisy image in, threshold fusion, rule learning,
per-pixel inference, restored image out.

Stages, in order: (1) histogram and the fifteen-threshold report; (2) pixel
attributes - each pixel carries its own intensity and the mean of its
clamp-padded square neighbourhood; (3) an anchor partition built from the
converged thresholds covers both input variables; (4) training pairs drawn
from a 1-in-``training_stride`` staggered pixel lattice map those attributes
to the mean intensity of the pixel's majority-vote class, so learning needs
no clean reference; (5) the combined rule base then restores every pixel through
min/max inference and centroid decoding, rounded half-up and clamped.  A
pixel whose attributes fire no rule is restored to level 0.

The whole path is deterministic: a fixed (image, config) always produces a
bit-identical result.  Per-pixel inference is evaluated in a batched form
that computes exactly the same firing strengths, spike heights and centroid
as calling ``fuzzy.infer`` + ``fuzzy.defuzzify`` pixel by pixel.
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
    "extract",
    "fuzzify_image",
    "two_level_image",
    "neighborhood_mean",
]


WINDOW = 3  # side of the square neighbourhood behind each pixel's mean attribute


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


def neighborhood_mean(image: GrayImage, window: int = 3) -> np.ndarray:
    """Mean of the window x window neighbourhood around every pixel,
    clamp-to-edge at the borders.  Exact: integer window sums divided once.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd positive integer")
    if window == 1:
        return image.to_array().astype(np.float64)
    k = window // 2
    padded = np.pad(image.to_array().astype(np.float64), k, mode="edge")
    integral = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1))
    integral[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    w = window
    sums = (
        integral[w:, w:]
        - integral[:-w, w:]
        - integral[w:, :-w]
        + integral[:-w, :-w]
    )
    return sums / float(w * w)


def _training_indices(height: int, width: int, stride: int) -> np.ndarray:
    """Flat indices of every stride-th pixel per row, with the column phase
    shifted by the row index.  The stagger keeps the 1-in-stride budget while
    covering all columns even when the width is a multiple of the stride."""
    if stride == 1:
        return np.arange(height * width)
    rows, cols = np.mgrid[0:height, 0:width]
    picked = (cols - rows) % stride == 0
    idx = np.flatnonzero(picked.reshape(-1))
    return idx if idx.size else np.array([0])


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


def _apply_rulebase_batched(
    base: RuleBase,
    values: np.ndarray,
    means: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Defuzzified level for every (value, mean) pixel pair; 0 where no rule
    fires.

    Batched equivalent of infer+defuzzify per pixel: identical firing
    strengths (degree * min of memberships), identical per-spike max
    aggregation, identical centroid and rounding.
    """
    stacked = np.stack([values, means], axis=1)
    uniq, inverse = np.unique(stacked, axis=0, return_inverse=True)
    part_v, part_m = base.in_partitions
    grades_v = part_v.memberships(uniq[:, 0])
    grades_m = part_m.memberships(uniq[:, 1])

    heights: dict[int, np.ndarray] = {}
    for antecedent, (consequent, degree) in sorted(base.rules.items()):
        firing = degree * np.minimum(grades_v[antecedent[0]], grades_m[antecedent[1]])
        level = base.out_partition.spike_level(consequent)
        if level in heights:
            np.maximum(heights[level], firing, out=heights[level])
        else:
            heights[level] = firing

    numerator = np.zeros(len(uniq), dtype=np.float64)
    mass = np.zeros(len(uniq), dtype=np.float64)
    for level in sorted(heights):
        numerator += level * heights[level]
        mass += heights[level]

    fired = mass > 0.0
    centroid = np.divide(numerator, mass, out=np.zeros_like(numerator), where=fired)
    levels = np.clip(round_half_up(centroid), 0, 255)
    levels = np.where(fired, levels, 0)
    per_pixel = levels[inverse]
    no_rule = int((~fired[inverse]).sum())
    return per_pixel.astype(np.uint8), no_rule


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

    values = noisy.pixels.astype(np.float64)
    means = neighborhood_mean(noisy, WINDOW).reshape(-1)
    bg_mean, fg_mean = _class_means(noisy, mask)
    targets = np.where(mask.bits, fg_mean, bg_mean)

    out_partition = build_partition(sorted({bg_mean, fg_mean}), cfg.min_regions)

    idx = _training_indices(noisy.height, noisy.width, cfg.training_stride)
    candidates = generate_rules(
        np.stack([values[idx], means[idx]], axis=1), targets[idx],
        in_partitions, out_partition,
    )
    base = combine(candidates, in_partitions, out_partition)

    restored, no_rule = _apply_rulebase_batched(base, values, means)
    extracted = GrayImage(noisy.width, noisy.height, restored)
    return ExtractionResult(
        extracted=extracted,
        report=report,
        rulebase=base,
        mask=mask,
        no_rule_pixels=no_rule,
        degenerate=False,
    )
