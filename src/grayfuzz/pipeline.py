"""End-to-end extraction: noisy image in, threshold fusion, rule learning,
per-pixel inference, restored image out.

Stages, in order: (1) histogram and the fifteen-threshold report; (2) pixel
attributes - each pixel carries its own intensity and the mean of its
clamp-padded square neighbourhood, both exact in one integer key,
``value * 2296 + window_sum``; (3) an anchor partition built from the
converged thresholds covers both input variables; (4) the distinct keys of
a 1-in-``training_stride`` staggered pixel lattice map those attributes to
the mean intensity of the pixel's majority-vote class, read from
``Histogram.class_means`` at the majority level, so learning needs no clean
reference; (5) ``apply_rulebase`` then restores every pixel through
min/max inference and centroid decoding, rounded half-up, once per
distinct key.  A pixel whose attributes fire no rule is restored to 0.

The whole path is deterministic: a fixed (image, config) always produces a
bit-identical result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fuzzy import RuleBase, build_partition, combine, generate_rules
from .image_core import GrayImage, _is_int, histogram, round_half_up
from .thresholding import ThresholdReport, threshold_report

__all__ = [
    "PipelineConfig",
    "ExtractionResult",
    "WINDOW",
    "apply_rulebase",
    "extract",
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
        if not _is_int(self.min_regions) or self.min_regions < 3:
            raise ValueError("min_regions must be an integer of at least 3")
        if not _is_int(self.training_stride) or self.training_stride < 1:
            raise ValueError("training_stride must be an integer of at least 1")


@dataclass(frozen=True)
class ExtractionResult:
    """``level`` is the majority split, the two-class decision behind the
    training targets (background iff value <= level); a degenerate input
    splits at its one value.  Results compare by value."""

    extracted: GrayImage
    report: ThresholdReport
    rulebase: Optional[RuleBase]
    level: int
    no_rule_pixels: int
    degenerate: bool = False


def _window_sums(image: GrayImage) -> np.ndarray:
    """Clamp-to-edge WINDOW x WINDOW neighbourhood sums, (height, width)
    uint16: WINDOW-tap adds along rows, then along columns, over the
    edge-padded raster."""
    height, width = image.height, image.width
    padded = np.pad(image.to_array(), WINDOW // 2, mode="edge").astype(np.uint16)
    rows = sum(padded[:, i:i + width] for i in range(WINDOW))
    return sum(rows[i:i + height] for i in range(WINDOW))


def _pixel_keys(image: GrayImage) -> np.ndarray:
    """One int32 key per pixel, ``value * _SUM_LEVELS + window sum``."""
    return image.pixels.astype(np.int32) * _SUM_LEVELS + _window_sums(image).reshape(-1)


def _apply_rulebase(base: RuleBase, keys: np.ndarray) -> Tuple[np.ndarray, int]:
    """Restored level of each key (0 where no rule fires), and how many fire none.

    Evaluated once per occupied key: each rule fires at degree * min of its
    memberships, each spike level keeps its strongest rule, and the centroid
    of the spikes is rounded half-up.  The memberships come from one table
    per input, over the 256 values and the _SUM_LEVELS window sums.  The
    occupied keys ascend, so their values do too, and a rule fires only on
    the slice of keys whose value lies strictly inside its value region,
    where that region's membership is non-zero.  Spike levels are taken in
    ascending order, one height array at a time.
    """
    seen = np.zeros(256 * _SUM_LEVELS, dtype=bool)
    seen[keys] = True
    occupied = np.flatnonzero(seen)
    del seen  # freed before the level table below, so the two never coexist
    values, sums = np.divmod(occupied, _SUM_LEVELS)
    part_v, part_m = base.in_partitions
    lut_v = part_v.memberships(np.arange(256))
    lut_m = part_m.memberships(np.arange(_SUM_LEVELS) / float(WINDOW * WINDOW))
    # value region a is non-zero strictly between peaks[a] and peaks[a + 2]
    peaks = (-1.0,) + part_v.peaks + (256.0,)
    above, below = np.searchsorted(values, peaks, side="right"), np.searchsorted(values, peaks)

    by_level: dict[int, list] = {}
    for (a, m), (consequent, degree) in sorted(base.rules.items()):
        by_level.setdefault(base.out_partition.spike_level(consequent), []).append((a, m, degree))
    numerator = np.zeros(occupied.size, dtype=np.float64)
    mass = np.zeros(occupied.size, dtype=np.float64)
    for level in sorted(by_level):
        height = np.zeros(occupied.size)
        for a, m, degree in by_level[level]:
            lo, hi = above[a], below[a + 2]
            grades = np.minimum(lut_v[a].take(values[lo:hi]), lut_m[m].take(sums[lo:hi]))
            np.maximum(height[lo:hi], degree * grades, out=height[lo:hi])
        numerator += level * height
        mass += height

    fired = mass > 0.0
    centroid = np.divide(numerator, mass, out=np.zeros_like(numerator), where=fired)
    levels = round_half_up(centroid)
    table = np.empty(256 * _SUM_LEVELS, dtype=np.int16)  # level per occupied key, -1: no rule
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
            level=first,
            no_rule_pixels=0,
            degenerate=True,
        )

    level = report.majority_level()
    anchors = [float(t) for t in report.converged_levels()]
    in_partition = build_partition(anchors, cfg.min_regions)
    in_partitions = (in_partition, in_partition)
    bg_mean, fg_mean = hist.class_means(level)
    out_partition = build_partition(sorted({bg_mean, fg_mean}), cfg.min_regions)

    # Training lattice: (column - row) % stride == 0.  The stagger keeps the
    # 1-in-stride budget while covering all columns even when the width is a
    # multiple of the stride.  It is the union of one strided grid per phase
    # (phases past either side are empty); a table over all keys lists its
    # distinct keys in ascending order.
    keys = _pixel_keys(noisy)
    grid, stride = keys.reshape(noisy.height, noisy.width), cfg.training_stride
    seen = np.zeros(256 * _SUM_LEVELS, dtype=bool)
    for phase in range(min(stride, *grid.shape)):
        seen[grid[phase::stride, phase::stride]] = True
    train_keys = np.flatnonzero(seen)
    values, sums = np.divmod(train_keys, _SUM_LEVELS)
    targets = np.where(values > level, fg_mean, bg_mean)
    candidates = generate_rules(
        np.stack([values, sums / float(WINDOW * WINDOW)], axis=1),
        targets, in_partitions, out_partition,
    )
    base = combine(candidates, in_partitions, out_partition)

    restored, no_rule = _apply_rulebase(base, keys)
    extracted = GrayImage(noisy.width, noisy.height, restored)
    return ExtractionResult(
        extracted=extracted,
        report=report,
        rulebase=base,
        level=level,
        no_rule_pixels=no_rule,
        degenerate=False,
    )
