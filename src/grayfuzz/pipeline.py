"""End-to-end extraction: noisy image in, threshold fusion, rule learning,
per-pixel inference, restored image out.

Stages, in order: (1) histogram and the fifteen-threshold report; (2) pixel
attributes - each pixel carries its own intensity and the mean of its
clamp-padded square neighbourhood, both exact in one integer key,
``value * 2296 + window_sum``; (3) an anchor partition built from the
converged thresholds, with at least ``MIN_REGIONS`` regions, covers both
input variables; (4) the distinct keys of a 1-in-``TRAINING_STRIDE``
staggered pixel lattice map those attributes to the mean intensity of the
pixel's majority-vote class, read from ``Histogram.class_means`` at the
majority level, so learning needs no clean reference; rule learning sees one
key per (value, best sum region), the one whose sum grade is highest, and
learns the same rule base as from them all; (5) ``apply_rulebase`` then
restores every pixel through min/max inference and centroid decoding,
rounded half-up, once per distinct key and against only the at most four
rules that can fire on it, the corners of the rectangle of peaks around it.
A pixel whose attributes fire no rule is restored to 0.

The whole path is deterministic and takes no settings: a fixed image always
produces a bit-identical result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fuzzy import FuzzyPartition, RuleBase, build_partition, combine, generate_rules
from .image_core import GrayImage, histogram, round_half_up
from .thresholding import ThresholdReport, threshold_report

__all__ = [
    "ExtractionResult",
    "MIN_REGIONS",
    "TRAINING_STRIDE",
    "WINDOW",
    "apply_rulebase",
    "extract",
]


WINDOW = 3  # side of the square neighbourhood behind each pixel's mean attribute
MIN_REGIONS = 7  # fewest fuzzy regions in the input and output partitions
TRAINING_STRIDE = 4  # one training pixel in TRAINING_STRIDE, on a staggered lattice
_SUM_LEVELS = 255 * WINDOW * WINDOW + 1  # window sums run over 0..2295


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
    """One intp key per pixel, ``value * _SUM_LEVELS + window sum``: intp, so
    that scatters and gathers by key take numpy's direct-index path."""
    keys = np.multiply(image.pixels, _SUM_LEVELS, dtype=np.intp)
    keys += _window_sums(image).reshape(-1)
    return keys


def _apply_rulebase(base: RuleBase, keys: np.ndarray) -> Tuple[np.ndarray, int]:
    """Restored level of each key (0 where no rule fires), and how many fire none.

    Evaluated once per occupied key: each rule fires at degree * min of its
    memberships, each spike level keeps its strongest rule, and the centroid
    of the spikes is rounded half-up.  The memberships come from one table
    per input, over the 256 values and the _SUM_LEVELS window sums.  The
    occupied keys are listed one sum bracket at a time (the sums between two
    neighbouring peaks of the sum partition), ascending by value within each.
    Sum region m is non-zero only in brackets m - 1 and m, and value region
    a only on the slice of a bracket whose values lie strictly inside it, so
    rule (a, m) visits two slices and a key meets at most four rules: the
    corners of the rectangle of peaks around it.  Spike levels are taken in
    ascending order, one height array at a time.
    """
    seen = np.zeros((256, _SUM_LEVELS), dtype=bool)
    seen.reshape(-1)[keys] = True
    part_v, part_m = base.in_partitions
    means = np.arange(_SUM_LEVELS) / float(WINDOW * WINDOW)
    lut_v = part_v.memberships(np.arange(256))
    lut_m = part_m.memberships(means)
    # bracket j holds the sums whose mean lies in [peaks[j], peaks[j + 1]), the
    # last one 255 too; it may hold none (peaks 100.01 and 100.05)
    cuts = (0, *np.searchsorted(means, part_m.peaks[1:-1]), _SUM_LEVELS)
    # value region a is non-zero strictly between peaks[a] and peaks[a + 2]
    peaks = (-1.0,) + part_v.peaks + (256.0,)
    values, sums, above, below = [], [], [], []
    start = 0
    for lo, hi in zip(cuts, cuts[1:]):
        # row-major over (value, sum - lo), so the values ascend; an empty
        # run divides by 1
        v, s = np.divmod(np.flatnonzero(seen[:, lo:hi]), max(hi - lo, 1))
        values.append(v)
        sums.append(s + lo)
        above.append(np.searchsorted(v, peaks, side="right") + start)
        below.append(np.searchsorted(v, peaks) + start)
        start += v.size
    del seen
    values, sums = np.concatenate(values), np.concatenate(sums)

    by_level: dict[int, list] = {}
    for (a, m), (consequent, degree) in sorted(base.rules.items()):
        by_level.setdefault(base.out_partition.spike_level(consequent), []).append((a, m, degree))
    numerator = np.zeros(start)
    mass = np.zeros(start)
    for level in sorted(by_level):
        height = np.zeros(start)
        for a, m, degree in by_level[level]:
            # min(d * x, d * y) == d * min(x, y) to the bit: every degree d is
            # in (0, 1] and IEEE rounding is monotone, so d folds into both tables
            lut_a, lut_s = degree * lut_v[a], degree * lut_m[m]
            for j in range(max(m - 1, 0), min(m + 1, len(above))):
                lo, hi = above[j][a], below[j][a + 2]
                grades = np.minimum(lut_a.take(values[lo:hi]), lut_s.take(sums[lo:hi]))
                np.maximum(height[lo:hi], grades, out=height[lo:hi])
        numerator += level * height
        mass += height

    fired = mass > 0.0
    centroid = np.divide(numerator, mass, out=numerator, where=fired)  # 0 where none fires
    levels = np.where(fired, round_half_up(centroid), -1)
    occupied = values * _SUM_LEVELS + sums
    # the per-key arrays go before the per-pixel gather, where the keys set the peak
    del values, sums, numerator, mass, centroid, fired
    table = np.empty(256 * _SUM_LEVELS, dtype=np.int16)  # level per occupied key, -1: no rule
    table[occupied] = levels
    del occupied, levels
    restored = table.take(keys)
    no_rule = int(np.count_nonzero(restored < 0))
    return np.maximum(restored, 0, out=restored).astype(np.uint8), no_rule


def apply_rulebase(base: RuleBase, image: GrayImage) -> Tuple[GrayImage, int]:
    """Restore every pixel of ``image`` with a two-input rule base over the
    pixel value and its WINDOW x WINDOW mean, as ``extract`` does.  Returns
    the restored image and the number of pixels that fired no rule (set to 0).
    """
    levels, no_rule = _apply_rulebase(base, _pixel_keys(image))
    return GrayImage(image.width, image.height, levels), no_rule


def _training_keys(grid: np.ndarray, partition: FuzzyPartition) -> Tuple[np.ndarray, np.ndarray]:
    """(values, sums) of the training keys that rule learning sees, from the
    (height, width) pixel keys; its per-key arrays are gone before inference.

    Training lattice: (column - row) % TRAINING_STRIDE == 0.  The stagger
    keeps the 1-in-stride budget while covering all columns even when the
    width is a multiple of the stride.  It is the union of one strided grid
    per phase (phases past either side are empty); a table over all keys
    lists its distinct keys in ascending order.
    """
    stride = TRAINING_STRIDE
    seen = np.zeros(256 * _SUM_LEVELS, dtype=bool)
    for phase in range(min(stride, *grid.shape)):
        seen[grid[phase::stride, phase::stride]] = True
    values, sums = np.divmod(np.flatnonzero(seen), _SUM_LEVELS)

    # Keys that share a value and a best sum region share the antecedent
    # cell, the consequent (the target depends on the value alone) and the
    # factor out_grade * value_grade, so their degrees differ only by the
    # sum grade.  IEEE multiplication by a non-negative factor is monotone,
    # so a key with the top sum grade carries the strongest degree, the one
    # combine keeps; tied candidates carry equal degrees.  The keys ascend,
    # so each (value, region) group is one run; its first top key goes on.
    table = partition._best_region(np.arange(_SUM_LEVELS) / float(WINDOW * WINDOW))
    regions, grades = (column[sums] for column in table)
    new_run = (np.diff(values, prepend=-1) != 0) | (np.diff(regions, prepend=-1) != 0)
    starts = np.flatnonzero(new_run)
    top = np.repeat(np.maximum.reduceat(grades, starts), np.diff(starts, append=grades.size))
    firsts = np.flatnonzero(grades == top)
    runs = np.searchsorted(starts, firsts, side="right")  # 1 + run of each top key
    firsts = firsts[np.diff(runs, prepend=0) > 0]
    return values[firsts], sums[firsts]


def extract(noisy: GrayImage) -> ExtractionResult:
    """Restore a noisy gray image from the image alone: no clean reference
    and no settings.

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
    in_partition = build_partition(anchors, MIN_REGIONS)
    in_partitions = (in_partition, in_partition)
    bg_mean, fg_mean = hist.class_means(level)
    out_partition = build_partition(sorted({bg_mean, fg_mean}), MIN_REGIONS)

    keys = _pixel_keys(noisy)
    values, sums = _training_keys(keys.reshape(noisy.height, noisy.width), in_partition)
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
