"""Independent brute-force references for the threshold criteria, the
rule-learning procedure, window sums, per-pixel inference, majority
fusion, the two-level reading and the image-quality metrics, plus the
partition-validity checker behind acceptance criterion 9.

Every threshold oracle sweeps all candidate levels and evaluates the
method's published criterion directly on freshly-summed histogram slices,
with no shared code or cumulative tables from the production path.  Ties
break toward the lowest level, the convention pinned across the package.
A return of None means the method fails on that histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from grayfuzz.fuzzy import RuleBase
from grayfuzz.image_core import GrayImage, _array_fields_equal, _is_int, round_half_up
from grayfuzz.metrics import PSNR_PEAK, MetricsRecord

LEVELS = 256


def _occupied(counts):
    nz = [i for i in range(LEVELS) if counts[i] > 0]
    return nz[0], nz[-1]


def _int_arrays(counts):
    arr = np.asarray(counts, dtype=np.int64)
    return arr, np.arange(LEVELS, dtype=np.int64) * arr


def _class_sums(arr, weighted, t):
    # fresh slice sums per candidate (exact in int64), no cumulative tables
    w0 = int(arr[: t + 1].sum())
    w1 = int(arr[t + 1 :].sum())
    s0 = int(weighted[: t + 1].sum())
    s1 = int(weighted[t + 1 :].sum())
    return w0, w1, s0, s1


def oracle_otsu(counts):
    counts = [int(c) for c in counts]
    n = float(sum(counts))
    first, last = _occupied(counts)
    if first == last:
        return None
    arr, weighted = _int_arrays(counts)
    best_t, best = None, -math.inf
    for t in range(first, last):
        w0, w1, s0, s1 = _class_sums(arr, weighted, t)
        mu0 = s0 / w0
        mu1 = s1 / w1
        crit = (w0 / n) * (w1 / n) * (mu0 - mu1) ** 2
        if crit > best:
            best, best_t = crit, t
    return best_t


def oracle_li(counts):
    counts = [int(c) for c in counts]
    first, last = _occupied(counts)
    if first == last:
        return None
    arr, weighted = _int_arrays(counts)
    best_t, best = None, math.inf
    for t in range(first, last):
        w0, w1, s0, s1 = _class_sums(arr, weighted, t)
        term0 = s0 * math.log(s0 / w0) if s0 > 0 else 0.0
        term1 = s1 * math.log(s1 / w1) if s1 > 0 else 0.0
        crit = -(term0 + term1)
        if crit < best:
            best, best_t = crit, t
    return best_t


def oracle_max_entropy(counts):
    counts = [int(c) for c in counts]
    total = sum(counts)
    first, last = _occupied(counts)
    if first == last:
        return None
    p = np.asarray(counts, dtype=np.float64) / total
    best_t, best = None, -math.inf
    for t in range(first, last):
        p0 = float(p[: t + 1].sum())
        p1 = float(p[t + 1 :].sum())
        q0 = p[: t + 1][p[: t + 1] > 0] / p0
        q1 = p[t + 1 :][p[t + 1 :] > 0] / p1
        crit = float(-(q0 * np.log(q0)).sum() - (q1 * np.log(q1)).sum())
        if crit > best:
            best, best_t = crit, t
    return best_t


def oracle_min_error(counts):
    counts = [int(c) for c in counts]
    n = float(sum(counts))
    first, last = _occupied(counts)
    if first == last:
        return None
    sq_weighted = np.arange(LEVELS, dtype=np.int64) ** 2 * np.asarray(counts, dtype=np.int64)
    arr, weighted = _int_arrays(counts)
    best_t, best = None, math.inf
    for t in range(first, last):
        w0, w1, s0, s1 = _class_sums(arr, weighted, t)
        q0 = int(sq_weighted[: t + 1].sum())
        q1 = int(sq_weighted[t + 1 :].sum())
        mu0, mu1 = s0 / w0, s1 / w1
        var0 = q0 / w0 - mu0 ** 2
        var1 = q1 / w1 - mu1 ** 2
        if var0 <= 0 or var1 <= 0:
            continue
        p0, p1 = w0 / n, w1 / n
        j = (
            1.0
            + 2.0 * (p0 * math.log(math.sqrt(var0)) + p1 * math.log(math.sqrt(var1)))
            - 2.0 * (p0 * math.log(p0) + p1 * math.log(p1))
        )
        if j < best:
            best, best_t = j, t
    return best_t


def oracle_renyi(counts, alpha=0.5):
    counts = [int(c) for c in counts]
    total = sum(counts)
    first, last = _occupied(counts)
    if first == last:
        return None
    p = np.asarray(counts, dtype=np.float64) / total
    best_t, best = None, -math.inf
    scale = 1.0 / (1.0 - alpha)
    for t in range(first, last):
        p0 = float(p[: t + 1].sum())
        p1 = float(p[t + 1 :].sum())
        h0 = scale * math.log(float(((p[: t + 1] / p0) ** alpha).sum()))
        h1 = scale * math.log(float(((p[t + 1 :] / p1) ** alpha).sum()))
        crit = h0 + h1
        if crit > best:
            best, best_t = crit, t
    return best_t


def oracle_yen(counts):
    counts = [int(c) for c in counts]
    total = sum(counts)
    first, last = _occupied(counts)
    if first == last:
        return None
    p = np.asarray(counts, dtype=np.float64) / total
    best_t, best = None, -math.inf
    for t in range(first, last):
        p0 = float(p[: t + 1].sum())
        p1 = float(p[t + 1 :].sum())
        s0 = float((p[: t + 1] ** 2).sum())
        s1 = float((p[t + 1 :] ** 2).sum())
        crit = 2.0 * math.log(p0 * p1) - math.log(s0 * s1)
        if crit > best:
            best, best_t = crit, t
    return best_t


def oracle_shanbhag(counts):
    counts = [int(c) for c in counts]
    total = sum(counts)
    first, last = _occupied(counts)
    if first == last:
        return None
    p = np.asarray(counts, dtype=np.float64) / total
    cumfrac = np.cumsum(np.asarray(counts, dtype=np.int64)) / total
    prev = np.concatenate(([0.0], cumfrac[:-1]))
    upper = (total - np.cumsum(np.asarray(counts, dtype=np.int64))) / total
    best_t, best = None, math.inf
    for t in range(first, last):
        p1t = cumfrac[t]
        p2t = upper[t]
        lo = np.arange(0, t + 1)
        lo = lo[p[lo] > 0]
        ent_back = -(0.5 / p1t) * float(
            (p[lo] * np.log(1.0 - 0.5 * prev[lo] / p1t)).sum()
        )
        hi = np.arange(t + 1, LEVELS)
        hi = hi[p[hi] > 0]
        ent_obj = -(0.5 / p2t) * float(
            (p[hi] * np.log(1.0 - 0.5 * upper[hi] / p2t)).sum()
        )
        crit = abs(ent_back - ent_obj)
        if crit < best:
            best, best_t = crit, t
    return best_t


def oracle_huang(counts):
    counts = [int(c) for c in counts]
    first, last = _occupied(counts)
    if first == last:
        return None
    width = last - first
    bins = np.arange(LEVELS, dtype=np.float64)
    carr = np.asarray(counts, dtype=np.float64)
    arr, weighted = _int_arrays(counts)
    best_t, best = None, math.inf
    for t in range(first, last):
        w0, w1, s0, s1 = _class_sums(arr, weighted, t)
        mu0, mu1 = s0 / w0, s1 / w1
        dist = np.where(bins <= t, np.abs(bins - mu0), np.abs(bins - mu1))
        mu_x = 1.0 / (1.0 + dist / width)
        inner = (0.0 < mu_x) & (mu_x < 1.0)
        shannon = np.zeros(LEVELS)
        shannon[inner] = -(
            mu_x[inner] * np.log(mu_x[inner])
            + (1.0 - mu_x[inner]) * np.log(1.0 - mu_x[inner])
        )
        crit = float((carr * shannon).sum())
        if crit < best:
            best, best_t = crit, t
    return best_t


def oracle_moments(counts):
    counts = [int(c) for c in counts]
    total = sum(counts)
    first, last = _occupied(counts)
    if first == last:
        return None
    m1 = sum(i * counts[i] for i in range(LEVELS)) / total
    m2 = sum(i ** 2 * counts[i] for i in range(LEVELS)) / total
    m3 = sum(i ** 3 * counts[i] for i in range(LEVELS)) / total
    cd = m2 - m1 * m1
    if cd <= 0:
        return None
    c0 = (-m2 * m2 + m1 * m3) / cd
    c1 = (m1 * m2 - m3) / cd
    disc = c1 * c1 - 4.0 * c0
    if disc < 0:
        return None
    z0 = 0.5 * (-c1 - math.sqrt(disc))
    z1 = 0.5 * (-c1 + math.sqrt(disc))
    if z1 <= z0:
        return None
    p0 = (z1 - m1) / (z1 - z0)
    running = 0.0
    for t in range(LEVELS):
        running += counts[t] / total
        if running > p0:
            return t
    return None


def oracle_triangle(counts):
    counts = [int(c) for c in counts]
    first, last = _occupied(counts)
    if first == last:
        return None
    peak = counts.index(max(counts))
    if (peak - first) > (last - peak):
        x1, y1, x2, y2 = first, counts[first], peak, counts[peak]
        lo, hi = first, peak
    else:
        x1, y1, x2, y2 = peak, counts[peak], last, counts[last]
        lo, hi = peak, last
    dy, dx = y2 - y1, x2 - x1
    cross = x2 * y1 - y2 * x1
    best_t, best = None, -1
    for t in range(lo, hi + 1):
        numer = abs(dy * t - dx * counts[t] + cross)
        if numer > best:
            best, best_t = numer, t
    return best_t


def smooth3(values):
    padded = np.concatenate(([0.0], np.asarray(values, dtype=np.float64), [0.0]))
    return (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0


def oracle_minimum(counts, cap=10_000):
    h = np.asarray([int(c) for c in counts], dtype=np.float64)

    def modes(values):
        values = values.tolist()
        return [
            k
            for k, (left, mid, right) in enumerate(
                zip(values, values[1:], values[2:]), start=1
            )
            if mid > left and mid > right
        ]

    iterations = 0
    m = modes(h)
    while len(m) != 2:
        h = smooth3(h)
        iterations += 1
        if iterations > cap:
            return None
        m = modes(h)
    lo, hi = m
    best_t, best = None, math.inf
    for t in range(lo + 1, hi):
        if h[t] < best:
            best, best_t = h[t], t
    return best_t


def oracle_percentile(counts):
    counts = [int(c) for c in counts]
    total = sum(counts)
    first, last = _occupied(counts)
    best_t, best = None, math.inf
    running = 0
    for t in range(0, last + 1):
        running += counts[t]
        if t < first:
            continue
        dist = abs(running / total - 0.5)
        if dist < best:
            best, best_t = dist, t
    return best_t


def oracle_mean(counts):
    counts = [int(c) for c in counts]
    total = sum(counts)
    return int(sum(i * counts[i] for i in range(LEVELS)) // total)


def oracle_default(counts):
    # legacy moving-index update: the split index only ever moves up by one
    counts = [int(c) for c in counts]
    first, last = _occupied(counts)
    if first == last:
        return None
    arr, weighted = _int_arrays(counts)
    moving = first
    while True:
        w0, w1, s0, s1 = _class_sums(arr, weighted, moving)
        midpoint = (s0 / w0 + s1 / w1) / 2.0
        moving += 1
        if moving + 1 > midpoint or moving >= last - 1:
            return int(math.floor(midpoint + 0.5))


def oracle_isodata(counts, t0=None, cap=10_000):
    counts = [int(c) for c in counts]
    first, last = _occupied(counts)
    if first == last:
        return None
    total = sum(counts)
    if t0 is None:
        t0 = sum(i * counts[i] for i in range(LEVELS)) // total
    t = min(max(int(t0), first), last - 1)
    arr, weighted = _int_arrays(counts)
    for _ in range(cap):
        w0, w1, s0, s1 = _class_sums(arr, weighted, t)
        t_new = int(math.floor((s0 / w0 + s1 / w1) / 2.0 + 0.5))
        t_new = min(max(t_new, first), last - 1)
        if t_new == t:
            return t
        t = t_new
    return None


# ---------------------------------------------------------------------------
# Rule-learning brute force
# ---------------------------------------------------------------------------

def triangle(peaks, region, x):
    """Membership of x in one region of the Ruspini partition with these
    peaks: zero up to the previous peak, rising linearly to one at the
    region's own peak, falling linearly to zero at the next peak.  The first
    and last regions are shoulders, flat at one toward the domain edge."""
    center = peaks[region]
    if x == center:
        return 1.0
    if x < center:
        if region == 0:
            return 1.0
        left = peaks[region - 1]
        return (x - left) / (center - left) if x >= left else 0.0
    if region == len(peaks) - 1:
        return 1.0
    right = peaks[region + 1]
    return (right - x) / (right - center) if x <= right else 0.0


def wang_mendel_bruteforce(pairs, in_partitions, out_partition):
    """Score every (antecedent, consequent) combination for every pair and
    keep argmax per pair (lexicographically lowest combination on ties),
    then argmax degree per antecedent (lowest consequent on ties).

    Memberships come from ``triangle`` on each partition's peaks, not from
    the partition's own evaluation code.
    """
    per_pair = []
    in_peaks = [list(p.peaks) for p in in_partitions]
    out_peaks = list(out_partition.peaks)
    in_ranges = [range(len(peaks)) for peaks in in_peaks]
    for xs, y in pairs:
        best_combo, best_score = None, -1.0
        for cons in range(len(out_peaks)):
            mu_out = triangle(out_peaks, cons, y)
            for ant in product(*in_ranges):
                score = mu_out
                for k, region in enumerate(ant):
                    score = score * triangle(in_peaks[k], region, xs[k])
                key = (ant, cons)
                if score > best_score or (
                    score == best_score and key < best_combo
                ):
                    best_score, best_combo = score, key
        per_pair.append((best_combo[0], best_combo[1], best_score))

    combined = {}
    for ant, cons, degree in per_pair:
        cur = combined.get(ant)
        if (
            cur is None
            or degree > cur[1]
            or (degree == cur[1] and cons < cur[0])
        ):
            combined[ant] = (cons, degree)
    return combined


# ---------------------------------------------------------------------------
# Per-pixel inference: one sampled output curve per input point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzyOutput:
    """Aggregated output curve sampled at the 256 intensity levels."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if samples.shape != (256,):
            raise ValueError("output curve needs exactly 256 samples")
        if samples.min() < 0.0 or samples.max() > 1.0:
            raise ValueError("samples must lie in [0, 1]")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class DefuzzResult:
    level: int
    no_rule_fired: bool


def infer(base: RuleBase, inputs: Sequence[float]) -> FuzzyOutput:
    """Max-min composition over the stored rules at one input point.

    firing = degree * min(antecedent memberships); each rule contributes its
    consequent envelope (unit spike at the region prototype) clipped at the
    firing strength; curves aggregate by pointwise max.
    """
    if len(base.rules) == 0:
        raise ValueError("empty rule base")
    if len(inputs) != len(base.in_partitions):
        raise ValueError("input arity does not match the rule base")
    curve = np.zeros(256, dtype=np.float64)
    for antecedent, (consequent, degree) in sorted(base.rules.items()):
        grades = [
            float(base.in_partitions[k].evaluate(region, inputs[k]))
            for k, region in enumerate(antecedent)
        ]
        strength = degree * min(grades)
        if strength <= 0.0:
            continue
        level = base.out_partition.spike_level(consequent)
        if strength > curve[level]:
            curve[level] = strength
    return FuzzyOutput(samples=curve)


def defuzzify(out: FuzzyOutput) -> DefuzzResult:
    """Centroid of the sampled curve, rounded half-up; an all-zero curve
    returns level 0 with the no_rule_fired flag set."""
    mass = float(out.samples.sum())
    if mass <= 0.0:
        return DefuzzResult(level=0, no_rule_fired=True)
    levels = np.arange(256, dtype=np.float64)
    centroid = float((levels * out.samples).sum()) / mass
    level = int(round_half_up(centroid))
    return DefuzzResult(level=min(max(level, 0), 255), no_rule_fired=False)


def window_sums(image, window=3):
    """Clamp-to-edge window sums, one explicit neighbour sum per pixel, in
    row-major order."""
    arr = image.to_array()
    height, width = arr.shape
    k = window // 2
    sums = []
    for y in range(height):
        for x in range(width):
            total = 0
            for dy in range(-k, k + 1):
                for dx in range(-k, k + 1):
                    yy = min(max(y + dy, 0), height - 1)
                    xx = min(max(x + dx, 0), width - 1)
                    total += int(arr[yy, xx])
            sums.append(total)
    return sums


def window_means(image, window=3):
    """Clamp-to-edge window means, each explicit window sum divided once."""
    return [total / float(window * window) for total in window_sums(image, window)]


def neighborhood_mean(image, window=3):
    """``window_means`` as a (height, width) array."""
    return np.array(window_means(image, window)).reshape(image.height, image.width)


def fuzzify_image(image, partition):
    """Per-region membership maps, shape (region_count, height, width).

    At every pixel the maps sum to one (Ruspini partition).
    """
    grades = partition.memberships(image.pixels.astype(np.float64))
    return grades.reshape(partition.region_count, image.height, image.width)


def restore_per_pixel(base, image, window=3):
    """(levels, no-rule count) from infer + defuzzify at every pixel, with
    level 0 where no rule fires."""
    levels, no_rule = [], 0
    for value, mean in zip(image.pixels.tolist(), window_means(image, window)):
        decoded = defuzzify(infer(base, (float(value), mean)))
        levels.append(0 if decoded.no_rule_fired else decoded.level)
        no_rule += decoded.no_rule_fired
    return levels, no_rule


def majority_vote(pixels, levels):
    """Per-pixel vote loop: foreground iff strictly more than half of the
    levels lie below the value."""
    votes = np.zeros(len(pixels), dtype=np.int64)
    for level in levels:
        votes += np.asarray(pixels) > level
    return votes * 2 > len(levels)


def class_means(image, level):
    """(background, foreground) mean intensity of the split at ``level``
    (background iff value <= level), summed pixel by pixel; an empty class
    borrows the other's mean."""
    pixels = image.pixels.tolist()
    classes = [[p for p in pixels if (p > level) == fg] for fg in (False, True)]
    means = [sum(c) / len(c) if c else None for c in classes]
    return tuple(means[1 - k] if means[k] is None else means[k] for k in (0, 1))


def two_level_image(image, level):
    """Binarized-means reading, pixel by pixel: each class of the split at
    ``level`` becomes its ``class_means`` mean, rounded half-up."""
    levels = [int(round_half_up(m)) for m in class_means(image, level)]
    return GrayImage(image.width, image.height, [levels[p > level] for p in image.pixels.tolist()])


# ---------------------------------------------------------------------------
# Seeded histogram generator shared by the oracle suites
# ---------------------------------------------------------------------------

def random_histogram(rng) -> np.ndarray:
    """Bimodal-leaning random counts: two lobes plus a noise floor."""
    counts = rng.integers(0, 6, size=LEVELS).astype(np.int64)
    c1 = int(rng.integers(30, 110))
    c2 = int(rng.integers(c1 + 50, 230))
    for center, spread, mass in (
        (c1, float(rng.uniform(4, 20)), int(rng.integers(2_000, 20_000))),
        (c2, float(rng.uniform(4, 25)), int(rng.integers(2_000, 20_000))),
    ):
        lobe = rng.normal(center, spread, size=mass)
        lobe = np.clip(np.round(lobe), 0, 255).astype(np.int64)
        counts += np.bincount(lobe, minlength=LEVELS)
    return counts


def compare_per_pixel(test, reference) -> MetricsRecord:
    """MAE/MSE/SNR/PSNR summed pixel by pixel in int64, with no census."""
    t = test.pixels.astype(np.int64)
    r = reference.pixels.astype(np.int64)
    diff = t - r
    abs_sum = int(np.abs(diff).sum())
    sq_sum = int((diff * diff).sum())
    ref_sq_sum = int((r * r).sum())
    mae, mse = abs_sum / diff.size, sq_sum / diff.size
    if sq_sum == 0:
        return MetricsRecord(mae=mae, mse=mse, snr_db=math.inf, psnr_db=math.inf)
    psnr = 10.0 * math.log10(PSNR_PEAK * PSNR_PEAK / mse)
    snr = -math.inf if ref_sq_sum == 0 else 10.0 * math.log10(ref_sq_sum / sq_sum)
    return MetricsRecord(mae=mae, mse=mse, snr_db=snr, psnr_db=psnr)


# ---------------------------------------------------------------------------
# Partition validity (two-region homogeneity checking)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionLabeling:
    """Row-major region identifiers partitioning an image into
    ``region_count`` regions, every id in [0, region_count) used."""

    labels: np.ndarray
    region_count: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if not _is_int(self.region_count) or self.region_count < 1:
            raise ValueError(f"region_count {self.region_count!r} is not a positive integer")
        if labels.size == 0:
            raise ValueError("empty labeling")
        if labels.min() < 0 or labels.max() >= self.region_count:
            raise ValueError("label outside [0, region_count)")
        present = np.unique(labels)
        if present.size != self.region_count:
            missing = sorted(set(range(self.region_count)) - set(present.tolist()))
            raise ValueError(f"region ids never used: {missing}")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    __eq__ = _array_fields_equal


class PartitionVerdict(NamedTuple):
    """The two partition conditions a labeling can fail.  The other two hold
    by construction: one id per pixel makes the regions disjoint, and a
    labeling as long as the image makes their union the whole image."""

    homogeneous_ok: bool  # the predicate holds on every region
    adjacent_merge_fails: bool  # it fails on every 4-adjacent pair merged


def range_predicate(tolerance: int) -> Callable[[np.ndarray], bool]:
    """Homogeneity test: intensity range (max - min) <= tolerance; no values pass."""
    return lambda values: values.size == 0 or int(values.max()) - int(values.min()) <= tolerance


def validate_partition(image, labeling, predicate) -> PartitionVerdict:
    """Check a labeling of ``image`` against the partition conditions; a
    labeling that does not cover the image is a ValueError.  With one region
    the merge condition holds vacuously."""
    if labeling.labels.size != image.pixels.size:
        raise ValueError(
            f"labeling covers {labeling.labels.size} pixels, image has {image.pixels.size}"
        )
    labels, values = labeling.labels, image.pixels
    grid = labels.reshape(image.height, image.width)
    pairs = set()
    for a, b in ((grid[:, :-1], grid[:, 1:]), (grid[:-1], grid[1:])):
        differ = a != b
        pairs.update(zip(np.minimum(a, b)[differ].tolist(), np.maximum(a, b)[differ].tolist()))
    return PartitionVerdict(
        homogeneous_ok=all(
            predicate(values[labels == region]) for region in range(labeling.region_count)
        ),
        adjacent_merge_fails=all(
            not predicate(values[(labels == a) | (labels == b)]) for a, b in sorted(pairs)
        ),
    )
