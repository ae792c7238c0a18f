"""The fifteen histogram auto-thresholding methods plus threshold fusion.

Each method selects a single global level from the 256-bin histogram.
Background/foreground convention, fixed across the whole package: a pixel
belongs to the background iff ``value <= level``.

Method sources (standard published forms):

- Default: legacy iterative intermeans variant (moving-index two-means
  update) of Ridler & Calvard, IEEE Trans. SMC 8, 1978.
- Huang: Huang & Wang, Pattern Recognition 28(1), 1995 (fuzzy Shannon
  entropy of the membership 1/(1+|g-mu|/C)).
- IsoData: Ridler & Calvard 1978 fixed point of t <- (mean_below +
  mean_above)/2.
- Li: Li & Lee, Pattern Recognition 26(4), 1993 (minimum cross entropy,
  evaluated exhaustively).
- MaxEntropy: Kapur, Sahoo & Wong, CVGIP 29, 1985.
- Mean: Glasbey, CVGIP 55, 1993 (floor of the gray-level mean).
- MinError: Kittler & Illingworth, Pattern Recognition 19, 1986
  (criterion J evaluated exhaustively).
- Minimum: Prewitt & Mendelsohn, Ann. NY Acad. Sci. 128, 1966 (valley of
  the repeatedly 3-tap-smoothed histogram once bimodal).
- Moments: Tsai, CVGIP 29, 1985 (moment-preserving tile point).
- Otsu: Otsu, IEEE Trans. SMC 9(1), 1979 (between-class variance).
- Percentile: Doyle, JACM 9, 1962; level whose cumulative fraction is
  closest to p (default p=0.5), lowest level on ties.
- RenyiEntropy: Sahoo et al. entropic criterion with Renyi order
  alpha=0.5 (single-order exhaustive form).
- Shanbhag: Shanbhag, CVGIP 56(5), 1994.
- Triangle: Zack, Rogers & Latt, J. Histochem. Cytochem. 25(7), 1977.
- Yen: Yen, Chang & Chang, IEEE Trans. IP 4(3), 1995.

Criterion-style methods break ties toward the lowest level and restrict
candidates to levels where both classes are populated, so every converged
level lies inside the occupied bin range.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .image_core import GrayImage, Histogram, round_half_up

__all__ = [
    "ThresholdMethod",
    "ThresholdFailure",
    "ThresholdEntry",
    "ThresholdReport",
    "BinaryMask",
    "compute_threshold",
    "threshold_report",
    "fuse_feature_level",
    "fuse_decision_level",
    "binarize",
    "METHOD_ORDER",
    "SMOOTHING_ITERATION_CAP",
    "RENYI_ALPHA",
]

SMOOTHING_ITERATION_CAP = 10_000
ISODATA_ITERATION_CAP = 10_000
RENYI_ALPHA = 0.5


class ThresholdMethod(str, enum.Enum):
    DEFAULT = "Default"
    HUANG = "Huang"
    ISODATA = "IsoData"
    LI = "Li"
    MAX_ENTROPY = "MaxEntropy"
    MEAN = "Mean"
    MIN_ERROR = "MinError"
    MINIMUM = "Minimum"
    MOMENTS = "Moments"
    OTSU = "Otsu"
    PERCENTILE = "Percentile"
    RENYI_ENTROPY = "RenyiEntropy"
    SHANBHAG = "Shanbhag"
    TRIANGLE = "Triangle"
    YEN = "Yen"


METHOD_ORDER: tuple[ThresholdMethod, ...] = tuple(ThresholdMethod)

# Methods that still return a level on a single-occupied-bin histogram.
_TOTAL_METHODS = frozenset({ThresholdMethod.MEAN, ThresholdMethod.PERCENTILE})


class ThresholdFailure(RuntimeError):
    """A method could not produce a level for this histogram."""


@dataclass(frozen=True)
class ThresholdEntry:
    level: Optional[int]
    status: str  # "converged" | "failed"


@dataclass(frozen=True)
class ThresholdReport:
    """One entry per method, the Table-style row axis."""

    entries: Dict[ThresholdMethod, ThresholdEntry]

    def __post_init__(self):
        if set(self.entries) != set(METHOD_ORDER):
            raise ValueError("report must contain exactly the 15 methods")

    def level(self, method: ThresholdMethod) -> Optional[int]:
        return self.entries[method].level

    def converged(self) -> List[ThresholdMethod]:
        return [m for m in METHOD_ORDER if self.entries[m].status == "converged"]

    def converged_levels(self) -> List[int]:
        return [self.entries[m].level for m in self.converged()]

    def to_csv_text(self) -> str:
        lines = ["method,level,status"]
        for method in METHOD_ORDER:
            entry = self.entries[method]
            level = "" if entry.level is None else str(entry.level)
            lines.append(f"{method.value},{level},{entry.status}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            method.value: {"level": entry.level, "status": entry.status}
            for method, entry in ((m, self.entries[m]) for m in METHOD_ORDER)
        }


@dataclass(frozen=True)
class BinaryMask:
    """Foreground/background flags matching an image's dimensions."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool).reshape(-1)
        if bits.size != self.width * self.height:
            raise ValueError("mask size does not match dimensions")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def to_array(self) -> np.ndarray:
        return self.bits.reshape(self.height, self.width)


# ---------------------------------------------------------------------------
# Shared histogram statistics
# ---------------------------------------------------------------------------

class _Stats:
    """Exact cumulative sums reused by the criterion sweeps."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts.astype(np.int64)
        self.total = int(self.counts.sum())
        levels = np.arange(256, dtype=np.int64)
        self.cum_w = np.cumsum(self.counts)                    # pixel counts
        self.cum_s = np.cumsum(levels * self.counts)           # intensity sums
        self.cum_q = np.cumsum(levels * levels * self.counts)  # squared sums
        nz = np.flatnonzero(self.counts)
        self.first = int(nz[0])
        self.last = int(nz[-1])

    def candidates(self) -> np.ndarray:
        """Levels where both classes are populated: [first, last)."""
        return np.arange(self.first, self.last, dtype=np.int64)


def _lowest_argmin(values: np.ndarray, candidates: np.ndarray) -> int:
    finite = np.isfinite(values)
    if not finite.any():
        raise ThresholdFailure("criterion undefined at every candidate level")
    vals = np.where(finite, values, np.inf)
    return int(candidates[int(np.argmin(vals))])


def _lowest_argmax(values: np.ndarray, candidates: np.ndarray) -> int:
    finite = np.isfinite(values)
    if not finite.any():
        raise ThresholdFailure("criterion undefined at every candidate level")
    vals = np.where(finite, values, -np.inf)
    return int(candidates[int(np.argmax(vals))])


def _require_spread(stats: _Stats, method: ThresholdMethod):
    if stats.first == stats.last:
        raise ThresholdFailure(
            f"{method.value}: degenerate histogram (single occupied bin)"
        )


# ---------------------------------------------------------------------------
# The fifteen methods
# ---------------------------------------------------------------------------

def _threshold_mean(stats: _Stats) -> int:
    # floor of the exact mean; integer arithmetic keeps it platform-stable
    return int(int(stats.cum_s[-1]) // stats.total)


def _threshold_percentile(stats: _Stats, fraction: float) -> int:
    candidates = np.arange(stats.first, stats.last + 1, dtype=np.int64)
    frac = stats.cum_w[candidates] / stats.total
    return _lowest_argmin(np.abs(frac - fraction), candidates)


def _threshold_default(stats: _Stats) -> int:
    lo, hi = stats.first, stats.last
    moving = lo
    while True:
        w_lo = int(stats.cum_w[moving])
        s_lo = int(stats.cum_s[moving])
        w_hi = stats.total - w_lo
        s_hi = int(stats.cum_s[-1]) - s_lo
        result = (s_lo / w_lo + s_hi / w_hi) / 2.0
        moving += 1
        if not (moving + 1 <= result and moving < hi - 1):
            break
    return int(round_half_up(result))


def _threshold_isodata(stats: _Stats) -> int:
    lo, hi = stats.first, stats.last
    t = min(max(int(int(stats.cum_s[-1]) // stats.total), lo), hi - 1)
    for _ in range(ISODATA_ITERATION_CAP):
        w_lo = int(stats.cum_w[t])
        s_lo = int(stats.cum_s[t])
        mean_lo = s_lo / w_lo
        mean_hi = (int(stats.cum_s[-1]) - s_lo) / (stats.total - w_lo)
        t_new = int(round_half_up((mean_lo + mean_hi) / 2.0))
        t_new = min(max(t_new, lo), hi - 1)
        if t_new == t:
            return t
        t = t_new
    raise ThresholdFailure("IsoData: no fixed point within iteration cap")


def _threshold_otsu(stats: _Stats) -> int:
    t = stats.candidates()
    n = float(stats.total)
    w0 = stats.cum_w[t].astype(np.float64)
    w1 = n - w0
    s0 = stats.cum_s[t].astype(np.float64)
    mu0 = s0 / w0
    mu1 = (float(stats.cum_s[-1]) - s0) / w1
    crit = (w0 / n) * (w1 / n) * (mu0 - mu1) ** 2
    return _lowest_argmax(crit, t)


def _threshold_li(stats: _Stats) -> int:
    # cross entropy reduces (up to a constant) to -(S0*ln mu0 + S1*ln mu1)
    t = stats.candidates()
    s0 = stats.cum_s[t].astype(np.float64)
    s1 = float(stats.cum_s[-1]) - s0
    w0 = stats.cum_w[t].astype(np.float64)
    w1 = float(stats.total) - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        term0 = np.where(s0 > 0, s0 * np.log(s0 / w0), 0.0)
        term1 = np.where(s1 > 0, s1 * np.log(s1 / w1), 0.0)
    return _lowest_argmin(-(term0 + term1), t)


def _threshold_max_entropy(stats: _Stats) -> int:
    t = stats.candidates()
    p = stats.counts / stats.total
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    cum_plogp = np.cumsum(plogp)
    p0 = stats.cum_w[t] / stats.total
    p1 = (stats.total - stats.cum_w[t]) / stats.total
    s0 = cum_plogp[t]
    s1 = cum_plogp[-1] - s0
    crit = (np.log(p0) - s0 / p0) + (np.log(p1) - s1 / p1)
    return _lowest_argmax(crit, t)


def _threshold_min_error(stats: _Stats) -> int:
    t = stats.candidates()
    n = float(stats.total)
    w0 = stats.cum_w[t].astype(np.float64)
    w1 = n - w0
    s0 = stats.cum_s[t].astype(np.float64)
    s1 = float(stats.cum_s[-1]) - s0
    q0 = stats.cum_q[t].astype(np.float64)
    q1 = float(stats.cum_q[-1]) - q0
    mu0, mu1 = s0 / w0, s1 / w1
    var0 = q0 / w0 - mu0 ** 2
    var1 = q1 / w1 - mu1 ** 2
    p0, p1 = w0 / n, w1 / n
    with np.errstate(divide="ignore", invalid="ignore"):
        j = (
            1.0
            + 2.0 * (p0 * np.log(np.sqrt(var0)) + p1 * np.log(np.sqrt(var1)))
            - 2.0 * (p0 * np.log(p0) + p1 * np.log(p1))
        )
    j = np.where((var0 > 0) & (var1 > 0), j, np.inf)
    if not np.isfinite(j).any():
        raise ThresholdFailure("MinError: no level with positive class variances")
    return _lowest_argmin(j, t)


def _smooth3(values: np.ndarray) -> np.ndarray:
    # 3-tap moving average with zeros outside the domain; kept as
    # (left + mid + right)/3 so independent reimplementations match bitwise
    padded = np.pad(values, 1)
    return (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0


def _strict_modes(values: np.ndarray) -> List[int]:
    inner = np.arange(1, values.size - 1)
    mask = (values[inner] > values[inner - 1]) & (values[inner] > values[inner + 1])
    return [int(i) for i in inner[mask]]


def _threshold_minimum(stats: _Stats) -> int:
    smoothed = stats.counts.astype(np.float64)
    modes = _strict_modes(smoothed)
    iterations = 0
    while len(modes) != 2:
        smoothed = _smooth3(smoothed)
        iterations += 1
        if iterations > SMOOTHING_ITERATION_CAP:
            raise ThresholdFailure(
                "Minimum: histogram not bimodal within smoothing cap"
            )
        modes = _strict_modes(smoothed)
    lo, hi = modes
    candidates = np.arange(lo + 1, hi, dtype=np.int64)
    return _lowest_argmin(smoothed[candidates], candidates)


def _threshold_huang(stats: _Stats) -> int:
    t = stats.candidates()
    width = stats.last - stats.first  # >= 1 after the spread check
    bins = np.arange(256, dtype=np.float64)
    w0 = stats.cum_w[t].astype(np.float64)
    s0 = stats.cum_s[t].astype(np.float64)
    mu0 = (s0 / w0)[:, None]
    mu1 = ((float(stats.cum_s[-1]) - s0) / (float(stats.total) - w0))[:, None]
    below = bins[None, :] <= t[:, None]
    dist = np.where(below, np.abs(bins[None, :] - mu0), np.abs(bins[None, :] - mu1))
    mu_x = 1.0 / (1.0 + dist / width)
    with np.errstate(divide="ignore", invalid="ignore"):
        shannon = -(mu_x * np.log(mu_x) + (1.0 - mu_x) * np.log(1.0 - mu_x))
    shannon = np.where((mu_x > 0.0) & (mu_x < 1.0), shannon, 0.0)
    crit = (shannon * stats.counts[None, :]).sum(axis=1)
    return _lowest_argmin(crit, t)


def _threshold_moments(stats: _Stats) -> int:
    p = stats.counts / stats.total
    bins = np.arange(256, dtype=np.float64)
    m1 = float((bins * p).sum())
    m2 = float((bins ** 2 * p).sum())
    m3 = float((bins ** 3 * p).sum())
    cd = m2 - m1 * m1
    if cd <= 0:
        raise ThresholdFailure("Moments: zero variance histogram")
    c0 = (-m2 * m2 + m1 * m3) / cd
    c1 = (m1 * m2 - m3) / cd
    disc = c1 * c1 - 4.0 * c0
    if disc < 0:
        raise ThresholdFailure("Moments: complex tile roots")
    z0 = 0.5 * (-c1 - math.sqrt(disc))
    z1 = 0.5 * (-c1 + math.sqrt(disc))
    if z1 <= z0:
        raise ThresholdFailure("Moments: coincident tile roots")
    p0 = (z1 - m1) / (z1 - z0)
    cum = np.cumsum(p)
    hits = np.flatnonzero(cum > p0)
    if hits.size == 0:
        raise ThresholdFailure("Moments: tile fraction never reached")
    return int(hits[0])


def _threshold_renyi(stats: _Stats) -> int:
    # single-order Renyi entropy sum, alpha = 0.5
    t = stats.candidates()
    p = stats.counts / stats.total
    cum_sqrt = np.cumsum(np.sqrt(p))
    p0 = stats.cum_w[t] / stats.total
    p1 = (stats.total - stats.cum_w[t]) / stats.total
    cs0 = cum_sqrt[t]
    cs1 = cum_sqrt[-1] - cs0
    crit = (2.0 * np.log(cs0) - np.log(p0)) + (2.0 * np.log(cs1) - np.log(p1))
    return _lowest_argmax(crit, t)


def _threshold_shanbhag(stats: _Stats) -> int:
    t = stats.candidates()
    p = stats.counts / stats.total
    p1 = stats.cum_w / stats.total            # mass at or below each bin
    p2 = (stats.total - stats.cum_w) / stats.total
    p1_prev = np.concatenate(([0.0], p1[:-1]))
    bins = np.arange(256)

    below = bins[None, :] <= t[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        back_terms = p[None, :] * np.log(1.0 - 0.5 * p1_prev[None, :] / p1[t][:, None])
        obj_terms = p[None, :] * np.log(1.0 - 0.5 * p2[None, :] / p2[t][:, None])
    back_terms = np.where(below & (p[None, :] > 0), back_terms, 0.0)
    obj_terms = np.where(~below & (p[None, :] > 0), obj_terms, 0.0)
    ent_back = -(0.5 / p1[t]) * back_terms.sum(axis=1)
    ent_obj = -(0.5 / p2[t]) * obj_terms.sum(axis=1)
    return _lowest_argmin(np.abs(ent_back - ent_obj), t)


def _threshold_triangle(stats: _Stats) -> int:
    counts = stats.counts
    peak = int(np.argmax(counts))  # lowest bin among tied maxima
    first, last = stats.first, stats.last
    if (peak - first) > (last - peak):
        x1, y1 = first, int(counts[first])
        x2, y2 = peak, int(counts[peak])
        lo, hi = first, peak
    else:
        x1, y1 = peak, int(counts[peak])
        x2, y2 = last, int(counts[last])
        lo, hi = peak, last
    dy = y2 - y1
    dx = x2 - x1
    cross = x2 * y1 - y2 * x1
    candidates = np.arange(lo, hi + 1, dtype=np.int64)
    # perpendicular distance numerator; all-integer so ties are exact
    numer = np.abs(dy * candidates - dx * counts[candidates] + cross)
    return _lowest_argmax(numer.astype(np.float64), candidates)


def _threshold_yen(stats: _Stats) -> int:
    t = stats.candidates()
    p = stats.counts / stats.total
    cum_sq = np.cumsum(p * p)
    p0 = stats.cum_w[t] / stats.total
    p1 = (stats.total - stats.cum_w[t]) / stats.total
    s0 = cum_sq[t]
    s1 = cum_sq[-1] - s0
    crit = 2.0 * np.log(p0 * p1) - np.log(s0 * s1)
    return _lowest_argmax(crit, t)


# Every method but Percentile, which also takes its target fraction.
_METHODS = {
    ThresholdMethod.DEFAULT: _threshold_default,
    ThresholdMethod.HUANG: _threshold_huang,
    ThresholdMethod.ISODATA: _threshold_isodata,
    ThresholdMethod.LI: _threshold_li,
    ThresholdMethod.MAX_ENTROPY: _threshold_max_entropy,
    ThresholdMethod.MEAN: _threshold_mean,
    ThresholdMethod.MIN_ERROR: _threshold_min_error,
    ThresholdMethod.MINIMUM: _threshold_minimum,
    ThresholdMethod.MOMENTS: _threshold_moments,
    ThresholdMethod.OTSU: _threshold_otsu,
    ThresholdMethod.RENYI_ENTROPY: _threshold_renyi,
    ThresholdMethod.SHANBHAG: _threshold_shanbhag,
    ThresholdMethod.TRIANGLE: _threshold_triangle,
    ThresholdMethod.YEN: _threshold_yen,
}


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def compute_threshold(
    method: ThresholdMethod,
    hist: Histogram,
    percentile_fraction: float = 0.5,
) -> int:
    """Level for one method; raises ThresholdFailure when it cannot converge.

    Deterministic: ties between equally good levels go to the lowest one.
    """
    if hist.total <= 0:
        raise ValueError("histogram is empty")
    method = ThresholdMethod(method)
    stats = _Stats(np.asarray(hist.counts))
    if method not in _TOTAL_METHODS:
        _require_spread(stats, method)
    if method is ThresholdMethod.PERCENTILE:
        return _threshold_percentile(stats, percentile_fraction)
    return _METHODS[method](stats)


def threshold_report(hist: Histogram, percentile_fraction: float = 0.5) -> ThresholdReport:
    """Run all fifteen methods; per-method failures land in the status column."""
    if hist.total <= 0:
        raise ValueError("histogram is empty")
    entries = {}
    for method in METHOD_ORDER:
        try:
            level = compute_threshold(method, hist, percentile_fraction)
            entries[method] = ThresholdEntry(level=level, status="converged")
        except ThresholdFailure:
            entries[method] = ThresholdEntry(level=None, status="failed")
    return ThresholdReport(entries=entries)


def fuse_feature_level(report: ThresholdReport) -> int:
    """Feature-level fusion: round-half-up mean of the converged levels."""
    levels = report.converged_levels()
    if not levels:
        raise ValueError("no converged thresholds to fuse")
    return int(round_half_up(sum(levels) / len(levels)))


def fuse_decision_level(image: GrayImage, report: ThresholdReport) -> BinaryMask:
    """Decision-level fusion: per-pixel majority vote of the converged methods.

    Foreground needs strictly more than half the votes; exact ties are
    background.  Each vote is ``value > level``, so the vote count rises with
    the value, and the majority is the single split at the level of rank
    ``n // 2`` in sorted order.
    """
    levels = report.converged_levels()
    if not levels:
        raise ValueError("no converged thresholds to fuse")
    return binarize(image, sorted(levels)[len(levels) // 2])


def binarize(image: GrayImage, level: int) -> BinaryMask:
    """Single-level split: foreground iff value > level."""
    if not 0 <= level <= 255:
        raise ValueError(f"level {level} outside [0, 255]")
    return BinaryMask(
        width=image.width, height=image.height, bits=image.pixels > level
    )
