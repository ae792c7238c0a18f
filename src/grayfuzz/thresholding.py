"""The fifteen histogram auto-thresholding methods and their majority fusion.

Each method selects a single global level from the 256-bin histogram.
Background/foreground convention, fixed across the whole package: a pixel
belongs to the background iff ``value <= level``; every method reads its
splits from ``Histogram``'s exact cumulative sums and ``class_means``.

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
  closest to one half, lowest level on ties.
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

from .image_core import Histogram, _is_int, round_half_up

__all__ = [
    "ThresholdMethod",
    "ThresholdFailure",
    "ThresholdEntry",
    "ThresholdReport",
    "compute_threshold",
    "threshold_report",
    "METHOD_ORDER",
]

SMOOTHING_ITERATION_CAP = 10_000
ISODATA_ITERATION_CAP = 10_000


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
    """A converged entry carries an integer level in [0, 255], stored as a
    Python ``int``; a failed one carries none."""

    level: Optional[int]
    status: str  # "converged" | "failed"

    def __post_init__(self):
        if self.status not in ("converged", "failed"):
            raise ValueError(f"status {self.status!r} is neither 'converged' nor 'failed'")
        if self.status == "failed" and self.level is not None:
            raise ValueError(f"failed entry carries level {self.level!r}")
        if self.status == "converged":
            if not (_is_int(self.level) and 0 <= self.level <= 255):
                raise ValueError(f"converged level {self.level!r} is not an integer in [0, 255]")
            object.__setattr__(self, "level", int(self.level))


@dataclass(frozen=True)
class ThresholdReport:
    """One entry per method, the Table-style row axis."""

    entries: Dict[ThresholdMethod, ThresholdEntry]

    def __post_init__(self):
        if set(self.entries) != set(METHOD_ORDER):
            raise ValueError("report must contain exactly the 15 methods")

    def converged_levels(self) -> List[int]:
        entries = (self.entries[m] for m in METHOD_ORDER)
        return [e.level for e in entries if e.status == "converged"]

    def majority_level(self) -> int:
        """Decision-level fusion: the split of the per-pixel majority vote of
        the converged methods.

        Foreground needs strictly more than half the votes; exact ties are
        background.  Each vote is ``value > level``, so the vote count rises
        with the value, and the majority is the single split at the converged
        level of rank ``n // 2`` in sorted order.
        """
        levels = self.converged_levels()
        if not levels:
            raise ValueError("no converged thresholds to fuse")
        return sorted(levels)[len(levels) // 2]

    def to_csv_text(self) -> str:
        lines = ["method,level,status"]
        for method in METHOD_ORDER:
            entry = self.entries[method]
            level = "" if entry.level is None else str(entry.level)
            lines.append(f"{method.value},{level},{entry.status}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Shared histogram statistics
# ---------------------------------------------------------------------------

class _Stats:
    """The two-class split at every candidate level, from the histogram.

    A split at level ``t`` puts bins ``<= t`` in the background (class 0) and
    the rest in the foreground (class 1).  The candidates ``t`` are
    ``[first, last)``, the levels where both classes are populated, so no
    class is empty.  Every count and sum is an integer below 2**53, so the
    class counts and sums are exact floats.
    """

    def __init__(self, hist: Histogram):
        if hist.total <= 0:
            raise ValueError("histogram is empty")
        self.hist = hist
        self.counts, self.total = hist.counts, hist.total
        self.first, self.last = hist.occupied_range()
        self.p = self.counts / self.total
        self.t = t = np.arange(self.first, self.last, dtype=np.int64)
        n = float(self.total)
        self.w0 = hist.cum_counts[t].astype(np.float64)
        self.w1 = n - self.w0
        self.s0 = hist.cum_sums[t].astype(np.float64)
        self.s1 = float(hist.cum_sums[-1]) - self.s0
        self.p0 = self.w0 / n
        self.p1 = self.w1 / n
        self.mu0 = self.s0 / self.w0
        self.mu1 = self.s1 / self.w1

    def split(self, values: np.ndarray):
        """Sums of a per-bin array below and above each candidate level."""
        cum = np.cumsum(values)
        return cum[self.t], cum[-1] - cum[self.t]

    def midpoint(self, t: int) -> float:
        """Mean of the two class means at one split."""
        bg_mean, fg_mean = self.hist.class_means(t)
        return (bg_mean + fg_mean) / 2.0


def _lowest_argmin(values: np.ndarray, candidates: np.ndarray) -> int:
    """Lowest candidate with the least finite value; maximizers pass the
    negated criterion, which keeps the same first-index tie rule."""
    finite = np.isfinite(values)
    if not finite.any():
        raise ThresholdFailure("criterion undefined at every candidate level")
    vals = np.where(finite, values, np.inf)
    return int(candidates[int(np.argmin(vals))])


def _level(method: ThresholdMethod, stats: _Stats) -> int:
    """One method's level from the shared statistics."""
    if method not in _TOTAL_METHODS and stats.first == stats.last:
        raise ThresholdFailure(
            f"{method.value}: degenerate histogram (single occupied bin)"
        )
    return _METHODS[method](stats)


# ---------------------------------------------------------------------------
# The fifteen methods
# ---------------------------------------------------------------------------

def _threshold_mean(stats: _Stats) -> int:
    # floor of the exact mean; integer arithmetic keeps it platform-stable
    return int(int(stats.hist.cum_sums[-1]) // stats.total)


def _threshold_percentile(stats: _Stats) -> int:
    candidates = np.arange(stats.first, stats.last + 1, dtype=np.int64)
    return _lowest_argmin(np.abs(stats.hist.cum_counts[candidates] / stats.total - 0.5), candidates)


def _threshold_default(stats: _Stats) -> int:
    moving = stats.first
    while True:
        result = stats.midpoint(moving)
        moving += 1
        if not (moving + 1 <= result and moving < stats.last - 1):
            break
    return int(round_half_up(result))


def _threshold_isodata(stats: _Stats) -> int:
    lo, hi = stats.first, stats.last - 1
    t = min(max(_threshold_mean(stats), lo), hi)
    for _ in range(ISODATA_ITERATION_CAP):
        t_new = min(max(int(round_half_up(stats.midpoint(t))), lo), hi)
        if t_new == t:
            return t
        t = t_new
    raise ThresholdFailure("IsoData: no fixed point within iteration cap")


def _threshold_otsu(stats: _Stats) -> int:
    crit = stats.p0 * stats.p1 * (stats.mu0 - stats.mu1) ** 2
    return _lowest_argmin(-crit, stats.t)


def _threshold_li(stats: _Stats) -> int:
    # cross entropy reduces (up to a constant) to -(S0*ln mu0 + S1*ln mu1)
    with np.errstate(divide="ignore", invalid="ignore"):
        term0 = np.where(stats.s0 > 0, stats.s0 * np.log(stats.mu0), 0.0)
        term1 = np.where(stats.s1 > 0, stats.s1 * np.log(stats.mu1), 0.0)
    return _lowest_argmin(-(term0 + term1), stats.t)


def _threshold_max_entropy(stats: _Stats) -> int:
    p, p0, p1 = stats.p, stats.p0, stats.p1
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    s0, s1 = stats.split(plogp)
    crit = (np.log(p0) - s0 / p0) + (np.log(p1) - s1 / p1)
    return _lowest_argmin(-crit, stats.t)


def _threshold_min_error(stats: _Stats) -> int:
    q0 = stats.hist.cum_squares[stats.t].astype(np.float64)
    q1 = float(stats.hist.cum_squares[-1]) - q0
    var0 = q0 / stats.w0 - stats.mu0 ** 2
    var1 = q1 / stats.w1 - stats.mu1 ** 2
    p0, p1 = stats.p0, stats.p1
    with np.errstate(divide="ignore", invalid="ignore"):
        j = (
            1.0
            + 2.0 * (p0 * np.log(np.sqrt(var0)) + p1 * np.log(np.sqrt(var1)))
            - 2.0 * (p0 * np.log(p0) + p1 * np.log(p1))
        )
    j = np.where((var0 > 0) & (var1 > 0), j, np.inf)
    if not np.isfinite(j).any():
        raise ThresholdFailure("MinError: no level with positive class variances")
    return _lowest_argmin(j, stats.t)


def _threshold_minimum(stats: _Stats) -> int:
    # Smooth with a 3-tap moving average, zeros outside the domain, until
    # exactly two strict inner modes remain.  Two buffers hold the histogram
    # between zero pads and swap each pass; the sum stays (left + mid) +
    # right, then / 3.0, so independent reimplementations match bitwise.
    smoothed, spare = np.zeros(258), np.zeros(258)
    smoothed[1:-1] = stats.counts
    for _ in range(SMOOTHING_ITERATION_CAP + 1):
        mid = smoothed[2:-2]
        modes = (mid > smoothed[1:-3]) & (mid > smoothed[3:-1])
        if np.count_nonzero(modes) == 2:
            break
        out = spare[1:-1]
        np.add(smoothed[:-2], smoothed[1:-1], out=out)
        out += smoothed[2:]
        out /= 3.0
        smoothed, spare = spare, smoothed
    else:
        raise ThresholdFailure("Minimum: histogram not bimodal within smoothing cap")
    lo, hi = np.flatnonzero(modes) + 1
    candidates = np.arange(lo + 1, hi, dtype=np.int64)
    return _lowest_argmin(smoothed[candidates + 1], candidates)


def _threshold_huang(stats: _Stats) -> int:
    t = stats.t
    width = stats.last - stats.first  # >= 1 after the spread check
    bins = np.arange(256, dtype=np.float64)
    below = bins[None, :] <= t[:, None]
    dist = np.abs(bins[None, :] - np.where(below, stats.mu0[:, None], stats.mu1[:, None]))
    mu_x = 1.0 / (1.0 + dist / width)
    with np.errstate(divide="ignore", invalid="ignore"):
        shannon = -(mu_x * np.log(mu_x) + (1.0 - mu_x) * np.log(1.0 - mu_x))
    shannon = np.where((mu_x > 0.0) & (mu_x < 1.0), shannon, 0.0)
    crit = (shannon * stats.counts[None, :]).sum(axis=1)
    return _lowest_argmin(crit, t)


def _threshold_moments(stats: _Stats) -> int:
    p = stats.p
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
    cs0, cs1 = stats.split(np.sqrt(stats.p))
    crit = (2.0 * np.log(cs0) - np.log(stats.p0)) + (2.0 * np.log(cs1) - np.log(stats.p1))
    return _lowest_argmin(-crit, stats.t)


def _threshold_shanbhag(stats: _Stats) -> int:
    t, p, p0, p1 = stats.t, stats.p, stats.p0, stats.p1
    below_mass = stats.hist.cum_counts / stats.total  # mass at or below each bin
    above_mass = (stats.total - stats.hist.cum_counts) / stats.total
    below_prev = np.concatenate(([0.0], below_mass[:-1]))
    bins = np.arange(256)

    below = bins[None, :] <= t[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        back_terms = p[None, :] * np.log(1.0 - 0.5 * below_prev[None, :] / p0[:, None])
        obj_terms = p[None, :] * np.log(1.0 - 0.5 * above_mass[None, :] / p1[:, None])
    back_terms = np.where(below & (p[None, :] > 0), back_terms, 0.0)
    obj_terms = np.where(~below & (p[None, :] > 0), obj_terms, 0.0)
    ent_back = -(0.5 / p0) * back_terms.sum(axis=1)
    ent_obj = -(0.5 / p1) * obj_terms.sum(axis=1)
    return _lowest_argmin(np.abs(ent_back - ent_obj), t)


def _threshold_triangle(stats: _Stats) -> int:
    counts = stats.counts
    peak = int(np.argmax(counts))  # lowest bin among tied maxima
    first, last = stats.first, stats.last
    # the line runs from the peak to the far end of the longer tail
    lo, hi = (first, peak) if (peak - first) > (last - peak) else (peak, last)
    x1, y1, x2, y2 = lo, int(counts[lo]), hi, int(counts[hi])
    dy, dx, cross = y2 - y1, x2 - x1, x2 * y1 - y2 * x1
    candidates = np.arange(lo, hi + 1, dtype=np.int64)
    # perpendicular distance numerator; all-integer so ties are exact
    numer = np.abs(dy * candidates - dx * counts[candidates] + cross)
    return _lowest_argmin(-numer.astype(np.float64), candidates)


def _threshold_yen(stats: _Stats) -> int:
    s0, s1 = stats.split(stats.p * stats.p)
    crit = 2.0 * np.log(stats.p0 * stats.p1) - np.log(s0 * s1)
    return _lowest_argmin(-crit, stats.t)


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
    ThresholdMethod.PERCENTILE: _threshold_percentile,
    ThresholdMethod.RENYI_ENTROPY: _threshold_renyi,
    ThresholdMethod.SHANBHAG: _threshold_shanbhag,
    ThresholdMethod.TRIANGLE: _threshold_triangle,
    ThresholdMethod.YEN: _threshold_yen,
}


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def compute_threshold(method: ThresholdMethod, hist: Histogram) -> int:
    """Level for one method; raises ThresholdFailure when it cannot converge.

    Deterministic: ties between equally good levels go to the lowest one.
    """
    return _level(ThresholdMethod(method), _Stats(hist))


def threshold_report(hist: Histogram) -> ThresholdReport:
    """Run all fifteen methods; per-method failures land in the status column."""
    stats = _Stats(hist)
    entries = {}
    for method in METHOD_ORDER:
        try:
            level = _level(method, stats)
            entries[method] = ThresholdEntry(level=level, status="converged")
        except ThresholdFailure:
            entries[method] = ThresholdEntry(level=None, status="failed")
    return ThresholdReport(entries=entries)
