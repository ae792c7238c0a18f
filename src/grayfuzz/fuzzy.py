"""Triangular membership partitions and rule learning from numeric pairs
over the [0, 255] intensity domain.

A partition is stored as its vector of region peaks, strictly increasing
from 0 to 255.  Region i rises linearly from peak i-1 to 1 at peak i and
falls back to 0 at peak i+1; the regions peaking at 0 and 255 are the
shoulders.  The partition is Ruspini by construction: at any x only the two
regions bracketing x are non-zero, and their memberships sum to one.

Rule learning is the one-pass numeric procedure of Wang & Mendel (1992),
done as array operations: every data pair votes for the cell combination
where its memberships peak, carries a degree equal to the product of those
memberships, and conflicting votes per antecedent are resolved by keeping
the strongest.

A ``RuleBase`` holds exactly two input partitions, one for the pixel value
and one for its window mean, and one output partition.  It is applied to an
image by ``pipeline.apply_rulebase``: each rule fires at ``degree *
min(antecedent memberships)``, and its consequent is the discretized
prototype of its output region, a unit spike at the region's peak level
(``FuzzyPartition.spike_level``).  Spikes aggregate by max and decode by
their centroid, which therefore interpolates between learned prototypes; an
input sitting exactly on a prototype reproduces it.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import List, Sequence, Tuple

import numpy as np

from .image_core import _array_fields_equal, _int_array, _is_int, _is_real, round_half_up

__all__ = [
    "FuzzyPartition",
    "RuleCandidates",
    "RuleBase",
    "build_partition",
    "generate_rules",
    "combine",
    "DEFAULT_CLUSTER_GAP",
    "RULEBASE_SCHEMA",
]

DOMAIN_MAX = 255.0
DEFAULT_CLUSTER_GAP = 8.0
RULEBASE_SCHEMA = "grayfuzz.rulebase/1"


@dataclass(frozen=True)
class FuzzyPartition:
    """Ordered Ruspini family covering [0, 255], stored as its region peaks:
    at least two, finite, strictly increasing, the first 0 and the last 255."""

    peaks: Tuple[float, ...]

    def __post_init__(self):
        if np.ndim(self.peaks) != 1:
            raise ValueError(f"region peaks {self.peaks!r} are not a flat sequence")
        if not all(_is_real(p) for p in self.peaks):
            raise ValueError(f"region peaks {self.peaks!r} are not all real numbers")
        peaks = tuple(float(p) for p in self.peaks)
        if len(peaks) < 2:
            raise ValueError("a partition needs at least two regions")
        if not all(math.isfinite(p) for p in peaks):
            raise ValueError("region peaks must be finite")
        if any(b <= a for a, b in zip(peaks, peaks[1:])):
            raise ValueError("region peaks must be strictly increasing")
        if peaks[0] != 0.0 or peaks[-1] != DOMAIN_MAX:
            raise ValueError("region peaks must start at 0 and end at 255")
        object.__setattr__(self, "peaks", peaks)

    @property
    def region_count(self) -> int:
        return len(self.peaks)

    def _bracket(self, x) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, lower, upper) with peaks[i] <= x <= peaks[i+1]: the
        memberships of x in region i and in region i+1, the only two regions
        that can be non-zero at x."""
        x = np.asarray(x, dtype=np.float64)
        if not np.all((x >= 0.0) & (x <= DOMAIN_MAX)):
            raise ValueError("values must be finite and lie in [0, 255]")
        p = np.asarray(self.peaks)
        i = np.clip(np.searchsorted(p, x, side="right") - 1, 0, p.size - 2)
        width = p[i + 1] - p[i]
        return i, (p[i + 1] - x) / width, (x - p[i]) / width

    def _best_region(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """(maximum-membership region, its membership); lower index on ties."""
        i, lower, upper = self._bracket(x)
        return np.where(upper > lower, i + 1, i), np.maximum(lower, upper)

    def memberships(self, x) -> np.ndarray:
        """All region memberships at x (scalar or array, within [0, 255]);
        shape (region_count,) + x.shape."""
        i, lower, upper = self._bracket(x)
        regions = np.arange(self.region_count).reshape((-1,) + (1,) * i.ndim)
        return np.where(regions == i, lower, np.where(regions == i + 1, upper, 0.0))

    def spike_level(self, region_index: int) -> int:
        """Discretized prototype of a region: its peak as an intensity level."""
        if not (_is_int(region_index) and 0 <= region_index < self.region_count):
            raise IndexError(f"region {region_index!r} is not an index in [0, {self.region_count})")
        return int(round_half_up(self.peaks[region_index]))


def _cluster_anchors(anchors: Sequence[float]) -> List[float]:
    # single linkage: chain anchors whose consecutive spacing stays below the gap
    ordered = sorted(float(a) for a in anchors)
    clusters: List[List[float]] = [[ordered[0]]]
    for a in ordered[1:]:
        if a - clusters[-1][-1] < DEFAULT_CLUSTER_GAP:
            clusters[-1].append(a)
        else:
            clusters.append([a])
    return [sum(c) / len(c) for c in clusters]


def build_partition(anchors: Sequence[float], min_regions: int = 2) -> FuzzyPartition:
    """Anchor-derived Ruspini partition.

    Near-identical anchors (spacing < ``DEFAULT_CLUSTER_GAP``) merge into
    one cluster whose mean becomes an interior peak; shoulder regions at 0
    and 255 are always added.  If that yields fewer than ``min_regions``
    regions, the widest peak gap (leftmost on ties) is split at its midpoint
    until the count is reached.
    """
    anchors = list(anchors)
    if not anchors:
        raise ValueError("need at least one anchor")
    if not all(_is_real(a) and 0 <= a <= DOMAIN_MAX for a in anchors):  # NaN fails too
        raise ValueError(f"anchors {anchors!r} are not all real numbers in [0, 255]")
    if not _is_int(min_regions) or min_regions < 2:
        raise ValueError(f"min_regions {min_regions!r} is not an integer of at least 2")
    centers = [c for c in _cluster_anchors(anchors) if 0.0 < c < DOMAIN_MAX]
    peaks = [0.0] + centers + [DOMAIN_MAX]
    while len(peaks) < min_regions:
        gaps = [b - a for a, b in zip(peaks, peaks[1:])]
        widest = gaps.index(max(gaps))
        peaks.insert(widest + 1, (peaks[widest] + peaks[widest + 1]) / 2.0)
    return FuzzyPartition(tuple(peaks))


@dataclass(frozen=True)
class RuleCandidates:
    """One candidate rule per data pair, as parallel arrays: the antecedent
    region of each input (pairs, inputs), the consequent region (pairs,) and
    the membership-product degree (pairs,)."""

    antecedents: np.ndarray
    consequents: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        antecedents = _int_array(self.antecedents, "antecedent regions")
        consequents = _int_array(self.consequents, "consequent regions")
        degrees = np.asarray(self.degrees, dtype=np.float64)
        if antecedents.ndim != 2 or not (
            antecedents.shape[:1] == consequents.shape == degrees.shape
        ):
            raise ValueError("need one antecedent row, consequent and degree per candidate")
        object.__setattr__(self, "antecedents", antecedents)
        object.__setattr__(self, "consequents", consequents)
        object.__setattr__(self, "degrees", degrees)

    __eq__ = _array_fields_equal

    def __len__(self) -> int:
        return self.degrees.size


@dataclass(frozen=True)
class RuleBase:
    """Conflict-resolved rule collection plus the partitions it was built
    against; immutable, safe for concurrent read-only inference.  It has
    exactly two input partitions, the pixel value's and the window mean's.
    Every rule names one integer region per input partition and an integer
    output region, with a real degree in (0, 1]; the rules are stored,
    read-only, as Python ``int`` and ``float``, so ``to_json_text`` always
    writes what ``from_json_text`` reads back.  Rule bases hash and pickle by
    value."""

    rules: Mapping[Tuple[int, int], Tuple[int, float]]
    in_partitions: Tuple[FuzzyPartition, FuzzyPartition]
    out_partition: FuzzyPartition

    def __post_init__(self):
        in_partitions = tuple(self.in_partitions)
        if len(in_partitions) != 2:
            raise ValueError(f"a rule base needs 2 input partitions, not {len(in_partitions)}")
        if not all(isinstance(p, FuzzyPartition) for p in (*in_partitions, self.out_partition)):
            raise ValueError("rule base partitions must be FuzzyPartition values")
        if not isinstance(self.rules, Mapping):
            raise ValueError(f"rules {self.rules!r} are not a mapping of antecedent to rule")
        counts = [p.region_count for p in in_partitions]
        rules = {}
        for antecedent, rule in self.rules.items():
            if not (isinstance(rule, tuple) and len(rule) == 2):
                raise ValueError(f"rule {antecedent!r}: {rule!r} is not a (consequent, degree) pair")
            consequent, degree = rule
            fits = isinstance(antecedent, tuple) and len(antecedent) == 2
            if not (fits and all(_is_int(r) and 0 <= r < n for r, n in zip(antecedent, counts))):
                raise ValueError(f"rule {antecedent!r}: antecedent does not fit the input partitions")
            if not (_is_int(consequent) and 0 <= consequent < self.out_partition.region_count):
                raise ValueError(f"rule {antecedent!r}: consequent {consequent!r} out of range")
            if not (_is_real(degree) and 0.0 < degree <= 1.0):
                raise ValueError(f"rule {antecedent!r}: degree {degree!r} is not a real in (0, 1]")
            rules[tuple(int(region) for region in antecedent)] = (int(consequent), float(degree))
        object.__setattr__(self, "rules", MappingProxyType(rules))
        object.__setattr__(self, "in_partitions", in_partitions)

    def __hash__(self) -> int:
        return hash((frozenset(self.rules.items()), self.in_partitions, self.out_partition))

    def __reduce__(self):  # a mappingproxy does not pickle
        return type(self), (dict(self.rules), self.in_partitions, self.out_partition)

    def __len__(self) -> int:
        return len(self.rules)

    def to_json_text(self) -> str:
        payload = {
            "schema": RULEBASE_SCHEMA,
            "inputs": [{"peaks": list(p.peaks)} for p in self.in_partitions],
            "output": {"peaks": list(self.out_partition.peaks)},
            "rules": [
                {"antecedent": list(antecedent), "consequent": consequent, "degree": degree}
                for antecedent, (consequent, degree) in sorted(self.rules.items())
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "RuleBase":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("rule base must be a JSON object")
        if payload.get("schema") != RULEBASE_SCHEMA:
            raise ValueError(f"unsupported rule base schema {payload.get('schema')!r}")
        for key in ("inputs", "rules"):
            if type(payload.get(key)) is not list:
                raise ValueError(f"rule base {key!r} must be a list")
        partitions = []
        for part in (*payload["inputs"], payload.get("output")):
            peaks = part.get("peaks") if isinstance(part, dict) else None
            if type(peaks) is not list:
                raise ValueError(f"partition {part!r}: peaks must be a list")
            partitions.append(FuzzyPartition(tuple(peaks)))
        *in_parts, out_part = partitions
        rules = {}
        for r in payload["rules"]:
            if not isinstance(r, dict) or not r.keys() >= {"antecedent", "consequent", "degree"}:
                raise ValueError(f"rule {r!r}: needs antecedent, consequent and degree")
            # a flat list keeps the key hashable; __post_init__ checks each value
            if type(r["antecedent"]) is not list or any(
                isinstance(region, (list, dict)) for region in r["antecedent"]
            ):
                raise ValueError(f"rule {r!r}: antecedent must be a flat list")
            antecedent = tuple(r["antecedent"])
            if antecedent in rules:
                raise ValueError(f"two rules share the antecedent {r['antecedent']!r}")
            rules[antecedent] = (r["consequent"], r["degree"])
        return cls(rules=rules, in_partitions=in_parts, out_partition=out_part)


def generate_rules(
    inputs,
    outputs,
    in_partitions: Sequence[FuzzyPartition],
    out_partition: FuzzyPartition,
) -> RuleCandidates:
    """One candidate rule per data pair (row of ``inputs``, entry of ``outputs``).

    Every coordinate (inputs and output) lands in its maximum-membership
    region, lower index winning ties; the rule degree is the product of
    those memberships, output first.  Values must be finite and lie in
    [0, 255].
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    outputs = np.asarray(outputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != len(in_partitions):
        raise ValueError("inputs need one column per input partition")
    if outputs.shape != inputs.shape[:1]:
        raise ValueError("need one output per input row")
    consequents, degrees = out_partition._best_region(outputs)
    antecedents = []
    for k, part in enumerate(in_partitions):
        regions, grades = part._best_region(inputs[:, k])
        antecedents.append(regions)
        degrees = degrees * grades
    return RuleCandidates(
        antecedents=np.stack(antecedents, axis=1),
        consequents=consequents,
        degrees=degrees,
    )


def combine(
    candidates: RuleCandidates,
    in_partitions: Sequence[FuzzyPartition],
    out_partition: FuzzyPartition,
) -> RuleBase:
    """Resolve conflicts: one rule per antecedent, maximum degree winning,
    lower consequent index breaking exact ties.  Order-independent.

    The strongest degree per (antecedent cell, consequent) fills a table;
    ``argmax`` over an occupied cell's row takes its first maximum, the
    lower consequent on ties.
    """
    shape = [p.region_count for p in in_partitions]
    consequents = candidates.consequents
    if np.any((consequents < 0) | (consequents >= out_partition.region_count)):
        raise ValueError("candidate consequent outside the output partition")
    cell = np.ravel_multi_index(tuple(candidates.antecedents.T), shape)
    best = np.full((math.prod(shape), out_partition.region_count), -np.inf)
    np.fmax.at(best, (cell, consequents), candidates.degrees)  # a NaN degree never wins
    cells = np.flatnonzero(np.bincount(cell, minlength=best.shape[0]))
    winners = best[cells].argmax(axis=1)
    rules = {
        tuple(antecedent): (consequent, degree)
        for antecedent, consequent, degree in zip(
            np.stack(np.unravel_index(cells, shape), axis=1).tolist(),
            winners.tolist(),
            best[cells, winners].tolist(),
        )
    }
    return RuleBase(
        rules=rules,
        in_partitions=tuple(in_partitions),
        out_partition=out_partition,
    )
