"""Property tests: extract on arbitrary small images, rule-base replay against
the per-pixel oracle, and majority fusion against the vote loop."""

from itertools import product

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from grayfuzz.fuzzy import FuzzyPartition, RuleBase
from grayfuzz.image_core import GrayImage
from grayfuzz.pipeline import apply_rulebase, extract
from grayfuzz.thresholding import (
    METHOD_ORDER,
    ThresholdEntry,
    ThresholdReport,
)

import oracles

# Reproducible and file-free: a fixed example sequence and no example database.
reproducible = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def images(draw, max_side=8):
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    low = draw(st.integers(0, 255))
    high = draw(st.integers(low, 255))
    pixels = draw(st.lists(st.integers(low, high), min_size=width * height, max_size=width * height))
    return GrayImage(width, height, pixels)


# Interior peaks that round to the spike level of a neighbour (0.3 -> 0,
# 127.5 and 128 -> 128, 254.7 -> 255) make two regions share one spike.
interior_peaks = st.sampled_from([0.3, 0.5, 1.4, 127.5, 128.0, 254.5, 254.7]) | st.floats(
    0.0, 255.0, exclude_min=True, exclude_max=True
)


@st.composite
def partitions(draw):
    interior = draw(st.lists(interior_peaks, max_size=5, unique=True))
    return FuzzyPartition((0.0, *sorted(interior), 255.0))


@st.composite
def rulebases(draw):
    ins = (draw(partitions()), draw(partitions()))
    out = draw(partitions())
    cells = list(product(range(ins[0].region_count), range(ins[1].region_count)))
    chosen = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    rules = {
        cell: (
            draw(st.integers(0, out.region_count - 1)),
            draw(st.floats(0.0, 1.0, exclude_min=True)),
        )
        for cell in chosen
    }
    return RuleBase(rules=rules, in_partitions=ins, out_partition=out)


@reproducible
@given(images())
def test_extract_total_and_deterministic(img):
    a, b = extract(img), extract(img)
    assert (a.extracted.width, a.extracted.height) == (img.width, img.height)
    assert 0 <= a.no_rule_pixels <= img.pixels.size
    assert (a.rulebase is None) == a.degenerate == (np.unique(img.pixels).size == 1)
    assert a == b
    if a.rulebase is not None:
        assert a.rulebase.to_json_text() == b.rulebase.to_json_text()


@reproducible
@given(images())
def test_learned_rulebase_replay_matches_per_pixel(noisy):
    r = extract(noisy)
    assume(not r.degenerate)
    restored, no_rule = apply_rulebase(r.rulebase, noisy)
    assert (restored.pixels.tolist(), no_rule) == oracles.restore_per_pixel(r.rulebase, noisy)
    assert (restored, no_rule) == (r.extracted, r.no_rule_pixels)
    loaded = RuleBase.from_json_text(r.rulebase.to_json_text())
    assert apply_rulebase(loaded, noisy) == (r.extracted, r.no_rule_pixels)


@reproducible
@given(rulebases(), images())
def test_random_rulebase_matches_per_pixel(base, image):
    restored, no_rule = apply_rulebase(base, image)
    assert (restored.pixels.tolist(), no_rule) == oracles.restore_per_pixel(base, image)


def test_apply_rulebase_needs_two_inputs():
    part = FuzzyPartition((0.0, 255.0))
    base = RuleBase(rules={(0,): (0, 1.0)}, in_partitions=(part,), out_partition=part)
    with pytest.raises(ValueError, match="inputs"):
        apply_rulebase(base, GrayImage(1, 1, [0]))


@reproducible
@given(
    st.lists(st.integers(0, 255) | st.integers(100, 103), min_size=1, max_size=len(METHOD_ORDER)),
    st.lists(st.integers(0, 255), min_size=1, max_size=64),
)
def test_majority_fusion_matches_vote_loop(levels, pixels):
    entries = {
        method: ThresholdEntry(level=levels[i], status="converged")
        if i < len(levels)
        else ThresholdEntry(level=None, status="failed")
        for i, method in enumerate(METHOD_ORDER)
    }
    image = GrayImage(len(pixels), 1, pixels)
    fused = image.pixels > ThresholdReport(entries=entries).majority_level()
    assert fused.tolist() == oracles.majority_vote(image.pixels, levels).tolist()
