"""Property tests: extract on arbitrary small images, rule-base replay against
the per-pixel oracle, and majority fusion against the vote loop."""

from itertools import product

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from grayfuzz.fuzzy import FuzzyPartition, RuleBase, build_partition
from grayfuzz.image_core import GrayImage, NoiseSpec, add_gaussian_noise, bimodal_phantom
from grayfuzz.pipeline import MIN_REGIONS, TRAINING_STRIDE, WINDOW, apply_rulebase, extract
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


@st.composite
def few_valued_images(draw, max_side=8):
    """Images over 2-4 distinct values: many training keys share a value and
    a best sum region."""
    alphabet = draw(st.lists(st.integers(0, 255), min_size=2, max_size=4, unique=True))
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    size = width * height
    pixels = draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size))
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
@given(few_valued_images())
# Tied sum grades: at value 176 the window means 99 - 8.56 and 99 + 8.56 both
# fall in the learned sum region peaking at 99, whose sides are equal.
@example(GrayImage(3, 3, [22, 176, 99, 99, 99, 22, 22, 176, 176]))
# A side shorter than TRAINING_STRIDE leaves some lattice phases empty.
@example(GrayImage(2, 1, [30, 220]))
@example(GrayImage(1, 5, [200, 15, 200, 15, 15]))
@example(GrayImage(3, 2, [10, 240, 10, 240, 240, 10]))
@example(GrayImage(3, 7, [60, 60, 180] * 7))
def test_rules_match_lattice_bruteforce_with_tied_grades(noisy):
    result = extract(noisy)
    assume(not result.degenerate)
    levels = result.report.converged_levels()
    pixels = noisy.pixels.tolist()
    fg = oracles.majority_vote(pixels, levels).tolist()
    assert (noisy.pixels > result.level).tolist() == fg
    bg_mean, fg_mean = oracles.class_means(noisy, result.level)
    in_part = build_partition([float(t) for t in levels], MIN_REGIONS)
    out_part = build_partition(sorted({bg_mean, fg_mean}), MIN_REGIONS)
    window = oracles.window_means(noisy, WINDOW)
    w = noisy.width
    pairs = {
        ((float(pixels[i]), window[i]), fg_mean if fg[i] else bg_mean)
        for i in range(len(pixels))
        if (i % w - i // w) % TRAINING_STRIDE == 0
    }
    expected = oracles.wang_mendel_bruteforce(sorted(pairs), (in_part, in_part), out_part)
    assert result.rulebase.rules == expected


def every_cell_rulebase(value_peaks, sum_peaks, consequents):
    """A rule in every antecedent cell, its consequent cycling through
    ``consequents`` and its degree falling from 1, over a seven-region output."""
    ins = (FuzzyPartition(value_peaks), FuzzyPartition(sum_peaks))
    out = FuzzyPartition((0.0, 40.0, 80.0, 120.0, 160.0, 200.0, 255.0))
    cells = product(range(ins[0].region_count), range(ins[1].region_count))
    rules = {
        cell: (consequents[i % len(consequents)], 1.0 - i / 64.0) for i, cell in enumerate(cells)
    }
    return RuleBase(rules=rules, in_partitions=ins, out_partition=out)


@reproducible
@given(rulebases(), images())
# No integer value lies between the peaks 127.5 and 128: an empty value bracket.
@example(
    every_cell_rulebase((0.0, 127.5, 128.0, 255.0), (0.0, 60.0, 140.0, 255.0), (1, 4)),
    GrayImage(6, 6, [120, 127, 128, 129, 135, 60] * 3 + [128, 127, 200, 0, 255, 128] * 3),
)
# No window sum has a mean between 100.01 and 100.05: an empty sum bracket.
@example(
    every_cell_rulebase((0.0, 90.0, 110.0, 255.0), (0.0, 100.01, 100.05, 255.0), (2, 5)),
    GrayImage(5, 5, [98, 99, 100, 101, 102, 100, 100, 101, 99, 100] * 2 + [97, 100, 103, 100, 100]),
)
# Many keys per slice: a noisy phantom, a rule in every cell, three spike levels.
@example(
    every_cell_rulebase((0.0, 42.5, 85.0, 127.5, 170.0, 212.5, 255.0),
                        (0.0, 50.0, 100.0, 150.0, 200.0, 255.0), (1, 3, 5)),
    add_gaussian_noise(bimodal_phantom(32, 32), NoiseSpec(sigma=30.0, seed=1)),
)
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
