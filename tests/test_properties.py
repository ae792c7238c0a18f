"""Property tests: extract on arbitrary small images, rule-base replay against
the per-pixel oracle, majority fusion against the vote loop, the PGM reader
on arbitrary bytes and the command line on arbitrary argument lists."""

import contextlib
import io
import json
import re
from itertools import product

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from grayfuzz.cli import main
from grayfuzz.fuzzy import FuzzyPartition, RuleBase, build_partition, combine, generate_rules
from grayfuzz.image_core import (
    GrayImage,
    NoiseSpec,
    PgmError,
    add_gaussian_noise,
    bimodal_phantom,
    load_pgm,
    save_pgm,
)
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
    # a rule base of any other input count cannot be built, learned or loaded
    part = FuzzyPartition((0.0, 255.0))
    two_input_json = RuleBase({(0, 0): (0, 1.0)}, (part, part), part).to_json_text()
    for count in (1, 3):
        parts = (part,) * count
        match = f"2 input partitions, not {count}"
        with pytest.raises(ValueError, match=match):
            RuleBase(rules={(0,) * count: (0, 1.0)}, in_partitions=parts, out_partition=part)
        candidates = generate_rules([[0.0] * count], [0.0], parts, part)
        with pytest.raises(ValueError, match=match):
            combine(candidates, parts, part)
        payload = json.loads(two_input_json)
        payload["inputs"] = [{"peaks": [0.0, 255.0]}] * count
        payload["rules"][0]["antecedent"] = [0] * count
        with pytest.raises(ValueError, match=match):
            RuleBase.from_json_text(json.dumps(payload))


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


# (valid, invalid) header numbers; int() alone would read +2, 0_3, +255 and 2_55
sides = ([b"1", b"2", b"3", b"02"], [b"0", b"+2", b"0_3", b"\xd9\xa3", b"99999999999"])
maxvals = ([b"255", b"255", b"15"], [b"0", b"256", b"+255", b"2_55"])
header_separators = st.sampled_from([b" ", b"\n", b"\t\r", b"\x0b", b"\n# note 1 2\n"])


@st.composite
def pgm_files(draw):
    """(bytes shaped like a binary PGM, the raster a reader must return), the
    raster None where the format rejects the bytes: a magic other than P5,
    header numbers that are not ASCII decimal digits, a zero side, a maxval
    outside [1, 255], a short raster, a raster byte above maxval or a file
    cut inside its header."""
    magic = draw(st.sampled_from([b"P5", b"P5", b"P5", b"P2", b"P6"]))
    tokens = []
    for valid, invalid in (sides, sides, maxvals):  # each valid three times in four
        tokens.append(draw(st.sampled_from(invalid if draw(st.integers(0, 3)) == 0 else valid)))
    header = magic
    for token in tokens:
        header += draw(header_separators) + token
    header += draw(st.sampled_from([b" ", b"\t", b"\n", b"\r"]))
    short = draw(st.integers(0, 5)) == 0  # a 3x3 raster needs 9 bytes
    data = header + draw(st.binary(max_size=8) if short else st.binary(min_size=9, max_size=12))
    data = data[:draw(st.integers(0, len(data)))] if draw(st.integers(0, 5)) == 0 else data
    if magic != b"P5" or len(data) < len(header):
        return data, None
    if not all(re.fullmatch(rb"[0-9]+", token) for token in tokens):
        return data, None
    width, height, maxval = (int(token) for token in tokens)
    raster = data[len(header):len(header) + width * height]
    if min(width, height) < 1 or not 1 <= maxval <= 255 or len(raster) < width * height:
        return data, None
    return data, (raster if max(raster) <= maxval else None)


@reproducible
@given(pgm_files(), st.binary(max_size=40))
def test_load_pgm_raises_pgm_error_or_keeps_the_raster(case, data):
    pgm, raster = case
    if raster is None:
        with pytest.raises(PgmError):
            load_pgm(pgm)
    else:
        assert save_pgm(load_pgm(pgm)).endswith(raster)
    try:
        image = load_pgm(data)
    except PgmError:
        return
    assert save_pgm(image)[-image.pixels.size:] in data


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Paths the command-line property draws from: tiny images, a corrupt
    and a missing image, configs good and bad, and output locations."""
    root = tmp_path_factory.mktemp("cli")
    files = {
        "two.pgm": save_pgm(GrayImage(2, 2, [10, 200, 30, 220])),
        "flat.pgm": save_pgm(GrayImage(1, 1, [7])),
        "corrupt.pgm": b"P5 2 2 255\n" + bytes(3),
        "photo.png": b"not a png",
        "good.json": json.dumps({"sigmas": [30], "methods": ["Otsu", "proposed"]}).encode(),
        "bad.json": b'{"sigmas": "30"}',
        "junk.json": b"{",
    }
    for name, data in files.items():
        (root / name).write_bytes(data)
    return {
        "images": [str(root / "two.pgm"), str(root / "flat.pgm")],
        "configs": [str(root / "good.json")],
        "other": [str(root / name) for name in ("corrupt.pgm", "photo.png", "bad.json",
                                                 "junk.json", "missing.pgm")],
        "out": [str(root / "out")],
        "csv": [str(root / "m.csv")],
    }


@st.composite
def argv_lists(draw, files):
    """A subcommand with its required flags and a few of its others, their
    values mostly valid; now and then the subcommand is wrong or one token is
    dropped."""
    values = {  # (valid, invalid)
        "--input": (files["images"], files["other"]),
        "--config": (files["configs"], files["other"]),
        "--out-dir": (files["out"], files["images"]),
        "--csv": (files["csv"], files["images"]),
        "--sigma": (["30", "75", "0"], ["-1", "nan", "1e400", "x"]),
        "--seed": (["1", "2"], ["-2", "1.5"]),
        "--compare": (["restored", "binarized-means"], ["x"]),
        "--methods": (["Otsu,proposed", "Mean"], ["bogus", ","]),
    }
    command = draw(st.sampled_from(["single", "benchmark"]))
    if command == "single":
        flags, optional = ["--input", "--out-dir"], ["--sigma", "--seed", "--compare", "--strict"]
    else:
        flags, optional = ["--input"], sorted(values) + ["--strict"]
    flags += draw(st.lists(st.sampled_from(optional), max_size=3))
    argv = [command if draw(st.integers(0, 9)) else "bogus"]
    for flag in flags:
        argv.append(flag)
        if flag in values:
            valid, invalid = values[flag]
            argv.append(draw(st.sampled_from(invalid if draw(st.integers(0, 5)) == 0 else valid)))
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@reproducible
@given(data=st.data())
def test_main_exit_codes(cli_files, data):
    argv = data.draw(argv_lists(cli_files))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in {0, 1, 2, 3, 4}
    assert (code == 1) == err.startswith("usage error:")
    assert "Traceback" not in err
