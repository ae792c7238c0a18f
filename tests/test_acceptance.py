"""Acceptance suite.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so the suite both reports and gates.
"""

import math
import time

import numpy as np

from grayfuzz.cli import BenchmarkSpec, PROPOSED_ROW, run_benchmark
from grayfuzz.fuzzy import build_partition, combine, generate_rules
from grayfuzz.image_core import (
    GrayImage,
    Histogram,
    NoiseSpec,
    add_gaussian_noise,
    histogram,
)
from grayfuzz.metrics import compare
from grayfuzz.pipeline import extract
from grayfuzz.thresholding import (
    ThresholdFailure,
    ThresholdMethod,
    compute_threshold,
    threshold_report,
)

import oracles
from oracles import RegionLabeling, range_predicate, validate_partition


def _verdict(number: int, ok: bool, label: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


CRITERION_METHODS = {
    ThresholdMethod.OTSU: oracles.oracle_otsu,
    ThresholdMethod.MAX_ENTROPY: oracles.oracle_max_entropy,
    ThresholdMethod.YEN: oracles.oracle_yen,
    ThresholdMethod.RENYI_ENTROPY: oracles.oracle_renyi,
    ThresholdMethod.MOMENTS: oracles.oracle_moments,
    ThresholdMethod.HUANG: oracles.oracle_huang,
    ThresholdMethod.LI: oracles.oracle_li,
    ThresholdMethod.SHANBHAG: oracles.oracle_shanbhag,
    ThresholdMethod.TRIANGLE: oracles.oracle_triangle,
    ThresholdMethod.MINIMUM: oracles.oracle_minimum,
    ThresholdMethod.MIN_ERROR: oracles.oracle_min_error,
}


def test_criterion_1_threshold_oracles():
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    agreements = 0
    total = 0
    for _ in range(100):
        counts = oracles.random_histogram(rng)
        hist = Histogram(counts=counts, total=int(counts.sum()))
        for method, oracle in CRITERION_METHODS.items():
            expected = oracle(counts)
            try:
                got = compute_threshold(method, hist)
            except ThresholdFailure:
                got = None
            total += 1
            agreements += got == expected
    elapsed = time.perf_counter() - start
    ok = agreements == total and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"threshold oracle suite: {agreements}/{total} exact agreements on 100 "
        f"histograms x 11 criterion methods in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_wang_mendel_oracle():
    rng = np.random.default_rng(31337)
    matches = 0
    for _ in range(50):
        in_parts = []
        for _ in range(2):
            anchors = sorted(rng.uniform(10, 245, size=int(rng.integers(1, 4))))
            part = build_partition(anchors, min_regions=2)
            in_parts.append(part)
        anchors = sorted(rng.uniform(10, 245, size=int(rng.integers(1, 4))))
        out_part = build_partition(anchors, min_regions=2)
        assert all(p.region_count <= 5 for p in in_parts + [out_part])
        n = int(rng.integers(1, 201))
        pairs = [
            (
                (float(rng.uniform(0, 255)), float(rng.uniform(0, 255))),
                float(rng.uniform(0, 255)),
            )
            for _ in range(n)
        ]
        inputs = [xs for xs, _ in pairs]
        outputs = [y for _, y in pairs]
        base = combine(generate_rules(inputs, outputs, in_parts, out_part), in_parts, out_part)
        expected = oracles.wang_mendel_bruteforce(pairs, in_parts, out_part)
        matches += base.rules == expected
    _verdict(2, matches == 50, f"rule-learning brute-force match on {matches}/50 datasets")


def test_criterion_3_ruspini_invariant():
    rng = np.random.default_rng(2718)
    levels = np.arange(256, dtype=np.float64)
    worst = 0.0
    for _ in range(100):
        anchors = sorted(rng.uniform(0, 255, size=int(rng.integers(1, 13))))
        part = build_partition(anchors, min_regions=int(rng.integers(2, 10)))
        total = part.memberships(levels).sum(axis=0)
        worst = max(worst, float(np.abs(total - 1.0).max()))
    _verdict(3, worst < 1e-9, f"partition-of-unity worst deviation {worst:.3e} (< 1e-9)")


def test_criterion_4_metric_identities():
    rng = np.random.default_rng(1234)
    identity_ok = True
    for _ in range(100):
        a = GrayImage(16, 16, rng.integers(0, 256, size=256))
        b = GrayImage(16, 16, rng.integers(0, 256, size=256))
        record = compare(a, b)
        if record.mse > 0:
            identity_ok &= abs(
                record.psnr_db - 10.0 * math.log10(255.0 ** 2 / record.mse)
            ) < 1e-9

    zero_db = compare(GrayImage(2, 2, [0] * 4), GrayImage(2, 2, [255] * 4)).psnr_db
    half = compare(GrayImage(2, 1, [0, 7]), GrayImage(2, 1, [255, 7]))
    inf_case = compare(GrayImage(2, 2, [9] * 4), GrayImage(2, 2, [9] * 4))
    examples_ok = (
        zero_db == 0.0
        and half.mse == 32512.5
        and abs(half.psnr_db - 10.0 * math.log10(2.0)) < 1e-9
        and math.isinf(inf_case.psnr_db)
        and math.isinf(inf_case.snr_db)
    )
    _verdict(4, identity_ok and examples_ok,
             "psnr == 10*log10(255^2/mse) to 1e-9; 0 dB / 3.0103 dB / inf examples exact")


def test_criterion_5_noise_statistics():
    img = GrayImage(512, 512, np.full(512 * 512, 128, dtype=np.uint8))
    noisy = add_gaussian_noise(img, NoiseSpec(sigma=15.0, seed=20240817))
    err = noisy.pixels.astype(np.float64) - 128.0
    mean_err = float(err.mean())
    std_err = float(err.std())
    ok = abs(mean_err) <= 0.5 and 0.98 * 15.0 <= std_err <= 1.02 * 15.0
    _verdict(5, ok, f"noise stats on 512x512 const-128, sigma=15: "
                    f"mean={mean_err:+.4f} (within +/-0.5), std={std_err:.4f} (within 2%)")


def test_criterion_6_two_class_fidelity(two_level_image_40_210):
    result = extract(two_level_image_40_210)
    values = sorted(set(result.extracted.pixels.tolist()))
    record = compare(result.extracted, two_level_image_40_210)
    ok = (
        result.extracted == two_level_image_40_210
        and values == [40, 210]
        and math.isinf(record.psnr_db)
    )
    _verdict(6, ok, f"zero-noise two-level phantom restored exactly at class means "
                    f"{values}; PSNR sentinel inf")


def test_criterion_7_directional_benchmark(bench_images):
    spec = BenchmarkSpec(images=bench_images, seeds=(1, 2, 3))
    start = time.perf_counter()
    result = run_benchmark(spec)
    elapsed = time.perf_counter() - start

    lines = [line.split(",") for line in result.csv_text.strip().split("\n")]
    header, rows = lines[0], lines[1:]
    assert header == ["method", "15", "30", "45", "60", "75"]
    table = {
        row[0]: [None if cell == "n/a" else float(cell) for cell in row[1:]]
        for row in rows
    }

    margins = []
    for column in range(5):
        singles = [
            table[name][column]
            for name in table
            if name != PROPOSED_ROW and table[name][column] is not None
        ]
        margins.append(table[PROPOSED_ROW][column] - max(singles))
    dominance_ok = all(margin >= 0.0 for margin in margins)

    trend_ok = all(
        values[i + 1] <= values[i] + 0.5
        for values in table.values()
        for i in range(4)
        if values[i] is not None and values[i + 1] is not None
    )

    ok = dominance_ok and trend_ok and elapsed < 60.0
    _verdict(
        7,
        ok,
        "directional matrix on bimodal phantom + photo: proposed beats best single "
        f"method in every sigma column (margins dB: "
        f"{', '.join(f'{m:+.2f}' for m in margins)}); rows non-increasing in sigma "
        f"within 0.5 dB; benchmark {elapsed:.1f}s (< 60s)",
    )


def test_criterion_8_benchmark_determinism(phantom_path):
    spec = BenchmarkSpec(images=(phantom_path,), sigmas=(15.0, 60.0), seeds=(1, 2))
    first = run_benchmark(spec)
    second = run_benchmark(spec)
    ok = first.csv_text.encode() == second.csv_text.encode()
    _verdict(8, ok, "run_benchmark twice with one spec: byte-identical CSV")


def test_criterion_9_partition_validity(two_level_image_40_210):
    report = threshold_report(histogram(two_level_image_40_210))
    foreground = two_level_image_40_210.pixels > report.majority_level()
    labeling = RegionLabeling(labels=foreground.astype(np.int64), region_count=2)
    verdict = validate_partition(two_level_image_40_210, labeling, range_predicate(5))
    regions = [labeling.labels == region for region in range(labeling.region_count)]
    union_ok = bool(np.logical_or.reduce(regions).all())
    disjoint_ok = bool((np.sum(regions, axis=0) == 1).all())
    ok = union_ok and disjoint_ok and verdict.homogeneous_ok and verdict.adjacent_merge_fails
    _verdict(9, ok, "majority split of the two-level phantom satisfies all four "
                    "partition checks (range tolerance 5)")
