"""Benchmark harness and single-image front door.

``grayfuzz single`` corrupts one image, runs the extraction pipeline and
writes five artifacts (noisy PGM, extracted PGM, threshold report CSV, rule
base JSON, metrics JSON).

``grayfuzz benchmark`` regenerates the method-by-sigma PSNR matrix: every
single-method row scores its binarized-two-means reconstruction of the noisy
image against the clean original, the "Proposed method" row scores the
pipeline output (``--compare restored``, default) or the two-means reading
of its majority split level (``--compare binarized-means``).  A two-means
reading is scored by ``SplitCensus(noisy, clean).score(level)``, from one
joint census per sample, without building the image; the restored image
goes through ``compare``.  Both give the same record for the same image.
Cells average over images and seeds, carry four decimals, and use "inf" /
"n/a" sentinels.

Exit codes: 0 success, 1 usage error (all arguments are checked before a run
starts), 2 I/O error, 3 degenerate input escalated by --strict, 4 internal
fault (a ValueError raised inside a run that started).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .image_core import (
    NoiseSpec,
    PgmError,
    add_gaussian_noise,
    histogram,
    load_image,
    save_pgm,
)
from .metrics import SplitCensus, compare, format_metric
from .pipeline import PipelineConfig, extract
from .thresholding import METHOD_ORDER, threshold_report

__all__ = [
    "BenchmarkSpec",
    "BenchmarkResult",
    "run_benchmark",
    "run_single",
    "main",
    "PROPOSED_ROW",
    "DEFAULT_SIGMAS",
]

PROPOSED_ROW = "Proposed method"
PROPOSED_KEY = "proposed"
DEFAULT_SIGMAS: Tuple[float, ...] = (15.0, 30.0, 45.0, 60.0, 75.0)
DEFAULT_METHODS: Tuple[str, ...] = tuple(m.value for m in METHOD_ORDER) + (PROPOSED_KEY,)
COMPARE_MODES = ("restored", "binarized-means")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class BenchmarkSpec:
    images: Tuple[str, ...]
    sigmas: Tuple[float, ...] = DEFAULT_SIGMAS
    seeds: Tuple[int, ...] = (1,)
    methods: Tuple[str, ...] = DEFAULT_METHODS
    compare_mode: str = "restored"

    def __post_init__(self):
        if not self.images:
            raise ValueError("benchmark needs at least one image")
        if not self.sigmas:
            raise ValueError("benchmark needs at least one sigma")
        if not self.seeds:
            raise ValueError("benchmark needs at least one seed")
        for sigma in self.sigmas:
            for seed in self.seeds:
                NoiseSpec(sigma=sigma, seed=seed)  # raises a ValueError naming the bad value
        valid = set(DEFAULT_METHODS)
        unknown = [m for m in self.methods if m not in valid]
        if unknown or not self.methods:
            raise ValueError(f"unknown methods: {unknown}")
        if self.compare_mode not in COMPARE_MODES:
            raise ValueError(f"compare mode must be one of {COMPARE_MODES}")


@dataclass(frozen=True)
class BenchmarkResult:
    """``samples[(row label, sigma)]`` is how many (image, seed) samples a
    cell averages; a method that failed on a sample adds none."""

    csv_text: str
    degenerate_runs: int
    samples: Dict[Tuple[str, float], int]


def _format_sigma(sigma: float) -> str:
    return f"{sigma:g}"


def _row_labels(spec: BenchmarkSpec) -> List[str]:
    wanted = set(spec.methods)
    labels = [m.value for m in METHOD_ORDER if m.value in wanted]
    if PROPOSED_KEY in wanted:
        labels.append(PROPOSED_ROW)
    return labels


def run_benchmark(spec: BenchmarkSpec, cfg: PipelineConfig = PipelineConfig()) -> BenchmarkResult:
    """Build the Table-style CSV matrix (rows = methods, columns = sigmas).

    Fully deterministic: cell layout and values depend only on the spec and
    config.  A method that fails on every (image, seed) sample of a column
    reports "n/a" there and the run continues.
    """
    images = [(path, load_image(path)) for path in spec.images]
    labels = _row_labels(spec)
    single_methods = [m for m in METHOD_ORDER if m.value in set(spec.methods)]
    want_proposed = PROPOSED_KEY in set(spec.methods)

    scores: Dict[Tuple[str, float], List[float]] = {
        (label, sigma): [] for label in labels for sigma in spec.sigmas
    }
    degenerate_runs = 0

    for _, clean in images:
        for sigma in spec.sigmas:
            for seed in spec.seeds:
                noisy = add_gaussian_noise(clean, NoiseSpec(sigma=sigma, seed=seed))
                result = extract(noisy, cfg) if want_proposed else None
                # extract builds its report from the same histogram by the same call
                report = result.report if result is not None else threshold_report(histogram(noisy))
                census = SplitCensus(noisy, clean)
                for method in single_methods:
                    entry = report.entries[method]
                    if entry.status == "converged":
                        scores[(method.value, sigma)].append(census.score(entry.level).psnr_db)
                if result is not None:
                    if result.degenerate:
                        degenerate_runs += 1
                    if spec.compare_mode == "binarized-means":
                        psnr = census.score(result.level).psnr_db
                    else:
                        psnr = compare(result.extracted, clean).psnr_db
                    scores[(PROPOSED_ROW, sigma)].append(psnr)

    lines = ["method," + ",".join(_format_sigma(s) for s in spec.sigmas)]
    for label in labels:
        cells = []
        for sigma in spec.sigmas:
            values = scores[(label, sigma)]
            cells.append(format_metric(sum(values) / len(values)) if values else "n/a")
        lines.append(label + "," + ",".join(cells))
    return BenchmarkResult(
        csv_text="\n".join(lines) + "\n",
        degenerate_runs=degenerate_runs,
        samples={cell: len(values) for cell, values in scores.items()},
    )


@dataclass(frozen=True)
class SingleRunResult:
    out_dir: Path
    files: Tuple[Path, ...]
    degenerate: bool


def run_single(
    input_path: str,
    sigma: float,
    seed: int,
    out_dir: str,
    cfg: PipelineConfig = PipelineConfig(),
    compare_mode: str = "restored",
) -> SingleRunResult:
    """Corrupt, extract, and write the five artifacts into out_dir."""
    if compare_mode not in COMPARE_MODES:
        raise ValueError(f"compare mode must be one of {COMPARE_MODES}")
    clean = load_image(input_path)
    noisy = add_gaussian_noise(clean, NoiseSpec(sigma=sigma, seed=seed))
    result = extract(noisy, cfg)
    if compare_mode == "binarized-means":
        scored = SplitCensus(noisy, clean).score(result.level)
    else:
        scored = compare(result.extracted, clean)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    noisy_path = out / "noisy.pgm"
    extracted_path = out / "extracted.pgm"
    report_path = out / "report.csv"
    rulebase_path = out / "rulebase.json"
    metrics_path = out / "metrics.json"

    noisy_path.write_bytes(save_pgm(noisy))
    extracted_path.write_bytes(save_pgm(result.extracted))
    report_path.write_text(result.report.to_csv_text())
    if result.rulebase is not None:
        rulebase_path.write_text(result.rulebase.to_json_text())
    else:
        rulebase_path.write_text("null\n")
    payload = {
        "compare": compare_mode,
        "noisy": compare(noisy, clean).to_json_dict(),
        "extracted": scored.to_json_dict(),
        "no_rule_pixels": result.no_rule_pixels,
        "degenerate": result.degenerate,
    }
    metrics_path.write_text(json.dumps(payload, indent=2) + "\n")
    return SingleRunResult(
        out_dir=out,
        files=(noisy_path, extracted_path, report_path, rulebase_path, metrics_path),
        degenerate=result.degenerate,
    )


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse's exit(2) onto exit code 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="grayfuzz", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    single = sub.add_parser("single", help="extract one image and write artifacts")
    single.add_argument("--input", required=True, help="clean input image (PGM/PNG)")
    single.add_argument("--sigma", type=float, default=15.0, help="noise std-dev")
    single.add_argument("--seed", type=int, default=1, help="noise PRNG seed")
    single.add_argument("--out-dir", required=True, help="directory for artifacts")
    single.add_argument("--regions", type=int, default=PipelineConfig.min_regions,
                        help="minimum fuzzy regions")
    single.add_argument("--stride", type=int, default=PipelineConfig.training_stride,
                        help="training subsample stride")
    single.add_argument("--compare", choices=COMPARE_MODES, default="restored")
    single.add_argument("--strict", action="store_true",
                        help="exit 3 when the input degenerates")

    bench = sub.add_parser("benchmark", help="regenerate the method-by-sigma matrix")
    bench.add_argument("--config", help="JSON file mirroring the benchmark spec")
    bench.add_argument("--input", action="append", default=None, help="image path (repeatable)")
    bench.add_argument("--sigma", action="append", type=float, default=None,
                       help="sigma column (repeatable)")
    bench.add_argument("--seed", action="append", type=int, default=None,
                       help="noise seed (repeatable)")
    bench.add_argument("--methods", help="comma list of rows (method names and 'proposed')")
    bench.add_argument("--regions", type=int, default=None)
    bench.add_argument("--stride", type=int, default=None)
    bench.add_argument("--compare", choices=COMPARE_MODES, default=None)
    bench.add_argument("--out-dir", help="directory for the CSV (with --csv name)")
    bench.add_argument("--csv", help="CSV output path (stdout when omitted)")
    bench.add_argument("--strict", action="store_true",
                       help="exit 3 when any run degenerates")
    return parser


# Expected JSON value of each benchmark config key: (type, element type of a
# list, wording for the error message).
_CONFIG_TYPES = {
    "images": (list, str, "a list of paths"),
    "sigmas": (list, (int, float), "a list of numbers"),
    "seeds": (list, int, "a list of integers"),
    "methods": (list, str, "a list of method names"),
    "compare": (str, None, "a string"),
    "regions": (int, None, "an integer"),
    "stride": (int, None, "an integer"),
    "csv": (str, None, "a string"),
    "out_dir": (str, None, "a string"),
}


def _is_json(value, kind) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, kind) and not isinstance(value, bool)


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise _UsageError(f"benchmark config is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise _UsageError("benchmark config must be a JSON object")
    unknown = set(payload) - set(_CONFIG_TYPES)
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in payload.items():
        kind, element, wording = _CONFIG_TYPES[key]
        if not _is_json(value, kind) or (
            element is not None and not all(_is_json(v, element) for v in value)
        ):
            raise _UsageError(f"config key {key!r} must be {wording}")
    return payload


def _cmd_single(args) -> int:
    try:
        NoiseSpec(sigma=args.sigma, seed=args.seed)
        cfg = PipelineConfig(min_regions=args.regions, training_stride=args.stride)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    result = run_single(
        args.input, args.sigma, args.seed, args.out_dir,
        cfg=cfg, compare_mode=args.compare,
    )
    for path in result.files:
        print(path)
    if result.degenerate:
        print("warning: degenerate input (single intensity); returned unchanged",
              file=sys.stderr)
        if args.strict:
            return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    config = _load_config(args.config) if args.config else {}
    images = tuple(args.input if args.input else config.get("images", ()))
    sigmas = tuple(args.sigma if args.sigma else config.get("sigmas", BenchmarkSpec.sigmas))
    seeds = tuple(args.seed if args.seed else config.get("seeds", BenchmarkSpec.seeds))
    if args.methods:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    else:
        methods = tuple(config.get("methods", BenchmarkSpec.methods))
    compare_mode = args.compare or config.get("compare", BenchmarkSpec.compare_mode)
    regions = (args.regions if args.regions is not None
               else config.get("regions", PipelineConfig.min_regions))
    stride = (args.stride if args.stride is not None
              else config.get("stride", PipelineConfig.training_stride))
    csv_path = args.csv or config.get("csv")
    out_dir = args.out_dir or config.get("out_dir")

    try:
        spec = BenchmarkSpec(
            images=images, sigmas=sigmas, seeds=seeds,
            methods=methods, compare_mode=compare_mode,
        )
        cfg = PipelineConfig(min_regions=regions, training_stride=stride)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    result = run_benchmark(spec, cfg)
    if csv_path:
        target = Path(out_dir) / csv_path if out_dir else Path(csv_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(result.csv_text)
        print(target)
    else:
        sys.stdout.write(result.csv_text)
    if result.degenerate_runs and args.strict:
        print(f"warning: {result.degenerate_runs} degenerate run(s)", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (single | benchmark)")
        if args.command == "single":
            return _cmd_single(args)
        return _cmd_benchmark(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, PgmError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # every argument was checked before the run started
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
