"""grayfuzz: gray image extraction from Gaussian-noise-corrupted scenes.

Fifteen histogram auto-thresholding methods anchor the partitions of a
fuzzy rule base, and their per-pixel majority vote, one split level, labels
its training data; the rule base restores the image content, evaluated with
MAE/MSE/SNR/PSNR.  The package holds only what that chain runs, and each
value checks its own fields where it is built.
"""

from .image_core import (
    GrayImage,
    Histogram,
    NoiseSpec,
    PgmError,
    MalformedHeaderError,
    UnsupportedMaxvalError,
    TruncatedRasterError,
    RasterAboveMaxvalError,
    PillowMissingError,
    add_gaussian_noise,
    bimodal_phantom,
    histogram,
    load_image,
    load_pgm,
    round_half_up,
    save_pgm,
    two_level_phantom,
)
from .thresholding import (
    ThresholdEntry,
    ThresholdFailure,
    ThresholdMethod,
    ThresholdReport,
    METHOD_ORDER,
    compute_threshold,
    threshold_report,
)
from .fuzzy import (
    FuzzyPartition,
    RuleBase,
    RuleCandidates,
    build_partition,
    combine,
    generate_rules,
)
from .pipeline import (
    ExtractionResult,
    PipelineConfig,
    apply_rulebase,
    extract,
)
from .metrics import MetricsRecord, compare, format_metric
from .cli import BenchmarkSpec, BenchmarkResult, run_benchmark, run_single

__version__ = "0.1.0"
