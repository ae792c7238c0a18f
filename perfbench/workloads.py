"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in ``setup``, then
runs one operation (op) per call of ``op``.  The inputs form a cycle that
the closed loop walks in a fixed order; ``check`` turns an op's output into
a digest (compared with the pinned digest for the default seed, and with the
first run of the same input for every seed) and the squared error of the
restoration against the clean scene.

Importing this module imports numpy and grayfuzz, which ``setup_s`` counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from pathlib import Path

import numpy as np

from grayfuzz import cli, image_core, pipeline

DEFAULT_SEED = 1
WINDOW = 3  # PipelineConfig's default window, used for the distinct-pair count


def noise_seeds(seed, count):
    """Per-input noise seeds: disjoint blocks of ``count`` for each workload seed."""
    return [seed * count + k for k in range(count)]


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _sq_error_sum(restored: np.ndarray, clean: np.ndarray) -> int:
    diff = restored.astype(np.int64) - clean.astype(np.int64)
    return int((diff * diff).sum())


def _write_pgm(path: Path, pixels: np.ndarray) -> None:
    height, width = pixels.shape
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes())


def _read_pgm(data: bytes) -> np.ndarray:
    """Raster of a canonical P5 file as written by grayfuzz.save_pgm."""
    magic, width, height, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P5" or maxval != b"255":
        raise ValueError("not a canonical 8-bit PGM")
    shape = (int(height), int(width))
    pixels = np.frombuffer(data[len(data) - shape[0] * shape[1]:], dtype=np.uint8)
    return pixels.reshape(shape)


def distinct_pair_count(noisy: np.ndarray) -> int:
    """Distinct (value, clamp-to-edge window sum) pairs of a 2-D image."""
    k = WINDOW // 2
    padded = np.pad(noisy.astype(np.int64), k, mode="edge")
    height, width = noisy.shape
    sums = sum(
        padded[dy:dy + height, dx:dx + width]
        for dy in range(WINDOW) for dx in range(WINDOW)
    )
    keys = noisy.astype(np.int64) * (255 * WINDOW * WINDOW + 1) + sums
    return int(np.unique(keys).size)


class Workload:
    """Interface of a workload: ``setup`` builds ``inputs`` (one cycle) and
    sets ``cycle`` and ``pixels_per_op``; ``args(i, k)`` gives the arguments
    of op ``k`` on input ``i``; ``op`` runs it; ``check`` returns (digest,
    mean squared error) or raises; ``cleanup`` removes what the op wrote;
    ``noisy_arrays`` gives the noisy image of each input."""

    def cleanup(self, args):
        pass


class Extract1024(Workload):
    """pipeline.extract on the 1024x1024 bimodal phantom at sigma 30."""

    name = "extract-1024"
    size = 1024
    sigma = 30.0
    cycle = 2

    def setup(self, workdir: Path, seed: int) -> None:
        self.clean = image_core.bimodal_phantom(self.size, self.size)
        self.inputs = [
            image_core.add_gaussian_noise(self.clean, image_core.NoiseSpec(self.sigma, s))
            for s in noise_seeds(seed, self.cycle)
        ]
        self.pixels_per_op = self.size * self.size

    def args(self, i, k):
        return (self.inputs[i],)

    def op(self, noisy):
        return pipeline.extract(noisy)

    def check(self, i, result, args):
        restored = result.extracted.pixels
        return (
            _digest(result.extracted.width, result.extracted.height, restored.tobytes()),
            _sq_error_sum(restored, self.clean.pixels) / restored.size,
        )

    def noisy_arrays(self):
        return [img.to_array() for img in self.inputs]


class Grid256(Workload):
    """One (scene, sigma, seed) sample of the paper's table per op, through
    cli.run_benchmark with all 16 rows."""

    name = "grid-256"
    size = 256
    sigmas = (15.0, 30.0, 45.0, 60.0, 75.0)
    seeds_per_cell = 3

    def setup(self, workdir: Path, seed: int) -> None:
        scenes = {
            "bimodal": image_core.bimodal_phantom(self.size, self.size),
            "two_level": image_core.two_level_phantom(self.size, self.size, low=40, high=210),
        }
        self.clean = {}
        self.inputs = []
        for label, image in scenes.items():
            path = workdir / f"{label}-{self.size}.pgm"
            _write_pgm(path, image.to_array())
            self.clean[str(path)] = image
            for sigma in self.sigmas:
                for s in noise_seeds(seed, self.seeds_per_cell):
                    self.inputs.append(cli.BenchmarkSpec(images=(str(path),), sigmas=(sigma,), seeds=(s,)))
        self.cycle = len(self.inputs)
        self.pixels_per_op = self.size * self.size

    def args(self, i, k):
        return (self.inputs[i],)

    def op(self, spec):
        return cli.run_benchmark(spec)

    def check(self, i, result, args):
        rows = dict(line.split(",", 1) for line in result.csv_text.splitlines())
        if len(rows) != 17 or result.degenerate_runs:
            raise ValueError(f"unexpected benchmark table:\n{result.csv_text}")
        cell = rows[cli.PROPOSED_ROW]
        psnr = float(cell)  # "inf" parses; "n/a" raises and fails the op
        mse = 0.0 if psnr == float("inf") else 255.0 ** 2 / 10.0 ** (psnr / 10.0)
        return _digest(result.csv_text, result.degenerate_runs), mse

    def noisy_arrays(self):
        return [
            image_core.add_gaussian_noise(
                self.clean[spec.images[0]], image_core.NoiseSpec(spec.sigmas[0], spec.seeds[0])
            ).to_array()
            for spec in self.inputs
        ]


class Single256(Workload):
    """``grayfuzz single`` in-process on a 256x256 phantom PGM at sigma 75,
    writing the five artifacts into a fresh directory per op."""

    name = "single-256"
    size = 256
    sigma = 75.0
    cycle = 3
    artifacts = ("noisy.pgm", "extracted.pgm", "report.csv", "rulebase.json", "metrics.json")

    def setup(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.clean = image_core.bimodal_phantom(self.size, self.size)
        self.path = workdir / f"bimodal-{self.size}.pgm"
        _write_pgm(self.path, self.clean.to_array())
        self.inputs = noise_seeds(seed, self.cycle)
        self.pixels_per_op = self.size * self.size

    def args(self, i, k):
        out_dir = self.workdir / f"op{k}"
        return ([
            "single", "--input", str(self.path), "--sigma", f"{self.sigma:g}",
            "--seed", str(self.inputs[i]), "--out-dir", str(out_dir),
        ],)

    def op(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def check(self, i, result, args):
        code, stdout = result
        out_dir = Path(args[0][-1])
        listed = stdout.splitlines()
        expected = [str(out_dir / name) for name in self.artifacts]
        if code != 0 or listed != expected:
            raise ValueError(f"grayfuzz single exited {code} and printed {listed}")
        contents = [(out_dir / name).read_bytes() for name in self.artifacts]
        restored = _read_pgm(contents[1])
        return (
            _digest(*self.artifacts, *contents),
            _sq_error_sum(restored, self.clean.to_array()) / restored.size,
        )

    def cleanup(self, args):
        shutil.rmtree(args[0][-1], ignore_errors=True)

    def noisy_arrays(self):
        return [
            image_core.add_gaussian_noise(self.clean, image_core.NoiseSpec(self.sigma, s)).to_array()
            for s in self.inputs
        ]


WORKLOADS = {w.name: w for w in (Extract1024, Grid256, Single256)}
