import json
import sys
from pathlib import Path

import numpy as np
import pytest

from grayfuzz.cli import (
    BenchmarkSpec,
    DEFAULT_SIGMAS,
    PROPOSED_ROW,
    main,
    run_benchmark,
)
from grayfuzz.image_core import (
    GrayImage,
    PillowMissingError,
    bimodal_phantom,
    load_image,
    load_pgm,
    save_pgm,
    two_level_phantom,
)
from grayfuzz import cli


def test_every_export_resolves():
    # the perfbench tracer looks up every name in each module's __all__ at start-up
    import grayfuzz

    modules = ("image_core", "thresholding", "fuzzy", "pipeline", "metrics", "cli")
    exported = set()
    for short in modules:
        module = getattr(grayfuzz, short)
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], short
        exported.update(module.__all__)
    bound = {n for n in vars(grayfuzz) if not n.startswith("_")} - set(modules)
    assert sorted(bound - exported) == []


@pytest.fixture()
def small_pgm(tmp_path):
    path = tmp_path / "input.pgm"
    path.write_bytes(save_pgm(bimodal_phantom(48, 48)))
    return path


class TestSingle:
    def test_writes_five_files(self, small_pgm, tmp_path):
        out = tmp_path / "out"
        code = main([
            "single", "--input", str(small_pgm), "--sigma", "20", "--seed", "3",
            "--out-dir", str(out),
        ])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"noisy.pgm", "extracted.pgm", "report.csv", "rulebase.json", "metrics.json"}
        noisy = load_pgm((out / "noisy.pgm").read_bytes())
        assert (noisy.width, noisy.height) == (48, 48)
        report_lines = (out / "report.csv").read_text().strip().split("\n")
        assert report_lines[0] == "method,level,status"
        assert len(report_lines) == 16
        payload = json.loads((out / "rulebase.json").read_text())
        assert payload["schema"] == "grayfuzz.rulebase/1"
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"noisy", "extracted", "compare"}

    def test_missing_input_is_io_error(self, tmp_path):
        code = main([
            "single", "--input", str(tmp_path / "absent.pgm"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_sigma_zero_noisy_equals_input(self, small_pgm, tmp_path):
        out = tmp_path / "out"
        code = main([
            "single", "--input", str(small_pgm), "--sigma", "0",
            "--out-dir", str(out),
        ])
        assert code == 0
        assert (out / "noisy.pgm").read_bytes() == small_pgm.read_bytes()

    def test_strict_degenerate_exit_code(self, tmp_path):
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(save_pgm(GrayImage(8, 8, np.full(64, 99, dtype=np.uint8))))
        out = tmp_path / "out"
        assert main(["single", "--input", str(flat), "--sigma", "0",
                     "--out-dir", str(out), "--strict"]) == 3
        assert main(["single", "--input", str(flat), "--sigma", "0",
                     "--out-dir", str(out)]) == 0

    def test_negative_sigma_usage_error(self, small_pgm, tmp_path):
        code = main([
            "single", "--input", str(small_pgm), "--sigma", "-4",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1

    def test_nan_sigma_usage_error(self, small_pgm, tmp_path, capsys):
        code = main([
            "single", "--input", str(small_pgm), "--sigma", "nan",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "sigma" in capsys.readouterr().err


class TestInternalFault:
    """An exception raised after every argument was checked is an internal
    fault (exit 4), not a usage error."""

    @pytest.fixture(autouse=True)
    def failing_extract(self, monkeypatch):
        def extract(*args, **kwargs):
            raise ValueError("fault inside the pipeline")

        monkeypatch.setattr(cli, "extract", extract)

    def test_single(self, small_pgm, tmp_path, capsys):
        code = main(["single", "--input", str(small_pgm), "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_INTERNAL == 4
        assert capsys.readouterr().err.startswith("internal error: fault inside")

    def test_benchmark(self, small_pgm, capsys):
        assert main(["benchmark", "--input", str(small_pgm), "--sigma", "15"]) == 4
        assert capsys.readouterr().err.startswith("internal error: fault inside")

    @pytest.mark.parametrize(
        "error, message",
        [(MemoryError(), "MemoryError"), (RuntimeError("two\nlines"), "two lines")],
        ids=["no-text", "multi-line"],
    )
    def test_any_exception_is_internal(
        self, small_pgm, tmp_path, capsys, monkeypatch, error, message
    ):
        def extract(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "extract", extract)
        code = main(["single", "--input", str(small_pgm), "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_INTERNAL
        assert capsys.readouterr().err == f"internal error: {message}\n"

    def test_bad_arguments_still_usage_errors(self, small_pgm, tmp_path):
        assert main(["single", "--input", str(small_pgm), "--sigma", "nan",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert main(["single", "--input", str(small_pgm), "--sigma", "-1",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert main(["benchmark", "--input", str(small_pgm), "--sigma", "nan"]) == 1
        assert main(["benchmark", "--input", str(small_pgm), "--seed", "-2"]) == 1


class TestBenchmark:
    @pytest.mark.parametrize(
        "sigmas, seeds",
        [((float("nan"),), (1,)), ((float("inf"),), (1,)), ((15.0, -1.0), (1,)),
         ((15.0,), (1.5,)), ((15.0,), (True,)), ((15.0,), (1, -2)), ((), (1,)), ((15.0,), ()),
         (("a",), (1,))],
    )
    def test_bad_noise_parameters_rejected(self, sigmas, seeds):
        # rejected when the spec is built, before any image is loaded
        with pytest.raises(ValueError):
            BenchmarkSpec(images=("never-loaded.pgm",), sigmas=sigmas, seeds=seeds)

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"images": "phantom.pgm"}, "images"),
         ({"images": (Path("phantom.pgm"),)}, "images"),
         ({"images": ("phantom.pgm",), "methods": "Otsu"}, "methods"),
         ({"images": ("phantom.pgm",), "seeds": 1}, "seeds")],
    )
    def test_malformed_sequence_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            BenchmarkSpec(**kwargs)

    def test_samples_per_cell(self, tmp_path):
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(save_pgm(GrayImage(16, 16, np.full(256, 50, dtype=np.uint8))))
        spec = BenchmarkSpec(images=(str(flat),), sigmas=(0.0, 20.0), seeds=(1, 2),
                             methods=("Otsu", "Mean", "proposed"))
        samples = run_benchmark(spec).samples
        # Otsu fails on the flat image at sigma 0 only
        assert samples == {
            ("Mean", 0.0): 2, ("Mean", 20.0): 2,
            ("Otsu", 0.0): 0, ("Otsu", 20.0): 2,
            (PROPOSED_ROW, 0.0): 2, (PROPOSED_ROW, 20.0): 2,
        }

    def test_malformed_config_usage_error(self, tmp_path):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text("{not json")
        assert main(["benchmark", "--config", str(cfg_path)]) == 1

    def test_csv_header_and_rows(self, small_pgm):
        spec = BenchmarkSpec(images=(str(small_pgm),), sigmas=DEFAULT_SIGMAS, seeds=(1,))
        result = run_benchmark(spec)
        lines = result.csv_text.strip().split("\n")
        assert lines[0] == "method,15,30,45,60,75"
        assert len(lines) == 17  # header + 15 methods + proposed
        assert lines[-1].startswith(PROPOSED_ROW + ",")

    def test_deterministic_csv(self, small_pgm):
        spec = BenchmarkSpec(images=(str(small_pgm),), sigmas=(15.0, 45.0), seeds=(1, 2))
        a = run_benchmark(spec)
        b = run_benchmark(spec)
        assert a.csv_text == b.csv_text

    def test_method_subset_rows(self, small_pgm):
        spec = BenchmarkSpec(
            images=(str(small_pgm),), sigmas=(15.0,), seeds=(1,),
            methods=("Otsu", "Mean", "proposed"),
        )
        lines = run_benchmark(spec).csv_text.strip().split("\n")
        assert [l.split(",")[0] for l in lines[1:]] == ["Mean", "Otsu", PROPOSED_ROW]
        # without the proposed row the threshold report is built apart from extract
        alone = BenchmarkSpec(
            images=(str(small_pgm),), sigmas=(15.0,), seeds=(1,), methods=("Otsu", "Mean"),
        )
        assert run_benchmark(alone).csv_text.strip().split("\n") == lines[:-1]

    def test_inf_cell_for_exact_reconstruction(self, tmp_path):
        # sigma 0 on a clean two-level image: the pipeline restores it exactly
        path = tmp_path / "two.pgm"
        path.write_bytes(save_pgm(two_level_phantom(64, 64)))
        spec = BenchmarkSpec(images=(str(path),), sigmas=(0.0,), seeds=(1,),
                             methods=("proposed",))
        lines = run_benchmark(spec).csv_text.strip().split("\n")
        assert lines[0] == "method,0"
        assert lines[1] == f"{PROPOSED_ROW},inf"

    def test_cli_writes_csv_file(self, small_pgm, tmp_path):
        target = tmp_path / "matrix.csv"
        code = main([
            "benchmark", "--input", str(small_pgm), "--sigma", "15",
            "--seed", "1", "--csv", str(target),
        ])
        assert code == 0
        assert target.read_text().startswith("method,15\n")

    def test_config_file_and_override(self, small_pgm, tmp_path):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({
            "images": [str(small_pgm)],
            "sigmas": [15.0, 30.0],
            "seeds": [1],
            "methods": ["Otsu", "proposed"],
        }))
        target = tmp_path / "matrix.csv"
        code = main(["benchmark", "--config", str(cfg_path),
                     "--sigma", "45", "--csv", str(target)])
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "method,45"  # command line overrides config sigmas
        assert [l.split(",")[0] for l in lines[1:]] == ["Otsu", PROPOSED_ROW]

    @pytest.mark.parametrize(
        "config",
        [
            {"images": "abc.pgm"},
            {"sigmas": ["15"]},
            {"csv": 7},
            {"seeds": [True]},
        ],
    )
    def test_config_value_type_usage_error(self, config, tmp_path, capsys):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["benchmark", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_unknown_config_key_usage_error(self, small_pgm, tmp_path, capsys):
        # the method fixes regions and stride; neither is a config key
        for key, value in (("bogus", 1), ("regions", 7), ("stride", 4)):
            cfg_path = tmp_path / "bench.json"
            cfg_path.write_text(json.dumps({"images": [str(small_pgm)], key: value}))
            assert main(["benchmark", "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err.startswith("usage error: unknown config keys")

    def test_out_dir_without_csv_usage_error(self, small_pgm, tmp_path, capsys):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({"images": [str(small_pgm)], "out_dir": str(tmp_path)}))
        for argv in (["--input", str(small_pgm), "--out-dir", str(tmp_path)],
                     ["--config", str(cfg_path)]):
            assert main(["benchmark", "--sigma", "15", *argv]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("usage error:") and captured.out == ""

    def test_out_dir_joins_csv_name(self, small_pgm, tmp_path):
        code = main(["benchmark", "--input", str(small_pgm), "--sigma", "15",
                     "--out-dir", str(tmp_path / "out"), "--csv", "matrix.csv"])
        assert code == 0
        assert (tmp_path / "out" / "matrix.csv").read_text().startswith("method,15\n")

    def test_no_images_usage_error(self):
        assert main(["benchmark"]) == 1

    def test_unknown_method_usage_error(self, small_pgm):
        assert main(["benchmark", "--input", str(small_pgm),
                     "--methods", "Otsu,Sobel"]) == 1

    def test_missing_image_io_error(self, tmp_path):
        assert main(["benchmark", "--input", str(tmp_path / "nope.pgm")]) == 2


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self, small_pgm, tmp_path, capsys):
        assert main(["single", "--input", str(small_pgm), "--bogus"]) == 1
        # the method fixes regions and stride; neither is a flag
        for flag, value in (("--regions", "7"), ("--stride", "4")):
            for argv in (["single", "--out-dir", str(tmp_path / "out")], ["benchmark"]):
                capsys.readouterr()
                assert main([*argv, "--input", str(small_pgm), flag, value]) == 1
                assert capsys.readouterr().err.startswith("usage error:")


class TestCompareModes:
    def test_single_binarized_means(self, small_pgm, tmp_path):
        out = tmp_path / "out"
        code = main([
            "single", "--input", str(small_pgm), "--sigma", "20", "--seed", "3",
            "--out-dir", str(out), "--compare", "binarized-means",
        ])
        assert code == 0
        assert json.loads((out / "metrics.json").read_text())["compare"] == "binarized-means"

    def test_benchmark_compare_mode_changes_proposed_row(self, small_pgm):
        base = BenchmarkSpec(images=(str(small_pgm),), sigmas=(30.0,), seeds=(1,))
        alt = BenchmarkSpec(images=(str(small_pgm),), sigmas=(30.0,), seeds=(1,),
                            compare_mode="binarized-means")
        row = lambda res: res.csv_text.strip().split("\n")[-1]
        a, b = run_benchmark(base), run_benchmark(alt)
        assert row(a).startswith(PROPOSED_ROW) and row(b).startswith(PROPOSED_ROW)
        assert row(a) != row(b)
        # single-method rows unaffected by the proposed compare mode
        assert a.csv_text.strip().split("\n")[1:-1] == b.csv_text.strip().split("\n")[1:-1]


class TestNaCells:
    def test_failed_methods_report_na_and_run_continues(self, tmp_path):
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(save_pgm(GrayImage(16, 16, np.full(256, 50, dtype=np.uint8))))
        spec = BenchmarkSpec(images=(str(flat),), sigmas=(0.0,), seeds=(1,))
        lines = run_benchmark(spec).csv_text.strip().split("\n")
        cells = {l.split(",")[0]: l.split(",")[1] for l in lines[1:]}
        assert cells["Otsu"] == "n/a"
        assert cells["Mean"] != "n/a"

    def test_corrupt_pgm_io_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5 4 4 255 xx")
        assert main(["benchmark", "--input", str(bad)]) == 2

    def test_non_pgm_without_pillow_io_error(self, tmp_path, monkeypatch, capsys):
        # a None entry makes `from PIL import Image` fail whether or not pillow is installed
        monkeypatch.setitem(sys.modules, "PIL", None)
        png = tmp_path / "input.png"
        png.write_bytes(b"\x89PNG\r\n\x1a\n")
        with pytest.raises(PillowMissingError):
            load_image(png)
        code = main(["single", "--input", str(png), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "grayfuzz[png]" in capsys.readouterr().err
