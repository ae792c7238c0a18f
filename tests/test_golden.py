"""Golden digests: the bytes ``run_single`` and ``run_benchmark`` write for
small fixed phantoms.  A change that keeps every output bit-identical keeps
these digests; a change that moves any output must say so and retake them."""

import hashlib

import pytest

from grayfuzz.cli import BenchmarkSpec, run_benchmark, run_single
from grayfuzz.image_core import bimodal_phantom, save_pgm, two_level_phantom

SCENES = {"bimodal": bimodal_phantom(64, 64), "two_level": two_level_phantom(64, 64)}

# sha256 of the artifacts that do not depend on --compare, per (scene, sigma), seed 1
ARTIFACTS = {
    ("bimodal", 30): {
        "noisy.pgm": "7e7ce5157890d69b93bc9f122a58274b7ed291b6fb62dafa8d767d1582eb8469",
        "extracted.pgm": "b3759fcf27b3766ba5a10e70429b926b576f4294053720032a503b6d2b6c8853",
        "report.csv": "10fc21cbfedf4cd860caf0651ef83e63729edebe5d2e4f67ae1c2bf3db031938",
        "rulebase.json": "c0b080a55eb6d9b89d9cb07ce2c6f147d2bdaf8fc0d9d4fbc402eae4af754721",
    },
    ("bimodal", 75): {
        "noisy.pgm": "30fa23e1487aff55086b9f525e9576ac2c544ecf4e9e4e12340b7b544866cd1b",
        "extracted.pgm": "228034a4773d17150c05b27e0fcae3652698a43064d9a1af72f4b2baa22bbe52",
        "report.csv": "f4751c32724f12678982351bd406208d9694bd8d3c0ff483739a1a3e057088a2",
        "rulebase.json": "400f37959b7dc3bd61c920de479a731443f42234dd2eca8a5796774dd0460627",
    },
    ("two_level", 30): {
        "noisy.pgm": "5508456002ae9b769cb81085a50f70e067071944339efdbfab5c71ad5ba18ec9",
        "extracted.pgm": "196516688b95ac09760b51a2981ee9eb22352cdb0daf00dde7064a7cf88d4831",
        "report.csv": "8c6d499922a09d31266b9cb751784fbcb462d95ba9e07fde72c260bb3100dac9",
        "rulebase.json": "7c627cf69a60f684edb5731a803321e709cbfa8074d92acaaeeba04c3fcdd046",
    },
    ("two_level", 75): {
        "noisy.pgm": "7001170deaa4adf55344c0fe8add9bda6294770ba8e12ceed58df1080aa3ad1b",
        "extracted.pgm": "15feb102eacce18c8ac7aa5741ca6d3eef67f79ee0ce940437751ee777c76d87",
        "report.csv": "99ee0fbb6049b058588d9dc5381e40e31f228aa091e6e9365e2724b251dadaf3",
        "rulebase.json": "19a2450b49b6cea072a926fcd1c0e273b7ca96d9827714b01ecc3808b410f8bd",
    },
}

# sha256 of metrics.json per (scene, sigma, --compare mode)
METRICS = {
    ("bimodal", 30, "restored"): "56c144384929daf3dec57ae6ea14987fcf957240d07283929597108d9a614f69",
    ("bimodal", 30, "binarized-means"): "c3ba5b68f6d351233fe9ac8e0b59036189f98f450c327f28caf58b0c19b94b11",
    ("bimodal", 75, "restored"): "446e6689309933cd07ab475aa6529f07bd0c41f81b09309b85678a209ebaa21c",
    ("bimodal", 75, "binarized-means"): "b2d73534ffe9db23aeadb58e50483f556fb354c936da69c596dba7b4919966be",
    ("two_level", 30, "restored"): "91e860d2c312a32374e38c0e2a85a2bf9f49bb639da3e21cf089192b270cfead",
    ("two_level", 30, "binarized-means"): "93a10758d9bed4d68df0a7623ad2ec83e75b26dafe898eaf6b6c08d6ad9e5321",
    ("two_level", 75, "restored"): "fe939b8c3e65504c210ec5d1737124de6eaa842b381fd7225e850abc420f1981",
    ("two_level", 75, "binarized-means"): "369458701b23b5c9e35f47623a7a2fd14042661c5064fedd3e86bc4a92179dbf",
}

# sha256 of the CSV of both scenes at sigma 30 and 75, seed 1, every row, --compare restored
BENCHMARK_CSV = "79c09103a4f7e6a23311c3a22aced97d038a4d8d53bb4e31d686b3d24b1a4174"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def scene_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, image in SCENES.items():
        paths[name] = root / f"{name}.pgm"
        paths[name].write_bytes(save_pgm(image))
    return paths


@pytest.mark.parametrize("scene, sigma, mode", sorted(METRICS))
def test_single_artifacts(scene, sigma, mode, scene_paths, tmp_path):
    result = run_single(str(scene_paths[scene]), sigma, 1, str(tmp_path), compare_mode=mode)
    digests = {path.name: _sha256(path.read_bytes()) for path in result.files}
    assert digests == {**ARTIFACTS[(scene, sigma)], "metrics.json": METRICS[(scene, sigma, mode)]}


def test_benchmark_csv(scene_paths):
    spec = BenchmarkSpec(
        images=tuple(str(scene_paths[name]) for name in SCENES), sigmas=(30.0, 75.0), seeds=(1,)
    )
    assert _sha256(run_benchmark(spec).csv_text.encode()) == BENCHMARK_CSV
