import os

import numpy as np
import pytest

from grayfuzz.image_core import GrayImage, bimodal_phantom, save_pgm, two_level_phantom


@pytest.fixture(scope="session")
def photo_image() -> GrayImage:
    """A real 8-bit photograph: matplotlib's bundled portrait, gray 256x256."""
    matplotlib = pytest.importorskip("matplotlib")
    Image = pytest.importorskip("PIL.Image")
    path = os.path.join(
        os.path.dirname(matplotlib.__file__), "mpl-data", "sample_data", "grace_hopper.jpg"
    )
    with Image.open(path) as img:
        gray = img.convert("L").resize((256, 256), Image.LANCZOS)
    return GrayImage.from_array(np.asarray(gray, dtype=np.uint8))


@pytest.fixture(scope="session")
def phantom_image() -> GrayImage:
    return bimodal_phantom()


@pytest.fixture(scope="session")
def two_level_image_40_210() -> GrayImage:
    return two_level_phantom(256, 256, low=40, high=210)


@pytest.fixture(scope="session")
def phantom_path(tmp_path_factory, phantom_image) -> str:
    """phantom.pgm path for benchmark runs; needs numpy only."""
    path = tmp_path_factory.mktemp("bench") / "phantom.pgm"
    path.write_bytes(save_pgm(phantom_image))
    return str(path)


@pytest.fixture(scope="session")
def bench_images(tmp_path_factory, phantom_path, photo_image):
    """(phantom.pgm, photo.pgm) paths for benchmark runs."""
    photo_path = tmp_path_factory.mktemp("bench") / "photo.pgm"
    photo_path.write_bytes(save_pgm(photo_image))
    return phantom_path, str(photo_path)
