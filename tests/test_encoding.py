"""Pixel and probability angle maps."""
import numpy as np
import pytest

from qcnn.encoding import pixel_cos, pixel_to_angle, prob_to_angle
from qcnn.network import conv_feature_map
from qcnn.training import TrainConfig, TrainingObjective


def test_pixel_map_endpoints_and_linearity():
    assert pixel_to_angle(0) == 0.0
    assert pixel_to_angle(255) == pytest.approx(np.pi, abs=0)
    assert pixel_to_angle(128) == pytest.approx(np.pi * 128 / 255, abs=1e-15)
    grid = np.arange(256)
    np.testing.assert_allclose(pixel_to_angle(grid), np.pi * grid / 255.0, atol=0)


def test_pixel_map_accepts_integral_floats_only():
    assert pixel_to_angle(2.0) == pytest.approx(np.pi * 2 / 255)
    with pytest.raises(ValueError):
        pixel_to_angle(2.5)
    with pytest.raises(ValueError):
        pixel_to_angle(-1)
    with pytest.raises(ValueError):
        pixel_to_angle(256)
    with pytest.raises(ValueError):
        pixel_to_angle(np.array([0, 999]))


def test_pixel_cos_is_the_cosine_of_the_angle_bit_for_bit():
    every, grid = np.arange(256), np.random.default_rng(9).integers(0, 256, (256, 256))
    for values in (every, grid):
        want = np.cos(pixel_to_angle(values))
        for dtype in (np.uint8, np.int64, np.float64):
            got = pixel_cos(values.astype(dtype))
            assert got.dtype == np.float64 and got.shape == values.shape
            assert got.tobytes() == want.tobytes(), dtype
    for bad in (2.5, -1, 256):
        with pytest.raises(ValueError) as angle:
            pixel_to_angle(bad)
        with pytest.raises(ValueError) as cos:
            pixel_cos(bad)
        assert str(cos.value) == str(angle.value)


def test_pixel_refusals_start_with_pixels():
    # conv_feature_map and TrainingObjective refuse a bad grid or row with a
    # message that starts with `pixels`, and bools are not intensities
    config = TrainConfig(arch="conv")
    for value, want in ((300, "lie in 0..255"), (True, "be integers, got bool values"),
                        (2.5, "be integers"), (np.inf, "lie in 0..255"), (np.nan, "lie in 0..255")):
        grid = np.full((2, 2), value)
        with pytest.raises(ValueError, match=f"^pixels must {want}$"):
            conv_feature_map(grid, np.zeros(4))
        with pytest.raises(ValueError, match=f"^pixels must {want}$"):
            TrainingObjective(config, grid.reshape(1, 4), np.zeros(1))


def test_prob_map_endpoints_and_mirror():
    assert prob_to_angle(0.0) == 0.0
    assert prob_to_angle(1.0) == pytest.approx(np.pi, abs=0)
    assert prob_to_angle(0.5) == pytest.approx(np.pi / 2, abs=1e-15)
    # the probability map mirrors the pixel map with 1.0 in the role of 255
    for k in range(0, 256, 17):
        assert prob_to_angle(k / 255.0) == pytest.approx(pixel_to_angle(k), abs=1e-12)


def test_prob_map_total_on_sampled_values():
    # shot averages k/shots always re-encode, including tiny fp excursions
    counts = np.arange(0, 1001)
    angles = prob_to_angle(counts / 1000.0)
    assert angles.shape == (1001,)
    assert angles[0] == 0.0 and angles[-1] == pytest.approx(np.pi)
    assert np.all(np.diff(angles) > 0)
    assert prob_to_angle(-1e-12) == 0.0
    assert prob_to_angle(1.0 + 1e-12) == pytest.approx(np.pi)


def test_prob_map_rejects_real_violations():
    with pytest.raises(ValueError):
        prob_to_angle(-0.01)
    with pytest.raises(ValueError):
        prob_to_angle(1.01)
    with pytest.raises(ValueError):
        prob_to_angle(np.nan)
