"""Pixel and probability angle maps."""
import numpy as np
import pytest

from qcnn.encoding import pixel_to_angle, prob_to_angle


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
