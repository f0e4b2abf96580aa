"""Line-of-sight gain model: orders, geometry, field-of-view, gain values.

Numeric expectations were computed independently with 40-digit arithmetic
from the closed-form expressions, then frozen here.
"""

import math

import pytest

from oracles import Pos3, channel_gain, channel_params_from_cm2, link_geometry, rect_fov
from vlcudn.channel import lambertian_order

PARAMS = channel_params_from_cm2(
    detector_area_cm2=1.0, semi_angle_deg=60.0, fov_deg=70.0, responsivity=0.54
)


class TestLambertianOrder:
    def test_sixty_degrees_gives_order_one(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, rel=1e-12)

    def test_forty_five_degrees_gives_order_two(self):
        assert lambertian_order(45.0) == pytest.approx(2.0, rel=1e-12)

    def test_thirty_degrees(self):
        assert lambertian_order(30.0) == pytest.approx(4.818841679306418, rel=1e-12)

    @pytest.mark.parametrize("angle", [120.0])
    def test_rejects_angles_outside_open_interval(self, angle):
        with pytest.raises(ValueError):
            lambertian_order(angle)


class TestLinkGeometry:
    def test_vertical_link(self):
        geom = link_geometry(Pos3(2.0, 3.0, 3.0), Pos3(2.0, 3.0, 1.0))
        assert geom.distance == pytest.approx(2.0, rel=1e-12)
        assert geom.irradiance_angle == 0.0
        assert geom.incidence_angle == 0.0

    def test_offset_link(self):
        geom = link_geometry(Pos3(5.0, 5.0, 3.0), Pos3(7.0, 5.0, 1.0))
        assert geom.distance == pytest.approx(math.sqrt(8.0), rel=1e-12)
        # 2 m down, 2 m across: both angles are 45 degrees
        assert geom.irradiance_angle == pytest.approx(0.78539816339744831, rel=1e-12)
        assert geom.incidence_angle == geom.irradiance_angle

    def test_transmitter_must_be_above_receiver(self):
        with pytest.raises(ValueError):
            link_geometry(Pos3(0.0, 0.0, 1.0), Pos3(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            link_geometry(Pos3(0.0, 0.0, 1.0), Pos3(0.0, 0.0, 2.0))


class TestRectFov:
    def test_inside(self):
        assert rect_fov(0.5, 1.0) == 1

    def test_boundary_counts_as_inside(self):
        assert rect_fov(1.0, 1.0) == 1

    def test_outside(self):
        assert rect_fov(1.0000001, 1.0) == 0

    def test_symmetric_in_sign(self):
        assert rect_fov(-0.9, 1.0) == rect_fov(0.9, 1.0)


class TestChannelGain:
    def test_directly_below(self):
        gain = channel_gain(Pos3(5.0, 5.0, 3.0), Pos3(5.0, 5.0, 1.0), PARAMS)
        assert gain == pytest.approx(7.9577471545947668e-6, rel=1e-9)

    def test_two_meter_offset(self):
        gain = channel_gain(Pos3(5.0, 5.0, 3.0), Pos3(7.0, 5.0, 1.0), PARAMS)
        assert gain == pytest.approx(1.9894367886486917e-6, rel=1e-9)

    def test_zero_outside_fov(self):
        # 6 m across, 2 m down: incidence 71.57 deg > 70 deg
        assert channel_gain(Pos3(5.0, 5.0, 3.0), Pos3(11.0, 5.0, 1.0), PARAMS) == 0.0

    def test_positive_just_inside_fov(self):
        r = 2.0 * math.tan(math.radians(69.9))
        gain = channel_gain(Pos3(0.0, 0.0, 3.0), Pos3(r, 0.0, 1.0), PARAMS)
        assert gain > 0.0

    def test_gain_drops_with_offset(self):
        gains = [
            channel_gain(Pos3(0.0, 0.0, 3.0), Pos3(r, 0.0, 1.0), PARAMS)
            for r in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert gains == sorted(gains, reverse=True)


class TestChannelParams:
    def test_from_cm2_converts_area(self):
        assert PARAMS.detector_area == pytest.approx(1e-4, rel=1e-12)

    def test_order_property_matches_function(self):
        assert PARAMS.lambertian_order == lambertian_order(60.0)

    def test_fov_rad(self):
        assert PARAMS.fov_rad == pytest.approx(math.radians(70.0), rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"detector_area_cm2": 0.0},
            {"detector_area_cm2": -1.0},
            {"semi_angle_deg": 0.0},
            {"semi_angle_deg": 90.0},
            {"fov_deg": 0.0},
            {"fov_deg": 91.0},
            {"responsivity": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        base = dict(
            detector_area_cm2=1.0, semi_angle_deg=60.0, fov_deg=70.0, responsivity=0.54
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            channel_params_from_cm2(**base)

    def test_position_rejects_negative_height(self):
        with pytest.raises(ValueError):
            Pos3(0.0, 0.0, -0.1)
