"""Line-of-sight Lambertian optical channel between a ceiling AP and a mobile receiver.

The downlink gain of an LED transmitter seen by a photodiode is

    h = (m + 1) * A_R / (2 * pi * d^2) * cos(phi)^m * cos(theta) * rect(theta)

with m the Lambertian order of the LED lobe, A_R the effective detector
area, d the AP-receiver distance, phi the irradiance angle at the LED,
theta the incidence angle at the photodiode, and rect() the field-of-view
cutoff (1 inside the FOV, 0 outside, boundary included).

Both the LED and the photodiode are assumed vertically oriented (LED
facing down, detector facing up), so phi == theta.  All distances are in
meters; ChannelParams stores its angles in degrees (the usual datasheet
unit) and the detector area in m^2.

The gain is computed only by :func:`vlcudn.kernels.lambertian_gains`;
``tests/oracles.py`` holds the scalar per-link reference for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelParams:
    """Optical front-end constants shared by every AP-UE link.

    detector_area: effective photodiode area in m^2.
    semi_angle_half_intensity: LED half-intensity semi-angle in degrees.
    fov_angle: photodiode field-of-view half-angle in degrees.
    responsivity: opto-electric conversion efficiency in A/W.
    """

    detector_area: float
    semi_angle_half_intensity: float
    fov_angle: float
    responsivity: float

    def __post_init__(self):
        if self.detector_area <= 0:
            raise ValueError(f"detector_area must be > 0, got {self.detector_area}")
        if not 0.0 < self.semi_angle_half_intensity < 90.0:
            raise ValueError(
                "semi_angle_half_intensity must lie in (0, 90) degrees, "
                f"got {self.semi_angle_half_intensity}"
            )
        if not 0.0 < self.fov_angle <= 90.0:
            raise ValueError(f"fov_angle must lie in (0, 90] degrees, got {self.fov_angle}")
        if self.responsivity <= 0:
            raise ValueError(f"responsivity must be > 0, got {self.responsivity}")

    @property
    def lambertian_order(self) -> float:
        return lambertian_order(self.semi_angle_half_intensity)

    @property
    def fov_rad(self) -> float:
        return math.radians(self.fov_angle)


def lambertian_order(semi_angle_half_intensity: float) -> float:
    """Lambertian order m = -1 / log2(cos(semi_angle)), semi-angle in degrees.

    A 60 degree semi-angle gives m = 1 (the ideal Lambertian source),
    45 degrees gives m = 2; smaller angles give narrower, higher-order lobes.
    """
    return -1.0 / math.log2(math.cos(math.radians(semi_angle_half_intensity)))
