"""Scalar references, one link or UE at a time, for the formulas that the
package computes only in :mod:`vlcudn.kernels`: the Lambertian gain, SINR
and Shannon rate, leaked ICI and the slot utility; the random-waypoint
step, which the package computes only in
:func:`vlcudn.mobility.simulate_paths`; the joint-action scan that the
per-UE greedy choice replaces; and the per-component state binning that
the integer state index replaces.
The tests hold the package to these; the package never imports them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from vlcudn import kernels, mobility
from vlcudn.channel import ChannelParams
from vlcudn.metrics import LinkParams, UtilityWeights, per_ue_bandwidth
from vlcudn.mobility import _draw_point


def channel_params_from_cm2(detector_area_cm2: float, semi_angle_deg: float,
                            fov_deg: float, responsivity: float) -> ChannelParams:
    """Build from a detector area given in cm^2 (the usual config unit)."""
    return ChannelParams(detector_area_cm2 * 1e-4, semi_angle_deg, fov_deg, responsivity)


@dataclass(frozen=True)
class Pos3:
    """A point in room coordinates, meters. z >= 0 (floor level is z = 0)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.z < 0:
            raise ValueError(f"z must be >= 0 (inside the room), got {self.z}")


@dataclass(frozen=True)
class LinkGeometry:
    """Distance and angle pair of one AP-UE link (radians)."""

    distance: float
    irradiance_angle: float
    incidence_angle: float


def link_geometry(ap: Pos3, ue: Pos3) -> LinkGeometry:
    """Distance and angles of the AP->UE link, both devices vertically aligned.

    Requires the AP strictly above the UE plane; with that orientation the
    irradiance and incidence angles coincide: arccos(dz / d).
    """
    dz = ap.z - ue.z
    if dz <= 0:
        raise ValueError(
            f"degenerate geometry: AP height {ap.z} must exceed UE height {ue.z}"
        )
    dx = ap.x - ue.x
    dy = ap.y - ue.y
    distance = math.sqrt(dx * dx + dy * dy + dz * dz)
    angle = math.acos(min(1.0, dz / distance))
    return LinkGeometry(distance=distance, irradiance_angle=angle, incidence_angle=angle)


def rect_fov(incidence_angle: float, fov_angle: float) -> int:
    """FOV indicator: 1 if |incidence_angle| <= fov_angle else 0 (radians).

    The boundary |theta| == fov_angle counts as inside.
    """
    return 1 if abs(incidence_angle) <= fov_angle else 0


def channel_gain(ap: Pos3, ue: Pos3, params: ChannelParams) -> float:
    """LoS Lambertian channel gain h between one AP and one UE (dimensionless).

    Zero whenever the incidence angle falls outside the photodiode FOV.
    This is the scalar reference implementation; bulk evaluation over
    position arrays lives in :mod:`vlcudn.kernels`.
    """
    geom = link_geometry(ap, ue)
    if not rect_fov(geom.incidence_angle, params.fov_rad):
        return 0.0
    m = params.lambertian_order
    radial = (m + 1.0) * params.detector_area / (2.0 * math.pi * geom.distance ** 2)
    return radial * math.cos(geom.irradiance_angle) ** m * math.cos(geom.incidence_angle)


class SlotChannelSnapshot:
    """Channel gains seen in one slot.

    serving_gains: (N,) gain from the serving AP to each local UE.
    interferer_gains: (J, N) gain from each co-channel neighbor AP to
        each local UE.
    outgoing_gains: length-J sequence of 1-D arrays; entry j holds the
        gains from the serving AP to the M_j UEs of neighbor j.
    """

    def __init__(self, serving_gains, interferer_gains, outgoing_gains):
        serving = np.asarray(serving_gains, dtype=float)
        inter = np.asarray(interferer_gains, dtype=float)
        outgoing = [np.asarray(g, dtype=float) for g in outgoing_gains]
        if serving.ndim != 1:
            raise ValueError("serving_gains must be one-dimensional")
        if inter.ndim != 2 or inter.shape[1] != serving.shape[0]:
            raise ValueError("interferer_gains must have shape (J, N)")
        if len(outgoing) != inter.shape[0]:
            raise ValueError("outgoing_gains must have one entry per neighbor")
        arrays = [serving, inter] + outgoing
        if any((a < 0.0).any() for a in arrays):
            raise ValueError("channel gains must be non-negative")
        self.serving_gains = serving
        self.interferer_gains = inter
        self.outgoing_gains = outgoing

    @property
    def n_ues(self) -> int:
        return self.serving_gains.shape[0]

    @property
    def n_neighbors(self) -> int:
        return self.interferer_gains.shape[0]

    def outgoing_sum(self) -> float:
        """Total cross-gain toward all foreign UEs, sum_j sum_m g_{j,m}."""
        return float(sum(g.sum() for g in self.outgoing_gains))


class PowerVector:
    """Transmit powers for one slot: serving (N,) and interferer (J, N), watts."""

    def __init__(self, serving, interferer):
        s = np.asarray(serving, dtype=float)
        i = np.asarray(interferer, dtype=float)
        if s.ndim != 1:
            raise ValueError("serving powers must be one-dimensional")
        if i.ndim != 2 or i.shape[1] != s.shape[0]:
            raise ValueError("interferer powers must have shape (J, N)")
        if (s < 0.0).any() or (i < 0.0).any():
            raise ValueError("powers must be non-negative")
        self.serving = s
        self.interferer = i


def sinr(
    n: int,
    powers: PowerVector,
    snapshot: SlotChannelSnapshot,
    params: LinkParams,
    responsivity: float,
    squared: bool = False,
) -> float:
    """SINR zeta_n of UE n under the given powers and gains."""
    if powers.serving.shape[0] != snapshot.n_ues:
        raise ValueError("powers and snapshot disagree on the number of UEs")
    if powers.interferer.shape[0] != snapshot.n_neighbors:
        raise ValueError("powers and snapshot disagree on the number of neighbors")
    if not 0 <= n < snapshot.n_ues:
        raise ValueError(f"UE index {n} out of range")
    wn = per_ue_bandwidth(params, snapshot.n_ues)
    sig = responsivity * powers.serving[n] * snapshot.serving_gains[n]
    terms = responsivity * powers.interferer[:, n] * snapshot.interferer_gains[:, n]
    if squared:
        sig = sig * sig
        terms = terms * terms
    return sig / (wn * params.noise_psd + float(terms.sum()))


def achievable_rate(wn: float, zeta: float) -> float:
    """Shannon rate W_n log2(1 + zeta) in bit/s."""
    if zeta < 0.0:
        raise ValueError("zeta must be non-negative")
    return wn * math.log2(1.0 + zeta)


def total_ici(powers: PowerVector, snapshot: SlotChannelSnapshot, responsivity: float) -> float:
    """Aggregate power chi leaked to all foreign UEs, in watts."""
    if powers.serving.shape[0] != snapshot.n_ues:
        raise ValueError("powers and snapshot disagree on the number of UEs")
    return responsivity * float(powers.serving.sum()) * snapshot.outgoing_sum()


def utility(rates, powers: PowerVector, ici: float, weights: UtilityWeights) -> float:
    """Reward u for one slot.

    rates are in bit/s, powers and ici in watts; internally the rate term
    is converted to Mbit/s and the power terms to mW (see vlcudn.metrics).
    """
    rates = np.asarray(rates, dtype=float)
    if rates.shape[0] != powers.serving.shape[0]:
        raise ValueError("rates and powers disagree on the number of UEs")
    if ici < 0.0:
        raise ValueError("ici must be non-negative")
    mean_mbps = float(rates.mean()) * 1e-6
    energy_mw = float(powers.serving.sum()) * 1e3
    ici_mw = ici * 1e3
    return mean_mbps - weights.energy_weight * energy_mw - weights.interference_weight * ici_mw


@dataclass(frozen=True)
class MobilityConfig(mobility.MobilityConfig):
    """The package's mobility config plus the receiver height of the 3-D
    UE positions below (the batched paths are planar)."""

    ue_height: float

    def __post_init__(self):
        if self.ue_height < 0.0:
            raise ValueError("ue_height must be non-negative")


@dataclass(frozen=True)
class UeState:
    id: int
    position: Pos3
    waypoint: Pos3
    speed: float
    serving_ap: int = -1


def init_ues(n: int, config: MobilityConfig, rng: np.random.Generator) -> list[UeState]:
    """Place n UEs uniformly in bounds with fresh waypoints and speeds."""
    ues = []
    for i in range(n):
        px, py = _draw_point(config, rng)
        wx, wy = _draw_point(config, rng)
        speed = rng.uniform(config.v_min, config.v_max)
        ues.append(
            UeState(
                id=i,
                position=Pos3(px, py, config.ue_height),
                waypoint=Pos3(wx, wy, config.ue_height),
                speed=speed,
            )
        )
    return ues


def rwp_step(ue: UeState, config: MobilityConfig, rng: np.random.Generator) -> UeState:
    """Advance one slot toward the waypoint.

    If the move would reach or overshoot the waypoint, the UE lands
    exactly on it and draws a new waypoint and speed for the next slot.
    """
    step = ue.speed * config.slot_duration
    dx = ue.waypoint.x - ue.position.x
    dy = ue.waypoint.y - ue.position.y
    # same float ops as simulate_paths so both paths agree bit for bit
    dist = math.sqrt(dx * dx + dy * dy)
    if step >= dist:
        wx, wy = _draw_point(config, rng)
        speed = rng.uniform(config.v_min, config.v_max)
        return replace(
            ue,
            position=Pos3(ue.waypoint.x, ue.waypoint.y, config.ue_height),
            waypoint=Pos3(wx, wy, config.ue_height),
            speed=speed,
        )
    frac = step / dist
    return replace(
        ue,
        position=Pos3(ue.position.x + dx * frac, ue.position.y + dy * frac, config.ue_height),
    )


def joint_actions(levels, n_ues: int) -> np.ndarray:
    """Every joint power vector over the per-UE levels, in lexicographic
    order with the first UE most significant: (L+1)^N rows."""
    return np.array(list(itertools.product(levels, repeat=n_ues)))


def greedy_joint_argmax(levels, n_ues: int, *slot_inputs) -> np.ndarray:
    """The greedy choice by full scan: score every joint action in one
    action_utilities call (slot_inputs are its arguments after powers) and
    keep np.argmax's lowest-index maximiser."""
    powers = joint_actions(levels, n_ues)
    return powers[np.argmax(kernels.action_utilities(powers, *slot_inputs)[0])]


def state_key(rates, gains, quant) -> str:
    """qtable.tsv key "r1,..,rN|g1,..,gN|N" of one slot's per-UE rates and
    gains: each value floored onto its uniform grid, then clipped into
    [0, bins - 1], one tuple per component."""

    def bins(values, upper: float, n_bins: int) -> str:
        idx = np.floor(np.asarray(values, dtype=float) * (n_bins / upper)).astype(np.int64)
        return ",".join(str(int(i)) for i in np.clip(idx, 0, n_bins - 1))

    return "%s|%s|%d" % (
        bins(rates, quant.rate_max, quant.rate_bins),
        bins(gains, quant.gain_max, quant.gain_bins),
        len(rates),
    )
