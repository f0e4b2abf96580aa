"""Scalar references, one link or UE at a time, for the formulas that the
package computes only in :mod:`vlcudn.kernels`: the Lambertian gain, SINR
and Shannon rate, leaked ICI and the slot utility; the random-waypoint
step, which the package computes only in :mod:`vlcudn.mobility`; the
joint-action scan that the per-UE greedy choice replaces; the
per-component state binning that the integer state index replaces; the
row-scanning epsilon-greedy pick that the Q-table's cached row maximum
replaces; and learn, the rpic learner's slot loop one slot at a time on
string-keyed numpy rows, which the package's flattened loop over QRow
objects replaces.
The tests hold the package to these; the package never imports them.
Their parameter records are plain and check nothing: the package checks
its inputs once, in ExperimentConfig.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from vlcudn import kernels


@dataclass(frozen=True)
class Channel:
    """Optical front end of every AP-UE link: detector area in m^2, LED
    half-intensity semi-angle and photodiode FOV half-angle in degrees,
    responsivity in A/W."""

    detector_area: float
    semi_angle_half_intensity: float
    fov_angle: float
    responsivity: float

    @property
    def lambertian_order(self) -> float:
        return -1.0 / math.log2(math.cos(math.radians(self.semi_angle_half_intensity)))

    @property
    def fov_rad(self) -> float:
        return math.radians(self.fov_angle)


def channel_params_from_cm2(detector_area_cm2: float, semi_angle_deg: float,
                            fov_deg: float, responsivity: float) -> Channel:
    """Build from a detector area given in cm^2 (the usual config unit)."""
    return Channel(detector_area_cm2 * 1e-4, semi_angle_deg, fov_deg, responsivity)


@dataclass(frozen=True)
class Link:
    """Link budget: total bandwidth in Hz, noise PSD in A^2/Hz and the usable
    share of the band.  An ExperimentConfig has the same fields."""

    total_bandwidth: float
    noise_psd: float
    effective_bandwidth_factor: float = 1.0


@dataclass(frozen=True)
class Weights:
    """Utility per mW spent and per mW leaked.  An ExperimentConfig has the
    same fields."""

    energy_weight: float
    interference_weight: float


def per_ue_bandwidth(params: Link, n_ues: int) -> float:
    """Bandwidth share W_n of each of n equal users, in Hz."""
    return params.effective_bandwidth_factor * params.total_bandwidth / n_ues


@dataclass(frozen=True)
class Pos3:
    """A point in room coordinates, meters; floor level is z = 0."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class LinkGeometry:
    """Distance and angle pair of one AP-UE link (radians)."""

    distance: float
    irradiance_angle: float
    incidence_angle: float


def link_geometry(ap: Pos3, ue: Pos3) -> LinkGeometry:
    """Distance and angles of the AP->UE link, both devices vertically aligned.

    The AP is strictly above the UE plane; with that orientation the
    irradiance and incidence angles coincide: arccos(dz / d).
    """
    dz = ap.z - ue.z
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


def channel_gain(ap: Pos3, ue: Pos3, params: Channel) -> float:
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
        self.serving_gains = np.asarray(serving_gains, dtype=float)
        self.interferer_gains = np.asarray(interferer_gains, dtype=float)
        self.outgoing_gains = [np.asarray(g, dtype=float) for g in outgoing_gains]

    @property
    def n_ues(self) -> int:
        return self.serving_gains.shape[0]

    def outgoing_sum(self) -> float:
        """Total cross-gain toward all foreign UEs, sum_j sum_m g_{j,m}."""
        return float(sum(g.sum() for g in self.outgoing_gains))


class PowerVector:
    """Transmit powers for one slot: serving (N,) and interferer (J, N), watts."""

    def __init__(self, serving, interferer):
        self.serving = np.asarray(serving, dtype=float)
        self.interferer = np.asarray(interferer, dtype=float)


def sinr(
    n: int,
    powers: PowerVector,
    snapshot: SlotChannelSnapshot,
    params: Link,
    responsivity: float,
    squared: bool = False,
) -> float:
    """SINR zeta_n of UE n under the given powers and gains."""
    wn = per_ue_bandwidth(params, snapshot.n_ues)
    sig = responsivity * powers.serving[n] * snapshot.serving_gains[n]
    terms = responsivity * powers.interferer[:, n] * snapshot.interferer_gains[:, n]
    if squared:
        sig = sig * sig
        terms = terms * terms
    return sig / (wn * params.noise_psd + float(terms.sum()))


def achievable_rate(wn: float, zeta: float) -> float:
    """Shannon rate W_n log2(1 + zeta) in bit/s."""
    return wn * math.log2(1.0 + zeta)


def total_ici(powers: PowerVector, snapshot: SlotChannelSnapshot, responsivity: float) -> float:
    """Aggregate power chi leaked to all foreign UEs, in watts."""
    return responsivity * float(powers.serving.sum()) * snapshot.outgoing_sum()


def utility(rates, powers: PowerVector, ici: float, weights: Weights) -> float:
    """Reward u for one slot.

    rates are in bit/s, powers and ici in watts; internally the rate term
    is converted to Mbit/s and the power terms to mW (see vlcudn.kernels.utility).
    """
    rates = np.asarray(rates, dtype=float)
    mean_mbps = float(rates.mean()) * 1e-6
    energy_mw = float(powers.serving.sum()) * 1e3
    ici_mw = ici * 1e3
    return mean_mbps - weights.energy_weight * energy_mw - weights.interference_weight * ici_mw


@dataclass(frozen=True)
class MobilityConfig:
    """Speeds in m/s, slot length in s, the cell's (xmin, xmax, ymin, ymax)
    and the receiver height of the 3-D UE positions below (the batched
    paths are planar)."""

    v_min: float
    v_max: float
    slot_duration: float
    bounds: tuple[float, float, float, float]
    ue_height: float


def _draw_point(config: MobilityConfig, rng: np.random.Generator) -> tuple[float, float]:
    """A uniform point in the cell: x first, then y."""
    xmin, xmax, ymin, ymax = config.bounds
    x = rng.uniform(xmin, xmax)
    y = rng.uniform(ymin, ymax)
    return x, y


@dataclass(frozen=True)
class UeState:
    id: int
    position: Pos3
    waypoint: Pos3 | None  # None after an arrival that used up the legs
    speed: float
    serving_ap: int = -1
    legs: tuple = ()  # (waypoint x, waypoint y, speed) of the legs still to walk
    origin: Pos3 | None = None  # where the leg to the waypoint started
    moves: int = 0  # moves made on that leg


def draw_legs(n: int, config: MobilityConfig, rng: np.random.Generator) -> tuple:
    """n legs (waypoint x, waypoint y, speed), each drawn in that order."""
    return tuple((*_draw_point(config, rng), rng.uniform(config.v_min, config.v_max))
                 for _ in range(n))


def _next_leg(ue: UeState, config: MobilityConfig) -> UeState:
    (wx, wy, speed), *rest = ue.legs
    return replace(ue, origin=ue.position, moves=0, waypoint=Pos3(wx, wy, config.ue_height),
                   speed=speed, legs=tuple(rest))


def init_ues(n: int, config: MobilityConfig, rng: np.random.Generator,
             block: int) -> list[UeState]:
    """Place n UEs uniformly in bounds, one after another: each draws its
    start x and y, then block legs, and heads for the first."""
    ues = []
    for i in range(n):
        px, py = _draw_point(config, rng)
        ue = UeState(id=i, position=Pos3(px, py, config.ue_height), waypoint=None, speed=0.0,
                     legs=draw_legs(block, config, rng))
        ues.append(_next_leg(ue, config))
    return ues


def rwp_step(ue: UeState, config: MobilityConfig) -> UeState:
    """Advance one slot toward the waypoint.

    With q = dist / step from the leg's origin, move m of the leg
    (counted from 1) lands exactly on the waypoint if m >= q, and the
    first move does if step >= dist; the UE then heads for its next leg,
    and if it has none left, it has no waypoint and must be dealt more
    legs before its next step.  Until then, move m puts it at
    origin + (waypoint - origin) * (m / q).
    """
    if ue.waypoint is None:
        ue = _next_leg(ue, config)
    step = ue.speed * config.slot_duration
    dx = ue.waypoint.x - ue.origin.x
    dy = ue.waypoint.y - ue.origin.y
    # same float ops as simulate_paths so both paths agree bit for bit
    dist = math.sqrt(dx * dx + dy * dy)
    q = dist / step if step else math.inf  # numpy's x / 0.0 for x > 0
    move = ue.moves + 1
    if step >= dist or move >= q:
        landed = replace(ue, position=Pos3(ue.waypoint.x, ue.waypoint.y, config.ue_height),
                         waypoint=None, moves=move)
        return _next_leg(landed, config) if landed.legs else landed
    frac = move / q
    return replace(
        ue,
        position=Pos3(ue.origin.x + dx * frac, ue.origin.y + dy * frac, config.ue_height),
        moves=move,
    )


def joint_actions(levels, n_ues: int) -> np.ndarray:
    """Every joint power vector over the per-UE levels, in lexicographic
    order with the first UE most significant: (L+1)^N rows."""
    return np.array(list(itertools.product(levels, repeat=n_ues)))


def greedy_joint_argmax(levels, rate_rows, *utility_inputs) -> np.ndarray:
    """The greedy choice by full scan: score every joint action of one slot,
    with rate_rows[n, l] the rate of UE n at level l and utility_inputs the
    slot's (outgoing, eta, energy_weight, ici_weight), and return the level
    indices of np.argmax's lowest-index maximiser."""
    n_ues = len(rate_rows)
    choices = joint_actions(range(len(levels)), n_ues)
    rates = np.asarray(rate_rows)[np.arange(n_ues), choices]
    scores = kernels.utility(rates.sum(axis=1), n_ues, np.asarray(levels)[choices].sum(axis=1),
                             *utility_inputs)[0]
    return choices[np.argmax(scores)]


def select_action(row, explore: bool, u: float) -> int:
    """Epsilon-greedy pick over one value row, by scanning it: the
    int(u * m)-th of the m maximizers (greedy) or non-maximizers (explore;
    all actions if every one ties)."""
    top = row.max()
    pool = np.flatnonzero(row == top)
    if explore:
        others = np.flatnonzero(row != top)
        if others.size:
            pool = others
    return int(pool[int(u * pool.size)])


def row_cache(row) -> tuple:
    """What a QRow caches of its values, by scanning them: the maximum, how
    many actions reach it, and the maximizer when it is the only one (else
    None)."""
    top = row.max()
    hits = np.flatnonzero(row == top)
    return top, hits.size, int(hits[0]) if hits.size == 1 else None


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


def learn(config, rate_tab, serving, outgoing, rng):
    """The rpic learner, one slot at a time: tabular Q-learning on the
    episode's (slot, UE, level) rate table, its (slot, UE) serving gains
    and per-slot cross-gains, reading the agent stream rng in the layout
    the harness docstring states.  Returns each slot's (state key, action,
    utility) and the Q-table, a dict from state key to value row.

    Slot k's state is state_key of the rates slot k-1's action got (zeros
    in slot 0) and slot k's gains; its row is made, all zeros, at the
    state's first lookup.  Slot k picks a uniform action in warm-up, else
    select_action on its row, explores when its coin is below epsilon,
    and takes kernels.utility of its summed rates and powers.  From slot 1
    on it then makes slot k-1's Bellman step, with the next state's row
    maximum read when the step is made, and with replay one more step per
    draw v, the int(v * k)-th of the k made so far.  The loop stops after
    the first slot whose utility is not finite."""
    n_slots, n, n_levels = rate_tab.shape
    levels = (np.arange(n_levels) * (config.max_power / config.power_levels)).tolist()
    actions = list(itertools.product(range(n_levels), repeat=n))  # per-UE levels, first UE first
    alpha, beta = config.learning_rate, config.discount
    start, end, decay = config.epsilon_start, config.epsilon_end, config.epsilon_decay_slots
    coins, picks = rng.random(n_slots), rng.random(n_slots)
    table, slots = {}, []
    rates = np.zeros(n)

    def step(j):  # the Bellman step of slot j's (state, action, utility)
        (key, action, u), next_key = slots[j], slots[j + 1][0]
        row = table[key]
        row[action] = (1.0 - alpha) * row[action] + alpha * (u + beta * table[next_key].max())

    for k in range(n_slots):
        key = state_key(rates, serving[k], config.state_grid())
        row = table.setdefault(key, np.zeros(len(actions)))
        if k < config.warmup_slots:
            action = int(picks[k] * len(actions))
        else:
            epsilon = start + (end - start) * (k / decay) if k < decay else end
            action = select_action(row, bool(coins[k] < epsilon), picks[k])
        rates = rate_tab[k, np.arange(n), list(actions[action])]
        rate_sum = total_w = 0.0
        for rate, level in zip(rates.tolist(), actions[action]):  # left to right
            rate_sum += rate
            total_w += levels[level]
        u = kernels.utility(rate_sum, n, total_w, float(outgoing[k]), config.responsivity,
                            config.energy_weight, config.interference_weight)[0]
        slots.append((key, action, u))
        if not math.isfinite(u):
            break
        if k:
            step(k - 1)
            for v in rng.random(config.replay_batch) if config.replay else ():
                step(int(v * k))
    return slots, table
