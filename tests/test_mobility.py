"""Waypoint movement: kinematics, redraw rules, batched equivalence."""

import dataclasses

import numpy as np
import pytest

from oracles import MobilityConfig, Pos3, UeState, init_ues, rwp_step
from vlcudn.mobility import simulate_paths

CFG = MobilityConfig(
    v_min=0.1, v_max=1.0, slot_duration=0.1, ue_height=1.0, bounds=(4.0, 6.0, 4.0, 6.0)
)


def _ue(px, py, wx, wy, speed):
    return UeState(
        id=0,
        position=Pos3(px, py, 1.0),
        waypoint=Pos3(wx, wy, 1.0),
        speed=speed,
    )


def test_straight_step_kinematics():
    ue = _ue(4.5, 5.0, 5.5, 5.0, 1.0)
    out = rwp_step(ue, CFG, np.random.default_rng(0))
    assert out.position.x == pytest.approx(4.6, rel=1e-12)
    assert out.position.y == pytest.approx(5.0, rel=1e-12)
    assert out.waypoint == ue.waypoint  # no redraw before arrival
    assert out.speed == ue.speed


def test_exactly_at_waypoint_redraws_without_moving():
    ue = _ue(5.0, 5.0, 5.0, 5.0, 0.7)
    out = rwp_step(ue, CFG, np.random.default_rng(1))
    assert (out.position.x, out.position.y) == (5.0, 5.0)
    assert (out.waypoint.x, out.waypoint.y) != (5.0, 5.0)
    assert CFG.v_min <= out.speed <= CFG.v_max


def test_overshoot_lands_on_waypoint():
    ue = _ue(4.5, 5.0, 4.55, 5.0, 1.0)  # step 0.1 > distance 0.05
    out = rwp_step(ue, CFG, np.random.default_rng(2))
    assert (out.position.x, out.position.y) == (4.55, 5.0)
    assert (out.waypoint.x, out.waypoint.y) != (4.55, 5.0)


def test_init_ues_inside_bounds_with_valid_speeds():
    rng = np.random.default_rng(3)
    ues = init_ues(50, CFG, rng)
    assert [u.id for u in ues] == list(range(50))
    for u in ues:
        assert 4.0 <= u.position.x <= 6.0 and 4.0 <= u.position.y <= 6.0
        assert 4.0 <= u.waypoint.x <= 6.0 and 4.0 <= u.waypoint.y <= 6.0
        assert CFG.v_min <= u.speed <= CFG.v_max
        assert u.position.z == CFG.ue_height


@pytest.mark.parametrize(
    "cfg, n_ues, n_slots",
    [
        (CFG, 3, 3000),
        (dataclasses.replace(CFG, v_min=0.0, v_max=0.0), 3, 200),
        # steps of 0.1-1 m in a 1 cm cell: nearly every move overshoots
        (dataclasses.replace(CFG, slot_duration=1.0, bounds=(4.0, 4.01, 4.0, 4.01)), 5, 300),
    ],
    ids=["reference-cell", "zero-speed", "overshoot"],
)
def test_batched_paths_match_per_ue_reference_exactly(cfg, n_ues, n_slots):
    rng = np.random.default_rng(17)
    batched = simulate_paths(n_ues, cfg.bounds, cfg.v_min, cfg.v_max, cfg.slot_duration,
                             n_slots, rng)
    assert batched.shape == (n_slots, n_ues, 2) and batched.dtype == np.float64

    ref_rng = np.random.default_rng(17)
    ues = init_ues(n_ues, cfg, ref_rng)
    for k in range(n_slots):
        ues = [rwp_step(u, cfg, ref_rng) for u in ues]
        for i, u in enumerate(ues):
            assert batched[k, i, 0] == u.position.x
            assert batched[k, i, 1] == u.position.y
    # Cell groups share one generator: a draw too many or too few would
    # shift every later group's paths.
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class _Scripted:
    """Stands in for the generator: uniform() returns the next scripted value."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, low, high):
        return next(self.values)

    def exhausted(self):
        return next(self.values, None) is None


# Each UE draws x, y, waypoint x, waypoint y and speed, and draws waypoint
# x, y and speed again on arrival.  Speeds 0-10 m/s, 1 s slots, a 5 m cell.
UNIT_SLOT = ((0.0, 5.0, 0.0, 5.0), 0.0, 10.0, 1.0)


def test_arrival_lands_exactly_on_waypoint():
    rng = _Scripted([
        0.0, 0.0, 3.0, 4.0, 10.0,  # step 10 m overshoots a 5 m leg
        1.0, 1.0, 1.0, 1.0, 0.5,  # already on the waypoint
        0.3, 0.4, 0.3, 0.4, 0.0,  # on the waypoint with zero step
        *[2.0, 2.0, 1.0] * 3,  # all three redraw
    ])
    paths = simulate_paths(3, *UNIT_SLOT, 1, rng)
    assert paths[0].tolist() == [[3.0, 4.0], [1.0, 1.0], [0.3, 0.4]]
    assert rng.exhausted()


def test_partial_move_is_collinear():
    rng = _Scripted([0.0, 0.0, 3.0, 4.0, 1.0])  # no arrival, so no redraw
    paths = simulate_paths(1, *UNIT_SLOT, 2, rng)
    # unit steps along the (3, 4) / 5 direction
    assert paths[:, 0] == pytest.approx(np.array([[0.6, 0.8], [1.2, 1.6]]), rel=1e-12)
    assert rng.exhausted()


def test_zero_speed_keeps_ues_static():
    paths = simulate_paths(3, (4.0, 6.0, 4.0, 6.0), 0.0, 0.0, 0.1, 50, np.random.default_rng(4))
    for k in range(1, 50):
        assert np.array_equal(paths[k], paths[0])
