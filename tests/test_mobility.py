"""Waypoint movement: kinematics, redraw rules, batched equivalence."""

import numpy as np
import pytest

from oracles import MobilityConfig, Pos3, UeState, init_ues, rwp_step
from vlcudn import mobility
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


def test_batched_paths_match_per_ue_reference_exactly():
    n_ues, n_slots = 5, 200
    batched = simulate_paths(n_ues, CFG, n_slots, np.random.default_rng(17))

    rng = np.random.default_rng(17)
    ues = init_ues(n_ues, CFG, rng)
    for k in range(n_slots):
        ues = [rwp_step(u, CFG, rng) for u in ues]
        for i, u in enumerate(ues):
            assert batched[k, i, 0] == u.position.x
            assert batched[k, i, 1] == u.position.y


def test_zero_speed_keeps_ues_static():
    cfg = mobility.MobilityConfig(0.0, 0.0, 0.1, (4.0, 6.0, 4.0, 6.0))
    paths = simulate_paths(3, cfg, 50, np.random.default_rng(4))
    for k in range(1, 50):
        assert np.array_equal(paths[k], paths[0])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"v_min": -0.1},
        {"v_min": 2.0, "v_max": 1.0},
        {"slot_duration": 0.0},
        {"ue_height": -1.0},
        {"bounds": (6.0, 4.0, 4.0, 6.0)},
    ],
)
def test_config_validation(kwargs):
    base = dict(
        v_min=0.1, v_max=1.0, slot_duration=0.1, ue_height=1.0, bounds=(4.0, 6.0, 4.0, 6.0)
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        MobilityConfig(**base)
