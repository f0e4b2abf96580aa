"""Waypoint movement: kinematics, redraw rules, batched equivalence."""

import dataclasses
from types import SimpleNamespace

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


@pytest.mark.parametrize(
    "cfg, n_ues, n_slots",
    [
        (CFG, 3, 3000),
        (dataclasses.replace(CFG, v_min=0.0, v_max=0.0), 3, 200),
        # steps of 0.1-1 m in a 1 cm cell: nearly every move overshoots
        (dataclasses.replace(CFG, slot_duration=1.0, bounds=(4.0, 4.01, 4.0, 4.01)), 5, 300),
        # 5-6 m steps in a cell 2.9 m across: every move arrives and draws
        (dataclasses.replace(CFG, v_min=5.0, v_max=6.0, slot_duration=1.0), 4, 100),
        # steps of about 1e-300 m: each first segment outlasts the episode
        (dataclasses.replace(CFG, v_min=1e-299, v_max=2e-299), 3, 200),
    ],
    ids=["reference-cell", "zero-speed", "overshoot", "arrive-every-slot", "near-zero-speed"],
)
def test_batched_paths_match_per_ue_reference_exactly(cfg, n_ues, n_slots):
    rng = np.random.default_rng(17)
    batched = simulate_paths([(n_ues, cfg.bounds)], cfg.v_min, cfg.v_max, cfg.slot_duration,
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


def _oracle_paths(groups, cfg, n_slots, rng):
    """The per-UE reference walking each group of [(n_ues, bounds), ...] in
    turn on one generator, side by side as simulate_paths returns them."""
    walked = []
    for n_ues, bounds in groups:
        group_cfg = dataclasses.replace(cfg, bounds=bounds)
        ues = init_ues(n_ues, group_cfg, rng)
        rows = []
        for _ in range(n_slots):
            ues = [rwp_step(u, group_cfg, rng) for u in ues]
            rows.append([(u.position.x, u.position.y) for u in ues])
        walked.append(np.array(rows).reshape(n_slots, n_ues, 2))
    return np.concatenate(walked, axis=1)


def _assert_walks_as_oracle(groups, cfg, n_slots, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    paths = simulate_paths(groups, cfg.v_min, cfg.v_max, cfg.slot_duration, n_slots, rng)
    assert paths.shape == (n_slots, sum(n for n, _ in groups), 2)
    assert paths.tobytes() == _oracle_paths(groups, cfg, n_slots, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# One local cell and three neighbours of other sizes and places, as an
# episode walks them: the local group first.
GROUPS = [(3, (4.0, 6.0, 4.0, 6.0)), (1, (0.0, 2.0, 0.0, 2.0)), (4, (8.0, 10.5, 0.0, 1.5)),
          (2, (-3.0, -2.0, 7.0, 9.0))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_groups_share_one_generator_as_the_oracle_walks_them(seed):
    _assert_walks_as_oracle(GROUPS, CFG, 1500, seed)


# Shifts of the closed-form guess per call, the last one repeating: every
# guess one move early, every guess one move late, or the first segment
# early and the second late, whose miss and extra reach even out in count.
@pytest.mark.parametrize("shifts", [[-1], [1], [-1, 1, 0]],
                         ids=["early", "late", "one-early-one-late"])
def test_wrong_arrival_guesses_replay_to_the_exact_walk(shifts, monkeypatch):
    guess, exact = mobility._guess, mobility._exact
    guessed, calls = [], []

    def shifted(*args):
        shift = shifts[min(len(guessed), len(shifts) - 1)]
        guessed.append(args)
        return max(guess(*args) + shift, 0)

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(mobility, "_guess", shifted)
    monkeypatch.setattr(mobility, "_exact", counted)
    _assert_walks_as_oracle(GROUPS, CFG, 400, 5)
    assert calls  # the walk caught the wrong guesses and scheduled again


def test_closed_form_guesses_need_no_replay(monkeypatch):
    """The scalar recurrence is only the fallback: on reference-scale cells
    and speeds the closed-form arrival is right for every segment."""

    def replay(*args):
        raise AssertionError("a closed-form arrival guess was wrong")

    monkeypatch.setattr(mobility, "_exact", replay)
    for seed in range(3):
        simulate_paths(GROUPS, CFG.v_min, CFG.v_max, CFG.slot_duration, 3000,
                       np.random.default_rng(seed))


def test_every_slot_of_every_ue_is_walked_exactly_once():
    n_slots = 700
    (_, ints), _ = mobility._schedule(GROUPS, CFG.v_min, CFG.v_max, CFG.slot_duration, n_slots,
                                      np.random.default_rng(11), mobility._guess)
    walked = np.zeros((n_slots, 10), dtype=int)
    for col, start, arrival in ints.tolist():
        walked[start:start + arrival + 1, col] += 1  # a segment moves up to its arrival
    assert (walked == 1).all()


class _Scripted:
    """Stands in for the generator: random(size) serves the next scripted
    unit draws (nan past the script), and bit_generator.state is the
    cursor into them."""

    def __init__(self, values):
        self.values = list(values)
        self.bit_generator = SimpleNamespace(state=0)

    def random(self, size):
        at = self.bit_generator.state
        self.bit_generator.state = at + size
        served = self.values[at:at + size]
        return np.array(served + [np.nan] * (size - len(served)))

    def exhausted(self):
        return self.bit_generator.state == len(self.values)


# Each UE draws x, y, waypoint x, waypoint y and speed, and draws waypoint
# x, y and speed again on arrival.  Speeds 0-10 m/s, 1 s slots, a 5 m cell.
UNIT_SLOT = ((0.0, 5.0, 0.0, 5.0), 0.0, 10.0, 1.0)


def _place(x, y, wx, wy, speed):
    """A UE's first unit draws in UNIT_SLOT: coordinates over 5 m, speed
    over 10 m/s (each value comes back exactly)."""
    return [x / 5.0, y / 5.0, wx / 5.0, wy / 5.0, speed / 10.0]


def _redraw(wx, wy, speed):
    """The unit draws of one arrival in UNIT_SLOT."""
    return [wx / 5.0, wy / 5.0, speed / 10.0]


def test_arrival_lands_exactly_on_waypoint():
    rng = _Scripted([
        *_place(0.0, 0.0, 3.0, 4.0, 10.0),  # step 10 m overshoots a 5 m leg
        *_place(1.0, 1.0, 1.0, 1.0, 0.5),  # already on the waypoint
        *_place(0.3, 0.4, 0.3, 0.4, 0.0),  # on the waypoint with zero step
        *_redraw(2.0, 2.0, 1.0) * 3,  # all three redraw
    ])
    paths = simulate_paths([(3, UNIT_SLOT[0])], *UNIT_SLOT[1:], 1, rng)
    assert paths[0].tolist() == [[3.0, 4.0], [1.0, 1.0], [0.3, 0.4]]
    assert rng.exhausted()


def test_arrival_on_the_last_slot_still_draws():
    # unit steps along x: 1, 2 and 3 m are exact, and the fourth move lands
    rng = _Scripted([*_place(0.0, 0.0, 4.0, 0.0, 1.0), *_redraw(2.0, 2.0, 1.0)])
    paths = simulate_paths([(1, UNIT_SLOT[0])], *UNIT_SLOT[1:], 4, rng)
    assert paths[:, 0].tolist() == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]
    assert rng.exhausted()


def test_partial_move_is_collinear():
    rng = _Scripted(_place(0.0, 0.0, 3.0, 4.0, 1.0))  # no arrival, so no redraw
    paths = simulate_paths([(1, UNIT_SLOT[0])], *UNIT_SLOT[1:], 2, rng)
    # unit steps along the (3, 4) / 5 direction
    assert paths[:, 0] == pytest.approx(np.array([[0.6, 0.8], [1.2, 1.6]]), rel=1e-12)
    assert rng.exhausted()


def test_zero_speed_keeps_ues_static():
    paths = simulate_paths([(3, (4.0, 6.0, 4.0, 6.0))], 0.0, 0.0, 0.1, 50,
                           np.random.default_rng(4))
    for k in range(1, 50):
        assert np.array_equal(paths[k], paths[0])
