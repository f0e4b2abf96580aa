"""Waypoint movement: kinematics, redraw rules, batched equivalence."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import MobilityConfig, Pos3, UeState, draw_legs, init_ues, rwp_step
from vlcudn import mobility
from vlcudn.mobility import simulate_paths

CFG = MobilityConfig(
    v_min=0.1, v_max=1.0, slot_duration=0.1, ue_height=1.0, bounds=(4.0, 6.0, 4.0, 6.0)
)


BLOCK = mobility._BLOCK


def _ue(px, py, wx, wy, speed):
    """A UE heading for (wx, wy), with one more leg to walk after it."""
    return UeState(
        id=0,
        position=Pos3(px, py, 1.0),
        waypoint=Pos3(wx, wy, 1.0),
        speed=speed,
        legs=((4.2, 5.8, 0.3),),
        origin=Pos3(px, py, 1.0),
    )


def test_long_run_speed_follows_the_renewal_reward_law():
    """Random-waypoint theory, not the walk's own oracle.  Legs are i.i.d.:
    a uniform start and waypoint in the cell and a speed V uniform on
    [v_min, v_max], and a leg of q = D / (V * slot) moves takes
    max(ceil(q), 1) slots.  So by renewal-reward the long-run speed is
    E[D] / (slot * E[max(ceil(D / (V * slot)), 1)]), worked out here from
    10**6 leg draws of numpy alone, on their own seed.  The tolerance is
    four standard errors of the difference: the walk's over its UEs and
    the draws' by the delta method.  A walk 5% faster at the top falls
    outside it."""
    side, v_min, v_max, slot = 2.0, 0.1, 1.0, 0.1  # the reference mobility in one cell
    u = np.random.default_rng(2003).random((5, 10**6))
    dist = side * np.hypot(u[0] - u[1], u[2] - u[3])
    slots = np.maximum(np.ceil(dist / ((v_min + (v_max - v_min) * u[4]) * slot)), 1.0)
    ratio = dist.mean() / slots.mean()
    want = ratio / slot
    want_se = np.std(dist - ratio * slots) / (slots.mean() * slot * np.sqrt(dist.size))

    def walk(top):
        n_ues, n_slots = 40, 50_000
        x, y = simulate_paths([(n_ues, (0.0, side, 0.0, side))], v_min, top, slot, n_slots,
                              np.random.default_rng(16)).T
        per_ue = np.hypot(np.diff(x), np.diff(y)).sum(axis=1) / ((n_slots - 1) * slot)
        return per_ue.mean(), per_ue.std(ddof=1) / np.sqrt(n_ues)

    for top, inside in ((v_max, True), (1.05 * v_max, False)):
        speed, se = walk(top)
        assert (abs(speed - want) <= 4 * np.hypot(se, want_se)) == inside, (top, speed, want)


def test_straight_step_kinematics():
    ue = _ue(4.5, 5.0, 5.5, 5.0, 1.0)
    out = rwp_step(ue, CFG)
    assert out.position.x == pytest.approx(4.6, rel=1e-12)
    assert out.position.y == pytest.approx(5.0, rel=1e-12)
    assert out.waypoint == ue.waypoint  # no next leg before arrival
    assert out.speed == ue.speed
    assert out.legs == ue.legs


def test_exactly_at_waypoint_takes_the_next_leg_without_moving():
    ue = _ue(5.0, 5.0, 5.0, 5.0, 0.7)
    out = rwp_step(ue, CFG)
    assert (out.position.x, out.position.y) == (5.0, 5.0)
    assert (out.waypoint.x, out.waypoint.y, out.speed) == (4.2, 5.8, 0.3)
    assert out.legs == ()
    # with no leg left, the UE has no waypoint until it is dealt more
    here = Pos3(4.2, 5.8, 1.0)
    last = rwp_step(UeState(0, here, here, 0.3, origin=here), CFG)
    assert last.waypoint is None and (last.position.x, last.position.y) == (4.2, 5.8)


def test_overshoot_lands_on_waypoint():
    ue = _ue(4.5, 5.0, 4.55, 5.0, 1.0)  # step 0.1 > distance 0.05
    out = rwp_step(ue, CFG)
    assert (out.position.x, out.position.y) == (4.55, 5.0)
    assert (out.waypoint.x, out.waypoint.y) == (4.2, 5.8)


def test_init_ues_inside_bounds_with_valid_speeds():
    rng = np.random.default_rng(3)
    ues = init_ues(50, CFG, rng, 4)
    assert [u.id for u in ues] == list(range(50))
    for u in ues:
        assert 4.0 <= u.position.x <= 6.0 and 4.0 <= u.position.y <= 6.0
        assert 4.0 <= u.waypoint.x <= 6.0 and 4.0 <= u.waypoint.y <= 6.0
        assert CFG.v_min <= u.speed <= CFG.v_max
        assert u.position.z == CFG.ue_height
        assert len(u.legs) == 3
        for wx, wy, speed in u.legs:
            assert 4.0 <= wx <= 6.0 and 4.0 <= wy <= 6.0 and CFG.v_min <= speed <= CFG.v_max


def _oracle_paths(groups, cfg, n_slots, rng):
    """The per-UE reference on one generator, side by side as simulate_paths
    returns them: every UE of the groups [(n_ues, bounds), ...], in group
    then column order, placed with its first block of legs; each UE then
    walked alone until the last slot or until its legs run out; and, round
    after round, every UE still short dealt one more block, in column
    order, and walked on, until none is short."""
    configs, ues = [], []
    for n_ues, bounds in groups:
        group_cfg = dataclasses.replace(cfg, bounds=bounds)
        configs += [group_cfg] * n_ues
        ues += init_ues(n_ues, group_cfg, rng, BLOCK)
    rows = [[] for _ in ues]
    short = range(len(ues))
    while short:
        for c in short:
            while len(rows[c]) < n_slots and (ues[c].waypoint is not None or ues[c].legs):
                ues[c] = rwp_step(ues[c], configs[c])
                rows[c].append((ues[c].position.x, ues[c].position.y))
        short = [c for c in range(len(ues)) if len(rows[c]) < n_slots]
        for c in short:
            ues[c] = dataclasses.replace(ues[c], legs=draw_legs(BLOCK, configs[c], rng))
    return np.array(rows).reshape(len(ues), n_slots, 2).transpose(1, 0, 2)


# (config, UEs, slots) of one cell, each walked on seed 17
CASES = {
    "reference-cell": (CFG, 3, 3000),
    "zero-speed": (dataclasses.replace(CFG, v_min=0.0, v_max=0.0), 3, 200),
    # steps of 0.1-1 m in a 1 cm cell: nearly every move overshoots
    "overshoot": (dataclasses.replace(CFG, slot_duration=1.0, bounds=(4.0, 4.01, 4.0, 4.01)), 5,
                  300),
    # 5-6 m steps in a cell 2.9 m across: every move arrives, so each UE
    # walks a leg per slot and takes a block every BLOCK slots
    "arrive-every-slot": (dataclasses.replace(CFG, v_min=5.0, v_max=6.0, slot_duration=1.0), 4,
                          1000),
    # steps of about 1e-300 m: each first leg outlasts the episode
    "near-zero-speed": (dataclasses.replace(CFG, v_min=1e-299, v_max=2e-299), 3, 200),
    # 0.1-0.2 m steps: about 400 legs per UE, so top-up blocks whose legs
    # start from where the block before ended
    "top-ups": (dataclasses.replace(CFG, v_min=1.0, v_max=2.0), 3, 3000),
    # one move per UE: each leg's first move is also its last in the episode
    "one-slot": (CFG, 4, 1),
}


@pytest.mark.parametrize("cfg, n_ues, n_slots", list(CASES.values()), ids=list(CASES))
def test_batched_paths_match_per_ue_reference_exactly(cfg, n_ues, n_slots):
    rng = np.random.default_rng(17)
    batched = simulate_paths([(n_ues, cfg.bounds)], cfg.v_min, cfg.v_max, cfg.slot_duration,
                             n_slots, rng)
    assert batched.shape == (n_slots, n_ues, 2) and batched.dtype == np.float64

    ref_rng = np.random.default_rng(17)
    walked = _oracle_paths([(n_ues, cfg.bounds)], cfg, n_slots, ref_rng)
    for k in range(n_slots):
        for i in range(n_ues):
            assert batched[k, i, 0] == walked[k, i, 0]
            assert batched[k, i, 1] == walked[k, i, 1]
    # Cell groups share one generator: a draw too many or too few would
    # shift every later group's paths.
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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


# Groups that neighbor_ues = 0 and rho=1 give an episode: UE-less groups
# in the middle and at the end, and runs of one-UE groups.
EDGE_GROUPS = {
    "empty-in-the-middle": [GROUPS[0], (0, GROUPS[1][1]), *GROUPS[2:]],
    "empty-at-the-end": [*GROUPS, (0, CFG.bounds), (0, GROUPS[2][1])],
    "no-neighbor-ues": [GROUPS[0]] + [(0, bounds) for _, bounds in GROUPS[1:]],
    "one-ue-runs": [(1, bounds) for _, bounds in GROUPS + GROUPS],
    "one-ue-runs-and-empties": [(1, GROUPS[0][1]), (0, CFG.bounds), (1, GROUPS[1][1]),
                                (1, GROUPS[2][1]), (2, GROUPS[3][1]), (1, CFG.bounds),
                                (0, GROUPS[3][1])],
}


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("groups", list(EDGE_GROUPS.values()), ids=list(EDGE_GROUPS))
def test_empty_and_one_ue_groups_walk_as_the_oracle(groups, seed):
    _assert_walks_as_oracle(groups, CFG, 1100, seed)
    _assert_walks_as_oracle(groups, CASES["arrive-every-slot"][0], 300, seed)


def test_calls_of_other_sizes_in_one_process_walk_as_the_oracle():
    """Nothing of one call carries over to the next: a smaller call after a
    larger one, and a larger one after that, walk as the oracle does."""
    _assert_walks_as_oracle(GROUPS, CFG, 900, 7)
    _assert_walks_as_oracle(GROUPS[:2], CASES["top-ups"][0], 300, 8)
    _assert_walks_as_oracle(GROUPS + [(5, CFG.bounds)], CFG, 1200, 9)


@pytest.mark.parametrize("groups, cfg, n_slots", [
    (GROUPS, CFG, 700),
    # every move arrives: each UE takes seven top-up blocks
    ([(4, CFG.bounds)], CASES["arrive-every-slot"][0], 1000),
], ids=["groups", "many-top-ups"])
def test_every_slot_of_every_ue_is_walked_exactly_once(groups, cfg, n_slots):
    *_, cols, starts, arrivals = mobility._schedule(groups, cfg.v_min, cfg.v_max,
                                                    cfg.slot_duration, n_slots,
                                                    np.random.default_rng(11))
    walked = np.zeros((n_slots, sum(n for n, _ in groups)), dtype=int)
    for col, start, arrival in zip(cols.tolist(), starts.tolist(), arrivals.tolist()):
        walked[start:start + arrival + 1, col] += 1  # a leg moves up to its arrival
    assert (walked == 1).all()


class _Counted:
    """A generator that records the size of each random() call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


@pytest.mark.parametrize("case, top_ups", [("arrive-every-slot", 7), ("top-ups", None),
                                           ("zero-speed", 0), ("near-zero-speed", 0)])
def test_top_up_rounds_deal_one_block_to_each_short_ue(case, top_ups):
    cfg, n_ues, n_slots = CASES[case]
    rng = _Counted(17)
    simulate_paths([(n_ues, cfg.bounds)], cfg.v_min, cfg.v_max, cfg.slot_duration, n_slots, rng)
    first, *rounds = rng.sizes
    assert first == n_ues * (2 + 3 * BLOCK)
    assert all(size % (3 * BLOCK) == 0 and 0 < size <= n_ues * 3 * BLOCK for size in rounds)
    # a round deals to no more UEs than the one before it
    assert rounds == sorted(rounds, reverse=True)
    if top_ups is None:
        assert rounds
    else:
        # every UE walks a leg per slot: all are short together, round after round
        assert rounds == [n_ues * 3 * BLOCK] * top_ups


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


# Each UE draws x and y, then a block of legs: waypoint x, waypoint y and
# speed.  Speeds 0-10 m/s, 1 s slots, a 5 m cell.
UNIT_SLOT = ((0.0, 5.0, 0.0, 5.0), 0.0, 10.0, 1.0)
UNIT_SLOT_CFG = MobilityConfig(v_min=0.0, v_max=10.0, slot_duration=1.0, ue_height=1.0,
                               bounds=UNIT_SLOT[0])


def _block(*legs):
    """The unit draws of a block in UNIT_SLOT that starts with legs
    (waypoint x, waypoint y, speed) and is filled up with legs to (2, 2) at
    1 m/s: coordinates over 5 m, speed over 10 m/s (each value comes back
    exactly)."""
    legs = [*legs] + [(2.0, 2.0, 1.0)] * (BLOCK - len(legs))
    return [v for wx, wy, speed in legs for v in (wx / 5.0, wy / 5.0, speed / 10.0)]


def _place(x, y, *legs):
    """A UE's first unit draws in UNIT_SLOT: its start, then its first block."""
    return [x / 5.0, y / 5.0, *_block(*legs)]


def _shuttle(n):
    """n legs of 1 m at 1 m/s from (0, 0), to (1, 0), (2, 0), (1, 0) and
    so on: one move each."""
    return [(1.0 + t % 2, 0.0, 1.0) for t in range(n)]


def test_arrival_lands_exactly_on_waypoint():
    rng = _Scripted([
        *_place(0.0, 0.0, (3.0, 4.0, 10.0)),  # step 10 m overshoots a 5 m leg
        *_place(1.0, 1.0, (1.0, 1.0, 0.5)),  # already on the waypoint
        *_place(0.3, 0.4, (0.3, 0.4, 0.0)),  # on the waypoint with zero step
    ])
    paths = simulate_paths([(3, UNIT_SLOT[0])], *UNIT_SLOT[1:], 1, rng)
    assert paths[0].tolist() == [[3.0, 4.0], [1.0, 1.0], [0.3, 0.4]]
    assert rng.exhausted()


def test_arrival_on_the_last_slot_needs_no_top_up():
    # unit steps along x: 1, 2 and 3 m are exact, and the fourth move lands
    rng = _Scripted(_place(0.0, 0.0, (4.0, 0.0, 1.0)))
    paths = simulate_paths([(1, UNIT_SLOT[0])], *UNIT_SLOT[1:], 4, rng)
    assert paths[:, 0].tolist() == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]
    assert rng.exhausted()


def test_partial_move_is_collinear():
    rng = _Scripted(_place(0.0, 0.0, (3.0, 4.0, 1.0)))  # no arrival, so no top-up
    paths = simulate_paths([(1, UNIT_SLOT[0])], *UNIT_SLOT[1:], 2, rng)
    # unit steps along the (3, 4) / 5 direction
    assert paths[:, 0] == pytest.approx(np.array([[0.6, 0.8], [1.2, 1.6]]), rel=1e-12)
    assert rng.exhausted()


def test_a_first_block_that_just_covers_the_last_slot_draws_nothing_more():
    rng = _Scripted(_place(0.0, 0.0, *_shuttle(BLOCK)))
    paths = simulate_paths([(1, UNIT_SLOT[0])], *UNIT_SLOT[1:], BLOCK, rng)
    assert paths[:, 0].tolist() == [[1.0, 0.0], [2.0, 0.0]] * (BLOCK // 2)
    assert rng.exhausted()


def test_ues_one_leg_short_draw_exactly_one_more_block_each_in_column_order():
    rng = _Scripted([
        *_place(0.0, 0.0, *_shuttle(BLOCK)),  # short by one leg
        *_place(4.0, 4.0, (4.0, 0.0, 10.0)),  # covers the last slot
        *_place(0.0, 0.0, *_shuttle(BLOCK)),  # short by one leg
        # the top-ups, first UE's then third UE's: a quarter and half of a
        # 4 m leg on from (2, 0), the last waypoint
        *_block((2.0, 4.0, 1.0)),
        *_block((2.0, 4.0, 2.0)),
    ])
    paths = simulate_paths([(3, UNIT_SLOT[0])], *UNIT_SLOT[1:], BLOCK + 1, rng)
    assert paths[BLOCK - 1].tolist() == [[2.0, 0.0], [2.0, 2.0], [2.0, 0.0]]
    assert paths[BLOCK].tolist() == [[2.0, 1.0], [2.0, 2.0], [2.0, 2.0]]
    assert rng.exhausted()


def test_zero_speed_keeps_ues_static():
    paths = simulate_paths([(3, (4.0, 6.0, 4.0, 6.0))], 0.0, 0.0, 0.1, 50,
                           np.random.default_rng(4))
    for k in range(1, 50):
        assert np.array_equal(paths[k], paths[0])


def test_a_ue_on_its_waypoint_lands_on_its_first_move():
    """A leg of zero length lands on its first move, whether the step is
    positive or zero (q = 0 / step is 0 or nan)."""
    rng = _Scripted([*_place(1.0, 1.0, (1.0, 1.0, 0.5), (1.0, 1.0, 0.0))])
    paths = simulate_paths([(1, UNIT_SLOT[0])], *UNIT_SLOT[1:], 2, rng)
    assert paths[:, 0].tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_a_leg_one_ulp_longer_than_whole_moves_lands_on_the_move_after():
    """q = dist / step one ulp above 5: five moves stay short of the
    waypoint, however close the fifth comes, and the sixth lands on it."""
    step = np.nextafter(1.0, 0.0)  # 5 / step rounds to 5 + ulp
    rng = _Scripted(_place(0.0, 0.0, (3.0, 4.0, step)))
    paths = simulate_paths([(1, UNIT_SLOT[0])], *UNIT_SLOT[1:], 6, rng)[:, 0]
    assert rng.exhausted()
    origin = Pos3(0.0, 0.0, 1.0)
    ue = UeState(0, origin, Pos3(3.0, 4.0, 1.0), float(step), legs=((2.0, 2.0, 1.0),),
                 origin=origin)
    walked = []
    for _ in range(6):
        ue = rwp_step(ue, UNIT_SLOT_CFG)
        walked.append([ue.position.x, ue.position.y])
    assert paths.tolist() == walked
    assert (paths[:5] < (3.0, 4.0)).all()
    assert paths[5].tolist() == [3.0, 4.0]


def test_a_leg_cut_one_move_before_landing_stays_short():
    # unit steps along x to 4 m, and the episode ends after the third
    rng = _Scripted(_place(0.0, 0.0, (4.0, 0.0, 1.0)))
    paths = simulate_paths([(1, UNIT_SLOT[0])], *UNIT_SLOT[1:], 3, rng)
    assert paths[:, 0].tolist() == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
    assert rng.exhausted()


@pytest.mark.parametrize("groups, cfg, n_slots, seed", [
    *[([(n_ues, cfg.bounds)], cfg, n_slots, 17) for cfg, n_ues, n_slots in CASES.values()],
    *[(GROUPS, CFG, 1500, seed) for seed in (0, 1, 2)],
], ids=[*CASES, "groups-0", "groups-1", "groups-2"])
def test_every_position_lies_in_its_cell(groups, cfg, n_slots, seed):
    paths = simulate_paths(groups, cfg.v_min, cfg.v_max, cfg.slot_duration, n_slots,
                           np.random.default_rng(seed))
    bounds = np.array([b for n, b in groups for _ in range(n)])  # (UEs, 4)
    x, y = paths[..., 0], paths[..., 1]
    assert ((bounds[:, 0] <= x) & (x <= bounds[:, 1])).all()
    assert ((bounds[:, 2] <= y) & (y <= bounds[:, 3])).all()
