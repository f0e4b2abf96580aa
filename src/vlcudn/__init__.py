"""Indoor optical ultra-dense network simulator with Q-learning power control."""

__version__ = "0.1.0"

from .agent import (
    ActionSet,
    AgentConfig,
    Experience,
    QTable,
    StateKey,
    StateQuantizer,
    enumerate_actions,
    epsilon_at,
    quantize_state,
    select_action,
    update_q,
    warmup_policy,
)
from .channel import ChannelParams, LinkGeometry, Pos3, channel_gain, lambertian_order, link_geometry, rect_fov
from .config import ConfigError, ExperimentConfig, load_experiment
from .harness import (
    EpisodeResult,
    RunSeries,
    SimulationAbort,
    converged_means,
    run_episode,
    run_experiment,
    save_experiment,
    sweep_density,
)
from .metrics import (
    LinkParams,
    PowerVector,
    SlotChannelSnapshot,
    UtilityWeights,
    achievable_rate,
    per_ue_bandwidth,
    sinr,
    total_ici,
    utility,
)
from .mobility import MobilityConfig, UeState, init_ues, rwp_step, simulate_paths
from .topology import (
    Topology,
    cell_bounds,
    central_ap,
    co_channel_neighbors,
    make_grid,
    reuse_blocks,
)
