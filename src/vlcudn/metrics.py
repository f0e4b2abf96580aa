"""Link and utility parameters of the per-slot metrics: SINR, rate, leakage, utility.

For UE n served with optical power x_n over gain h_n, with J co-channel
neighbor APs sending power x_{j,n} seen through gain gamma_{j,n}:

    zeta_n = (eta x_n h_n) / (W_n N0 + sum_j eta x_{j,n} gamma_{j,n})
    r_n    = W_n log2(1 + zeta_n)

The SINR numerator and interference terms are linear in the received
optical power by default; ``squared_electrical_power = true`` switches both to the squared
electrical form (eta x h)^2 used in conventional direct-detection link
budgets.

Leakage toward neighbors aggregates over this cell's own transmissions
and every foreign UE m attached to neighbor j, with cross-gain g_{j,m}:

    chi = sum_n sum_j sum_m eta x_n g_{j,m}

The scalar reward blends the three quantities in mixed units: rates enter
in Mbit/s, powers and chi in mW, and the weights carry the conversions:

    u = mean_n(r_n [Mbit/s]) - energy_weight * sum_n(x_n [mW])
        - interference_weight * (chi [mW])

These formulas are computed only by :func:`vlcudn.kernels.action_utilities`,
for every candidate power vector of a slot at once; the scalar reference
the tests compare it with is in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkParams:
    total_bandwidth: float  # Hz
    noise_psd: float  # A^2/Hz
    effective_bandwidth_factor: float = 1.0

    def __post_init__(self):
        if self.total_bandwidth <= 0.0:
            raise ValueError("total_bandwidth must be positive")
        if self.noise_psd <= 0.0:
            raise ValueError("noise_psd must be positive")
        if not 0.0 < self.effective_bandwidth_factor <= 1.0:
            raise ValueError("effective_bandwidth_factor must be in (0, 1]")


@dataclass(frozen=True)
class UtilityWeights:
    """Trade-off weights; both are utility per mW of the penalized quantity."""

    energy_weight: float
    interference_weight: float

    def __post_init__(self):
        if self.energy_weight < 0.0 or self.interference_weight < 0.0:
            raise ValueError("weights must be non-negative")


def per_ue_bandwidth(params: LinkParams, n_ues: int) -> float:
    """Bandwidth share W_n of each of n equal users, in Hz."""
    return params.effective_bandwidth_factor * params.total_bandwidth / n_ues
