"""Per-UE bandwidth arithmetic against frozen hand values."""

import pytest

from oracles import per_ue_bandwidth
from vlcudn.config import load_experiment


class TestPerUeBandwidth:
    """ExperimentConfig.per_ue_bandwidth on the [link] keys (20 MHz, factor 0.5)."""

    def test_single_ue_gets_effective_band(self, make_config):
        cfg = load_experiment(make_config({"experiment.ue_density": 1}))
        assert cfg.per_ue_bandwidth() == pytest.approx(10e6, rel=1e-12)

    def test_four_ues_share_equally(self, make_config):
        cfg = load_experiment(make_config({"experiment.ue_density": 4}))
        assert cfg.per_ue_bandwidth() == pytest.approx(2.5e6, rel=1e-12)

    def test_unit_factor(self, make_config):
        cfg = load_experiment(make_config({"link.effective_bandwidth_factor": 1.0}))
        assert cfg.per_ue_bandwidth() == pytest.approx(10e6, rel=1e-12)
        assert cfg.per_ue_bandwidth() == per_ue_bandwidth(cfg, cfg.ue_density)
