"""Tests for timing configuration."""

import pytest

from repro.consensus.timing import TimingConfig
from repro.errors import ConfigurationError


class TestDefaults:
    def test_paper_intra_cluster_values(self):
        timing = TimingConfig.intra_cluster()
        assert timing.heartbeat_interval == pytest.approx(0.100)
        assert timing.member_timeout_beats == 5

    def test_paper_inter_cluster_values(self):
        timing = TimingConfig.inter_cluster()
        assert timing.heartbeat_interval == pytest.approx(0.500)
        assert timing.election_timeout_min >= 3 * timing.heartbeat_interval

    def test_decision_interval_defaults_to_half_heartbeat(self):
        timing = TimingConfig(heartbeat_interval=0.2)
        assert timing.effective_decision_interval == pytest.approx(0.1)

    def test_explicit_decision_interval(self):
        timing = TimingConfig(decision_interval=0.02)
        assert timing.effective_decision_interval == pytest.approx(0.02)


class TestValidation:
    def test_nonpositive_heartbeat_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingConfig(heartbeat_interval=0)

    def test_election_shorter_than_heartbeat_rejected(self):
        # "the election timeout cannot be shorter than message delays,
        # otherwise ... no progress can be made"
        with pytest.raises(ConfigurationError):
            TimingConfig(heartbeat_interval=0.5,
                         election_timeout_min=0.3,
                         election_timeout_max=0.6)

    def test_inverted_election_range_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingConfig(election_timeout_min=0.9,
                         election_timeout_max=0.5)

    def test_bad_member_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingConfig(member_timeout_beats=0)

    def test_bad_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingConfig(max_append_batch=0)


class TestOverrides:
    def test_frozen(self):
        with pytest.raises(Exception):
            TimingConfig().heartbeat_interval = 1.0
