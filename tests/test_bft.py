"""Tests for the Fig. 9 replication scheduling models."""

import pytest

from repro.bft.replication import (
    pbft_model,
    rebound_model,
    sync_bft_model,
    useful_utilization,
)
from repro.sched.workload import WorkloadGenerator


class TestReplicationModels:
    def test_copy_counts(self):
        assert pbft_model().copies(1) == 4
        assert pbft_model().copies(3) == 10
        assert sync_bft_model().copies(2) == 5
        assert rebound_model().copies(1) == 2
        assert rebound_model().copies(3) == 4

    def test_rebound_packs_more(self):
        """Fig. 9's headline: REBOUND supports ~(3f+1)/(f+1)x the workload."""
        wl = WorkloadGenerator(seed=3).workload(target_utilization=30.0)
        n, f = 25, 1
        u_pbft = useful_utilization(wl, n, f, pbft_model())
        u_rebound = useful_utilization(wl, n, f, rebound_model())
        assert u_rebound > u_pbft
        ratio = u_rebound / u_pbft
        expected = (3 * f + 1) / (f + 1)  # = 2.0
        assert ratio == pytest.approx(expected, rel=0.3)

    def test_sync_bft_between(self):
        wl = WorkloadGenerator(seed=5).workload(target_utilization=30.0)
        n, f = 25, 2
        u_pbft = useful_utilization(wl, n, f, pbft_model())
        u_sync = useful_utilization(wl, n, f, sync_bft_model())
        u_rebound = useful_utilization(wl, n, f, rebound_model())
        assert u_pbft <= u_sync <= u_rebound

    def test_infeasible_when_copies_exceed_nodes(self):
        wl = WorkloadGenerator(seed=1).workload(target_utilization=2.0)
        assert useful_utilization(wl, n_nodes=3, f=1, model=pbft_model()) == 0.0
