"""Directed tests for less-travelled branches across the stack."""

import pytest

from repro.crypto.cost_model import CryptoCostModel, CryptoCounters
from repro.core.identity import Directory
from repro.sched.ilp import ILPStatus, ZeroOneILP


class TestILPTimeLimit:
    def test_time_limit_reported(self):
        """A hard subset-sum with a microscopic budget must time out."""
        ilp = ZeroOneILP()
        weights = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                   53, 59, 61, 67, 71, 73, 79, 83]
        for i, w in enumerate(weights):
            ilp.add_variable(f"x{i}", cost=-w)
        ilp.add_constraint(
            {f"x{i}": w for i, w in enumerate(weights)}, "<=", sum(weights) // 2
        )
        solution = ilp.solve(time_limit_s=0.0005)
        if solution.status == ILPStatus.TIME_LIMIT:
            # An incumbent (if any) is still a feasible assignment.
            if solution.assignment:
                used = sum(
                    w for i, w in enumerate(weights)
                    if solution.assignment.get(f"x{i}")
                )
                assert used <= sum(weights) // 2
        else:
            # Fast machines may legitimately finish; then it must be optimal.
            assert solution.status == ILPStatus.OPTIMAL

    def test_nodes_explored_counted(self):
        ilp = ZeroOneILP()
        ilp.add_variable("a", cost=-1)
        solution = ilp.solve()
        assert solution.nodes_explored >= 1


class TestMultisigSerialization:
    def test_signature_bytes_roundtrip_size(self):
        """A MULTI record signature is one group element on the wire, and
        ms_verify_record reads back what sign_record wrote."""
        directory = Directory(rsa_bits=256, multisig_bits=128, seed=1)
        for node in (0, 1):
            directory.register(node)
        signer, checker = directory.crypto_for(0), directory.crypto_for(1)
        raw, value = signer.sign_record(b"m", multi=True)
        assert len(raw) == directory.group.element_size
        assert int.from_bytes(raw, "big") == value
        assert checker.ms_verify_record(0, b"m", raw)
        assert not checker.ms_verify_record(1, b"m", raw)
        assert not checker.ms_verify_record(0, b"other", raw)
        counts = signer.total_counters()
        assert (counts.ms_sign, counts.rsa_sign) == (1, 0)

    def test_basic_record_signature_is_rsa(self):
        directory = Directory(rsa_bits=256, multisig_bits=128, seed=1)
        directory.register(0)
        signer = directory.crypto_for(0)
        raw, value = signer.sign_record(b"m", multi=False)
        assert value is None
        assert signer.verify(0, b"m", raw)
        counts = signer.total_counters()
        assert (counts.ms_sign, counts.rsa_sign) == (0, 1)


class TestCostModelProfiles:
    def test_rpi4_profile(self):
        """The testbed profile carries the paper's S4.1 timings."""
        model = CryptoCostModel(profile="rpi4")
        sign_only = CryptoCounters(rsa_sign=1)
        verify_only = CryptoCounters(rsa_verify=1)
        assert model.cpu_seconds(sign_only) == pytest.approx(750e-6)
        assert model.cpu_seconds(verify_only) == pytest.approx(49e-6)


class TestPathSetCollisions:
    def test_conflicting_paths_same_id_rejected(self):
        from repro.core.paths import PATH_DATA, Path, PathSet

        a = Path(path_id=1, kind=PATH_DATA, hops=(0, 1), flow_id=0,
                 task_from=1, copy_from=0, task_to=2, copy_to=0)
        b = Path(path_id=1, kind=PATH_DATA, hops=(0, 2), flow_id=0,
                 task_from=1, copy_from=0, task_to=2, copy_to=0)
        with pytest.raises(ValueError):
            PathSet([a, b])

    def test_identical_duplicate_tolerated(self):
        from repro.core.paths import PATH_DATA, Path, PathSet

        a = Path(path_id=1, kind=PATH_DATA, hops=(0, 1), flow_id=0,
                 task_from=1, copy_from=0, task_to=2, copy_to=0)
        assert len(PathSet([a, a])) == 1


class TestMaxFailDistanceHeuristic:
    def test_heuristic_on_larger_graph(self):
        from repro.net.topology import erdos_renyi_topology

        topo = erdos_renyi_topology(30, seed=6)
        base = topo.shortest_path_length(0, 29)
        # Force the sampling path with exact_limit=0.
        estimate = topo.max_fail_distance(0, 29, fmax=2, exact_limit=0, samples=60)
        assert estimate >= base


class TestNetworkLinkHelpers:
    def test_link_failed_flag(self):
        from repro.net.network import RoundNetwork
        from repro.net.topology import line_topology

        net = RoundNetwork(line_topology(2))
        assert not net.link_failed(0, 1)
        net.fail_link(0, 1)
        assert net.link_failed(0, 1)
        assert net.link_failed(1, 0)  # symmetric
        net.heal_link(1, 0)
        assert not net.link_failed(0, 1)

    def test_revive_node(self):
        from repro.net.network import RoundNetwork
        from repro.net.topology import line_topology

        net = RoundNetwork(line_topology(2))
        net.crash_node(0)
        assert net.is_crashed(0)
        net.revive_node(0)
        assert not net.is_crashed(0)


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        from repro.core.config import ReboundConfig

        with pytest.raises(ValueError):
            ReboundConfig(fmax=-1)
        with pytest.raises(ValueError):
            ReboundConfig(fmax=1, fconc=2)
        with pytest.raises(ValueError):
            ReboundConfig(variant="turbo")
        with pytest.raises(ValueError):
            ReboundConfig(round_length_us=0)
        with pytest.raises(ValueError):
            ReboundConfig(utilization_cap=0.0)

    def test_round_conversions(self):
        from repro.core.config import ReboundConfig

        cfg = ReboundConfig(round_length_us=40_000)
        assert cfg.round_length_ms == pytest.approx(40.0)
