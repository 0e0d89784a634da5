"""Telemetry registry: self-registered components back fastpath_stats()."""

import pytest

from repro.analysis.metrics import fastpath_stats, reset_fastpath_stats
from repro.obs import registry

#: every fast-path component the system ships; the canonical key set used
#: by benchmarks and BENCH json diffs.
EXPECTED_COMPONENTS = {
    "rsa_sign",
    "verify_cache",
    "multisig_batch",
    "codec_memo",
    "coverage_cache",
    "ilp_solver",
    "place_memo",
    "edf_memo",
    "modegen_lookup",
}


class TestDefaultComponents:
    def test_all_components_registered(self):
        registry.ensure_default_components()
        assert EXPECTED_COMPONENTS <= set(registry.components())

    def test_every_component_exposes_stats_and_reset(self):
        """The registry contract: each component has working callables."""
        registry.ensure_default_components()
        for name, component in registry.components().items():
            assert callable(component.stats), name
            assert callable(component.reset), name
            snapshot = component.stats()
            assert isinstance(snapshot, dict), name
            component.reset()  # must not raise
            # After a reset, every numeric *counter* reads zero;
            # capacity/entries describe the cache itself, which a stats
            # reset keeps.
            for key, value in component.stats().items():
                assert key != "enabled", f"{name} reports an on/off switch"
                if key in ("capacity", "entries"):
                    continue
                if isinstance(value, (int, float)):
                    assert value == 0, f"{name}.{key} survived reset"

    def test_stats_snapshot_keys_match_components(self):
        registry.ensure_default_components()
        assert set(registry.stats_snapshot()) == set(registry.components())

    def test_reset_all_returns_names(self):
        registry.ensure_default_components()
        names = registry.reset_all()
        assert EXPECTED_COMPONENTS <= set(names)


class TestFastpathWrappers:
    def test_fastpath_stats_covers_all_components(self):
        stats = fastpath_stats()
        assert EXPECTED_COMPONENTS <= set(stats)
        for name, counters in stats.items():
            assert isinstance(counters, dict), name

    def test_reset_zeroes_counters(self):
        from repro.crypto import rsa

        pair = rsa.RSAKeyPair(bits=256, seed=7)
        pair.sign(b"count me")
        assert fastpath_stats()["rsa_sign"]["crt_signs"] >= 1
        reset_fastpath_stats()
        assert fastpath_stats()["rsa_sign"]["crt_signs"] == 0


class TestRegisterApi:
    def test_register_and_unregister(self):
        calls = []
        registry.register("test_component", lambda: {"x": 1}, lambda: calls.append(1))
        try:
            assert "test_component" in registry.components()
            assert fastpath_stats()["test_component"] == {"x": 1}
            registry.reset_all()
            assert calls == [1]
        finally:
            registry.unregister("test_component")
        assert "test_component" not in registry.components()
        assert "test_component" not in fastpath_stats()

    def test_register_rejects_non_callables(self):
        with pytest.raises(TypeError):
            registry.register("bad", {"not": "callable"}, lambda: None)
        with pytest.raises(TypeError):
            registry.register("bad", lambda: {}, "nope")
        assert "bad" not in registry.components()

    def test_unregister_missing_is_noop(self):
        registry.unregister("never_registered")


class TestMergeStatsSnapshots:
    def test_counters_sum_and_config_keys_keep_base(self):
        base = {
            "verify_cache": {
                "hits": 10, "misses": 10, "hit_rate": 0.5,
                "capacity": 1024, "entries": 7,
            }
        }
        extras = [
            {"verify_cache": {"hits": 30, "misses": 0, "hit_rate": 1.0,
                              "capacity": 1024, "entries": 3}},
            {"verify_cache": {"hits": 0, "misses": 10, "hit_rate": 0.0}},
        ]
        merged = registry.merge_stats_snapshots(base, extras)
        vc = merged["verify_cache"]
        assert vc["hits"] == 40 and vc["misses"] == 20
        # Non-additive keys keep the parent's value, never a sum.
        assert vc["capacity"] == 1024
        assert vc["entries"] == 7
        # hit_rate is recomputed from the merged counters, not summed.
        assert vc["hit_rate"] == pytest.approx(40 / 60)

    def test_engine_shape_keys_are_not_summed(self):
        base = {
            "round_engine": {
                "workers": 2, "shard_sizes": [10, 9], "parent_resident": 1,
                "rounds": 5,
            },
            "round_profile": {"rounds": 5, "mean_round_ms": 12.0},
        }
        extras = [
            {"round_engine": {"workers": 2, "shard_sizes": [10, 9],
                              "parent_resident": 1, "rounds": 5},
             "round_profile": {"rounds": 5, "mean_round_ms": 30.0}},
        ]
        merged = registry.merge_stats_snapshots(base, extras)
        assert merged["round_engine"]["workers"] == 2
        assert merged["round_engine"]["shard_sizes"] == [10, 9]
        assert merged["round_engine"]["parent_resident"] == 1
        assert merged["round_profile"]["mean_round_ms"] == 12.0
        # Genuinely additive counters still sum.
        assert merged["round_engine"]["rounds"] == 10

    def test_component_only_in_extras_is_adopted(self):
        merged = registry.merge_stats_snapshots(
            {}, [{"codec_memo": {"hits": 2}}, {"codec_memo": {"hits": 3}}]
        )
        assert merged["codec_memo"]["hits"] == 5

    def test_base_untouched(self):
        base = {"c": {"hits": 1}}
        registry.merge_stats_snapshots(base, [{"c": {"hits": 9}}])
        assert base == {"c": {"hits": 1}}
