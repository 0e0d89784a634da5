"""Telemetry registry: every fast-path component registers itself."""

import pytest

from repro.obs import registry

#: every process-wide component the system ships, exactly: per-system
#: state (the verdict memo, quotas, auditors) is not registered here.
EXPECTED_COMPONENTS = {
    "codec_memo",
    "ilp_solver",
}


class TestDefaultComponents:
    def test_all_components_registered(self):
        registry.ensure_default_components()
        assert set(registry.components()) == EXPECTED_COMPONENTS

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
    def test_snapshot_covers_all_components(self):
        registry.ensure_default_components()
        stats = registry.stats_snapshot()
        assert EXPECTED_COMPONENTS <= set(stats)
        for name, counters in stats.items():
            assert isinstance(counters, dict), name

    def test_reset_zeroes_counters(self):
        from repro.net import message

        message.encode((7, b"count me"))
        message.encode((7, b"count me"))
        assert registry.stats_snapshot()["codec_memo"]["hits"] >= 1
        registry.reset_all()
        assert registry.stats_snapshot()["codec_memo"]["hits"] == 0


class TestRegisterApi:
    def test_register_and_unregister(self):
        calls = []
        registry.register("test_component", lambda: {"x": 1}, lambda: calls.append(1))
        try:
            assert "test_component" in registry.components()
            assert registry.stats_snapshot()["test_component"] == {"x": 1}
            registry.reset_all()
            assert calls == [1]
        finally:
            registry.unregister("test_component")
        assert "test_component" not in registry.components()
        assert "test_component" not in registry.stats_snapshot()

    def test_register_rejects_non_callables(self):
        with pytest.raises(TypeError):
            registry.register("bad", {"not": "callable"}, lambda: None)
        with pytest.raises(TypeError):
            registry.register("bad", lambda: {}, "nope")
        assert "bad" not in registry.components()

    def test_unregister_missing_is_noop(self):
        registry.unregister("never_registered")

