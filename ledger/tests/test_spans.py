"""Span table and self-time arithmetic."""

import time

import pytest

from spans import SPANS, Tracer, resolve


class _Clock:
    now = 0

    def __call__(self) -> int:
        return self.now


CLOCK = _Clock()


class Tree:
    """outer -> inner -> (leaf, inner -> (leaf, inner -> leaf)), then leaf."""

    def leaf(self):
        CLOCK.now += 5

    def inner(self, depth):
        CLOCK.now += 10
        self.leaf()
        if depth:
            self.inner(depth - 1)

    def outer(self):
        CLOCK.now += 100
        self.inner(2)
        self.leaf()


@pytest.fixture
def fake_clock(monkeypatch):
    CLOCK.now = 0
    monkeypatch.setattr(time, "perf_counter_ns", CLOCK)


def test_self_time_on_nested_and_recursive_calls(fake_clock):
    table = {name: f"{__name__}:Tree.{name}" for name in ("outer", "inner", "leaf")}
    tracer = Tracer(table, keep_spans=True)
    tracer.install()
    try:
        Tree().outer()
        tracer.flush("round")
        Tree().leaf()
        tracer.flush("other")
    finally:
        tracer.uninstall()
    assert tracer.totals("round") == {"outer": (100, 1), "inner": (30, 3), "leaf": (20, 4)}
    assert tracer.totals("other")["leaf"] == (5, 1)
    # Self times add up to the root's duration: nothing is counted twice.
    root = next(s for s in tracer.spans if tracer.names[s[0]] == "outer")
    assert root[2] == 150 == sum(v[0] for v in tracer.totals("round").values())
    assert not hasattr(Tree.outer, "__wrapped__")  # uninstall restored the original


def test_every_span_resolves_at_this_commit():
    for name, path in SPANS.items():
        assert callable(resolve(path)[2]), name


def test_vanished_target_is_listed_not_raised(capsys):
    table = {
        "gone.method": "repro.core.forwarding:ForwardingLayer.no_such_method",
        "gone.module": "repro.no_such_module:function",
        "kept": "repro.net.message:encode",
    }
    tracer = Tracer(table)
    tracer.install()
    tracer.uninstall()
    assert tracer.unresolved == ["gone.method", "gone.module"]
    assert "unresolved spans" in capsys.readouterr().err
    assert list(tracer.totals("round")) == ["kept"]


def test_by_name_imports_are_wrapped_and_restored():
    import repro.core.forwarding as forwarding
    import repro.net.message as message

    original = message.encode
    tracer = Tracer({"net.message.encode": SPANS["net.message.encode"]})
    tracer.install()
    try:
        assert forwarding.encode is not original
        assert message.encode is original  # calls inside the layer stay unwrapped
        assert forwarding.encode(7) == original(7)
    finally:
        tracer.uninstall()
    assert forwarding.encode is original
    tracer.flush("round")
    assert tracer.totals("round")["net.message.encode"][1] == 1
