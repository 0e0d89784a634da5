"""Smoke tests for the command-line interface."""

from dataclasses import replace

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(parser._actions[-1])) and hasattr(a, "choices")
            and a.choices
        )
        assert {
            "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"
        } <= set(sub.choices)

    def test_int_list_parsing(self):
        from repro.cli import _int_list

        assert _int_list("4,10,20") == [4, 10, 20]
        assert _int_list("7") == [7]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


@pytest.fixture
def tiny_runs(monkeypatch, figure_result):
    """Serve each figure's tiny-scale run from the cache the figure tests
    share."""
    from repro.experiments.report import FIGURES

    for name, figure in list(FIGURES.items()):
        def run(_name=name, _figure=figure, **kwargs):
            assert kwargs == _figure.params["tiny"]
            return figure_result(_name)

        monkeypatch.setitem(FIGURES, name, replace(figure, run=run))


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "DC/DC converters" in out

    def test_fig5_small(self, capsys, tiny_runs):
        assert main(["fig5", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "basic" in out and "multi" in out
        assert "✘" not in out

    def test_fig7_small(self, capsys, tiny_runs):
        assert main(["fig7", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "`mode_counts_match_formula`" in out

    def test_figures_take_only_a_scale(self):
        parser = build_parser()
        assert parser.parse_args(["fig9"]).scale == "small"
        with pytest.raises(SystemExit):
            parser.parse_args(["fig5", "--sizes", "4,8"])

    @pytest.mark.parametrize("ok,code", [(True, 0), (False, 1)])
    def test_report_exit_code_follows_checks(self, monkeypatch, tmp_path, ok, code):
        from repro import cli

        checks = {"fig5": {"a": True}, "fig9": {"b": ok}}
        monkeypatch.setattr(cli, "generate_report", lambda scale: ("#\n", checks))
        assert main(["report", "--out", str(tmp_path / "r.md")]) == code


class TestTraceCommand:
    def test_trace_subcommand_registered(self):
        parser = build_parser()
        args = parser.parse_args(["trace"])
        assert args.preset == "smoke"
        assert args.rounds is None
        args = parser.parse_args(
            ["trace", "--preset", "equivocation-gap", "--rounds", "20",
             "--jsonl", "x.jsonl", "--chrome", "x.json"]
        )
        assert args.preset == "equivocation-gap"
        assert args.rounds == 20

    def test_trace_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--preset", "nope"])

    def test_trace_presets_are_runnable_specs(self):
        from repro.experiments.trace_run import PRESETS

        assert set(PRESETS) == {"smoke", "equivocation-gap"}
        for preset in PRESETS.values():
            assert preset.fault_round < preset.rounds
            assert callable(preset.behavior_factory)
            assert callable(preset.topology_factory)

    def test_every_trace_preset_is_gated(self):
        """No preset is diagnosis-only any more: with the equivocation gap
        closed, both presets exit non-zero on a regression."""
        from repro.experiments.trace_run import PRESETS

        assert not any(p.diagnosis_only for p in PRESETS.values())


class TestChaosCommand:
    def test_chaos_presets_registered(self):
        parser = build_parser()
        args = parser.parse_args(["chaos", "--preset", "storm"])
        assert args.preset == "storm"
        assert args.live is False
        assert parser.parse_args(["chaos", "--live"]).live is True
        with pytest.raises(SystemExit):
            parser.parse_args(["chaos", "--preset", "nope"])


class TestTraceValidate:
    def test_validate_good_and_bad_files(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        good.write_text(
            '{"schema": 3, "kind": 1, "node": 0, "round": 1, "seq": 0, '
            '"data": {"delta": 0}}\n'
        )
        assert main(["trace", "--validate", str(good)]) == 0
        assert "1 schema-valid" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": 1}\n')
        assert main(["trace", "--validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out
        assert main(["trace", "--validate", str(tmp_path / "missing")]) == 1


class TestTopCommand:
    def test_top_once_renders_headless(self, capsys):
        # The smoke preset crashes a node at round 10 and recovers by 16.
        assert main(["top", "--rounds", "20", "--once"]) == 0
        out = capsys.readouterr().out
        assert "rebound top [smoke]" in out
        assert "round 20/20" in out
        assert "btr:" in out and "nodes:" in out
        assert "recovered" in out
        assert "\x1b[" not in out  # headless frame carries no ANSI codes

    def test_top_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["top", "--preset", "nope"])
