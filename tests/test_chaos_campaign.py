"""Tests for the chaos campaign runner, shrinker, and report."""

import json

import pytest

from repro.chaos import campaign
from repro.chaos import (
    BEHAVIORS,
    PLANS,
    CampaignCell,
    ImpairmentPlan,
    run_campaign,
    run_cell,
    shrink_cell,
)
from repro.core.runtime import ReboundSystem


class TestMatrix:
    def test_presets_cover_everything(self):
        smoke = campaign.smoke_cells()
        storm = campaign.storm_cells()
        restart = campaign.restart_cells()
        churn = campaign.churn_cells()
        covered = (
            {c.behavior for c in smoke}
            | {c.behavior for c in storm}
            | {c.behavior for c in restart}
            | {c.behavior for c in churn}
        )
        assert covered == set(BEHAVIORS)
        # Durability behaviors live in the restart preset only, churn arcs
        # in the churn preset only; the rest are all reachable without
        # either.
        durable = {name for name, spec in BEHAVIORS.items() if spec.durability}
        arcs = {name for name, spec in BEHAVIORS.items() if spec.arc is not None}
        assert durable <= {c.behavior for c in restart}
        assert arcs == {c.behavior for c in churn}
        assert {c.behavior for c in smoke} | {c.behavior for c in storm} == (
            set(BEHAVIORS) - durable - arcs
        )
        assert {c.plan for c in smoke} == set(PLANS)
        for cells in (smoke, storm, restart, churn):
            ids = [c.cell_id for c in cells]
            assert len(ids) == len(set(ids))
        # One restart cell per log-tamper mode, two seeds of >fmax drift.
        tamper = [c for c in restart if BEHAVIORS[c.behavior].expect_tamper]
        assert sorted(c.behavior for c in tamper) == [
            "tamper-bitflip", "tamper-splice", "tamper-truncate"
        ]
        assert [c.seed for c in churn if c.behavior == "drift-overflow"] == [0, 1]

    def test_storm_preset_targets_the_evidence_layer(self):
        cells = campaign.storm_cells()
        assert {c.behavior for c in cells} == {
            "equivocate", "epoch-split", "evidence-flood"
        }
        # the 20-node grid spot checks from the issue's acceptance criteria
        assert any(
            c.topology == "grid4x5" and c.behavior == "evidence-flood"
            for c in cells
        )

    def test_smoke_preset_has_both_budget_classes(self):
        cells = campaign.smoke_cells()
        oob = {"drop-global", "corrupt-global", "delay-global",
               "storm-global", "partition", "flap-many"}
        assert any(c.plan in oob for c in cells)
        assert any(c.plan not in oob for c in cells)

    def test_no_known_issues_remain_open(self):
        """The equivocation gap is fixed: its cells run in smoke and storm
        with the detection deadline armed, judged like any other cell."""
        assert BEHAVIORS["equivocate"].observable
        for cells in (campaign.smoke_cells(), campaign.storm_cells()):
            assert any(c.behavior == "equivocate" for c in cells)


class TestCells:
    def test_in_budget_cell_passes_clean(self):
        result = run_cell(CampaignCell("er6", "none", "drop-link", 0))
        assert result["outcome"] == "pass"
        assert result["in_budget"]
        assert result["violations"] == []
        assert not result["budget_exceeded"]
        assert result["detection_round"] is not None
        assert result["rounds_to_recovery"] is not None

    def test_out_of_budget_cell_degrades_gracefully(self):
        result = run_cell(CampaignCell("er6", "none", "drop-global", 0))
        assert result["outcome"] == "pass"
        assert not result["in_budget"]
        assert result["budget_exceeded"]
        # graceful: no crash, no hard-accuracy violation
        assert "crash" not in result
        assert not any(
            v["repro"].get("layer") == "evidence" for v in result["violations"]
        )

    def test_adversary_plus_impairment_cell(self):
        result = run_cell(CampaignCell("er6", "crash", "dup", 0))
        assert result["outcome"] == "pass"
        assert result["in_budget"]
        assert result["rounds_to_recovery"] is not None

    def test_equivocation_cell_passes_clean(self):
        """Formerly the tagged known-gap cell: with epoch-aware Rule B
        attribution it must now pass outright, zero violations."""
        result = run_cell(CampaignCell("er6", "equivocate", "dup", 0))
        assert result["outcome"] == "pass"
        assert result["violations"] == []

    def test_lfd_storm_recovers_once_no_mode_hosts_the_victim(self, monkeypatch):
        """Req. 2 holds only once no correct node's mode places a task on
        the attacker: an agreed mode that still hosts the LFD-storming
        node is not a recovery."""
        clear_rounds = []
        run_round = ReboundSystem.run_round

        def run_round_and_look(system):
            run_round(system)
            hosts = {
                host
                for n in system.correct_controllers()
                for host in system.nodes[n].current_schedule.placements.values()
            }
            if system.true_faulty_nodes and not hosts & system.true_faulty_nodes:
                clear_rounds.append(system.round_no)

        monkeypatch.setattr(ReboundSystem, "run_round", run_round_and_look)
        result = run_cell(CampaignCell("er6", "lfd-storm", "none", 0))
        assert result["outcome"] == "pass"
        assert clear_rounds
        assert result["recovery_round"] == clear_rounds[0]

    def test_tamper_detection_fails_a_clean_restart(self, monkeypatch):
        """A tamper detection on a restart whose log nobody touched is a
        false alarm, and the cell fails on it."""
        restart = ReboundSystem.restart_from_durable

        def restart_with_false_alarm(system, node_id):
            result = restart(system, node_id)
            system.durability_tamper_detections.append({
                "node": node_id, "round": system.round_no,
                "reason": "stub", "refused_records": 0,
            })
            return result

        monkeypatch.setattr(
            ReboundSystem, "restart_from_durable", restart_with_false_alarm
        )
        cell = next(
            c for c in campaign.restart_cells()
            if c.cell_id == "er6/crash-restart/none/s0/multi"
        )
        result = run_cell(cell)
        assert result["tamper_detections"] == 1
        assert result["outcome"] == "fail"
        assert result["fail_reason"] == "tamper detected on a clean restart"


class TestShrinker:
    def test_shrinks_plan_and_adversary_and_rounds(self, monkeypatch):
        """Greedy shrink against a fake oracle: failure iff drop_prob > 0.
        The minimal repro must lose the other components, the adversary,
        and most of the rounds."""

        def fake_run_cell(cell):
            plan = cell.plan_override
            failing = plan is not None and plan.drop_prob > 0
            return {"outcome": "fail" if failing else "pass"}

        monkeypatch.setattr(campaign, "run_cell", fake_run_cell)
        cell = CampaignCell(
            "er6", "crash", "storm-global", 0,
            plan_override=ImpairmentPlan(
                seed=0, drop_prob=0.1, dup_prob=0.2, corrupt_prob=0.1,
                delay_prob=0.15, reorder_prob=0.5,
            ),
        )
        shrunk = shrink_cell(cell)
        assert shrunk["behavior"] == "none"
        assert shrunk["rounds"] <= cell.rounds // 2
        plan = shrunk["plan"]
        assert plan["drop_prob"] > 0
        assert plan["dup_prob"] == 0
        assert plan["corrupt_prob"] == 0
        assert plan["delay_prob"] == 0
        assert plan["reorder_prob"] == 0

    def test_shrink_attempt_budget(self, monkeypatch):
        calls = []

        def fake_run_cell(cell):
            calls.append(cell)
            return {"outcome": "fail"}

        monkeypatch.setattr(campaign, "run_cell", fake_run_cell)
        shrink_cell(
            CampaignCell("er6", "none", "storm-global", 0),
            max_attempts=5,
        )
        assert len(calls) <= 5


class TestReport:
    def test_report_shape_and_output_file(self, tmp_path):
        out = tmp_path / "BENCH_chaos.json"
        report = run_campaign(
            preset="smoke", max_cells=3, shrink=False, output_path=str(out)
        )
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk["benchmark"] == "chaos"
        assert on_disk["cell_count"] == 3
        assert set(on_disk["matrix"]) == {"pass", "fail", "crash"}
        assert on_disk["env"]["cpu_count"]
        assert "violation_census" in on_disk
        assert "recovery_rounds" in on_disk
        assert on_disk["noop_transcript_identical"] is True
        assert report["matrix"]["fail"] == 0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(preset="nope", output_path=None)
