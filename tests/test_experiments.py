"""Smoke + shape tests for every experiment driver (small parameters).

The full-scale sweeps live in ``benchmarks/``; these tests verify that each
driver runs, produces the expected row structure, and that the paper's
qualitative claims hold at reduced scale.
"""

import pytest

from repro.experiments import (
    fig5_overhead,
    fig6_modechange,
    fig7_scheduling,
    fig8_casestudy,
    fig9_pbft,
    fig11_testbed,
    timescales,
)


class TestTimescales:
    def test_table_matches_paper(self):
        assert len(timescales.TABLE_1) == 8
        windows = [row["window_us"] for row in timescales.TABLE_1]
        assert min(windows) == 20  # DC/DC converters
        assert max(windows) == 500_000  # building control

    def test_feasible_applications(self):
        # A 200 ms recovery (the paper's testbed) suits building control.
        apps = timescales.feasible_applications(200_000)
        assert apps == ["Energy-efficient building control"]
        # A 50 ms recovery adds vehicle steering.
        assert "Autonomous vehicle steering" in timescales.feasible_applications(50_000)


class TestFig5:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig5_overhead.run(sizes=(4, 12, 24), rounds=15, rsa_bits=256)

    def test_rows_structure(self, rows):
        assert len(rows) == 6  # 3 sizes x 2 variants
        assert {r["variant"] for r in rows} == {"basic", "multi"}

    def test_shape(self, rows):
        checks = fig5_overhead.check_shape(rows)
        failed = [k for k, ok in checks.items() if not ok]
        assert not failed, f"shape checks failed: {failed}"


class TestFig6:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig6_modechange.run(n=20, fault_round=30, total_rounds=50, rsa_bits=256)

    def test_initially_all_in_root_mode(self, rows):
        assert rows[10]["frac_initial"] == 1.0

    def test_converges_after_fault(self, rows):
        summary = fig6_modechange.summarize(rows, fault_round=30)
        assert summary["converged_round"] is not None
        assert summary["rounds_to_converge"] <= 15

    def test_bandwidth_spikes(self, rows):
        summary = fig6_modechange.summarize(rows, fault_round=30)
        assert summary["bandwidth_spike_factor"] > 1.5


class TestFig7:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig7_scheduling.run(sizes=(10, 25), fmax_values=(1, 2),
                                   samples_per_layer=3)

    def test_shape(self, rows):
        checks = fig7_scheduling.check_shape(rows)
        failed = [k for k, ok in checks.items() if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_small_cells_exact(self, rows):
        small = next(r for r in rows if r["n"] == 10 and r["fmax"] == 1)
        assert small["method"] == "exact"
        assert small["modes"] == 11


class TestFig8:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig8_casestudy.run(
            fconc_values=(None, 1, 3), n=15, rounds=20, rsa_bits=256
        )

    def test_shape(self, rows):
        checks = fig8_casestudy.check_shape(rows)
        failed = [k for k, ok in checks.items() if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_payload_constant_across_configs(self, rows):
        payloads = [r["payload_kb_per_node_round"] for r in rows]
        assert max(payloads) < 2 * min(payloads) + 0.01


class TestFig9:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig9_pbft.run(
            f_values=(1, 2), node_counts=(25,), workloads_per_cell=5
        )

    def test_shape(self, rows):
        checks = fig9_pbft.check_shape(rows)
        failed = [k for k, ok in checks.items() if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_normalization(self, rows):
        assert all(r["pbft_normalized"] == 1.0 for r in rows)


class TestFig10:
    @pytest.fixture
    def results(self, fig10_results):
        return fig10_results

    def test_protected_scenario(self, results):
        protected = results["attack_rebound"]
        assert protected["excursion_mph"] < 2.0
        assert protected["recovery_ms"] is not None
        assert protected["recovery_ms"] <= 100.0

    def test_unprotected_worse_than_protected(self, results):
        assert (
            results["attack_unprotected"]["excursion_mph"]
            > 10 * results["attack_rebound"]["excursion_mph"]
        )

    def test_series_sampled_every_round(self, results):
        series = results["normal"]["series"]
        assert len(series) == int(1.2 * 100)  # 10 ms rounds


class TestFig11:
    @pytest.fixture(scope="class")
    def results(self):
        return fig11_testbed.run_all(post_rounds=25)

    def test_shape(self, results):
        checks = fig11_testbed.check_shape(results)
        failed = [k for k, ok in checks.items() if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_recovery_about_five_rounds(self, results):
        """Paper S5.8: end-to-end recovery ~5 rounds (200 ms at 40 ms)."""
        run = results["c_n3_rebound"]
        recoveries = [
            t["recovery_rounds_after_fault"]
            for t in run["traces"].values()
            if t["recovery_rounds_after_fault"] is not None and t["disrupted_rounds"]
        ]
        assert recoveries
        assert all(2 <= r <= 8 for r in recoveries)
