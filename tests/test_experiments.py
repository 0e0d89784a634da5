"""Every report section at the ``tiny`` scale of ``report.FIGURES``.

Each section has one test class (a :class:`FigureTest`); its inherited
``test_shape`` asserts that the checks the report prints read ✔, apart
from :data:`KNOWN_RED`.  The other tests pin row structure, and feed each
check rows that contradict its claim: a check that cannot read ✘ shows
nothing.
"""

import copy
import inspect

import pytest

from repro.experiments import timescales
from repro.experiments.report import FIGURES, SCALES

# Checks that read ✘ on the working code.  The ROADMAP item "The headline
# report is red" owns each entry; the change that turns one ✔ deletes it.
KNOWN_RED = {"fig9": {"ratio_grows_with_f"}}


def _checks(name, result):
    return FIGURES[name].check_shape(result)


class FigureTest:
    """Base of one class per ``FIGURES`` entry (collected via subclasses)."""

    name = ""

    @pytest.fixture
    def result(self, figure_result):
        return figure_result(self.name)

    def test_shape(self, result):
        failed = {k for k, ok in _checks(self.name, result).items() if not ok}
        assert failed == KNOWN_RED.get(self.name, set())

    def assert_flips(self, result, check, mutate):
        """``check`` reads ✔ on ``result`` and ✘ once ``mutate`` edits a
        copy of it."""
        assert _checks(self.name, result)[check]
        broken = copy.deepcopy(result)
        mutate(broken)
        assert not _checks(self.name, broken)[check]


def test_every_figure_has_a_test_class():
    assert {cls.name for cls in FigureTest.__subclasses__()} == set(FIGURES)


@pytest.mark.parametrize("name", list(FIGURES))
def test_scales_name_every_entry_point_parameter(name):
    """No figure falls back to a default: every scale names the same
    parameters, and they are all of the entry point's but ``seed``."""
    figure = FIGURES[name]
    assert tuple(figure.params) == SCALES
    names = [set(figure.params[scale]) for scale in SCALES]
    wanted = set(inspect.signature(figure.run).parameters) - {"seed"}
    assert all(n == wanted for n in names)


class TestTimescales(FigureTest):
    name = "table1"

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


class TestFig5(FigureTest):
    name = "fig5"

    def test_rows_structure(self, result):
        sizes = FIGURES["fig5"].params["tiny"]["sizes"]
        assert len(result) == 2 * len(sizes)
        assert {r["variant"] for r in result} == {"basic", "multi"}


class TestFig6(FigureTest):
    name = "fig6"

    def test_initially_all_in_root_mode(self, result):
        self.assert_flips(result, "all_start_in_root_mode",
                          lambda r: r["rows"][10].update(frac_initial=0.9))

    def test_converges_after_fault(self, result):
        def never(r):
            for row in r["rows"]:
                row["frac_final"] = min(row["frac_final"], 0.5)

        self.assert_flips(result, "converges_within_r_max", never)
        self.assert_flips(result, "converges_within_r_max", lambda r: r.update(r_max=0))

    def test_bandwidth_spikes(self, result):
        def flat(r):
            for row in r["rows"]:
                row["bandwidth_kb_per_link"] = 1.0

        self.assert_flips(result, "bandwidth_spikes", flat)


class TestFig7(FigureTest):
    name = "fig7"


class TestFig8(FigureTest):
    name = "fig8"

    def test_payload_constant_across_configs(self, result):
        def doubled(rows):
            rows[-1]["payload_kb_per_node_round"] *= 2

        self.assert_flips(result, "payload_constant_across_configs", doubled)


class TestFig9(FigureTest):
    name = "fig9"

    def test_normalization(self, result):
        assert all(r["pbft_normalized"] == 1.0 for r in result)


class TestFig10(FigureTest):
    name = "fig10"

    def test_protected_scenario(self, result):
        self.assert_flips(result, "rebound_excursion_small",
                          lambda r: r["attack_rebound"].update(excursion_mph=3.0))
        self.assert_flips(result, "recovery_within_100ms",
                          lambda r: r["attack_rebound"].update(recovery_ms=None))

    def test_unprotected_worse_than_protected(self, result):
        def close(r):
            protected = r["attack_rebound"]["excursion_mph"]
            r["attack_unprotected"]["excursion_mph"] = 5 * protected

        self.assert_flips(result, "unprotected_excursion_10x_protected", close)

    def test_series_sampled_every_round(self, result):
        duration_s = FIGURES["fig10"].params["tiny"]["duration_s"]
        assert len(result["normal"]["series"]) == int(duration_s * 100)  # 10 ms


class TestFig11(FigureTest):
    name = "fig11"

    def test_recovery_about_five_rounds(self, result):
        """Paper S5.8: end-to-end recovery ~5 rounds (200 ms at 40 ms)."""
        check = "c_n3_rebound_recovers_in_2_to_8_rounds"

        def slow(r):
            for trace in r["c_n3_rebound"]["traces"].values():
                if trace["recovery_rounds_after_fault"] is not None:
                    trace["recovery_rounds_after_fault"] = 12

        def undisturbed(r):
            for trace in r["c_n3_rebound"]["traces"].values():
                trace["disrupted_rounds"] = []

        self.assert_flips(result, check, slow)
        self.assert_flips(result, check, undisturbed)


class TestAblations(FigureTest):
    name = "ablations"

    def with_as_without(self, result, ablation, check):
        """``check`` fails once the choice saves nothing."""
        self.assert_flips(result, check, lambda r: r[ablation].update(
            {"with": copy.deepcopy(r[ablation]["without"])}))

    def test_expiry_bounds_storage(self, result):
        check = "sec3_5_expiry_bounds_storage"
        self.with_as_without(result, "expiry", check)
        # Storage without expiry that stops growing.
        self.assert_flips(result, check, lambda r: r["expiry"]["without"].append(
            r["expiry"]["without"][0]))

    def test_bus_broadcast_halves_bytes(self, result):
        self.with_as_without(
            result, "bus_broadcast", "sec3_5_bus_broadcast_halves_bytes")

    def test_spot_checking_cuts_verifications(self, result):
        self.with_as_without(
            result, "spot_checking", "sec3_5_spot_checking_cuts_verifications")

    def test_ilp_migrates_no_more_than_greedy(self, result):
        check = "sec3_9_ilp_migrates_no_more_than_greedy"
        self.assert_flips(result, check, lambda r: r["ilp_vs_greedy"].update(
            {"with": [g + 1 for g in r["ilp_vs_greedy"]["without"]]}))
        self.assert_flips(result, check, lambda r: r.update(
            ilp_vs_greedy={"with": [], "without": []}))
