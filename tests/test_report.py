import pytest

from fiberpoisson import ChartSpec, FiberSeries, CheckReport
from fiberpoisson.report import summarize_residual

from fixtures import S


CH = ChartSpec(2, 1, 3)


def zero(order):
    return FiberSeries.zero(CH, order)


class TestAddResiduals:
    def test_all_zero_passes_at_least_order(self):
        report = CheckReport("r")
        entry = report.add_residuals("n", "t", [zero(3), zero(2), zero(3)], 7)
        assert (entry.passed, entry.certified_order, entry.residual) == (True, 2, "0")
        assert report.passed

    def test_first_nonzero_residual_is_reported(self):
        first, second = S("x1 + xi2", CH), S("2*xi1", CH)
        entry = CheckReport("r").add_residuals("n", "t", [zero(3), first, second], 7)
        assert not entry.passed
        assert entry.residual == summarize_residual(first) == "x1 + xi2"

    def test_order_is_minimum_over_zero_and_nonzero_residuals(self):
        nonzero = S("x1", CH)
        entry = CheckReport("r").add_residuals("n", "t", [nonzero, zero(1)], 7)
        assert (entry.passed, entry.certified_order) == (False, 1)
        entry = CheckReport("r").add_residuals(
            "n", "t", [zero(3), S("x1", ChartSpec(2, 1, 2))], 7)
        assert entry.certified_order == 2

    def test_empty_iterable_gives_empty_order(self):
        entry = CheckReport("r").add_residuals("n", "t", iter(()), 5)
        assert (entry.passed, entry.certified_order, entry.residual) == (True, 5, "0")
        assert CheckReport("r").add_residuals("n", "t", [], None).certified_order is None

    def test_generator_is_consumed_once_in_order(self):
        seen = []

        def residuals():
            for k in range(3):
                seen.append(k)
                yield zero(3 - k)
        entry = CheckReport("r").add_residuals("n", "t", residuals(), 7)
        assert seen == [0, 1, 2]
        assert entry.certified_order == 1

    def test_not_required_does_not_affect_passed(self):
        report = CheckReport("r")
        report.add_residuals("ok", "t", [zero(3)], 3)
        entry = report.add_residuals("info", "t", [S("x1", CH)], 3, required=False)
        assert (entry.passed, entry.required) == (False, False)
        assert report.passed
        assert "[info]" in report.render()
        report.add_residuals("bad", "t", [S("x1", CH)], 3)
        assert not report.passed

    def test_summary_is_shortened(self):
        long = S(" + ".join("%d*xi1^%d" % (k + 2, k) for k in range(40)), CH)
        entry = CheckReport("r").add_residuals("n", "t", [long], 3)
        assert entry.residual.endswith(" ...") and len(entry.residual) == 104


class TestRequire:
    def test_passed_report_is_silent(self):
        report = CheckReport("r")
        report.add("n", "t", 3, True)
        assert report.require(ValueError, "m") is None

    def test_failed_report_raises_the_given_class_with_the_rendering(self):
        report = CheckReport("r")
        report.add("n", "t", 3, True)
        report.add("bad", "t2", 2, False, "x1")
        with pytest.raises(RuntimeError) as err:
            report.require(RuntimeError, "data fails")
        assert err.value.args == ("data fails:\n" + report.render(),)

    def test_failed_informational_entry_is_ignored(self):
        report = CheckReport("r")
        report.add("n", "t", 3, True)
        report.add("info", "t2", 2, False, "x1", required=False)
        report.require(ValueError, "m")
