import pytest

from didgov.errors import UnknownCategory
from didgov.metering import CATEGORIES, CostMeter, CostReport, CostSchedule, charge


def test_schedule_defaults_cover_every_category():
    schedule = CostSchedule()
    for category in CATEGORIES:
        assert schedule.unit(category) > 0


def test_schedule_rejects_unknown_category():
    with pytest.raises(UnknownCategory):
        CostSchedule().unit("quantum_flux")
    with pytest.raises(UnknownCategory):
        CostSchedule.from_json({"quantum_flux": 3})


def test_schedule_rejects_non_positive_or_non_integer_units():
    with pytest.raises(UnknownCategory):
        CostSchedule(base_tx=0)
    with pytest.raises(UnknownCategory):
        CostSchedule(base_tx=-3)
    with pytest.raises(UnknownCategory):
        CostSchedule(base_tx=2.5)


def test_schedule_json_round_trip():
    assert CostSchedule.from_json({"base_tx": 100, "sig_verify": 7}) == CostSchedule(base_tx=100, sig_verify=7)
    partial = CostSchedule.from_json({"iteration_step": 9})
    assert partial.iteration_step == 9
    assert partial.base_tx == CostSchedule().base_tx


def test_schedule_from_json_file(tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text('{"base_tx": 42}')
    assert CostSchedule.from_json_file(path).base_tx == 42
    path.write_text("[1, 2]")
    with pytest.raises(UnknownCategory):
        CostSchedule.from_json_file(path)


def test_meter_accumulates_and_reports():
    meter = CostMeter(CostSchedule(base_tx=10, iteration_step=2))
    meter.charge("base_tx")
    meter.charge("iteration_step", 3)
    meter.charge("iteration_step", 2)
    assert meter.total == 10 + 5 * 2
    report = meter.report("label")
    assert report.transaction_label == "label"
    assert report.total == 20
    assert report.count("iteration_step") == 5
    assert report.units("iteration_step") == 10
    assert report.dimensions == {}  # only a benchmark sweep labels its reports


def test_meter_items_keep_first_charge_order():
    meter = CostMeter()
    meter.charge("sig_verify")
    meter.charge("base_tx")
    meter.charge("sig_verify")
    assert [category for category, _, _ in meter.items()] == ["sig_verify", "base_tx"]


def test_meter_rejects_bad_charges():
    meter = CostMeter()
    with pytest.raises(UnknownCategory):
        meter.charge("quantum_flux")
    with pytest.raises(UnknownCategory):
        meter.charge("base_tx", -1)
    meter.charge("base_tx", 0)  # no-op, not an item
    assert meter.items() == ()


def test_report_total_must_match_items():
    with pytest.raises(UnknownCategory):
        CostReport(transaction_label="x", total=5, items=(("base_tx", 1, 21000),))


def test_charge_helper_tolerates_disabled_meter():
    charge(None, "base_tx")  # must not raise
    meter = CostMeter()
    charge(meter, "base_tx", 2)
    assert meter.total == 2 * CostSchedule().base_tx
