"""Fixtures shared by the test modules."""

import dataclasses

import pytest

from exchbound import montecarlo


@pytest.fixture
def shrink_bounds(monkeypatch):
    """shrink(form="hoeffding_form") scales that bound form of every sweep cell
    by 0.01, so that cells violate it."""
    report_of = montecarlo.tail_bound_report

    def shrink(form="hoeffding_form"):
        def shrunk(*args):
            report = report_of(*args)
            value = getattr(report, form)
            return dataclasses.replace(report, **{form: None if value is None else 0.01 * value})

        monkeypatch.setattr(montecarlo, "tail_bound_report", shrunk)

    return shrink
