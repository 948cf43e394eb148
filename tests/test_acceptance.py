"""Acceptance gate: every shipped claim, one PASS/FAIL line each.

Shares a single run_all() pass across the per-criterion tests; the printed
lines are the authoritative record (also written by `stopngo verify`).
"""
import contextlib
import io

import pytest

from stopngo import acceptance


@pytest.fixture(scope="module")
def printed():
    """The results of one run_all() pass and the text it printed."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        out = acceptance.run_all()
    assert len(out) == len(acceptance.CRITERIA)
    return out, text.getvalue()


@pytest.fixture(scope="module")
def results(printed):
    return printed[0]


def test_run_all_prints_one_line_per_criterion(printed):
    out, text = printed
    assert text.splitlines() == [res.line for res in out]


def test_criterion_8_prints_nothing(capfd):
    # the two simulate runs it compares keep their summaries off stdout
    passed, detail = acceptance.criterion_8(acceptance.AcceptanceContext())
    assert passed, detail
    assert capfd.readouterr().out == ""


def _check(results, index):
    res = results[index - 1]
    assert res.index == index
    assert ("PASS" if res.passed else "FAIL") in res.line
    assert res.passed, res.line


def test_criterion_1_steady_state_identities(results):
    _check(results, 1)


def test_criterion_2_stability_cross_check(results):
    _check(results, 2)


def test_criterion_3_kernel_verification(results):
    _check(results, 3)


def test_criterion_4_difference_model_mechanism(results):
    _check(results, 4)


def test_criterion_5_simultaneous_stabilization(results):
    _check(results, 5)


def test_criterion_6_linearization_consistency(results):
    _check(results, 6)


def test_criterion_7_conservation_accounting(results):
    _check(results, 7)


def test_criterion_8_determinism(results):
    _check(results, 8)
