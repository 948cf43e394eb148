import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

import stopngo as sg
from stopngo.errors import AssumptionError
from stopngo.stability import (
    build_difference_model,
    closed_form_condition,
    coupling_matrix,
    fit_envelope_rate,
    simulate_difference,
    sp1,
)


def test_sp1_zero_matrix():
    assert sp1(np.zeros((4, 4))) == 0.0


def test_sp1_diagonal_matrix():
    h = np.diag([0.5, 0.2, 0.1, 0.3])
    assert sp1(h) == pytest.approx(0.5, rel=1e-9)


def test_sp1_rejects_sign_pattern_without_equivalence():
    # the cycle 0 -> 1 -> 0 through three positive entries and one negative
    # one cannot be flipped to |H| by diagonal signs
    h = np.zeros((4, 4))
    h[:2, :2] = [[1.0, 1.0], [1.0, -1.0]]
    with pytest.raises(AssumptionError):
        sp1(h)
    # a consistent sign pattern is accepted
    h[1, 1] = 1.0
    h[1, :] *= -1.0
    assert sp1(h) == pytest.approx(2.0, rel=1e-14)


def _nelder_mead_sp1(H, restarts=4, seed=0):
    """Multistart Nelder-Mead on the scaled norm: the oracle for sp1.

    Each start is restarted from its own result until a run gains less than
    1e-12, since a simplex can collapse before it reaches the minimum.
    """

    def scaled_norm(theta):
        d = np.exp(np.concatenate([[0.0], theta]))
        return float(np.linalg.norm((H * d[:, None]) / d[None, :], 2))

    rng = np.random.default_rng(seed)
    best = scaled_norm(np.zeros(3))
    for start in [np.zeros(3), *rng.normal(0.0, 2.0, size=(restarts, 3))]:
        theta, value = start, scaled_norm(start)
        for _ in range(20):
            res = minimize(
                scaled_norm,
                theta,
                method="Nelder-Mead",
                options=dict(fatol=1e-13, xatol=1e-10, maxiter=4000, maxfev=8000),
            )
            gain = value - res.fun
            theta, value = res.x, min(value, float(res.fun))
            if gain <= 1e-12:
                break
        best = min(best, value)
    return best


def _perron_scaling(H):
    """D = sqrt(w/u) from the right and left Perron vectors of |H|."""
    A = np.abs(H)
    vals, right = np.linalg.eig(A)
    u = np.abs(right[:, np.argmax(vals.real)].real)
    vals_t, left = np.linalg.eig(A.T)
    w = np.abs(left[:, np.argmax(vals_t.real)].real)
    return np.sqrt(w / u)


def _criterion_2_network(u, reverse=False):
    """A network from criterion 2's ranges, mapped from nine numbers in [0, 1].

    reverse swaps the parameters of the two segments. None when the draw is
    not admissible.
    """
    v_max, length = 25.0 + 25.0 * u[0], 800.0 + 2200.0 * u[1]
    params = [
        dict(rho_max=0.3 + 0.9 * u[2 + k], gamma=0.8 + 1.4 * u[4 + k], tau=60.0 + 140.0 * u[6 + k])
        for k in range(2)
    ]
    if reverse:
        params.reverse()
    segs = [
        sg.SegmentParams(v_max=v_max, length=length, segment_id=i + 1, **p)
        for i, p in enumerate(params)
    ]
    hi = min(sg.admissible_flux_interval(seg)[1] for seg in segs)
    try:
        return sg.make_network(segs[0], segs[1], (0.25 + 0.65 * u[8]) * hi)
    except (AssumptionError, sg.InfeasibleError):
        return None


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9))
def test_sp1_against_nelder_mead(u):
    for reverse in (False, True):
        net = _criterion_2_network(u, reverse)
        assume(net is not None)
        H = coupling_matrix(net)
        value, oracle = sp1(H), _nelder_mead_sp1(H)
        assert abs(value - oracle) <= 1e-6
        assert value <= oracle + 1e-12
        d = _perron_scaling(H)
        witness = np.linalg.norm((H * d[:, None]) / d[None, :], 2)
        assert witness == pytest.approx(value, rel=1e-12)


def test_sp1_matches_closed_form_default(net):
    value, a, b = closed_form_condition(net)
    # 40-digit evaluation of the closed form from the boundary rows
    assert value == pytest.approx(0.41286310560756354, rel=1e-12)
    assert a == pytest.approx(0.0086863723346360193, rel=1e-12)
    assert b == pytest.approx(0.027574585039367095, rel=1e-12)
    assert value < 1.0
    assert abs(sp1(coupling_matrix(net)) - value) < 1e-6


def test_closed_form_structure(net, rows):
    value, a, b = closed_form_condition(net)
    assert a == pytest.approx(abs(rows.g_a * rows.g_inlet), rel=1e-13)
    assert b == pytest.approx(abs(rows.g_t * rows.g_outlet * rows.g_inlet), rel=1e-13)
    assert value == pytest.approx(np.sqrt((a + np.sqrt(a * a + 4.0 * b)) / 2.0), rel=1e-14)


def test_closed_form_without_ratio_ordering(net):
    # the cycle gains enter as magnitudes, so the closed form holds for
    # r1 < r2 too, the default network with its segments swapped included
    swapped = sg.make_network(
        dataclasses.replace(net.seg2, segment_id=1),
        dataclasses.replace(net.seg1, segment_id=2),
        6.0,
    )
    nets = [swapped]
    rng = np.random.default_rng(11)
    while len(nets) < 30:
        candidate = _criterion_2_network(rng.uniform(size=9))
        if candidate is not None and candidate.ss1.r < candidate.ss2.r:
            nets.append(candidate)
    assert swapped.ss1.r < swapped.ss2.r
    for candidate in nets:
        value = closed_form_condition(candidate)[0]
        assert abs(value - sp1(coupling_matrix(candidate))) <= 1e-12


def test_equal_segments_reduce_to_quartic_root(net):
    eq = sg.make_network(dataclasses.replace(net.seg2, segment_id=1), net.seg2, 6.0)
    value, a, b = closed_form_condition(eq)
    assert a == 0.0
    assert value == pytest.approx(b**0.25, rel=1e-14)
    assert abs(sp1(coupling_matrix(eq)) - value) < 1e-6


def test_long_segments_are_deeply_subcritical(net):
    big = sg.make_network(
        dataclasses.replace(net.seg1, length=20000.0),
        dataclasses.replace(net.seg2, length=20000.0),
        6.0,
    )
    dm = build_difference_model(big)
    assert abs(dm.coef_short) < 1e-9
    assert abs(dm.coef_long) < 1e-15
    assert closed_form_condition(big)[0] < 1e-3


def test_difference_model_default(net, rows):
    dm = build_difference_model(net)
    assert dm.coef_short == pytest.approx(-0.0086863723346360193, rel=1e-12)
    assert dm.coef_long == pytest.approx(0.027574585039367095, rel=1e-12)
    assert dm.kappa1 == pytest.approx(260.18538238545659, rel=1e-12)
    assert dm.kappa2 == pytest.approx(287.29340511723353, rel=1e-12)
    # composition of the boundary reflections
    assert dm.coef_short == pytest.approx(rows.g_a * rows.g_inlet, rel=1e-13)
    assert dm.coef_long == pytest.approx(rows.g_t * rows.g_outlet * rows.g_inlet, rel=1e-13)
    assert dm.coef_long == pytest.approx(closed_form_condition(net)[2], rel=1e-13)


def test_difference_series_decays_at_characteristic_rate(net, window):
    dm = build_difference_model(net)
    series = simulate_difference(dm, 1.0, horizon=12.0 * window)
    assert series.rate is not None

    def char(s):
        return (
            abs(dm.coef_short) * np.exp(s * dm.kappa2)
            + abs(dm.coef_long) * np.exp(s * (dm.kappa1 + dm.kappa2))
            - 1.0
        )

    sigma = brentq(char, 1e-6, 0.1, xtol=1e-14)
    assert sigma == pytest.approx(0.0064546355739341685, rel=1e-9)
    assert series.rate == pytest.approx(sigma, rel=0.02)
    tail = np.abs(series.values[series.times > 10.0 * window]).max()
    assert tail < 0.1


def test_envelope_fit_synthetic():
    W = 547.0
    t = np.linspace(0.0, 14.0 * W, 6000)
    for sw in (0.5, 2.0, 5.0):
        sigma = sw / W
        vals = np.exp(-sigma * t) * (1.1 + np.cos(2.0 * np.pi * t / (W / 3.0)))
        fitted = fit_envelope_rate(t, vals, W)
        assert fitted == pytest.approx(sigma, rel=0.01)


def test_envelope_fit_constant_is_zero():
    t = np.linspace(0.0, 5000.0, 800)
    assert fit_envelope_rate(t, np.ones(t.size), 547.0) == pytest.approx(0.0, abs=1e-12)


def test_envelope_fit_needs_two_windows():
    t = np.linspace(0.0, 100.0, 50)
    assert fit_envelope_rate(t, np.exp(-t / 30.0), 547.0) is None
