import dataclasses
import math
import re

import numpy as np
import pytest

import stopngo as sg
from stopngo.errors import AssumptionError, DomainError, InfeasibleError
from stopngo.model import (
    congested_flux_root,
    critical_density,
    equilibrium_flow,
    equilibrium_velocity,
    pressure,
    riemann_coefficients,
    solve_steady_states,
    stacked,
)
from oracles import inverse_pressure

SEG1 = dict(rho_max=0.6667, gamma=1.0, v_max=45.0)
SEG2 = dict(rho_max=0.8, gamma=1.0, v_max=45.0)


def seg(segment_id=2, rho_max=0.8, gamma=1.0, v_max=45.0, tau=90.0, length=2000.0):
    return sg.SegmentParams(
        segment_id=segment_id,
        length=length,
        v_max=v_max,
        rho_max=rho_max,
        gamma=gamma,
        tau=tau,
    )


def test_pressure_values():
    s = seg()
    assert pressure(0.8, s) == pytest.approx(45.0, rel=1e-14)
    assert pressure(0.0, s) == 0.0
    assert pressure(0.4, s) == pytest.approx(22.5, rel=1e-14)


def test_equilibrium_velocity_values():
    s = seg()
    assert equilibrium_velocity(0.0, s) == 45.0
    assert equilibrium_velocity(0.8, s) == pytest.approx(0.0, abs=1e-14)
    assert equilibrium_velocity(0.5, s) == pytest.approx(16.875, rel=1e-14)


def test_equilibrium_flow_values():
    s = seg()
    assert equilibrium_flow(0.0, s) == 0.0
    assert equilibrium_flow(0.4, s) == pytest.approx(9.0, rel=1e-14)


def test_domain_errors():
    s = seg()
    for rho in (-0.1, 0.81, np.float64(0.81), np.array([0.5, 0.81])):
        with pytest.raises(DomainError):
            pressure(rho, s)
        with pytest.raises(DomainError):
            equilibrium_velocity(rho, s)
    for p_val in (-0.1, np.float64(-0.1), np.array([0.5, -0.1])):
        with pytest.raises(DomainError, match="pressure must be nonnegative"):
            inverse_pressure(p_val, s)


def test_inverse_pressure_scalar_path_matches_array_path():
    # a float takes the scalar branch; a 0-d array takes the array branch
    p_vals = np.linspace(0.0, 45.0, 101)
    for gamma in (0.8, 1.0, 2.2):
        s = seg(gamma=gamma)
        for p_val in p_vals:
            got = inverse_pressure(float(p_val), s)
            assert type(got) is float
            assert got == inverse_pressure(np.array(p_val), s)
            assert inverse_pressure(p_val, s) == got  # np.float64 is a float
        assert inverse_pressure(float(pressure(0.5, s)), s) == pytest.approx(0.5, rel=1e-14)


def test_speed_law_plus_pressure_is_vmax():
    for gamma in (0.8, 1.0, 2.2):
        s = seg(gamma=gamma)
        rho = np.linspace(0.0, s.rho_max, 1000)
        err = np.abs(equilibrium_velocity(rho, s) + pressure(rho, s) - s.v_max)
        assert err.max() < 1e-12 * s.v_max


def test_critical_density():
    assert critical_density(seg()) == pytest.approx(0.4, rel=1e-14)
    assert critical_density(seg(rho_max=0.6667)) == pytest.approx(0.33335, rel=1e-14)
    s = seg(gamma=1.7, rho_max=1.1)
    assert critical_density(s) == pytest.approx(1.1 / 2.7 ** (1 / 1.7), rel=1e-13)


def test_flow_unimodal_at_critical_density():
    for gamma in (1.0, 1.6):
        s = seg(gamma=gamma)
        rc = critical_density(s)
        rho = np.linspace(1e-6, s.rho_max - 1e-6, 4001)
        q = equilibrium_flow(rho, s)
        # increasing strictly below rc, decreasing strictly above
        below = rho < rc - 1e-3
        above = rho > rc + 1e-3
        assert np.all(np.diff(q[below]) > 0)
        assert np.all(np.diff(q[above]) < 0)
        assert equilibrium_flow(rc, s) >= q.max() - 1e-12


def test_congested_flux_root_round_trip():
    for gamma in (1.0, 1.7):
        s = seg(gamma=gamma)
        for q in (3.0, 6.0, 8.0):
            rho = congested_flux_root(s.v_max, q, s)
            assert rho > critical_density(s)
            assert equilibrium_flow(rho, s) == pytest.approx(q, rel=1e-12)


def test_congested_flux_root_capacity():
    s = seg(segment_id=1, rho_max=0.6667)
    cap = equilibrium_flow(critical_density(s), s)
    assert cap == pytest.approx(7.5003749999999982, rel=1e-12)
    with pytest.raises(InfeasibleError):
        congested_flux_root(s.v_max, cap * 1.01, s)


def test_steady_states_default():
    ss1, ss2 = solve_steady_states(6.0, seg(1, **SEG1, tau=120.0), seg(2, **SEG2))
    assert ss1.rho_star == pytest.approx(0.48244355843451658, rel=1e-12)
    assert ss1.v_star == pytest.approx(12.43668797127156, rel=1e-12)
    assert ss1.p_star == pytest.approx(32.56331202872844, rel=1e-12)
    assert ss2.rho_star == pytest.approx(0.63094010767585029, rel=1e-12)
    assert ss2.v_star == pytest.approx(9.5096189432334199, rel=1e-12)
    assert ss2.p_star == pytest.approx(35.49038105676658, rel=1e-12)
    assert abs(ss1.q_star - ss2.q_star) < 1e-12 * 6.0
    assert ss1.q_star == pytest.approx(6.0, rel=1e-12)


def test_steady_state_identities():
    ss1, ss2 = solve_steady_states(6.0, seg(1, **SEG1, tau=120.0), seg(2, **SEG2))
    for ss, p in ((ss1, seg(1, **SEG1, tau=120.0)), (ss2, seg(2, **SEG2))):
        assert ss.v_star == pytest.approx(equilibrium_velocity(ss.rho_star, p), rel=1e-14)
        assert ss.v_star + ss.p_star == pytest.approx(p.v_max, rel=1e-14)
        assert ss.lambda_w == ss.v_star
        assert ss.lambda_v == pytest.approx(p.gamma * ss.p_star - ss.v_star, rel=1e-14)
        assert 0.0 < ss.r < 1.0


def test_riemann_coefficients_default():
    ss1, ss2 = solve_steady_states(6.0, seg(1, **SEG1, tau=120.0), seg(2, **SEG2))
    assert ss1.r == pytest.approx(0.61792220770694961, rel=1e-12)
    assert ss2.r == pytest.approx(0.3660254037844386, rel=1e-12)
    assert ss1.lambda_v == pytest.approx(20.12662405745688, rel=1e-12)
    assert ss2.lambda_v == pytest.approx(25.98076211353316, rel=1e-12)
    assert ss1.kappa == pytest.approx(260.18538238545659, rel=1e-12)
    assert ss2.kappa == pytest.approx(287.29340511723353, rel=1e-12)
    # the closed-form gamma=1 value of r2 is (sqrt(3)-1)/2
    assert ss2.r == pytest.approx((np.sqrt(3.0) - 1.0) / 2.0, rel=1e-12)


def test_near_capacity_flux_violates_ratio_assumption():
    # 7.5 veh/s is just under segment-1 capacity; the congested root sits so
    # close to critical density that r >= 1, which the design rules out
    with pytest.raises(AssumptionError):
        solve_steady_states(7.5, seg(1, **SEG1, tau=120.0), seg(2, **SEG2))


def test_flux_above_capacity_names_binding_segment():
    with pytest.raises(InfeasibleError, match="segment 1"):
        solve_steady_states(7.6, seg(1, **SEG1, tau=120.0), seg(2, **SEG2))


def test_zero_flux_rejected():
    with pytest.raises(InfeasibleError):
        solve_steady_states(0.0, seg(1, **SEG1, tau=120.0), seg(2, **SEG2))


def test_non_finite_parameters_rejected():
    for bad in (math.inf, math.nan):
        for name in ("v_max", "rho_max", "gamma", "tau", "length"):
            with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
                seg(**{name: bad})
    with pytest.raises(InfeasibleError, match="q_star must be positive, got nan"):
        solve_steady_states(math.nan, seg(1, **SEG1, tau=120.0), seg(2, **SEG2))


def test_critical_steady_state_rejected():
    s = seg()
    rc = critical_density(s)
    ss = sg.SteadyState(
        rho_star=rc,
        v_star=float(equilibrium_velocity(rc, s)),
        p_star=float(pressure(rc, s)),
        q_star=float(equilibrium_flow(rc, s)),
    )
    with pytest.raises((AssumptionError, DomainError)):
        riemann_coefficients(ss, s)


def test_ratio_decreases_with_congestion():
    s = seg()
    # keep to the admissible part of the congested branch (r < 1)
    rho_lo = s.rho_max * (2.0 / (s.gamma + 2.0)) ** (1.0 / s.gamma)
    rhos = np.linspace(rho_lo * 1.01, s.rho_max * 0.98, 40)
    rs = []
    for rho in rhos:
        ss = sg.SteadyState(
            rho_star=float(rho),
            v_star=float(equilibrium_velocity(rho, s)),
            p_star=float(pressure(rho, s)),
            q_star=float(equilibrium_flow(rho, s)),
        )
        rs.append(riemann_coefficients(ss, s).r)
    assert np.all(np.diff(rs) < 0)


def test_admissible_flux_interval_brackets_ratio():
    s = seg(segment_id=1, rho_max=0.6667)
    lo, hi = sg.admissible_flux_interval(s)
    assert lo == 0.0
    rho = congested_flux_root(s.v_max, hi * 0.999, s)
    ss = sg.SteadyState(
        rho_star=rho,
        v_star=float(equilibrium_velocity(rho, s)),
        p_star=float(pressure(rho, s)),
        q_star=hi * 0.999,
    )
    assert riemann_coefficients(ss, s).r < 1.0
    # above the interval the same construction must be refused
    with pytest.raises(AssumptionError):
        solve_steady_states(hi * 1.01, s, seg(2, **SEG2))


def test_network_flux_mismatch_rejected(net):
    bad = dataclasses.replace(net.ss1, q_star=net.ss1.q_star * 1.001)
    with pytest.raises(DomainError):
        sg.NetworkParams(seg1=net.seg1, seg2=net.seg2, ss1=bad, ss2=net.ss2)


def test_make_network_default(net):
    assert net.seg1.rho_max == 0.6667
    assert net.seg2.rho_max == 0.8
    assert net.seg1.tau == 120.0
    assert net.seg2.tau == 90.0
    assert net.ss1.q_star == pytest.approx(net.ss2.q_star, rel=1e-13)
    assert net.ss1.r > net.ss2.r


def test_random_networks_flux_match(rng):
    # the root polish must hold the two segments to the same flux at machine
    # precision even for gamma != 1
    for _ in range(25):
        v_max = rng.uniform(25.0, 50.0)
        segs = []
        for sid in (1, 2):
            segs.append(
                seg(
                    sid,
                    rho_max=rng.uniform(0.3, 1.2),
                    gamma=rng.uniform(0.8, 2.2),
                    v_max=v_max,
                    tau=rng.uniform(60.0, 200.0),
                    length=rng.uniform(800.0, 3000.0),
                )
            )
        cap = min(
            equilibrium_flow(critical_density(s), s) for s in segs
        )
        q = rng.uniform(0.25, 0.75) * cap
        try:
            n = sg.make_network(segs[0], segs[1], q)
        except (AssumptionError, InfeasibleError):
            continue
        assert abs(n.ss1.q_star - n.ss2.q_star) <= 1e-12 * q
        assert equilibrium_flow(n.ss1.rho_star, segs[0]) == pytest.approx(q, rel=1e-12)
        assert equilibrium_flow(n.ss2.rho_star, segs[1]) == pytest.approx(q, rel=1e-12)


def test_stacked_returns_each_segments_values(net, gamma_net):
    # every field of both dataclasses, and the pressure coefficient, as
    # (2, n) rows of exact copies, segment 1 first, in the order asked
    names = ([f.name for f in dataclasses.fields(sg.SegmentParams)] + ["pressure_coeff"]
             + [f.name for f in dataclasses.fields(sg.SteadyState)])
    for n in (net, gamma_net):
        for size in (1, 7):
            got = stacked(n, size, *reversed(names))
            assert got.shape == (len(names), 2, size) and got.dtype == float
            for rows, name in zip(got, reversed(names)):
                for row, seg, ss in zip(rows, (n.seg1, n.seg2), (n.ss1, n.ss2)):
                    value = getattr(seg if hasattr(seg, name) else ss, name)
                    assert np.all(row == value), name


@pytest.mark.parametrize("name", ["gama", "rho", "v_star_", "interval", "__init__"])
def test_stacked_refuses_other_names(net, name):
    with pytest.raises(DomainError, match=re.escape(repr(name))):
        stacked(net, 3, "gamma", name)
