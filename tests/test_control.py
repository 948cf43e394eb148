import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stopngo as sg
from stopngo.control import backstepping_transform, control_input, target_residual
from stopngo.errors import DomainError
from stopngo.errors import AssumptionError, InfeasibleError
from stopngo import control
from stopngo.kernels import kernel_constant, solve_kernels
from stopngo.model import SegmentParams, admissible_flux_interval, make_network
from stopngo.riemann import boundary_rows, scale_w, to_riemann
from stopngo.sim import run_linear, run_nonlinear

from oracles import dense_target, dense_u0, law_rows, segment_operators, unscale_w
from test_stability import _criterion_2_network

L = 2000.0


def grids(M):
    return np.linspace(0.0, L, M + 1), np.linspace(-L, 0.0, M + 1)


def operators(net, M):
    """The feedback operators of a network on the state grids of M cells."""
    return sg.FeedbackOperators(net, *grids(M))


def transform(ops, w1, v1, w2, v2):
    """The target state of one Riemann state (w-tilde_i, v-tilde_i), through
    the block transform on one-row blocks."""
    return backstepping_transform(ops, *(np.atleast_2d(a) for a in (w1, v1, w2, v2)))[0]


def law(ops, net, w1, v1, w2, v2):
    """U0 of one Riemann state, mapped to the law's (2, N+1) rows of rho v
    and v."""
    (f1, u1), (f2, u2) = law_rows(w1, v1, net.ss1, net.seg1), law_rows(w2, v2, net.ss2, net.seg2)
    return control_input(ops, np.stack((f1, f2)), np.stack((u1, u2)))


def test_zero_state_maps_to_zero(net):
    ops = operators(net, 64)
    z = np.zeros(65)
    tar = transform(ops, z, z, z, z)
    assert np.all(tar.beta1 == 0.0)
    assert np.all(tar.beta2 == 0.0)
    assert np.all(tar.alpha1 == 0.0)
    assert np.all(tar.alpha2 == 0.0)
    assert law(ops, net, z, z, z, z) == 0.0


def test_zero_kernels_make_transform_identity(net, monkeypatch):
    monkeypatch.setattr(control, "kernel_constant", lambda segment_id, net: 0.0)
    ops = operators(net, 64)
    x1, x2 = grids(64)
    w1, v1 = np.sin(x1 / 300.0), np.cos(x1 / 500.0)
    w2, v2 = np.cos(x2 / 400.0), np.sin(x2 / 700.0)
    tar = transform(ops, w1, v1, w2, v2)
    assert np.array_equal(tar.beta1, v1)
    assert np.array_equal(tar.beta2, v2)
    # alpha_i is w-bar_i, the rescaled w-tilde_i
    assert np.array_equal(tar.alpha1, scale_w(x1, w1, net.ss1, net.seg1))
    assert np.array_equal(tar.alpha2, scale_w(x2, w2, net.ss2, net.seg2))


def row_loop_transform(w1, v1, w2, v2, t1, t2):
    """The transform of (w-tilde_i, v-tilde_i) one row at a time, each row its
    own trapezoid rule."""

    def trap(n, h):
        w = np.full(n, h)
        if n > 1:
            w[0] = w[-1] = 0.5 * h
        else:
            w[0] = 0.0
        return w

    M = t1.M
    beta1 = v1.copy()
    for j in range(M + 1):
        sl = slice(j, M + 1)
        beta1[j] -= trap(M + 1 - j, t1.h) @ (t1.Kvw[j, sl] * w1[sl] + t1.Kvv[j, sl] * v1[sl])
    beta2 = v2.copy()
    for j in range(M + 1):
        sl = slice(0, j + 1)
        beta2[j] -= trap(j + 1, t2.h) @ (t2.Kvw[j, sl] * w2[sl] + t2.Kvv[j, sl] * v2[sl])
    return beta1, beta2


def random_networks(count, seed):
    """Admissible networks drawn from the ranges of acceptance criterion 2."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        v_max = rng.uniform(25.0, 50.0)
        length = rng.uniform(800.0, 3000.0)
        segs = [
            SegmentParams(
                v_max=v_max,
                rho_max=rng.uniform(0.3, 1.2),
                gamma=rng.uniform(0.8, 2.2),
                tau=rng.uniform(60.0, 200.0),
                length=length,
                segment_id=i + 1,
            )
            for i in range(2)
        ]
        hi = min(admissible_flux_interval(s)[1] for s in segs)
        try:
            out.append(make_network(segs[0], segs[1], rng.uniform(0.25, 0.9) * hi))
        except (AssumptionError, InfeasibleError):
            continue
    return out


@pytest.mark.parametrize("M", [64, 128])
def test_matrix_transform_matches_row_loop(net, M):
    rng = np.random.default_rng(M)
    for n in [net] + random_networks(8, seed=M):
        t1, t2 = solve_kernels(1, n, M=M), solve_kernels(2, n, M=M)
        w1, v1, w2, v2 = (rng.standard_normal(M + 1) for _ in range(4))
        tar = transform(sg.FeedbackOperators(n, t1.x, t2.x), w1, v1, w2, v2)
        beta1, beta2 = row_loop_transform(w1, v1, w2, v2, t1, t2)
        # rounding scales with the size of the integrals being summed: the
        # state times the inf-norm of the transform, 2.0-2.3 on the default
        # network and 1.2-3.4 on the networks drawn here
        gain = max(
            1.0 + t.h * float(np.max(np.sum(np.abs(t.Kvw) + np.abs(t.Kvv), axis=1)))
            for t in (t1, t2)
        )
        scale = gain * max(np.abs(a).max() for a in (w1, v1, w2, v2))
        assert np.abs(tar.beta1 - beta1).max() <= 1e-14 * scale
        assert np.abs(tar.beta2 - beta2).max() <= 1e-14 * scale


@pytest.mark.parametrize("which", ["default", "gamma"])
@pytest.mark.parametrize("N", [32, 64, 256])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), log_amp=st.floats(-6.0, 3.0))
def test_constant_kernel_law_matches_dense_table_path(net, gamma_net, which, N, seed, log_amp):
    # beta from D_i and cumulative trapezoids, and U0 from the law's weight
    # rows on rho v and v, against the kernel tables as triangular matrices
    # and junction rows on the Riemann rows of the same state. Each
    # difference is bounded by round-off on the sum it comes from: the
    # largest |v-tilde| plus |D_i| times the trapezoid sum of |w-tilde| +
    # |v-tilde| for beta, and the two junction integrals of absolute values
    # for U0. Measured: at most 1.94e-16 and 2.7e-16 of those scales over
    # 1,800 random states
    n = gamma_net if which == "gamma" else net
    t1, t2 = solve_kernels(1, n, M=N), solve_kernels(2, n, M=N)
    rng = np.random.default_rng(seed)
    rho, vel = (np.stack([c * (1.0 + 10.0**log_amp * rng.standard_normal(N + 1)) for c in centre])
                for centre in ((n.ss1.rho_star, n.ss2.rho_star), (n.ss1.v_star, n.ss2.v_star)))
    (w1, v1), (w2, v2) = (to_riemann(rho[i], vel[i], ss, seg)
                          for i, (ss, seg) in enumerate(((n.ss1, n.seg1), (n.ss2, n.seg2))))
    ops = sg.FeedbackOperators(n, t1.x, t2.x)
    got = transform(ops, w1, v1, w2, v2)
    want = dense_target(t1.x, w1, v1, t2.x, w2, v2, t1, t2, n)
    sums = [abs(t.D) * t.h * np.sum(np.abs(w) + np.abs(v)) for t, w, v in ((t1, w1, v1), (t2, w2, v2))]
    for b, bw, v, total in ((got.beta1, want.beta1, v1, sums[0]), (got.beta2, want.beta2, v2, sums[1])):
        assert np.abs(b - bw).max() <= 1e-15 * (np.abs(v).max() + total)
    assert np.array_equal(got.alpha1, want.alpha1) and np.array_equal(got.alpha2, want.alpha2)
    rows = boundary_rows(n)
    u0_scale = (sums[1] + abs(rows.g_t) * sums[0]) / abs(rows.g_control)
    got_u0 = control_input(ops, rho * vel, vel)
    assert abs(got_u0 - dense_u0(w1, v1, w2, v2, t1, t2, n)) <= 5e-16 * u0_scale


def test_operators_read_only_the_kernel_constant(net, gamma_net, monkeypatch):
    # the operators hold kernel_constant's D_i, and the law's weight rows
    # follow it: a constant twice as large doubles them, bit for bit
    for n in (net, gamma_net):
        ops = operators(n, 128)
        assert ops.D.shape == (2, 1)
        assert (ops.D[0, 0], ops.D[1, 0]) == (kernel_constant(1, n), kernel_constant(2, n))
        with monkeypatch.context() as m:
            m.setattr(control, "kernel_constant", lambda i, n: 2.0 * kernel_constant(i, n))
            double = operators(n, 128)
        assert np.array_equal(double.law_flux, 2.0 * ops.law_flux)
        assert np.array_equal(double.law_v, 2.0 * ops.law_v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    u=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
    reverse=st.booleans(),
    N=st.sampled_from([32, 100, 256]),
)
def test_operators_match_the_per_segment_construction(u, reverse, N):
    # the stacked rows carry the bits of the pairs built one segment at a
    # time, over criterion 2's ranges, and the grids are the caller's own
    n = _criterion_2_network(u, reverse)
    assume(n is not None)
    L = n.seg1.length
    x1, x2 = np.linspace(0.0, L, N + 1), np.linspace(-L, 0.0, N + 1)
    ops = sg.FeedbackOperators(n, x1, x2)
    assert ops.grid1 is x1 and ops.grid2 is x2
    for key, want in segment_operators(n, x1, x2).items():
        got = getattr(ops, key)
        assert got.shape == want.shape and np.array_equal(got, want), key


def test_manufactured_integral_against_fine_quadrature(net, tables):
    # constant w-tilde on segment 1 turns beta1 into minus the row integral
    # of K^vw; re-integrate the interpolated rows on a 10x finer grid
    t1, t2 = tables(64)
    one, z = np.ones(65), np.zeros(65)
    tar = transform(operators(net, 64), one, z, z, z)
    for j in range(65):
        xs, kvw = t1.x[j:], t1.Kvw[j, j:]
        if xs.size < 2:
            want = 0.0
        else:
            f = np.linspace(xs[0], xs[-1], 10 * xs.size + 1)
            want = -np.trapezoid(np.interp(f, xs, kvw), f)
        assert tar.beta1[j] == pytest.approx(want, abs=1e-6)


def test_control_input_manufactured(net, rows, tables):
    t1, t2 = tables(64)
    one, z = np.ones(65), np.zeros(65)
    u = law(operators(net, 64), net, z, z, one, z)
    xs, kvw = t2.x, t2.Kvw[t2.M, :]
    f = np.linspace(xs[0], xs[-1], 8001)
    want = np.trapezoid(np.interp(f, xs, kvw), f) / rows.g_control
    assert u == pytest.approx(want, abs=1e-6)


def test_transform_and_feedback_are_linear(net, rng):
    ops = operators(net, 64)
    a1, b1, a2, b2 = (rng.standard_normal(65) for _ in range(4))
    s = 0.37
    full = transform(ops, a1, b1, a2, b2)
    part = transform(ops, s * a1, s * b1, s * a2, s * b2)
    assert np.abs(part.beta1 - s * full.beta1).max() < 1e-12
    assert np.abs(part.beta2 - s * full.beta2).max() < 1e-12
    uf = law(ops, net, a1, b1, a2, b2)
    up = law(ops, net, s * a1, s * b1, s * a2, s * b2)
    assert up == pytest.approx(s * uf, rel=1e-12, abs=1e-12)


def test_volterra_inversion_by_fixed_point(net):
    # the transform is invertible: holding w-tilde fixed and iterating
    # v <- v + (beta_target - beta(v)) recovers the original v fields
    ops = operators(net, 256)
    x1, x2 = grids(256)
    w1 = np.sin(2 * np.pi * x1 / L) + 0.3
    v1 = 0.7 * np.cos(np.pi * x1 / L)
    w2 = np.cos(2 * np.pi * x2 / L)
    v2 = 0.5 * np.sin(np.pi * x2 / L)
    tar = transform(ops, w1, v1, w2, v2)
    g1, g2 = np.zeros(257), np.zeros(257)
    for _ in range(60):
        cur = transform(ops, w1, g1, w2, g2)
        g1 = g1 + (tar.beta1 - cur.beta1)
        g2 = g2 + (tar.beta2 - cur.beta2)
    assert np.abs(g1 - v1).max() < 1e-8
    assert np.abs(g2 - v2).max() < 1e-8


def test_recorded_feedback_matches_recomputed(net, window):
    cfg = sg.SimConfig(
        t_final=0.5 * window,
        N=128,
        loop_mode="closed",
        model="linear",
        ic=sg.ICSpec(eps=0.1),
        record_every=16,
    )
    rec = run_linear(cfg, net)
    ops = operators(net, 128)
    worst = 0.0
    for i in range(1, len(rec.times)):
        # the linear stepper records w-bar; the law reads w-tilde
        u = law(ops, net, unscale_w(rec.grid1, rec.wbar1[i], net.ss1, net.seg1), rec.vtil1[i],
                unscale_w(rec.grid2, rec.wbar2[i], net.ss2, net.seg2), rec.vtil2[i])
        worst = max(worst, abs(u - rec.u0[i]))
    assert worst < 1e-12


def _assert_nonlinear_u0_is_the_public_law(net, ic, t_final, monkeypatch):
    # the stepper evaluates U0 through sim.control_input on every step; the
    # recorded U0 must be the law's output, bit for bit, and the law's
    # output on the rho v and v of the recorded state of that step
    outputs = []

    def spy(ops, flux, v):
        outputs.append(control_input(ops, flux, v))
        return outputs[-1]

    monkeypatch.setattr(sg.sim, "control_input", spy)
    cfg = sg.SimConfig(
        t_final=t_final, N=64, loop_mode="closed", model="nonlinear", ic=ic, record_every=1
    )
    rec = run_nonlinear(cfg, net)
    # rec.u0[k + 1] is the input applied over step k, on record k's state
    assert len(rec.times) - 1 == rec.n_steps == len(outputs)
    assert np.any(rec.u0[1:] != 0.0)
    assert rec.u0[1:].tolist() == outputs
    ops = sg.FeedbackOperators(net, rec.grid1, rec.grid2)
    for k, u in enumerate(rec.u0[1:]):
        rho, v = np.stack((rec.rho1[k], rec.rho2[k])), np.stack((rec.v1[k], rec.v2[k]))
        assert u == control_input(ops, rho * v, v), k


def test_nonlinear_u0_is_the_public_law_on_every_record(net, window, monkeypatch):
    ic = sg.ICSpec(eps=0.05, phase1=0.4, phase2=1.3)
    _assert_nonlinear_u0_is_the_public_law(net, ic, 0.1 * window, monkeypatch)


def test_nonlinear_u0_is_the_public_law_on_the_gamma_network(gamma_net, monkeypatch):
    # the segments differ in gamma, rho_max and tau here, so a row handed to
    # the law from the other segment cannot agree with the record
    net = gamma_net
    ic = sg.ICSpec(eps=0.02, phase1=0.4, phase2=4.3)
    _assert_nonlinear_u0_is_the_public_law(net, ic, 0.1 * (net.ss1.kappa + net.ss2.kappa),
                                           monkeypatch)


def test_target_needs_enough_samples(net):
    cfg = sg.SimConfig(
        t_final=1.0,
        N=64,
        loop_mode="closed",
        model="linear",
        ic=sg.ICSpec(eps=0.1),
        record_every=10**9,
    )
    rec = run_linear(cfg, net)
    with pytest.raises(DomainError):
        target_residual(rec, net)


def test_steady_trajectory_has_zero_residual(net, window):
    cfg = sg.SimConfig(
        t_final=0.2 * window,
        N=64,
        loop_mode="closed",
        model="linear",
        ic=sg.ICSpec(eps=0.0),
        record_every=1,
    )
    rec = run_linear(cfg, net)
    assert target_residual(rec, net) == pytest.approx(0.0, abs=1e-13)


@pytest.fixture(scope="module")
def residual_family(net, window):
    def residual(N, k):
        cfg = sg.SimConfig(
            t_final=window,
            N=N,
            loop_mode="closed",
            model="linear",
            ic=sg.ICSpec(eps=0.1, k1=k, k2=k),
            record_every=1,
        )
        return target_residual(run_linear(cfg, net), net)

    return residual


def test_target_residual_first_order_on_second_harmonic(residual_family):
    # initial data cannot satisfy the junction target relation, so the sup
    # residual carries a start-up kink; the second harmonic keeps the smooth
    # truncation terms dominant and the halving shows through
    r64 = residual_family(64, 2)
    r128 = residual_family(128, 2)
    r256 = residual_family(256, 2)
    assert r128 / r64 <= 0.6
    assert r256 / r128 <= 0.6


def test_target_residual_shrinks_with_resolution(residual_family):
    r64 = residual_family(64, 1)
    r128 = residual_family(128, 1)
    r256 = residual_family(256, 1)
    assert r128 < r64
    assert r256 < r128


def test_junction_row_enforced_each_step(net, rows, window):
    cfg = sg.SimConfig(
        t_final=0.5 * window,
        N=64,
        loop_mode="closed",
        model="linear",
        ic=sg.ICSpec(eps=0.1),
        record_every=4,
    )
    rec = run_linear(cfg, net)
    worst = 0.0
    for i in range(1, len(rec.times)):
        lhs = rec.vtil2[i][-1]
        rhs = (
            rows.g_t * rec.vtil1[i][0]
            + rows.g_a * rec.wbar2[i][-1]
            + rows.g_control * rec.u0[i]
        )
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def _reference_target_residual(record, net):
    """The residual one pair of records and one record at a time, as a
    reference for the stacked blocks of ``target_residual``: the same
    expressions, so the value and its type must agree exactly."""
    targets, times = record.target, record.times
    rows = boundary_rows(net)
    lam_w1, lam_v1 = net.ss1.lambda_w, net.ss1.lambda_v
    lam_w2, lam_v2 = net.ss2.lambda_w, net.ss2.lambda_v
    h1 = targets[0].grid1[1] - targets[0].grid1[0]
    h2 = targets[0].grid2[1] - targets[0].grid2[0]
    res = 0.0
    for n in range(len(targets) - 1):
        dt = times[n + 1] - times[n]
        a, b = targets[n], targets[n + 1]
        ra1 = (b.alpha1[1:] - a.alpha1[1:]) / dt + lam_w1 * (a.alpha1[1:] - a.alpha1[:-1]) / h1
        ra2 = (b.alpha2[1:] - a.alpha2[1:]) / dt + lam_w2 * (a.alpha2[1:] - a.alpha2[:-1]) / h2
        rb1 = (b.beta1[:-1] - a.beta1[:-1]) / dt - lam_v1 * (a.beta1[1:] - a.beta1[:-1]) / h1
        rb2 = (b.beta2[:-1] - a.beta2[:-1]) / dt - lam_v2 * (a.beta2[1:] - a.beta2[:-1]) / h2
        res = max(res, *(float(np.max(np.abs(r))) for r in (ra1, ra2, rb1, rb2)))
    for st_ in targets[1:]:
        res = max(
            res,
            abs(st_.beta1[-1] - rows.g_outlet * st_.alpha1[-1]),
            abs(st_.alpha1[0] - st_.alpha2[-1]),
            abs(st_.alpha2[0] - rows.g_inlet * st_.beta2[0]),
            abs(st_.beta2[-1] - rows.g_t * st_.beta1[0] - rows.g_a * st_.alpha2[-1]),
        )
    return res


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("run", ["linear closed", "linear open", "nonlinear closed"])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    eps=st.floats(0.0, 0.05),
    k=st.integers(1, 3),
    phase1=st.floats(0.0, 2.0 * np.pi),
    phase2=st.floats(0.0, 2.0 * np.pi),
)
def test_stacked_target_residual_matches_pair_loop(
    net, window, run, record_every, eps, k, phase1, phase2
):
    # open-loop records with targets let the boundary relations win, and the
    # result is then a numpy scalar; the interior maxima give a float
    model, loop = run.split()
    cfg = sg.SimConfig(t_final=0.3 * window, N=32, loop_mode=loop, model=model,
                       ic=sg.ICSpec(eps=eps, k1=k, k2=4 - k, phase1=phase1, phase2=phase2),
                       record_every=record_every)
    closed = loop == "closed"
    rec = (run_linear if model == "linear" else run_nonlinear)(cfg, net)
    if not closed:
        # an open-loop run records no targets: transform its states the way
        # the recorder does for a closed loop
        ops = sg.FeedbackOperators(net, rec.grid1, rec.grid2)
        rec.target = backstepping_transform(
            ops, unscale_w(rec.grid1, rec.wbar1, net.ss1, net.seg1), rec.vtil1,
            unscale_w(rec.grid2, rec.wbar2, net.ss2, net.seg2), rec.vtil2)
    got, want = target_residual(rec, net), _reference_target_residual(rec, net)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("run", [run_linear, run_nonlinear])
def test_target_states_share_the_record_grids(net, window, run):
    # a target state holds the grids of the record, not copies of them
    cfg = sg.SimConfig(t_final=0.1 * window, N=32, loop_mode="closed",
                       model="linear" if run is run_linear else "nonlinear",
                       ic=sg.ICSpec(eps=0.03), record_every=4)
    rec = run(cfg, net)
    assert len(rec.target) == len(rec.times) > 3
    for st_ in rec.target:
        assert st_.grid1 is rec.grid1 and st_.grid2 is rec.grid2
