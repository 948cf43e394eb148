"""Reference implementations that the tests compare the program against.

Each is a direct, unoptimized form of a map the program computes another
way: the inverse pressure and the inverse Riemann maps, the feedback
operators built one segment at a time, and the dense kernel-table path of
the feedback law and the Volterra transform.
"""
import numpy as np

from stopngo.control import TargetState, trap_weights
from stopngo.errors import DomainError
from stopngo.kernels import kernel_constant
from stopngo.riemann import boundary_rows, physical_arrays, scale_factor


def inverse_pressure(p_val, params):
    """Density at which the pressure equals p_val."""
    if isinstance(p_val, float):  # scalars skip the array round trip
        if p_val < 0:
            raise DomainError("pressure must be nonnegative")
        return params.rho_max * (float(p_val) / params.v_max) ** (1.0 / params.gamma)
    p_val = np.asarray(p_val, dtype=float)
    if np.any(p_val < 0):
        raise DomainError("pressure must be nonnegative")
    out = params.rho_max * (p_val / params.v_max) ** (1.0 / params.gamma)
    return out if out.ndim else float(out)


def from_riemann(wt, vt, ss, params):
    """(rho, v), the exact affine inverse of to_riemann, guarded to the
    physical box."""
    # checked before physical_arrays divides by the velocity
    if np.any(ss.v_star + vt <= 0):
        raise DomainError("recovered velocity is not positive")
    rho, v = physical_arrays(wt, vt, ss, params)
    if np.any(rho <= 0) or np.any(rho >= params.rho_max):
        raise DomainError("recovered density left the open interval (0, rho_max)")
    return rho, v


def law_rows(wt, vt, ss, params):
    """(rho v, v), the exact affine inverse of to_riemann in the flux and the
    velocity that the feedback law reads; no range guard."""
    gain = params.gamma * ss.p_star / ss.q_star
    return ss.q_star + (wt + vt / ss.r) / gain, ss.v_star + vt


def segment_operators(net, grid1, grid2):
    """The rows of FeedbackOperators, built one segment at a time: D_i from
    kernel_constant, h_i from each grid, the trapezoid weights, j_i and the
    scale_w factors per segment, and the law rows from each segment's
    to_riemann parameters (v*, q*, gamma p*/q*, r). A dict of the
    operators' attribute names, with the segment pairs stacked."""
    segments = ((grid1, net.ss1, net.seg1), (grid2, net.ss2, net.seg2))
    D = [kernel_constant(1, net), kernel_constant(2, net)]
    h = [(g[-1] - g[0]) / (g.size - 1) for g in (grid1, grid2)]
    j = [d * trap_weights(g.size, hi) for d, g, hi in zip(D, (grid1, grid2), h)]
    v_star, q_star, gain, r = (
        np.repeat([[a], [b]], grid1.size, axis=1)
        for a, b in zip(*((ss.v_star, ss.q_star, params.gamma * ss.p_star / ss.q_star, ss.r)
                          for _, ss, params in segments)))
    rows = boundary_rows(net)
    c = np.array([[-rows.g_t], [1.0]]) / rows.g_control
    j = np.stack(j)
    return dict(D=np.array([[D[0]], [D[1]]]), h=np.array([[h[0]], [h[1]]]), j=j,
                scale=np.stack([scale_factor(g, ss, params) for g, ss, params in segments]),
                v_star=v_star, q_star=q_star,
                law_flux=c * gain * j, law_v=-c * (1.0 + 1.0 / r) * j)


def unscale_w(x, wbar, ss, params):
    """w-tilde = exp(-x/(tau v*)) w-bar, the inverse of scale_w."""
    return scale_factor(-x, ss, params) * wbar


def volterra_matrix(K, h, upper):
    """K with row j trapezoid-weighted over its range, columns j..M on
    segment 1 (upper) and 0..j on segment 2 (lower)."""
    A = np.triu(K) if upper else np.tril(K)
    A *= h
    A.flat[:: A.shape[0] + 1] *= 0.5
    edge = -1 if upper else 0
    A[:, edge] *= 0.5
    A[edge, edge] = 0.0  # a one-node range integrates to zero
    return A


def dense_target(x1, w1, v1, x2, w2, v2, table1, table2, net):
    """The transform as two triangular matrix-vector products per segment, on
    Riemann states (w-tilde_i, v-tilde_i) that lie on the table grids."""
    beta1 = v1 - (volterra_matrix(table1.Kvw, table1.h, True) @ w1
                  + volterra_matrix(table1.Kvv, table1.h, True) @ v1)
    beta2 = v2 - (volterra_matrix(table2.Kvw, table2.h, False) @ w2
                  + volterra_matrix(table2.Kvv, table2.h, False) @ v2)
    return TargetState(x1, x2,
                       scale_factor(x1, net.ss1, net.seg1) * w1, beta1,
                       scale_factor(x2, net.ss2, net.seg2) * w2, beta2)


def dense_u0(w1, v1, w2, v2, table1, table2, net):
    """U0 from the junction rows of the tables, K^vw w-tilde + K^vv v-tilde
    integrated by the trapezoid rule over each segment."""
    rows = boundary_rows(net)
    M1, M2 = table1.M, table2.M
    i1 = trap_weights(M1 + 1, table1.h) @ (table1.Kvw[0] * w1 + table1.Kvv[0] * v1)
    i2 = trap_weights(M2 + 1, table2.h) @ (table2.Kvw[M2] * w2 + table2.Kvv[M2] * v2)
    return float((i2 - rows.g_t * i1) / rows.g_control)
