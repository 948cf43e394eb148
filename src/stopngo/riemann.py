"""Maps between physical, Riemann, and exponentially rescaled field variables.

A congested segment carries two characteristic families: the driver-property
perturbation travels downstream at v*, the velocity perturbation upstream at
gamma*p* - v*. The rescaling exp(x/(tau v*)) absorbs the relaxation decay of
the first family so that both transports become source-free apart from the
cross coupling c(x).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import NetworkParams, SegmentParams, SteadyState


def to_riemann(rho, v, ss: SteadyState, params: SegmentParams):
    """Characteristic coordinates (w-tilde, v-tilde) about the steady state.

    w-tilde = (gamma p*/q*) (rho v - q*) - (1/r) (v - v*),  v-tilde = v - v*.

    w-tilde is the linearization of the driver property w = v + p(rho) in
    (rho v, v), since 1 - gamma p*/v* = -1/r; it is the quantity the plant
    transports at v*. The arrays may be rows or (K, N+1) blocks.
    """
    vt = v - ss.v_star
    wt = params.gamma * ss.p_star / ss.q_star * (rho * v - ss.q_star) - vt / ss.r
    return wt, vt


def scale_factor(grid, ss: SteadyState, params: SegmentParams) -> np.ndarray:
    """exp(x/(tau v*)), the factor scale_w applies to w-tilde."""
    return np.exp(grid / (params.tau * ss.v_star))


def physical_arrays(wt, vt, ss: SteadyState, params: SegmentParams):
    """(rho, v) from (w-tilde, v-tilde), the inverse of to_riemann; no range guard."""
    v = ss.v_star + vt
    flux = ss.q_star + (ss.q_star / (params.gamma * ss.p_star)) * (wt + vt / ss.r)
    return flux / v, v


def scale_w(x, wt, ss: SteadyState, params: SegmentParams) -> np.ndarray:
    """w-bar(x) = exp(x/(tau v*)) w-tilde(x); v-tilde is the same in both."""
    return scale_factor(x, ss, params) * wt


def coupling_coefficient(x, ss: SteadyState, params: SegmentParams):
    """Cross-coupling rate c(x) = -(1/tau) exp(-x/(tau v*)), strictly negative."""
    x = np.asarray(x, dtype=float)
    lo, hi = params.interval
    if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
        raise DomainError(f"position outside segment interval [{lo}, {hi}]")
    out = -(1.0 / params.tau) * np.exp(-x / (params.tau * ss.v_star))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BoundaryRows:
    """Reflection/transmission gains of the linearized boundary conditions.

    In rescaled variables the four boundary relations read
        outlet   : v1(L)  = g_outlet * w1(L)
        junction : w1(0)  = g_junction_w * w2(0)
        junction : v2(0)  = g_t * v1(0) + g_a * w2(0) + g_control * U0
        inlet    : w2(-L) = g_inlet * v2(-L)
    They are the Jacobian of the boundary algebra the nonlinear plant
    enforces (``sim.boundary_algebra``): flux q* at the outlet and the inlet;
    at the junction, continuity of w, the outgoing v1, and q1 = q2 + U0.
    With gamma p* = v* (1 + r)/r this gives
        g_outlet = -r1 e1,  g_inlet = -e2/r2,  g_junction_w = 1,
        g_t = v2* (1 + r2) / (v1* (1 + r1)),  g_a = r1 g_t - r2,
        g_control = -v2* (1 + r2) / q*.
    """
    g_outlet: float
    g_junction_w: float
    g_inlet: float
    g_t: float
    g_a: float
    g_control: float
    r1: float
    r2: float
    e1: float  # exp(-L/(tau1 v1*))
    e2: float  # exp(-L/(tau2 v2*))


def boundary_rows(net: NetworkParams) -> BoundaryRows:
    ss1, ss2 = net.ss1, net.ss2
    r1, r2 = ss1.r, ss2.r
    if not (0.0 < r1 < 1.0 and 0.0 < r2 < 1.0):
        raise DomainError(
            f"boundary rows need 0 < r < 1 on both segments, got r1 = {r1}, r2 = {r2}"
        )
    e1 = float(np.exp(-net.seg1.length / (net.seg1.tau * ss1.v_star)))
    e2 = float(np.exp(-net.seg2.length / (net.seg2.tau * ss2.v_star)))
    g_t = ss2.v_star * (1.0 + r2) / (ss1.v_star * (1.0 + r1))
    return BoundaryRows(
        g_outlet=-r1 * e1,
        g_junction_w=1.0,
        g_inlet=-e2 / r2,
        g_t=g_t,
        g_a=r1 * g_t - r2,
        g_control=-ss2.v_star * (1.0 + r2) / ss2.q_star,
        r1=r1,
        r2=r2,
        e1=e1,
        e2=e2,
    )
