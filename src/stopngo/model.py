"""Fundamental-diagram algebra and congested steady states for a two-segment network.

Units are SI throughout: veh/m, m/s, s, m. Segment 1 is the outgoing road on
[0, L], segment 2 the incoming road on [-L, 0]; they meet at x = 0 where the
metered on-ramp joins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import AssumptionError, DomainError, InfeasibleError

_REL_TOL = 1e-12
_MAX_ITER = 200


@dataclass(frozen=True)
class SegmentParams:
    v_max: float
    rho_max: float
    gamma: float
    tau: float
    length: float
    segment_id: int

    def __post_init__(self):
        for name in ("v_max", "rho_max", "gamma", "tau", "length"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if self.segment_id not in (1, 2):
            raise DomainError(f"segment_id must be 1 or 2, got {self.segment_id}")

    @property
    def pressure_coeff(self) -> float:
        return self.v_max / self.rho_max**self.gamma

    @property
    def interval(self) -> tuple[float, float]:
        """Spatial extent: [0, L] for segment 1, [-L, 0] for segment 2."""
        if self.segment_id == 1:
            return (0.0, self.length)
        return (-self.length, 0.0)


@dataclass(frozen=True)
class SteadyState:
    rho_star: float
    v_star: float
    p_star: float
    q_star: float
    r: float | None = None
    lambda_w: float | None = None
    lambda_v: float | None = None
    kappa: float | None = None


@dataclass(frozen=True)
class NetworkParams:
    seg1: SegmentParams
    seg2: SegmentParams
    ss1: SteadyState
    ss2: SteadyState

    def __post_init__(self):
        if self.seg1.segment_id != 1 or self.seg2.segment_id != 2:
            raise DomainError("network segments must carry ids 1 and 2")
        if self.seg1.v_max != self.seg2.v_max:
            raise DomainError("both segments must share the same v_max")
        q = self.ss1.q_star
        if abs(self.ss1.q_star - self.ss2.q_star) > _REL_TOL * abs(q):
            raise DomainError("steady fluxes of the two segments do not match")


_SEGMENT_NAMES = {f.name for f in fields(SegmentParams)} | {"pressure_coeff"}
_STEADY_NAMES = {f.name for f in fields(SteadyState)}


def stacked(net: NetworkParams, n: int, *names: str) -> np.ndarray:
    """The named SegmentParams or SteadyState values of both segments, each as
    a (2, n) array of n copies per segment, segment 1 first. Returns them
    along a leading axis, one per name, so they unpack in the order asked."""
    pairs = []
    for name in names:
        if name in _SEGMENT_NAMES:
            pairs.append((getattr(net.seg1, name), getattr(net.seg2, name)))
        elif name in _STEADY_NAMES:
            pairs.append((getattr(net.ss1, name), getattr(net.ss2, name)))
        else:
            raise DomainError(f"no segment parameter or steady-state value named {name!r}")
    return np.array([[[a] * n, [b] * n] for a, b in pairs], dtype=float)


def _check_rho(rho, params: SegmentParams):
    arr = np.asarray(rho, dtype=float)
    if np.any(arr < 0) or np.any(arr > params.rho_max):
        raise DomainError(f"density outside [0, {params.rho_max}]")
    return arr if arr.ndim else float(arr)


def pressure(rho, params: SegmentParams):
    """Traffic pressure p(rho) = c * rho^gamma, with c = v_max / rho_max^gamma."""
    rho = _check_rho(rho, params)
    return pressure_law(rho, params.pressure_coeff, params.gamma)


def pressure_law(rho, coeff, gamma):
    """c * rho^gamma without the range guard. The parameters broadcast, so
    (n, 1) columns of c and gamma evaluate n stacked segments in one call.

    At gamma exactly 0.5 or 2, numpy's sqrt or square path may differ in the
    last bit from its general power. A scalar gamma takes that path; so does
    an (n, 1) column on one row, or on rows longer than 4096 nodes (numpy
    2.4.6); a full row of gamma never does. Other exponents agree on any shape.
    """
    return coeff * rho**gamma


def equilibrium_velocity(rho, params: SegmentParams):
    """Greenshields-type speed V(rho) = v_max * (1 - (rho/rho_max)^gamma)."""
    rho = _check_rho(rho, params)
    return params.v_max - pressure(rho, params)


def equilibrium_flow(rho, params: SegmentParams):
    """Fundamental diagram Q(rho) = rho * V(rho)."""
    rho = _check_rho(rho, params)
    return rho * equilibrium_velocity(rho, params)


def critical_density(params: SegmentParams) -> float:
    """Density separating the free and congested regimes (the flow maximizer)."""
    return params.rho_max / (1.0 + params.gamma) ** (1.0 / params.gamma)


def congested_flux_root(w: float, q: float, params: SegmentParams) -> float:
    """Solve rho * (w - p(rho)) = q for rho on the congested branch.

    For a fixed driver property w the flux rho*(w - p(rho)) peaks at
    rho_cr(w) = (w / (c (1+gamma)))^(1/gamma); the congested root lies in
    [rho_cr(w), rho0(w)] where rho0(w) is the zero-speed density. Raises
    InfeasibleError when q exceeds the capacity at this w.
    """
    if w <= 0:
        raise DomainError("driver property w must be positive")
    if q < 0:
        raise DomainError("flux must be nonnegative")
    c = params.pressure_coeff
    g = params.gamma
    rho_cr = (w / (c * (1.0 + g))) ** (1.0 / g)
    cap = rho_cr * w * g / (1.0 + g)
    if q > cap:
        raise InfeasibleError(f"flux {q} exceeds capacity {cap} at w = {w}")
    if q == 0.0:
        return (w / c) ** (1.0 / g)
    if g == 1.0:
        # c rho^2 - w rho + q = 0, larger root is the congested one
        disc = w * w - 4.0 * c * q
        if disc < 0:
            raise InfeasibleError(f"flux {q} exceeds capacity {cap} at w = {w}")
        return (w + math.sqrt(disc)) / (2.0 * c)
    lo, hi = rho_cr, (w / c) ** (1.0 / g)
    f = lambda rho: rho * (w - c * rho**g) - q
    flo = f(lo)
    if flo < 0:
        raise InfeasibleError(f"flux {q} exceeds capacity {cap} at w = {w}")
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _REL_TOL * hi:
            break
    # Newton polish: the bisection tolerance is on rho, but callers compare
    # the recomputed flux rho*V(rho) against q, so drive f itself to zero
    rho = 0.5 * (lo + hi)
    for _ in range(8):
        df = w - c * (g + 1.0) * rho**g
        if df == 0.0:
            break
        step = f(rho) / df
        rho -= step
        if abs(step) <= 4.0 * np.finfo(float).eps * rho:
            break
    return rho


def riemann_coefficients(ss: SteadyState, params: SegmentParams) -> SteadyState:
    """Fill the characteristic data (r, lambda_w, lambda_v, kappa) of a steady state."""
    lambda_v = params.gamma * ss.p_star - ss.v_star
    if lambda_v <= 0:
        raise AssumptionError(
            f"steady state not congested on segment {params.segment_id}: "
            f"gamma*p* - v* = {lambda_v} <= 0"
        )
    r = ss.v_star / lambda_v
    if r >= 1:
        lo, hi = admissible_flux_interval(params)
        raise AssumptionError(
            f"characteristic-speed ratio r = {r} >= 1 on segment "
            f"{params.segment_id}; admissible q_star interval is ({lo}, {hi})"
        )
    kappa = params.length / ss.v_star + params.length / lambda_v
    return replace(ss, r=r, lambda_w=ss.v_star, lambda_v=lambda_v, kappa=kappa)


def admissible_flux_interval(params: SegmentParams) -> tuple[float, float]:
    """Open interval of q_star values whose congested root satisfies 0 < r < 1."""
    g = params.gamma
    rho_bound = params.rho_max * (2.0 / (g + 2.0)) ** (1.0 / g)
    return (0.0, float(equilibrium_flow(rho_bound, params)))


def solve_steady_states(
    q_star: float, seg1: SegmentParams, seg2: SegmentParams
) -> tuple[SteadyState, SteadyState]:
    """Congested equilibria carrying the same flux q_star on both segments."""
    if not q_star > 0:
        raise InfeasibleError(f"q_star must be positive, got {q_star}")
    out = []
    for params in (seg1, seg2):
        cap = float(equilibrium_flow(critical_density(params), params))
        if q_star >= cap:
            raise InfeasibleError(
                f"q_star = {q_star} meets or exceeds capacity {cap} of segment "
                f"{params.segment_id}"
            )
        rho = congested_flux_root(params.v_max, q_star, params)
        v = float(equilibrium_velocity(rho, params))
        ss = SteadyState(
            rho_star=rho, v_star=v, p_star=float(pressure(rho, params)), q_star=rho * v
        )
        out.append(riemann_coefficients(ss, params))
    return out[0], out[1]


def make_network(seg1: SegmentParams, seg2: SegmentParams, q_star: float) -> NetworkParams:
    ss1, ss2 = solve_steady_states(q_star, seg1, seg2)
    return NetworkParams(seg1=seg1, seg2=seg2, ss1=ss1, ss2=ss2)
