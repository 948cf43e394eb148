"""Boundary-coupling spectral test and the scalar delay-difference model.

Dissipativity of the boundary loop is measured two independent ways: the
infimum of the scaled 2-norm of the coupling matrix, computed as the Perron
root of its absolute value, and a closed form built from the two cycle gains
of that matrix. Agreement of the two is part of the acceptance suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DomainError
from .model import NetworkParams
from .riemann import boundary_rows


def coupling_matrix(net: NetworkParams) -> np.ndarray:
    """4x4 boundary-coupling matrix in the state order (w1, v2, v1, w2).

    Only five entries are structurally nonzero, each one a boundary row: the
    w pass-through at the junction, the two junction gains feeding v2, and
    one reflection per outer boundary (g_outlet, g_inlet).
    """
    rows = boundary_rows(net)
    H = np.zeros((4, 4))
    H[0, 3] = rows.g_junction_w
    H[1, 2] = rows.g_t
    H[1, 3] = rows.g_a
    H[2, 0] = rows.g_outlet
    H[3, 1] = rows.g_inlet
    return H


def _sign_equivalent(H: np.ndarray) -> bool:
    """Whether diagonal sign matrices S, T give S H T = |H|.

    Signs propagate from each unvisited row or column over the bipartite
    graph that joins row i to column j when H_ij is nonzero; a conflict
    means some cycle of entries multiplies to a negative number.
    """
    n = H.shape[0]
    z = np.zeros((n, n))
    B = np.block([[z, np.sign(H)], [np.sign(H).T, z]])
    sign = np.zeros(2 * n)
    for root in range(2 * n):
        if sign[root]:
            continue
        sign[root] = 1.0
        stack = [root]
        while stack:
            a = stack.pop()
            for b in np.flatnonzero(B[a]):
                want = B[a, b] * sign[a]
                if not sign[b]:
                    sign[b] = want
                    stack.append(b)
                elif sign[b] != want:
                    return False
    return True


def sp1(H: np.ndarray) -> float:
    """Infimum over positive diagonal scalings D of ||D H D^-1||_2.

    When diagonal sign matrices take H to |H|, the scaled norm of H equals
    that of |H|, whose infimum is the Perron root rho(|H|): for irreducible
    |H| the scaling D = sqrt(w/u) from its right and left Perron vectors u
    and w attains it, and for reducible |H| it is the limit (Sezginer &
    Overton, IEEE TAC 1990). Any other sign pattern raises AssumptionError.
    """
    H = np.asarray(H, dtype=float)
    if H.shape != (4, 4) or not np.all(np.isfinite(H)):
        raise DomainError("sp1 expects a finite 4x4 real matrix")
    if not _sign_equivalent(H):
        raise AssumptionError(
            "sp1: H is not sign-equivalent to |H|, so its scaled norm is not "
            "the Perron root of |H|"
        )
    return float(np.max(np.abs(np.linalg.eigvals(np.abs(H)))))


def closed_form_condition(net: NetworkParams) -> tuple[float, float, float]:
    """(value, a, b) with value = sqrt((a + sqrt(a^2 + 4b))/2); stable iff value < 1.

    a = |g_a g_inlet| and b = |g_junction_w g_t g_outlet g_inlet| are the gains
    of the two cycles of the coupling matrix H. Read as a bipartite graph of
    rows and columns, the nonzero pattern of H is a forest, so diagonal sign
    matrices give S1 H S2 = |H| and the scaled 2-norm depends only on |H|;
    for a nonnegative irreducible matrix its infimum is the Perron root, the
    positive root of lambda^4 - a lambda^2 - b (Bastin & Coron 2016,
    dissipative boundary conditions).
    """
    rows = boundary_rows(net)
    a = abs(rows.g_a * rows.g_inlet)
    b = abs(rows.g_junction_w * rows.g_t * rows.g_outlet * rows.g_inlet)
    value = float(np.sqrt((a + np.sqrt(a * a + 4.0 * b)) / 2.0))
    return value, float(a), float(b)


@dataclass(frozen=True)
class DifferenceModel:
    coef_short: float
    coef_long: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        if self.kappa1 <= 0 or self.kappa2 <= 0:
            raise DomainError("delays must be positive")


def build_difference_model(net: NetworkParams) -> DifferenceModel:
    """Delay recurrence satisfied by the junction trace of the target system.

    x(t) = coef_short x(t - kappa2) + coef_long x(t - kappa1 - kappa2),
    with coef_short = g_a g_inlet (the short cycle through segment 2) and
    coef_long = g_t g_outlet g_junction_w g_inlet (the long cycle through
    both segments).
    """
    rows = boundary_rows(net)
    return DifferenceModel(
        coef_short=rows.g_a * rows.g_inlet,
        coef_long=rows.g_t * rows.g_outlet * rows.g_junction_w * rows.g_inlet,
        kappa1=net.ss1.kappa,
        kappa2=net.ss2.kappa,
    )


@dataclass
class DifferenceSeries:
    times: np.ndarray
    values: np.ndarray
    rate: float | None
    diverged: bool
    delay_rounding_error: float


def simulate_difference(
    model: DifferenceModel, history, horizon: float, dt: float | None = None
) -> DifferenceSeries:
    """Iterate the delay recurrence from a given history on [-kappa1-kappa2, 0].

    history may be a scalar, an array sampled on that interval, or a callable
    of time. Delays are rounded to the nearest grid multiple; the rounding
    error is reported with the series. The rate is fitted from t = kappa1 +
    kappa2 on: earlier samples read the prescribed history directly, which
    need not lie on the envelope of any solution of the recurrence.
    """
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    if dt is None:
        dt = model.kappa2 / 256.0
    if dt > model.kappa2 / 200.0:
        raise DomainError("dt must not exceed kappa2/200")
    n2 = max(1, round(model.kappa2 / dt))
    n12 = max(n2 + 1, round((model.kappa1 + model.kappa2) / dt))
    rounding = max(abs(n2 * dt - model.kappa2), abs(n12 * dt - (model.kappa1 + model.kappa2)))
    n_hist = n12 + 1
    t_hist = np.arange(-n12, 1) * dt
    if callable(history):
        h = np.array([float(history(t)) for t in t_hist])
    else:
        h = np.asarray(history, dtype=float)
        if h.ndim == 0:
            h = np.full(n_hist, float(h))
        else:
            h = np.interp(t_hist, np.linspace(-(model.kappa1 + model.kappa2), 0.0, h.size), h)
    n_steps = int(np.ceil(horizon / dt))
    x = np.empty(n_hist + n_steps)
    x[:n_hist] = h
    for k in range(n_hist, n_hist + n_steps):
        x[k] = model.coef_short * x[k - n2] + model.coef_long * x[k - n12]
    times = (np.arange(n_hist + n_steps) - n12) * dt
    window = model.kappa1 + model.kappa2
    rate = fit_envelope_rate(times[n_hist + n12 :], x[n_hist + n12 :], window)
    diverged = bool(np.max(np.abs(x[n_hist:])) > 10.0 * (np.max(np.abs(h)) + 1e-300))
    return DifferenceSeries(times, x, rate, diverged, rounding)


def fit_envelope_rate(times: np.ndarray, values: np.ndarray, window: float) -> float | None:
    """Least-squares decay rate of the peak envelope over consecutive windows.

    Returns sigma >= 0 fitted to peak ~ exp(-sigma t); None when the signal is
    too small for a meaningful fit (already converged).
    """
    times = np.asarray(times, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    if times.size < 2:
        return None
    t0 = times[0]
    peaks, centers = [], []
    n_win = int((times[-1] - t0) / window)
    for i in range(n_win):
        mask = (times >= t0 + i * window) & (times < t0 + (i + 1) * window)
        if not mask.any():
            continue
        p = values[mask].max()
        if p < 1e-14:
            continue
        j = np.argmax(values[mask])
        peaks.append(p)
        centers.append(times[mask][j])
    if len(peaks) < 2:
        return None
    slope = np.polyfit(centers, np.log(peaks), 1)[0]
    return float(-slope)
