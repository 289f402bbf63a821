"""
Parallel transport of the linear fiber connection along base paths, and
the comparison evolution operator between the transports of two
connections differing by a change of splitting.

Paths are polylines with exact rational breakpoints, so the velocity is
exact on each segment.  Transport integrates the coefficient system

    dc/dt = M(t) c,   M[t_idx][s_idx] = sum_i dsigma^i theta[i][s][t]

with fixed-step classical RK4.  For two connections related by mu the
transports satisfy  P~(t) = P(t) T(t)  where T solves

    dT/dt = -Xi(t) T,   Xi(t) = P(t)^-1 (ad mu(sigma'(t))) P(t),

the sign pinned by the constant-generator exponential oracle.
"""

import sys
from fractions import Fraction

import numpy as np

from .report import CheckReport
from .series import FloatEvaluator
from .algebroid import change_connection
from .moser import rk4_step


class BasePath:
    """Polyline in the base chart with exact rational breakpoints,
    parametrized uniformly on [0, 1]."""

    def __init__(self, points, closed=False):
        if len(points) < 2:
            raise ValueError("a path needs at least two breakpoints")
        dim = len(points[0])
        pts = []
        for p in points:
            if len(p) != dim:
                raise ValueError("breakpoints of mixed dimension")
            pts.append(tuple(Fraction(v) for v in p))
        if any(abs(v) > sys.float_info.max for p in pts for v in p):
            raise ValueError("breakpoints must lie within the float range")
        if closed and pts[0] != pts[-1]:
            raise ValueError("closed path must end at its starting point")
        self.dim = dim
        self.points = pts
        self.closed = closed

    @property
    def n_segments(self):
        return len(self.points) - 1

    def segment(self, k):
        """(start point, velocity) of segment k as float arrays."""
        a = np.array([float(v) for v in self.points[k]])
        b = np.array([float(v) for v in self.points[k + 1]])
        return a, (b - a) * self.n_segments


# steps whose stage points are evaluated at once: bounds the arrays of a long grid
BLOCK_STEPS = 16


def _grid(path, steps, chart, series):
    """
    The fixed RK4 grid along a path in blocks of at most BLOCK_STEPS steps, the
    step budget split evenly across the segments: (step, velocity, values of
    ``series`` at the block's points).  Step m of a block runs over rows 2m to 2m+2.
    """
    evaluate = FloatEvaluator(series)
    nseg = path.n_segments
    per = max(1, -(-steps // nseg))
    h = 1.0 / (nseg * per)
    for k in range(nseg):
        start, vel = path.segment(k)
        seg = vel / nseg  # chord of this segment
        for m0 in range(0, per, BLOCK_STEPS):
            q = np.arange(2 * m0, 2 * min(per, m0 + BLOCK_STEPS) + 1, dtype=float)
            z = np.zeros((len(q), chart.n_vars))
            z[:, :path.dim] = start + (q / (2 * per))[:, None] * seg
            yield h, vel, evaluate(z)


def _generators(vel, theta_vals, r):
    """M[t][s] = sum_i v_i theta[i][s][t] at each point, from the values
    of one or more flattened theta: shape (points, thetas, r, r)."""
    M = vel @ theta_vals.reshape(len(theta_vals), -1, len(vel), r * r)
    return M.reshape(len(theta_vals), -1, r, r).swapaxes(2, 3)


def parallel_transport(a_data, path, steps, theta=None, grid=False):
    """
    Fundamental solution of the transport system at t=1 (an r x r float
    matrix), or the whole grid of solutions when ``grid`` is true.

    ``theta`` defaults to the connection coefficients of ``a_data``.
    The step budget is split evenly across polyline segments.
    """
    chart = a_data.chart
    r = chart.fiber_dim
    if path.dim != chart.base_dim:
        raise ValueError("path dimension does not match the base")
    theta = a_data.theta if theta is None else theta
    P = np.eye(r)
    out = [P.copy()]
    flat = [x for row in theta for cell in row for x in cell]
    for h, vel, vals in _grid(path, steps, chart, flat):
        M = _generators(vel, vals, r)[:, 0]
        for q in range(0, len(vals) - 1, 2):
            P = rk4_step(lambda q, y: M[q] @ y, P, h, q, q + 1, q + 2)
            out.append(P.copy())
    return out if grid else P


def holonomy_compare(a_data, m, path, steps):
    """
    Transport both connections and integrate the comparison evolution
    operator on a shared grid; report the maximal deviation
    max_t ||P~(t) - P(t) T(t)|| over the grid.
    """
    chart = a_data.chart
    b, r = chart.base_dim, chart.fiber_dim
    if path.dim != b:
        raise ValueError("path dimension does not match the base")
    a2 = change_connection(a_data, m)
    series = [x for cube in (a_data.theta, a2.theta, a_data.lam) for row in cube
              for cell in row for x in cell] + [x for row in m.mu for x in row]
    # the stacked transports P, P~ and the comparison operator T
    state = np.stack((np.eye(r), np.eye(r), np.eye(r)))
    deviations = [0.0]
    for h, vel, vals in _grid(path, steps, chart, series):
        th, lam, mu = np.split(vals, [2 * b * r * r, (2 * b + r) * r * r], axis=1)
        M = _generators(vel, th, r)
        # ad mu(sigma')[t][s] = sum_n (sum_i v_i mu[i][n]) lam[n][s][t]
        mu = vel @ mu.reshape(len(vals), b, r)
        A = (mu[:, None] @ lam.reshape(len(vals), r, r * r)).reshape(-1, r, r).swapaxes(1, 2)

        def joint_rhs(q, state):
            P, Pt, T = state
            Xi = np.linalg.solve(P, A[q] @ P)
            return np.concatenate((M[q] @ state[:2], [-Xi @ T]))

        for q in range(0, len(vals) - 1, 2):
            state = rk4_step(joint_rhs, state, h, q, q + 1, q + 2)
            P, Pt, T = state
            deviations.append(float(np.max(np.abs(Pt - P @ T))))
    dev = max(deviations)
    report = CheckReport("holonomy-comparison")
    report.add("transport-comparison", "holonomy", None, True, "%.3e" % dev,
               detail=dev)
    return report
