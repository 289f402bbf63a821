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

from fractions import Fraction

import numpy as np

from .report import CheckReport
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


def _rhs_factory(a_data, theta):
    chart = a_data.chart
    b, r = chart.base_dim, chart.fiber_dim
    pad = [0.0] * r

    def rhs(xi, dsig, P):
        z = list(xi) + pad
        M = np.zeros((r, r))
        for i in range(b):
            di = dsig[i]
            if di == 0.0:
                continue
            for s in range(r):
                for t in range(r):
                    v = theta[i][s][t].evaluate_float(z)
                    if v:
                        M[t][s] += di * v
        return M @ P

    return rhs


def _grid(path, steps):
    """
    The fixed RK4 grid along a path: (step, velocity, start, midpoint,
    end) of every step, with the step budget split evenly across the
    polyline segments.
    """
    nseg = path.n_segments
    per = max(1, -(-steps // nseg))
    h = 1.0 / (nseg * per)
    for k in range(nseg):
        start, vel = path.segment(k)
        seg = vel / nseg  # chord of this segment
        for m in range(per):
            yield (h, vel, start + (m / per) * seg, start + ((m + 0.5) / per) * seg,
                   start + ((m + 1.0) / per) * seg)


def parallel_transport(a_data, path, steps, theta=None, grid=False):
    """
    Fundamental solution of the transport system at t=1 (an r x r float
    matrix), or the whole grid of solutions when ``grid`` is true.

    ``theta`` defaults to the connection coefficients of ``a_data``.
    The step budget is split evenly across polyline segments.
    """
    chart = a_data.chart
    b, r = chart.base_dim, chart.fiber_dim
    if path.dim != b:
        raise ValueError("path dimension does not match the base")
    theta = a_data.theta if theta is None else theta
    rhs = _rhs_factory(a_data, theta)
    P = np.eye(r)
    out = [P.copy()]
    for h, vel, x_a, x_b, x_c in _grid(path, steps):
        P = rk4_step(lambda x, y: rhs(x, vel, y), P, h, x_a, x_b, x_c)
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
    rhs_p = _rhs_factory(a_data, a_data.theta)
    rhs_pt = _rhs_factory(a_data, a2.theta)
    lam = a_data.lam
    mu = m.mu
    pad = [0.0] * r

    def ad_mu(xi, dsig):
        z = list(xi) + pad
        muval = [sum(dsig[i] * mu[i][n].evaluate_float(z) for i in range(b))
                 for n in range(r)]
        A = np.zeros((r, r))
        for n in range(r):
            if muval[n] == 0.0:
                continue
            for s in range(r):
                for t in range(r):
                    v = lam[n][s][t].evaluate_float(z)
                    if v:
                        A[t][s] += muval[n] * v
        return A

    def joint_rhs(xi, dsig, state):
        P, Pt, T = state
        Xi = np.linalg.solve(P, ad_mu(xi, dsig) @ P)
        return np.stack((rhs_p(xi, dsig, P), rhs_pt(xi, dsig, Pt), -Xi @ T))

    # the stacked transports P, P~ and the comparison operator T
    state = np.stack((np.eye(r), np.eye(r), np.eye(r)))
    deviations = [0.0]
    for h, vel, x_a, x_b, x_c in _grid(path, steps):
        state = rk4_step(lambda x, y: joint_rhs(x, vel, y), state, h, x_a, x_b, x_c)
        P, Pt, T = state
        deviations.append(float(np.max(np.abs(Pt - P @ T))))
    dev = max(deviations)
    report = CheckReport("holonomy-comparison")
    report.add("transport-comparison", "holonomy", None, True, "%.3e" % dev,
               detail=dev)
    return report
