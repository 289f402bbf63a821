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

Every system here is linear, so an RK4 step is a matrix: y_{n+1} = S_n y_n,
with S_n a polynomial in the generators at the step's four stages, and the
inputs of stages 2 to 4 are C_k y_n.  The grid is walked in blocks: the step
matrices of a block are built at once with batched products, and the state
advances by one matrix product per step.  The comparison operator's
generators -Xi need the stage values C_k P of P, so a block transports
(P, P~) first, forms Xi at all its stage points with one batched solve, and
then builds and applies the step matrices of T.
"""

import sys
from fractions import Fraction

import numpy as np

from .report import CheckReport
from .series import FloatEvaluator
from .algebroid import change_connection


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

    @property
    def n_segments(self):
        return len(self.points) - 1

    def segment(self, k):
        """(start point, velocity) of segment k as float arrays."""
        a = np.array([float(v) for v in self.points[k]])
        b = np.array([float(v) for v in self.points[k + 1]])
        return a, (b - a) * self.n_segments


# steps whose stage points are evaluated at once: bounds the arrays of a long grid.
# A holonomy_compare pass at 1000 steps ran fastest from 128 on (fixed costs per
# block); 256 was no faster and held larger arrays
BLOCK_STEPS = 128


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


def _generators(vel, theta_vals, k, r):
    """M[t][s] = sum_i v_i theta[i][s][t] at each point, from the values
    of k flattened theta: shape (points, k, r, r)."""
    M = vel @ theta_vals.reshape(len(theta_vals), k, len(vel), r * r)
    return M.reshape(len(theta_vals), k, r, r).swapaxes(2, 3)


def _step_matrices(h, g1, g2, g3, g4):
    """
    Classical RK4 for y' = G y as matrices, for arrays (..., r, r) of the
    generators at the four stages of each step: the step matrices S, with
    y -> S y, and the stage maps (C2, C3, C4), the inputs of stages 2 to 4
    being C_k y.
    """
    eye = np.eye(g1.shape[-1])
    c2 = eye + h / 2 * g1
    k2 = g2 @ c2
    c3 = eye + h / 2 * k2
    k3 = g3 @ c3
    c4 = eye + h * k3
    return eye + h / 6 * (g1 + 2 * k2 + 2 * k3 + g4 @ c4), (c2, c3, c4)


def _stages(rows):
    """The values at a block's 2K+1 grid rows at the four stages of its K steps."""
    return rows[:-1:2], rows[1::2], rows[1::2], rows[2::2]


def _advance(steps, y):
    """y and its images under the step matrices in turn, each written in place."""
    out = np.empty((len(steps) + 1,) + y.shape)
    out[0] = y
    for k, S in enumerate(steps):
        np.matmul(S, out[k], out=out[k + 1])
    return out


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
    out = [np.eye(r)]
    flat = [x for row in theta for cell in row for x in cell]
    for h, vel, vals in _grid(path, steps, chart, flat):
        S, _ = _step_matrices(h, *_stages(_generators(vel, vals, 1, r)[:, 0]))
        out.extend(_advance(S, out[-1])[1:])
    return out if grid else out[-1]


def holonomy_compare(a_data, m, path, steps):
    """
    Transport both connections and integrate the comparison evolution
    operator on a shared grid; report the maximal deviation
    max_t ||P~(t) - P(t) T(t)|| over the grid.  A non-finite transport or
    deviation, a singular stage of P, or a P whose every entry is below the
    least normal float, fails the report at its first step.
    """
    chart = a_data.chart
    b, r = chart.base_dim, chart.fiber_dim
    if path.dim != b:
        raise ValueError("path dimension does not match the base")
    a2 = change_connection(a_data, m)
    series = [x for cube in (a_data.theta, a2.theta, a_data.lam) for row in cube
              for cell in row for x in cell] + [x for row in m.mu for x in row]
    report = CheckReport("holonomy-comparison")
    # the stacked transports P, P~, and the comparison operator T
    pair, T = np.stack((np.eye(r), np.eye(r))), np.eye(r)
    dev, done = 0.0, 0
    with np.errstate(all="ignore"):
        for h, vel, vals in _grid(path, steps, chart, series):
            th, lam, mu = np.split(vals, [2 * b * r * r, (2 * b + r) * r * r], axis=1)
            # ad mu(sigma')[t][s] = sum_n (sum_i v_i mu[i][n]) lam[n][s][t]
            mu = vel @ mu.reshape(len(vals), b, r)
            A = mu[:, None] @ lam.reshape(len(vals), r, r * r)
            A = A.reshape(len(vals), r, r).swapaxes(1, 2)
            S, C = _step_matrices(h, *_stages(_generators(vel, th, 2, r)))
            pairs = _advance(S, pair)
            # P at the four stages of each step, and Xi = P^-1 A P there
            P0 = pairs[:-1, 0]
            Pst = np.stack((P0,) + tuple(c[:, 0] @ P0 for c in C), axis=1)
            singular = (np.abs(P0) < np.finfo(float).tiny).all(axis=(1, 2)) & (r > 0)
            try:
                Xi = np.linalg.solve(Pst, np.stack(_stages(A), axis=1) @ Pst)
            except np.linalg.LinAlgError:
                singular |= (np.linalg.slogdet(Pst)[0] == 0).any(axis=1)
            if singular.any():  # name the first step
                report.add("transport-comparison", "holonomy", None, False,
                           "transport singular at step %d" % (done + np.flatnonzero(singular)[0]))
                return report
            ST, _ = _step_matrices(h, *np.moveaxis(-Xi, 1, 0))
            Ts = _advance(ST, T)
            P, Pt = pairs[1:, 0], pairs[1:, 1]
            gap = np.abs(Pt - P @ Ts[1:])
            block = np.max(gap, initial=0.0)
            if not np.isfinite(block):
                bad = np.flatnonzero(~np.isfinite(gap).all(axis=(1, 2)))[0]
                report.add("transport-comparison", "holonomy", None, False,
                           "transport not finite at step %d" % (done + bad))
                return report
            dev = max(dev, float(block))
            pair, T, done = pairs[-1], Ts[-1], done + len(S)
    report.add("transport-comparison", "holonomy", None, True, "%.3e" % dev,
               detail=dev)
    return report
