"""Low-level complex-analytic kernels.

Polynomial root finding (simultaneous Aberth-Ehrlich iteration with a
companion-matrix fallback), truncated power-series algebra, directed contours
made of line/arc segments, adaptive Gauss-Legendre quadrature along contours
(one integrand call per refinement level), discrete-Fourier Laurent windows on
circles, and guarded dense solves.

Everything is plain numpy; evaluators passed in must accept vectorized
complex arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ROOT_TOL = 1e-12
QUAD_REL_TOL = 1e-12    # integrate_stack's panel test, relative to an integrand's scale
QUAD_ABS_FLOOR = 1e-14  # integrate_stack's panel test, absolute floor
QUAD_ORDER = 12         # Gauss-Legendre nodes of a panel's coarse rule; the fine has twice
JET_TAIL_TOL = 1e-10
CLUSTER_TOL = 1e-7
SOLVE_REL_TOL = 1e-12  # largest residual of a dense solve, relative to its scale
COND_CAP = 1e12        # largest condition number a dense solve accepts


class NumericsError(RuntimeError):
    pass


class QuadratureError(NumericsError):
    pass


class RootFindingError(NumericsError):
    pass


class SingularSystemError(NumericsError):
    pass


# ---------------------------------------------------------------------------
# polynomials (coefficient arrays are ascending: c[0] + c[1] x + ...)
# ---------------------------------------------------------------------------

def polyval(coeffs, x):
    """Horner evaluation of an ascending-coefficient polynomial."""
    c = np.asarray(coeffs)
    x = np.asarray(x)
    out = np.zeros_like(x, dtype=complex) + c[-1]
    for k in range(len(c) - 2, -1, -1):
        out = out * x + c[k]
    return out


def polyder(coeffs, m=1):
    c = np.asarray(coeffs, dtype=complex)
    for _ in range(m):
        c = c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1, dtype=complex)
    return c


def polymul(a, b):
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def polyadd(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return out


def polytrim(coeffs, rel=1e-14):
    c = np.asarray(coeffs, dtype=complex)
    scale = np.max(np.abs(c)) if len(c) else 0.0
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= rel * scale:
        n -= 1
    return c[:n].copy()


def polyshift(coeffs, a):
    """Coefficients of p(a + t) in t (ascending), by iterated Horner division."""
    work = list(np.asarray(coeffs, dtype=complex))
    out = []
    while work:
        rem = work[-1]
        quot = [0.0 + 0.0j] * (len(work) - 1)
        for j in range(len(work) - 2, -1, -1):
            quot[j] = rem
            rem = work[j] + rem * a
        out.append(rem)
        work = quot
    return np.array(out, dtype=complex)


# --- truncated power series helpers (ascending, fixed length) --------------

def series_mul(a, b, m):
    out = np.convolve(np.asarray(a[:m], dtype=complex), np.asarray(b[:m], dtype=complex))[:m]
    if len(out) < m:
        out = np.pad(out, (0, m - len(out)))
    return out


def series_inv(a, m):
    a = np.asarray(a, dtype=complex)
    if a[0] == 0:
        raise NumericsError("series not invertible: zero constant term")
    out = np.zeros(m, dtype=complex)
    out[0] = 1.0 / a[0]
    for k in range(1, m):
        s = 0.0 + 0.0j
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * out[k - j]
        out[k] = -s / a[0]
    return out


def series_sqrt(a, m, branch=None):
    """sqrt of a power series with nonzero constant term.

    `branch` selects the constant term of the result (must square to a[0]);
    defaults to the principal square root.
    """
    a = np.asarray(a, dtype=complex)
    s0 = np.sqrt(a[0]) if branch is None else branch
    if abs(s0 * s0 - a[0]) > 1e-9 * max(1.0, abs(a[0])):
        raise NumericsError("series_sqrt: branch does not square to the constant term")
    out = np.zeros(m, dtype=complex)
    out[0] = s0
    for k in range(1, m):
        s = 0.0 + 0.0j
        for j in range(1, k):
            s += out[j] * out[k - j]
        ak = a[k] if k < len(a) else 0.0
        out[k] = (ak - s) / (2.0 * s0)
    return out


def series_integrate(a):
    """Antiderivative with zero constant term."""
    a = np.asarray(a, dtype=complex)
    out = np.zeros(len(a) + 1, dtype=complex)
    out[1:] = a / np.arange(1, len(a) + 1)
    return out


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

@dataclass
class RootReport:
    roots: np.ndarray
    multiplicities: np.ndarray
    residuals: np.ndarray


def poly_roots(coeffs, cluster_tol=CLUSTER_TOL):
    """All complex roots of an ascending-coefficient polynomial.

    Simultaneous Aberth-Ehrlich iteration started on a deterministic ring,
    with a companion-matrix fallback if the iteration stalls. Roots closer
    than cluster_tol (relative) are flagged as a multiplicity group.
    """
    c = polytrim(coeffs)
    deg = len(c) - 1
    if deg < 1:
        raise RootFindingError("poly_roots: degree must be >= 1")
    if deg == 1:
        roots = np.array([-c[0] / c[1]])
        return RootReport(roots, np.ones(1, dtype=int), _residuals(c, roots))

    cn = c / c[-1]
    radius = 1.0 + np.max(np.abs(cn[:-1]))
    k = np.arange(deg)
    z = radius * np.exp(2j * np.pi * (k + 0.25) / deg + 0.43j)
    dc = polyder(cn)

    converged = False
    for _ in range(120):
        p = polyval(cn, z)
        dp = polyval(dc, z)
        newton = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0.0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * s
        step = newton / np.where(denom == 0, 1, denom)
        z = z - step
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(z))):
            converged = True
            break
    res = _residuals(cn, z)
    scale = _coeff_scale(cn, z)
    if not converged and np.any(res > ROOT_TOL * scale):
        z = np.roots(cn[::-1])  # companion-matrix eigenvalues
        z = _polish(cn, dc, z)
        res = _residuals(cn, z)
        scale = _coeff_scale(cn, z)
        if np.any(res > 1e3 * ROOT_TOL * scale):
            raise RootFindingError("poly_roots: no convergence (worst residual %.3e)"
                                   % float(np.max(res / scale)))
    z = _polish(cn, dc, z)
    res = _residuals(cn, z)
    order = np.lexsort((z.imag, z.real))
    z = z[order]
    res = res[order]
    mult = _multiplicity_flags(z, cluster_tol)
    return RootReport(z, mult, res)


def _polish(cn, dc, z):
    for _ in range(3):
        p = polyval(cn, z)
        dp = polyval(dc, z)
        safe = np.abs(dp) > 0
        z = np.where(safe, z - p / np.where(safe, dp, 1), z)
    return z


def _residuals(c, roots):
    return np.abs(polyval(c, roots))


def _coeff_scale(c, roots):
    az = np.maximum(1.0, np.abs(roots))
    powers = az[:, None] ** np.arange(len(c))[None, :]
    return powers @ np.abs(c)


def _multiplicity_flags(roots, cluster_tol):
    n = len(roots)
    mult = np.ones(n, dtype=int)
    scale = max(1.0, float(np.max(np.abs(roots))))
    used = np.zeros(n, dtype=bool)
    for i in range(n):
        if used[i]:
            continue
        group = [i]
        for j in range(i + 1, n):
            if not used[j] and abs(roots[j] - roots[i]) < cluster_tol * scale:
                group.append(j)
        if len(group) > 1:
            for j in group:
                mult[j] = len(group)
                used[j] = True
    return mult


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line:
    z0: complex
    z1: complex
    # sqrt_end in {None, "start", "end"}: quadratic reparametrization so the
    # named endpoint is approached like t^2 (used for branch-point legs).
    sqrt_end: str | None = None

    def point(self, t):
        t = np.asarray(t, dtype=float)
        if self.sqrt_end == "end":
            u = 1.0 - (1.0 - t) ** 2
        elif self.sqrt_end == "start":
            u = t ** 2
        else:
            u = t
        return self.z0 + (self.z1 - self.z0) * u

    def tangent(self, t):
        t = np.asarray(t, dtype=float)
        d = self.z1 - self.z0
        if self.sqrt_end == "end":
            return d * 2.0 * (1.0 - t)
        if self.sqrt_end == "start":
            return d * 2.0 * t
        return np.broadcast_to(d, t.shape).copy() if t.shape else d

    def length(self):
        return abs(self.z1 - self.z0)

    def reversed(self):
        flip = {None: None, "start": "end", "end": "start"}[self.sqrt_end]
        return Line(self.z1, self.z0, flip)


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    a0: float
    a1: float  # a1 > a0 is counterclockwise

    def point(self, t):
        t = np.asarray(t, dtype=float)
        ang = self.a0 + (self.a1 - self.a0) * t
        return self.center + self.radius * np.exp(1j * ang)

    def tangent(self, t):
        t = np.asarray(t, dtype=float)
        ang = self.a0 + (self.a1 - self.a0) * t
        return 1j * (self.a1 - self.a0) * self.radius * np.exp(1j * ang)

    def length(self):
        return abs(self.a1 - self.a0) * self.radius

    def reversed(self):
        return Arc(self.center, self.radius, self.a1, self.a0)


@dataclass
class Contour:
    """Directed chain of segments."""

    segments: list
    label: str = ""

    def start(self):
        return complex(self.segments[0].point(0.0))

    def end(self):
        return complex(self.segments[-1].point(1.0))

    def reversed(self):
        return Contour([s.reversed() for s in reversed(self.segments)],
                       self.label + "~")

    def sample_counts(self, per_segment=96):
        """Points polyline takes on each segment: per_segment on an arc,
        half as many (at least 8) on a line."""
        return [per_segment if isinstance(seg, Arc) else max(8, per_segment // 2)
                for seg in self.segments]

    def polyline(self, per_segment=96):
        """Points at equal parameter steps on each segment, ends included, in
        order (sample_counts gives how many). The sampled distance and its
        error bound (surface._dist_to_set, surface._sample_gap) and the
        contours `speclab describe` dumps read it."""
        pts = []
        for seg, n in zip(self.segments, self.sample_counts(per_segment)):
            t = np.linspace(0.0, 1.0, n)
            pts.append(seg.point(t))
        return np.concatenate(pts)


def circle(center, radius):
    """Full counterclockwise circle as a one-arc contour."""
    return Contour([Arc(center, radius, 0.0, 2.0 * math.pi)])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gl_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class QuadResult:
    value: complex      # shape (k,) from integrate_stack
    error: float        # shape (k,) from integrate_stack
    n_eval: int         # integrand evaluations, speculative panels included


def integrate_stack(fn, contour, max_depth=24):
    """Adaptive Gauss-Legendre integrals of a stack of integrands along a
    contour, in one pass.

    fn(seg_index, t_array, z_array) -> shape (n, k): k integrands relative to
    dz at n nodes, seg_index giving each node's segment; the engine
    multiplies by the segment tangent. Every panel gets the order-n and
    order-2n rules, n = QUAD_ORDER. Integrand c passes a panel when the two
    differ by at most max(QUAD_REL_TOL * scale_c, QUAD_ABS_FLOOR), scale_c
    being c's running maximum of |fine| over the panels visited so far,
    depth first; the panel is split if any integrand fails. The error estimate is summed over
    accepted panels.

    Panels are evaluated a refinement level at a time, in one fn call per
    level: it takes the children of every panel that may split, that is
    every panel that fails against the running maximum of its own and its
    ancestors' |fine|, a lower bound of the depth-first scale. The
    depth-first pass then runs on the stored panels, so its decisions,
    scales and summation order do not depend on the batching; n_eval counts
    every node evaluated, those of children it does not visit included.
    """
    order = QUAD_ORDER
    t_lo, w_lo = _gl_nodes(order)
    t_hi, w_hi = _gl_nodes(2 * order)
    t_pair = np.concatenate([t_lo, t_hi])
    segs = contour.segments
    # one row per panel, a level at a time; child[p] is the first of the
    # two children of panel p, or -1
    si = np.arange(len(segs))
    ta, tb = np.zeros(len(segs)), np.ones(len(segs))
    bound = 0.0
    levels, child = [], []
    n_done = 0
    while len(si):
        h = tb - ta
        tt = (ta[:, None] + h[:, None] * t_pair).ravel()
        node_seg = np.repeat(si, len(t_pair))
        z = np.empty(len(tt), dtype=complex)
        tangent = np.empty(len(tt), dtype=complex)
        cuts = (np.flatnonzero(np.diff(node_seg)) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [len(tt)]):  # si is sorted
            on = slice(lo, hi)
            z[on] = segs[node_seg[lo]].point(tt[on])
            tangent[on] = segs[node_seg[lo]].tangent(tt[on])
        f = (fn(node_seg, tt, z) * tangent[:, None]).reshape(len(si), len(t_pair), -1)
        coarse = h[:, None] * (w_lo @ f[:, :order])
        fine = h[:, None] * (w_hi @ f[:, order:])
        e = np.abs(fine - coarse)
        abs_fine = np.abs(fine)
        bound = np.fmax(bound, abs_fine)  # a NaN never sets the bound
        may_split = ~np.all(e <= np.maximum(QUAD_REL_TOL * bound, QUAD_ABS_FLOOR), axis=1)
        if len(levels) >= max_depth:
            may_split[:] = False
        n_next = 2 * int(np.count_nonzero(may_split))
        first = np.full(len(si), -1)
        first[may_split] = n_done + len(si) + np.arange(0, n_next, 2)
        levels.append((si, fine, abs_fine, e))
        child.append(first)
        n_done += len(si)
        tm = 0.5 * (ta + tb)
        si = np.repeat(si[may_split], 2)
        ta = np.stack([ta[may_split], tm[may_split]], axis=1).ravel()
        tb = np.stack([tm[may_split], tb[may_split]], axis=1).ravel()
        bound = np.repeat(bound[may_split], 2, axis=0)
    seg_of = np.concatenate([lv[0] for lv in levels])
    fines = np.concatenate([lv[1] for lv in levels])
    abs_fines = np.concatenate([lv[2] for lv in levels])
    errs = np.concatenate([lv[3] for lv in levels])
    capped = np.repeat(np.arange(len(levels)) >= max_depth,
                       [len(lv[0]) for lv in levels]).tolist()
    child = np.concatenate(child).tolist()

    scale = total = err = 0.0
    stack = list(range(len(segs)))[::-1]
    while stack:
        p = stack.pop()
        scale = np.fmax(scale, abs_fines[p])  # a NaN never sets the scale
        tol_here = np.maximum(QUAD_REL_TOL * scale, QUAD_ABS_FLOOR)
        # a panel without children passed against its bound, or is capped
        if child[p] >= 0 and not (errs[p] <= tol_here).all():
            stack += (child[p] + 1, child[p])
            continue
        # at the depth cap, tolerate a roundoff-floor plateau but fail on
        # genuinely unresolved or non-finite panels
        if capped[p] and not (errs[p] <= np.maximum(1e3 * tol_here, 3e-9)).all():
            raise QuadratureError(
                "quadrature subdivision exhausted on segment %d of %s "
                "(panel error %.3e)" % (seg_of[p], contour.label or "contour", np.max(errs[p])))
        total, err = total + fines[p], err + errs[p]
    return QuadResult(total, err, n_done * len(t_pair))


def integrate(fn, contour, max_depth=24):
    """Adaptive Gauss-Legendre integral of one integrand fn(seg_index,
    t_array, z_array) -> values relative to dz: integrate_stack with k = 1."""
    res = integrate_stack(lambda si, t, z: fn(si, t, z)[:, None], contour, max_depth)
    return QuadResult(res.value[0], float(res.error[0]), res.n_eval)


# ---------------------------------------------------------------------------
# Laurent windows on circles
# ---------------------------------------------------------------------------

def circle_points(rho, k):
    """k equispaced points on |eta| = rho, the first at eta = rho."""
    return rho * np.exp(2j * np.pi * np.arange(k) / k)


def laurent_window(vals, rho, orders):
    """Laurent coefficients c_m, m in orders, of f = sum c_m eta^m from its
    samples at circle_points(rho, K) along the last axis of vals.

    This is the trapezoidal rule on the circle, which converges geometrically
    in the width of f's annulus of analyticity (Trefethen & Weideman, SIAM
    Review 56, 2014). Leading axes of vals are independent rows; rho is a
    float or an array broadcasting against them (one radius per row).

    Returns (coeffs, tail): coeffs[..., j] = c_{orders[j]}, and per row the
    largest Fourier magnitude among the (up to) six orders just above
    max(orders) and below K, relative to the largest of all, which measures
    the truncation of the window.
    """
    f = np.fft.fft(np.asarray(vals, dtype=complex))
    k = f.shape[-1]
    f = f / k
    ms = np.asarray(orders)
    scale = np.moveaxis(np.array([rho ** abs(m) for m in ms.tolist()]), 0, -1)
    c = f[..., ms % k]
    coeffs = np.where(ms < 0, c * scale, c / scale)
    top = ms.max() + np.arange(1, 7)
    mags = np.abs(f)
    tail = mags[..., top[top < k] % k].max(axis=-1, initial=0.0)
    peak = mags.max(axis=-1)
    return coeffs, tail / np.where(peak > 0, peak, 1.0)


def nearest_root(s, ref):
    """Whichever of s and -s lies nearer ref, elementwise (s on a tie): the
    square root that continues the lift ref."""
    return np.where(np.abs(s - ref) <= np.abs(s + ref), s, -s)


def continue_root(s, start):
    """Square roots s along an ordered point chain, signs flipped so that
    each value lies nearer the one before than its negative does, and the
    first nearer start (s[0] on a tie): the continuation of that lift."""
    cons = np.abs(s[1:] - s[:-1]) <= np.abs(s[1:] + s[:-1])
    flips = np.concatenate([[1.0], np.cumprod(np.where(cons, 1.0, -1.0))])
    return (s if abs(s[0] - start) <= abs(s[0] + start) else -s) * flips


# ---------------------------------------------------------------------------
# dense linear algebra and matching
# ---------------------------------------------------------------------------

def greedy_pairs(dist):
    """(i, j) pairs of a distance matrix taken greedily in increasing
    distance, ties broken row-major, each row and each column once."""
    rows, cols = set(), set()
    for _, i, j in sorted((d, i, j) for (i, j), d in np.ndenumerate(dist)):
        if i not in rows and j not in cols:
            rows.add(i)
            cols.add(j)
            yield i, j


def solve_dense(matrix, rhs):
    """Guarded numpy solve: condition <= COND_CAP and residual <=
    SOLVE_REL_TOL * scale; returns the solution and the condition."""
    a = np.asarray(matrix, dtype=complex)
    b = np.asarray(rhs, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise SingularSystemError("solve_dense: matrix not square")
    cond = float(np.linalg.cond(a))
    if not np.isfinite(cond) or cond > COND_CAP:
        raise SingularSystemError("solve_dense: condition %.3e beyond cap" % cond)
    x = np.linalg.solve(a, b)
    resid = np.linalg.norm(a @ x - b)
    scale = np.linalg.norm(a, ord=np.inf) * np.linalg.norm(x) + np.linalg.norm(b)
    if resid > SOLVE_REL_TOL * max(scale, 1e-300):
        raise SingularSystemError("solve_dense: residual %.3e above tolerance" % resid)
    return x, cond
