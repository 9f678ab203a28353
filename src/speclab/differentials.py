"""Canonical analytic objects on the cover.

Normalized holomorphic differentials and the period matrix, second/third
kind differentials with prescribed principal parts (rational in (x, w),
a-periods removed by a Gram solve), the theta-based prime form and canonical
bidifferential, Klein's algebraic bidifferential and from it the Bergman
projective connection S_B and the regularization (S_B - S_v)/6 in closed
form, and local circle frames at branch points and zeros that provide jets
and residue extraction for the variational formulas.

Conventions: values of a differential are always reported relative to a
stated local parameter; `V` values are relative to dx (the base chart),
`g`/`Y` values on a branch frame are relative to d(eta) with eta^2 = x - b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics as nm
from . import surface as sf
from .theta import Theta


class DifferentialError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# period data
# ---------------------------------------------------------------------------

class PeriodData:
    """a/b-periods of the raw basis x^k dx/w, the normalized basis, Omega,
    and the period coordinates of v itself."""

    def __init__(self, curve, basis):
        self.curve = curve
        self.basis = basis
        g = curve.counts.genus
        self.g = g
        # one pass per cycle over [x^0/w, ..., x^(g-1)/w, v/dx]
        def fn(x, w):
            return np.stack([x ** k / w for k in range(g)] + [curve.phi(x, w)], axis=-1)

        a_rows = np.array([curve.integrate_stack(fn, c).value for c in basis.a_cycles])
        b_rows = np.array([curve.integrate_stack(fn, c).value for c in basis.b_cycles])
        raw_a = self.raw_a = a_rows[:, :g]
        raw_b = self.raw_b = b_rows[:, :g]
        # v_alpha = sum_k M[alpha, k] x^k / w; M raw_a^T = I normalizes a-periods
        m, cond = nm.solve_dense(raw_a.T, np.eye(g))
        self.M = m
        self.gram_cond = cond
        self.omega = raw_b @ np.linalg.inv(raw_a) if g else np.zeros((0, 0))
        self._validate()
        self.A_of_v = a_rows[:, g]
        self.B_of_v = b_rows[:, g]

    def _validate(self):
        g = self.g
        if g == 0:
            return
        om = self.omega
        sym = float(np.max(np.abs(om - om.T)))
        if sym > 1e-8 * max(1.0, float(np.max(np.abs(om)))):
            raise DifferentialError(
                f"period matrix asymmetry {sym:.2e}: homology pairing is off")
        evals = np.linalg.eigvalsh(0.5 * (om.imag + om.imag.T))
        if float(np.min(evals)) <= 0:
            raise DifferentialError(
                "Im(Omega) not positive definite: orientation convention broken")

    def V(self, x, w):
        """Normalized holomorphic differentials relative to dx; shape (..., g)."""
        x = np.asarray(x, dtype=complex)
        w = np.asarray(w, dtype=complex)
        powers = x[..., None] ** np.arange(self.g)
        return (powers @ self.M.T) / w[..., None]

    @cached_property
    def theta(self):
        return Theta(self.omega)

    @cached_property
    def odd_char(self):
        return self.theta.odd_nonsingular_char()


# ---------------------------------------------------------------------------
# meromorphic differentials with prescribed singular parts
# ---------------------------------------------------------------------------

def _w_branch_series(curve, j, s, m):
    """Taylor series of w on sheet s around pole j, in chi = x - y_j."""
    y = curve.spec.poles[j].x
    shifted = nm.polyshift(curve.P, y)
    w_at = curve.pole_points[(j, s)].w
    return nm.series_sqrt(shifted, m, branch=w_at)


def _normalized(period, raw):
    """raw(x, w) less the holomorphic differential sum_k d_k x^k/w with the
    same a-periods: the evaluator with zero a-periods."""
    ra = np.array([period.curve.integrate(raw, c).value for c in period.basis.a_cycles])
    d, _ = nm.solve_dense(period.raw_a, ra)

    def fn(x, w):
        x = np.asarray(x, dtype=complex)
        corr = (x[..., None] ** np.arange(len(d)) @ d) / w
        return raw(x, w) - corr
    return fn


def second_kind(period, j, s, ell):
    """Evaluator (x, w) -> value/dx of the normalized differential with
    principal part (1/chi^ell) dchi at the point over pole j on sheet s, zero
    a-periods, no other poles."""
    curve = period.curve
    kj = curve.spec.poles[j].k
    if not (2 <= ell <= kj):
        raise DifferentialError(f"second-kind order ell={ell} out of range 2..{kj}")
    y = curve.spec.poles[j].x
    wser = _w_branch_series(curve, j, s, ell + 2)
    u_coeffs = 0.5 * wser[:ell]  # Taylor of W_s/2 truncated to degree ell-1

    def raw(x, w):
        ux = nm.polyval(u_coeffs, x - y)
        return (ux + 0.5 * w) / ((x - y) ** ell * w)
    return _normalized(period, raw)


def third_kind_between(period, ya, wa, yb, wb):
    """Evaluator (x, w) -> value/dx of the normalized differential with
    simple poles: residue +1 at (ya, wa), residue -1 at (yb, wb), both off
    the branch points; zero a-periods. With the poles at two points p1, p2
    it is d ln(E(., p1)/E(., p2)) (Fay, Theta Functions on Riemann
    Surfaces, LNM 352, 1973)."""
    def raw(x, w):
        return (0.5 * (wa + w)) / ((x - ya) * w) - (0.5 * (wb + w)) / ((x - yb) * w)
    return _normalized(period, raw)


def third_kind(period, j, s):
    """third_kind_between the point over pole j on sheet s and the (0, 0)
    point."""
    if (j, s) == (0, 0):
        raise DifferentialError("third-kind base point (j, s) = (0, 0) requested")
    curve = period.curve
    return third_kind_between(period, curve.spec.poles[j].x, curve.pole_points[(j, s)].w,
                              curve.spec.poles[0].x, curve.pole_points[(0, 0)].w)


def holomorphic_unit(period, alpha):
    """Evaluator (x, w) -> value/dx of the normalized holomorphic v_alpha."""
    def fn(x, w, m=period.M[alpha]):
        x = np.asarray(x, dtype=complex)
        return (x[..., None] ** np.arange(period.g) @ m) / w
    return fn


# ---------------------------------------------------------------------------
# Abel map
# ---------------------------------------------------------------------------

class AbelMap:
    """Abel integrals from the distinguished zero along the reference tree.

    Values are dissection-compatible: the raw path integral is corrected by
    the lattice contribution of the path's crossings with the realized a/b
    cycles, so bilinear identities hold with their textbook normalization.
    """

    def __init__(self, curve, period):
        self.curve = curve
        self.period = period
        self._cache = {}

    def at(self, x, w=None):
        """Abel vector at a point; w fixes the lift (None for branch points)."""
        key = (complex(np.round(complex(x), 13)),
               None if w is None else complex(np.round(complex(w), 13)))
        if key in self._cache:
            return self._cache[key]
        curve = self.curve
        if w is None:
            path = sf.path_to_point(curve, complex(x), None, sqrt_end="end",
                                    label=f"abel->{x:.4g}")
        else:
            path = sf.path_to_point(curve, complex(x), complex(w),
                                    label=f"abel->{x:.4g}")
        vec = self.integrate_v_alpha(path) - self.lattice_correction(path)
        if not np.all(np.isfinite(vec)):
            raise DifferentialError(f"non-finite Abel vector along {path.label}")
        self._cache[key] = vec
        return vec

    def lattice_correction(self, path):
        """n + Omega m for the crossings of a reference path with the basis."""
        basis = self.period.basis
        g = self.period.g
        n = np.array([sf.intersection_number(self.curve, path, basis.b_cycles[b])
                      for b in range(g)], dtype=float)
        m = -np.array([sf.intersection_number(self.curve, path, basis.a_cycles[a])
                       for a in range(g)], dtype=float)
        return n + self.period.omega @ m

    def integrate_v_alpha(self, contour):
        return self.curve.integrate_stack(self.period.V, contour).value


# ---------------------------------------------------------------------------
# kernel periods
# ---------------------------------------------------------------------------

class ContourField:
    """Integrals of a kernel(x, w), a value relative to dx, along one
    contour, through the adaptive engine (SpectralCurve.integrate).

    Kept as a class only for the benchmark: perfbench/layers.py traces
    ContourField.integrate_kernel. Fold it into tau_gradient_oracle at the
    next change of the benchmark."""

    def __init__(self, curve, contour):
        self.curve = curve
        self.contour = contour

    def integrate_kernel(self, kernel):
        """Integral of kernel(x, w) over the contour."""
        return self.curve.integrate(kernel, self.contour).value


# ---------------------------------------------------------------------------
# kernels: theta prime form and bidifferential, Klein's bidifferential
# ---------------------------------------------------------------------------

class Kernels:
    def __init__(self, curve, period, abel):
        self.curve = curve
        self.period = period
        self.abel = abel
        self._h_cache = {}

    @cached_property
    def grad_odd_at_zero(self):
        z = np.zeros((1, self.period.g), dtype=complex)
        return self.period.theta.eval(z, self.period.odd_char, derivs=1)["grad"][0]

    # -- low-level batched bidifferential -----------------------------------

    def bhat_batch(self, A1, V1, A2, V2):
        """B(x,y) relative to the trivializations carried by V1, V2.

        A1, A2: (N, g) Abel vectors; V1, V2: (N, g) differential values of the
        normalized basis relative to each point's local parameter.
        """
        z = np.asarray(A2) - np.asarray(A1)
        h, _ = self.period.theta.loghess(z, self.period.odd_char)
        return -np.einsum("nij,ni,nj->n", h, np.asarray(V1), np.asarray(V2))

    def bhat_point(self, p1, p2):
        """B(x,y)/(dx dx) between two resolved surface points."""
        A1 = self.abel.at(p1.x, p1.w)
        A2 = self.abel.at(p2.x, p2.w)
        V1 = self.period.V(np.array([p1.x]), np.array([p1.w]))[0]
        V2 = self.period.V(np.array([p2.x]), np.array([p2.w]))[0]
        return complex(self.bhat_batch(A1[None, :], V1[None, :],
                                       A2[None, :], V2[None, :])[0])

    # -- prime form ----------------------------------------------------------

    def h_density(self, x, w):
        """Value of h^2 = sum grad theta[odd](0) . V relative to dx."""
        V = self.period.V(np.asarray(x, dtype=complex), np.asarray(w, dtype=complex))
        return V @ self.grad_odd_at_zero

    def h_at(self, p):
        """Square root of h^2 at a point, tracked continuously from x_r over
        the anchors of its path."""
        key = (complex(np.round(p.x, 13)), complex(np.round(p.w, 13)))
        if key in self._h_cache:
            return self._h_cache[key]
        path = sf.path_to_point(self.curve, p.x, p.w, label="h-track")
        svals = self.h_density(*self.curve.anchor_points(path))
        if np.min(np.abs(svals)) < 1e-10 * np.max(np.abs(svals)):
            raise DifferentialError("h-density vanishes along tracking path")
        roots = np.sqrt(svals)
        self._h_cache[key] = complex(nm.continue_root(roots, roots[0])[-1])
        return self._h_cache[key]

    def prime_form(self, p1, p2):
        """E(x,y) relative to the dx half-densities at the two points."""
        A1 = self.abel.at(p1.x, p1.w)
        A2 = self.abel.at(p2.x, p2.w)
        th = self.period.theta.value((A2 - A1)[None, :], self.period.odd_char)[0]
        return complex(th / (self.h_at(p1) * self.h_at(p2)))

    # -- Klein's bidifferential and the Bergman regularization ---------------

    @cached_property
    def kappa(self):
        """Klein's bidifferential on w^2 = P(x) = E(x^2) + x O(x^2) (Baker,
        Multiply Periodic Functions, 1907; Buchstaber, Enolski & Leykin, Rev.
        Math. Math. Phys. 10, 1997) is B = [(F + 2 w(x) w(y)) / (4 (x - y)^2)
        + x^T kappa y] / (w(x) w(y)), F = 2 E(xy) + (x + y) O(xy), x^T = (1, x,
        .., x^(g-1)). kappa zeroes the a-periods: at g points x_s off them,
        2 w(x) w(y) integrates to 0, so kappa = -V^-1 L M for V[s, i] = x_s^i
        and L[s, m] = oint_{a_m} F(x_s, y) / (4 (x_s - y)^2 w(y)) dy."""
        curve, period = self.curve, self.period
        ctr = np.mean(curve.singular_points)
        xs = ctr + (curve.x0 - ctr) * np.exp(2j * np.pi * np.arange(period.g) / period.g)

        def fn(y, w):
            return self._polar(xs, y[:, None]) / (4.0 * (xs - y[:, None]) ** 2 * w[:, None])

        L = np.array([curve.integrate_stack(fn, c).value for c in period.basis.a_cycles])
        return -np.linalg.solve(xs[:, None] ** np.arange(period.g), L.T) @ period.M

    def _polar(self, x, y):
        """F(x, y) = 2 E(xy) + (x + y) O(xy), the polarization of P: F(x, x) = 2 P(x)."""
        t, P = x * y, self.curve.P
        return 2.0 * nm.polyval(P[0::2], t) + (x + y) * nm.polyval(P[1::2], t)

    def klein(self, x, w, y, v):
        """Klein's B(x, y)/(dx dy) at the point pairs ((x, w), (y, v))."""
        g = self.period.g
        hol = np.einsum("ni,ij,nj->n", x[:, None] ** np.arange(g), self.kappa,
                        y[:, None] ** np.arange(g))
        return ((self._polar(x, y) + 2.0 * w * v) / (4.0 * (x - y) ** 2) + hol) / (w * v)

    def sb(self, x):
        """S_B, the Bergman projective connection, in the base coordinate at
        points x off the branch points. Klein's B gives, with t = x^2, S_B =
        [-1.5 (E'(t) + t E''(t) + x (2 O'(t) + t O''(t))) + 0.375 P'^2 / P
        + 6 x^T kappa x] / P."""
        curve, t = self.curve, x * x
        p, p1 = (nm.polyval(nm.polyder(curve.P, m), x) for m in range(2))
        e1, e2, o1, o2 = (nm.polyval(nm.polyder(curve.P[k::2], m), t)
                          for k in (0, 1) for m in (1, 2))
        powers = x[:, None] ** np.arange(self.period.g)
        return (-1.5 * (e1 + t * e2 + x * (2.0 * o1 + t * o2)) + 0.375 * p1 ** 2 / p
                + 6.0 * np.einsum("ni,ij,nj->n", powers, self.kappa, powers)) / p

    def sb_minus_sv(self, x, w):
        """S_B - S_v = 6 B_reg in the base coordinate at points (x, w) off
        the zeros and poles of v: S_v = l'' - l'^2 / 2 for l = log u - log D,
        u = w - N1, w' = P' / (2 w) and w'' = (2 P P'' - P'^2) / (4 P w)."""
        curve = self.curve
        p, p1, p2 = (nm.polyval(nm.polyder(curve.P, m), x) for m in range(3))
        n0, n1, n2 = (nm.polyval(nm.polyder(curve.N1, m), x) for m in range(3))
        u, u1 = w - n0, p1 / (2.0 * w) - n1
        u2 = (2.0 * p * p2 - p1 ** 2) / (4.0 * p * w) - n2
        l1 = u1 / u - sum(q.k / (x - q.x) for q in curve.spec.poles)
        l2 = u2 / u - (u1 / u) ** 2 + sum(q.k / (x - q.x) ** 2 for q in curve.spec.poles)
        return self.sb(x) - (l2 - 0.5 * l1 ** 2)


# ---------------------------------------------------------------------------
# local frames: circles at branch points and at simple zeros
# ---------------------------------------------------------------------------

M_JET = 40        # retained series order on local frames
K_FRAME = 256     # samples on the frame circle
EVAL_SCALE = 0.6  # evaluation circles sit at this fraction of the frame radius
K_EVAL = 128      # samples on an evaluation circle


@dataclass
class FrameData:
    center: complex
    rho: float               # radius in the frame parameter
    eta: np.ndarray          # frame-parameter samples (K,)
    x: np.ndarray            # base coordinates of the samples
    w: np.ndarray            # w values (consistent frame)
    g_series: list           # per-alpha ascending series of v_alpha/d(param)
    Y_series: np.ndarray     # series of v/d(param)
    tail: float              # largest truncation tail of the series windows


class LocalFrames:
    """Builder/cache of local circle frames and their residue circles by zero index."""

    def __init__(self, curve, period):
        self.curve = curve
        self.period = period
        self._frames = {}
        self._zero_circles = {}

    def frame(self, zero_index):
        if zero_index not in self._frames:
            self._frames[zero_index] = self._build(self.curve.zeros[zero_index])
        return self._frames[zero_index]

    def zero_circle(self, zero_index):
        """A frame's evaluation circle with "den", the integral of v from its zero."""
        if zero_index not in self._zero_circles:
            fr = self.frame(zero_index)
            c = self._zero_circles[zero_index] = self.eval_circle(fr)
            c["den"] = nm.polyval(nm.series_integrate(fr.Y_series), c["eta"])
        return self._zero_circles[zero_index]

    def _build(self, z):
        """Frame circle at a zero of v: eta^2 = x - b at a branch point b,
        eta = x - c at a simple zero c; series relative to d(eta)."""
        curve = self.curve
        c = complex(z.x)
        d = curve.singular_distance(c)
        if z.is_branch:
            rho = math.sqrt(sf.JET_RADIUS_FACTOR * d)
            eta = nm.circle_points(rho, K_FRAME)
            x = c + eta ** 2
            # track w around the doubled loop; any lift fixes the frame sign
            w0 = curve.sqrtP(np.array([x[0]]))[0]
            w_full = curve.track_w(np.append(x, x[0]), w0)
            if abs(w_full[-1] - w0) > 1e-6 * max(1.0, abs(w0)):
                raise DifferentialError("branch frame tracking did not close up")
            w = w_full[:-1]
            Y = 2.0 * eta * curve.phi(x, w)              # v/d(eta)
            V = self.period.V(x, w) * (2.0 * eta)[:, None]
        else:
            rho = sf.JET_RADIUS_FACTOR * d
            eta = nm.circle_points(rho, K_FRAME)
            x = c + eta
            w = nm.nearest_root(curve.sqrtP(x), z.w)
            Y = curve.phi(x, w)                          # simple zero at c
            V = self.period.V(x, w)
        series, tails = nm.laurent_window(np.concatenate([V.T, Y[None, :]]), rho,
                                          np.arange(M_JET + 1))
        g_series = [nm.polytrim(gs, rel=0.0) for gs in series[:-1]]
        return FrameData(c, rho, eta, x, w, g_series, series[-1], float(np.max(tails)))

    # -- evaluation helpers ---------------------------------------------------

    def values(self, fr, eta):
        """v_alpha/d(param) at frame parameters eta."""
        return np.stack([nm.polyval(gs, eta) for gs in fr.g_series], axis=1)

    def eval_circle(self, fr):
        """Evaluation circle of K_EVAL points at EVAL_SCALE of the frame
        radius: parameters, v_alpha/d(param) and v/d(param)."""
        r = EVAL_SCALE * fr.rho
        eta = nm.circle_points(r, K_EVAL)
        return {"eta": eta, "rho": r, "G": self.values(fr, eta),
                "Y": nm.polyval(fr.Y_series, eta)}

    def y_jet_values(self, fr):
        """Center jet data of a branch frame: y = v/dx as a function of the
        frame parameter (y_m = Y_{m+1}/2 since Y = 2 eta y)."""
        yc = fr.Y_series[1:] / 2.0
        return {"y0": yc[0], "yp": yc[1], "yppp": 6.0 * yc[3],
                "g0": np.array([gs[0] for gs in fr.g_series]),
                "gpp": np.array([2.0 * gs[2] if len(gs) > 2 else 0.0
                                 for gs in fr.g_series])}


# ---------------------------------------------------------------------------
# geometry bundle
# ---------------------------------------------------------------------------

class Geometry:
    """Curve + homology + periods + Abel + kernels + frames + branch data,
    built lazily: the one handle on a cover that every formula, functional
    and chart call takes."""

    def __init__(self, curve, basis=None):
        self.curve = curve
        self.basis = basis if basis is not None else sf.homology_basis(curve)

    @cached_property
    def period(self):
        return PeriodData(self.curve, self.basis)

    @cached_property
    def abel(self):
        return AbelMap(self.curve, self.period)

    @cached_property
    def kernels(self):
        return Kernels(self.curve, self.period, self.abel)

    @cached_property
    def frames(self):
        return LocalFrames(self.curve, self.period)

    @cached_property
    def branch(self):
        from .variations import BranchData
        return BranchData(self)

    @property
    def genus(self):
        return self.curve.counts.genus

