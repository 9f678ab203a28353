"""Canonical analytic objects on the cover.

Normalized holomorphic differentials and the period matrix, second/third
kind differentials with prescribed principal parts (rational in (x, w),
a-periods removed by a Gram solve), the theta-based prime form and canonical
bidifferential, the Bergman regularization (S_B - S_v)/6, and local circle
frames at branch points and zeros that provide jets, Abel expansions and
residue extraction for the variational formulas.

Conventions: values of a differential are always reported relative to a
stated local parameter; `V` values are relative to dx (the base chart),
`g`/`Y` values on a branch frame are relative to d(eta) with eta^2 = x - b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        raw_a = np.zeros((g, g), dtype=complex)
        raw_b = np.zeros((g, g), dtype=complex)
        for k in range(g):
            fn = lambda x, w, k=k: x ** k / w
            for a in range(g):
                raw_a[a, k] = curve.integrate(fn, basis.a_cycles[a]).value
                raw_b[a, k] = curve.integrate(fn, basis.b_cycles[a]).value
        self.raw_a = raw_a
        self.raw_b = raw_b
        # v_alpha = sum_k M[alpha, k] x^k / w; M raw_a^T = I normalizes a-periods
        m, cond = nm.solve_dense(raw_a.T, np.eye(g))
        self.M = m
        self.gram_cond = cond
        self.omega = raw_b @ np.linalg.inv(raw_a) if g else np.zeros((0, 0))
        self._validate()
        self.A_of_v = np.array([curve.integrate_v(c).value for c in basis.a_cycles])
        self.B_of_v = np.array([curve.integrate_v(c).value for c in basis.b_cycles])
        self._theta = None
        self._odd = None

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

    @property
    def theta(self):
        if self._theta is None:
            self._theta = Theta(self.omega)
        return self._theta

    @property
    def odd_char(self):
        if self._odd is None:
            self._odd = self.theta.odd_nonsingular_char()
        return self._odd


# ---------------------------------------------------------------------------
# meromorphic differentials with prescribed singular parts
# ---------------------------------------------------------------------------

@dataclass
class Singularity:
    pole_index: int        # j
    sheet: int             # s
    order: int
    principal: dict        # ell -> coefficient of chi^-ell dchi


@dataclass
class MeroDifferential:
    label: str
    fn: object                 # evaluator (x, w) -> value relative to dx
    singularities: list
    a_periods: np.ndarray

    def __call__(self, x, w):
        return self.fn(x, w)

    def total_residue(self):
        return sum(s.principal.get(1, 0.0) for s in self.singularities)


def _w_branch_series(curve, j, s, m):
    """Taylor series of w on sheet s around pole j, in chi = x - y_j."""
    y = curve.spec.poles[j].x
    shifted = nm.polyshift(curve.P, y)
    w_at = curve.pole_points[(j, s)].w
    return nm.series_sqrt(shifted, m, branch=w_at)


def _holo_correction(curve, period, raw_a_periods):
    """Coefficients d_k with sum_k d_k x^k/w having the given a-periods."""
    d, _ = nm.solve_dense(period.raw_a, np.asarray(raw_a_periods, dtype=complex))
    return d


def second_kind(curve, period, j, s, ell):
    """Normalized differential with principal part (1/chi^ell) dchi at the
    point over pole j on sheet s, zero a-periods, no other poles."""
    kj = curve.spec.poles[j].k
    if not (2 <= ell <= kj):
        raise DifferentialError(f"second-kind order ell={ell} out of range 2..{kj}")
    y = curve.spec.poles[j].x
    wser = _w_branch_series(curve, j, s, ell + 2)
    u_coeffs = 0.5 * wser[:ell]  # Taylor of W_s/2 truncated to degree ell-1

    def raw(x, w, y=y, ell=ell, u=u_coeffs):
        ux = nm.polyval(u, x - y)
        return (ux + 0.5 * w) / ((x - y) ** ell * w)

    ra = np.array([curve.integrate(raw, c).value for c in period.basis.a_cycles])
    d = _holo_correction(curve, period, ra)

    def fn(x, w, raw=raw, d=d):
        x = np.asarray(x, dtype=complex)
        corr = (x[..., None] ** np.arange(len(d)) @ d) / w
        return raw(x, w) - corr

    sing = [Singularity(j, s, ell, {ell: 1.0})]
    return MeroDifferential(f"w[{j},{s},{ell}]", fn, sing, np.zeros(period.g))


def third_kind(curve, period, j, s):
    """Normalized differential with simple poles: residue +1 over pole j on
    sheet s, residue -1 at the (0, 0) point; zero a-periods."""
    if (j, s) == (0, 0):
        raise DifferentialError("third-kind base point (j, s) = (0, 0) requested")
    ya = curve.spec.poles[j].x
    yb = curve.spec.poles[0].x
    wa = curve.pole_points[(j, s)].w
    wb = curve.pole_points[(0, 0)].w

    def raw(x, w, ya=ya, yb=yb, wa=wa, wb=wb):
        return (0.5 * (wa + w)) / ((x - ya) * w) - (0.5 * (wb + w)) / ((x - yb) * w)

    ra = np.array([curve.integrate(raw, c).value for c in period.basis.a_cycles])
    d = _holo_correction(curve, period, ra)

    def fn(x, w, raw=raw, d=d):
        x = np.asarray(x, dtype=complex)
        corr = (x[..., None] ** np.arange(len(d)) @ d) / w
        return raw(x, w) - corr

    sing = [Singularity(j, s, 1, {1: 1.0}), Singularity(0, 0, 1, {1: -1.0})]
    return MeroDifferential(f"u[{j},{s}]", fn, sing, np.zeros(period.g))


def holomorphic_unit(curve, period, alpha):
    """v_alpha as a MeroDifferential."""
    def fn(x, w, m=period.M[alpha]):
        x = np.asarray(x, dtype=complex)
        return (x[..., None] ** np.arange(period.g) @ m) / w

    return MeroDifferential(f"v[{alpha + 1}]", fn, [], _unit(period.g, alpha))


def _unit(g, a):
    e = np.zeros(g)
    e[a] = 1.0
    return e


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

    def at(self, x, w=None, compatible=True):
        """Abel vector at a point; w fixes the lift (None for branch points)."""
        key = (complex(np.round(complex(x), 13)),
               None if w is None else complex(np.round(complex(w), 13)),
               compatible)
        if key in self._cache:
            return self._cache[key]
        curve = self.curve
        if w is None:
            path = sf.path_to_point(curve, complex(x), None, sqrt_end="end",
                                    label=f"abel->{x:.4g}")
        else:
            path = sf.path_to_point(curve, complex(x), complex(w),
                                    label=f"abel->{x:.4g}")
        vec = self.integrate_v_alpha(path)
        if compatible:
            vec = vec - self.lattice_correction(path)
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
        g = self.period.g
        out = np.zeros(g, dtype=complex)
        for a in range(g):
            fn = lambda x, w, a=a: self.period.V(x, w)[..., a]
            out[a] = self.curve.integrate(fn, contour).value
        return out

    def zero_anchor(self, zero_index):
        z = self.curve.zeros[zero_index]
        if z.is_branch:
            return self.at(z.x, None)
        return self.at(z.x, z.w)

    def pole_anchor(self, j, s):
        p = self.curve.pole_points[(j, s)]
        return self.at(p.x, p.w)


# ---------------------------------------------------------------------------
# contour fields: node-synchronized data for kernel periods
# ---------------------------------------------------------------------------

class ContourField:
    """Fixed composite Gauss-Legendre discretization of a contour carrying
    (x, w, V, Abel) at every node, for integrating theta-kernel integrands.

    The Abel values come from the spectral antiderivative of V on each panel,
    accumulated along the contour from the start anchor, so they are exactly
    the continuous Abel continuation along the contour itself.
    """

    def __init__(self, curve, period, abel, contour, order=20, min_panels=2,
                 compatible=True):
        self.curve = curve
        self.contour = contour
        self.order = order
        t_nodes, t_w = nm._gl_nodes(order)
        S = nm.gl_antiderivative_matrix(order)
        start = contour.start()
        w0 = curve.contour_start_w(contour)
        A_run = abel.at(start, w0, compatible=compatible)
        panels = []
        w_run = w0
        for si, seg in enumerate(contour.segments):
            npan = max(min_panels, int(math.ceil(
                seg.length() / max(1e-9, 0.8 * _seg_clearance(curve, seg)))))
            npan = min(npan, 64)
            for p in range(npan):
                ta, tb = p / npan, (p + 1) / npan
                tt = ta + (tb - ta) * t_nodes
                z = seg.point(tt)
                dz = seg.tangent(tt) * (tb - ta)
                zchain = np.concatenate([[seg.point(ta)], z, [seg.point(tb)]])
                wchain = curve.track_w(zchain, w_run)
                w = wchain[1:-1]
                w_run = wchain[-1]
                V = period.V(z, w)                  # (order, g)
                integ = V * dz[:, None]             # d(A)/dt on the panel
                A_nodes = A_run[None, :] + S @ integ
                A_end = A_run + t_w @ integ
                panels.append({"z": z, "w": w, "V": V, "A": A_nodes,
                               "dz": dz, "wq": t_w})
                A_run = A_end
        self.panels = panels

    def integrate_kernel(self, kernel):
        """Sum of kernel(panel) . weights over the contour.

        kernel(panel) receives the panel dict and returns integrand values
        relative to dx at the panel nodes.
        """
        total = 0.0 + 0.0j
        for pan in self.panels:
            vals = kernel(pan)
            total += np.sum(pan["wq"] * vals * pan["dz"])
        return total

    def nodes(self):
        z = np.concatenate([p["z"] for p in self.panels])
        w = np.concatenate([p["w"] for p in self.panels])
        V = np.concatenate([p["V"] for p in self.panels])
        A = np.concatenate([p["A"] for p in self.panels])
        return z, w, V, A


def _seg_clearance(curve, seg):
    mid = seg.point(np.linspace(0.04, 0.96, 24))
    return float(np.min(np.abs(mid[:, None] - curve.singular_points[None, :])))


# ---------------------------------------------------------------------------
# theta kernels: prime form, bidifferential, Bergman pieces
# ---------------------------------------------------------------------------

class Kernels:
    def __init__(self, curve, period, abel):
        self.curve = curve
        self.period = period
        self.abel = abel
        self.theta = period.theta
        self.odd = period.odd_char
        self._h_cache = {}
        self._grad0 = None

    @property
    def grad_odd_at_zero(self):
        if self._grad0 is None:
            z = np.zeros((1, self.period.g), dtype=complex)
            self._grad0 = self.theta.eval(z, self.odd, derivs=1)["grad"][0]
        return self._grad0

    # -- low-level batched bidifferential -----------------------------------

    def bhat_batch(self, A1, V1, A2, V2):
        """B(x,y) relative to the trivializations carried by V1, V2.

        A1, A2: (N, g) Abel vectors; V1, V2: (N, g) differential values of the
        normalized basis relative to each point's local parameter.
        """
        z = np.asarray(A2) - np.asarray(A1)
        h, _ = self.theta.loghess(z, self.odd)
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
        """Square root of h^2 at a point, tracked continuously from x_r."""
        key = (complex(np.round(p.x, 13)), complex(np.round(p.w, 13)))
        if key in self._h_cache:
            return self._h_cache[key]
        path = sf.path_to_point(self.curve, p.x, p.w, label="h-track")
        z, wline = self.curve._dense_track(path, self.curve.contour_start_w(path))
        svals = self.h_density(z, wline)
        if np.min(np.abs(svals)) < 1e-10 * np.max(np.abs(svals)):
            raise DifferentialError("h-density vanishes along tracking path")
        h = np.empty(len(svals), dtype=complex)
        h[0] = np.sqrt(svals[0])
        roots = np.sqrt(svals[1:])
        hprev = h[0]
        for i, r in enumerate(roots):
            hprev = r if abs(r - hprev) <= abs(r + hprev) else -r
            h[i + 1] = hprev
        self._h_cache[key] = complex(h[-1])
        return self._h_cache[key]

    def prime_form(self, p1, p2):
        """E(x,y) relative to the dx half-densities at the two points."""
        A1 = self.abel.at(p1.x, p1.w)
        A2 = self.abel.at(p2.x, p2.w)
        th = self.theta.value((A2 - A1)[None, :], self.odd)[0]
        return complex(th / (self.h_at(p1) * self.h_at(p2)))

    def log_prime_form(self, p1, p2):
        return complex(np.log(self.prime_form(p1, p2)))

    # -- local S_B / Bergman regularization ----------------------------------

    def sb_at(self, x, w, rho=None, k_in=16):
        """Bergman projective connection S_B in the base coordinate at a
        regular point, from the diagonal jet of B."""
        x = complex(x)
        w = complex(w)
        if rho is None:
            rho = 0.25 * float(np.min(np.abs(self.curve.singular_points - x)))
        vals = self._sb_batch(np.array([x]), np.array([w]),
                              np.array([self.abel.at(x, w)]), rho, k_in)
        return complex(vals[0])

    def _sb_batch(self, xs, ws, As, rho, k_in=16):
        """S_B at a batch of regular points with known Abel vectors."""
        n = len(xs)
        zeta = rho * np.exp(2j * np.pi * np.arange(k_in) / k_in)
        xi = (xs[:, None] + zeta[None, :]).ravel()
        # w on the small circles: nearest square root to the center value
        s = self.curve.sqrtP(xi)
        wref = np.repeat(ws, k_in)
        wi = np.where(np.abs(s - wref) <= np.abs(s + wref), s, -s)
        Vi = self.period.V(xi, wi)                          # (n*k, g)
        Vc = self.period.V(xs, ws)                          # (n, g)
        # Abel offsets by integrating the local jet of V along the circle
        Vmat = Vi.reshape(n, k_in, -1)
        g = Vmat.shape[-1]
        A_off = np.empty((n, k_in, g), dtype=complex)
        for i in range(n):
            for a in range(g):
                jet = np.fft.fft(Vmat[i, :, a]) / k_in
                ms = np.arange(k_in)
                cm = jet / rho ** ms
                # antiderivative evaluated at the circle samples
                acc = np.zeros(k_in, dtype=complex)
                for mdeg in range(min(k_in - 2, 12) + 1):
                    acc += cm[mdeg] / (mdeg + 1) * zeta ** (mdeg + 1)
                A_off[i, :, a] = acc
        A1 = np.repeat(As, k_in, axis=0)
        A2 = (As[:, None, :] + A_off).reshape(n * k_in, -1)
        b = self.bhat_batch(A1, np.repeat(Vc, k_in, axis=0), A2, Vi)
        f = b.reshape(n, k_in) - 1.0 / zeta[None, :] ** 2
        c0 = np.mean(f, axis=1)
        return 6.0 * c0

    def sv_at(self, x, w, rho=None, k_in=32):
        """Schwarzian of the flat coordinate (integral of v) in the base
        coordinate at a regular point, via a local jet of v/dx."""
        x = complex(x)
        w = complex(w)
        if rho is None:
            rho = 0.25 * float(np.min(np.abs(self.curve.singular_points - x)))
        zeta = rho * np.exp(2j * np.pi * np.arange(k_in) / k_in)
        xi = x + zeta
        s = self.curve.sqrtP(xi)
        wi = np.where(np.abs(s - w) <= np.abs(s + w), s, -s)
        y = self.curve.phi(xi, wi)
        jet = np.fft.fft(y) / k_in
        cm = jet[: 6] / rho ** np.arange(6)
        y0, y1, y2 = cm[0], cm[1], 2 * cm[2]
        return complex(y2 / y0 - 1.5 * (y1 / y0) ** 2)

    def breg_at(self, x, w):
        """(S_B - S_v)/6 in the base coordinate at a regular point."""
        return (self.sb_at(x, w) - self.sv_at(x, w)) / 6.0


# ---------------------------------------------------------------------------
# local frames: circles at branch points and at simple zeros
# ---------------------------------------------------------------------------

M_JET = 40      # retained series order on local frames
K_FRAME = 256   # samples on the frame circle


@dataclass
class FrameData:
    kind: str                # "branch" or "zero"
    index: int               # index into curve.zeros
    center: complex
    rho: float               # radius in the frame parameter
    eta: np.ndarray          # frame-parameter samples (K,)
    x: np.ndarray            # base coordinates of the samples
    w: np.ndarray            # w values (consistent frame)
    g_series: list           # per-alpha ascending series of v_alpha/d(param)
    Y_series: np.ndarray     # series of v/d(param)
    abel_anchor: np.ndarray  # Abel vector at the center
    abel_series: list        # per-alpha series of the Abel offset


class LocalFrames:
    """Builder/cache of local circle frames keyed by zero index."""

    def __init__(self, curve, period, abel):
        self.curve = curve
        self.period = period
        self.abel = abel
        self._frames = {}

    def frame(self, zero_index):
        if zero_index not in self._frames:
            z = self.curve.zeros[zero_index]
            self._frames[zero_index] = (self._branch_frame(z) if z.is_branch
                                        else self._zero_frame(z))
        return self._frames[zero_index]

    def _branch_frame(self, z):
        curve = self.curve
        b = complex(z.x)
        others = curve.singular_points[np.abs(curve.singular_points - b) > 1e-12]
        d = float(np.min(np.abs(others - b)))
        rho_x = sf.JET_RADIUS_FACTOR * d
        rho = math.sqrt(rho_x)
        eta = rho * np.exp(2j * np.pi * np.arange(K_FRAME) / K_FRAME)
        x = b + eta ** 2
        # track w around the doubled loop; any lift fixes the frame sign
        w0 = curve.sqrtP(np.array([x[0]]))[0]
        w_full = curve.track_w(np.append(x, x[0]), w0)
        if abs(w_full[-1] - w0) > 1e-6 * max(1.0, abs(w0)):
            raise DifferentialError("branch frame tracking did not close up")
        w = w_full[:-1]
        y = curve.phi(x, w)                     # v/dx on the frame
        Y = 2.0 * eta * y                       # v/d(eta)
        V = self.period.V(x, w)                 # (K, g) relative dx
        gmat = V * (2.0 * eta)[:, None]         # relative d(eta)
        g_series = [nm.polytrim(_series_from_samples(gmat[:, a], rho), rel=0.0)
                    for a in range(self.period.g)]
        Y_series = _series_from_samples(Y, rho)
        anchor = self.abel.at(b, None)
        abel_series = [nm.series_integrate(gs) for gs in g_series]
        return FrameData("branch", z.index, b, rho, eta, x, w,
                         g_series, Y_series, anchor, abel_series)

    def _zero_frame(self, z):
        curve = self.curve
        c = complex(z.x)
        others = curve.singular_points[np.abs(curve.singular_points - c) > 1e-12]
        d = float(np.min(np.abs(others - c)))
        rho = sf.JET_RADIUS_FACTOR * d
        eta = rho * np.exp(2j * np.pi * np.arange(K_FRAME) / K_FRAME)
        x = c + eta
        s = curve.sqrtP(x)
        w = np.where(np.abs(s - z.w) <= np.abs(s + z.w), s, -s)
        Y = curve.phi(x, w)                     # v/dx; simple zero at center
        V = self.period.V(x, w)
        g_series = [nm.polytrim(_series_from_samples(V[:, a], rho), rel=0.0)
                    for a in range(self.period.g)]
        Y_series = _series_from_samples(Y, rho)
        anchor = self.abel.at(c, z.w)
        abel_series = [nm.series_integrate(gs) for gs in g_series]
        return FrameData("zero", z.index, c, rho, eta, x, w,
                         g_series, Y_series, anchor, abel_series)

    # -- evaluation helpers ---------------------------------------------------

    def eval_circle(self, fr, scale=0.6, k=128):
        """Evaluation circle inside the frame: parameters and point data."""
        r = scale * fr.rho
        eta = r * np.exp(2j * np.pi * np.arange(k) / k)
        g = self.period.g
        G = np.stack([nm.polyval(fr.g_series[a], eta) for a in range(g)], axis=1)
        Y = nm.polyval(fr.Y_series, eta)
        A = np.stack([fr.abel_anchor[a] + nm.polyval(fr.abel_series[a], eta)
                      for a in range(g)], axis=1)
        if fr.kind == "branch":
            x = fr.center + eta ** 2
            V = G / (2.0 * eta)[:, None]
        else:
            x = fr.center + eta
            V = G
        return {"eta": eta, "rho": r, "x": x, "G": G, "Y": Y, "A": A, "V": V}

    def y_jet_values(self, fr):
        """Center jet data: y = v/dx as a function of the frame parameter
        (y_m = Y_{m+1}/2 on branch frames since Y = 2 eta y)."""
        Y = fr.Y_series
        g = fr.g_series
        if fr.kind == "branch":
            yc = Y[1:] / 2.0
            return {"y0": yc[0], "yp": yc[1], "yppp": 6.0 * yc[3],
                    "g0": np.array([gs[0] for gs in g]),
                    "gpp": np.array([2.0 * gs[2] if len(gs) > 2 else 0.0 for gs in g])}
        return {"Y1": Y[1]}


def _series_from_samples(vals, rho, m_pos=M_JET):
    f = np.fft.fft(np.asarray(vals, dtype=complex)) / len(vals)
    ms = np.arange(m_pos + 1)
    return f[ms] / rho ** ms


def residue_from_samples(vals, eta):
    """c_{-1} of a function sampled on a full circle |eta| = rho."""
    k = len(eta)
    f = np.fft.fft(np.asarray(vals, dtype=complex)) / k
    rho = float(np.abs(eta[0]))
    return complex(f[k - 1] * rho)


# ---------------------------------------------------------------------------
# geometry bundle
# ---------------------------------------------------------------------------

class Geometry:
    """Curve + homology + periods + Abel + kernels + frames, built lazily."""

    def __init__(self, curve, basis=None):
        self.curve = curve
        self.basis = basis if basis is not None else sf.homology_basis(curve)
        self._period = None
        self._abel = None
        self._kernels = None
        self._frames = None

    @property
    def period(self):
        if self._period is None:
            self._period = PeriodData(self.curve, self.basis)
        return self._period

    @property
    def abel(self):
        if self._abel is None:
            self._abel = AbelMap(self.curve, self.period)
        return self._abel

    @property
    def kernels(self):
        if self._kernels is None:
            self._kernels = Kernels(self.curve, self.period, self.abel)
        return self._kernels

    @property
    def frames(self):
        if self._frames is None:
            self._frames = LocalFrames(self.curve, self.period, self.abel)
        return self._frames

    @property
    def genus(self):
        return self.curve.counts.genus


def build_geometry(curve):
    return Geometry(curve)
