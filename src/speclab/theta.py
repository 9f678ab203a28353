"""Riemann theta functions with half-integer characteristics.

theta[d](z | Om) = sum_{n in Z^g} e( pi i p'Om p + 2 pi i p'(z + d2) ),  p = n + d1.

Arguments are first reduced by the period lattice; the reduction prefactor

    theta[d](z + Om m + k) = e( 2 pi i d1'k - pi i m'Om m - 2 pi i m'(z + d2) ) theta[d](z)

is applied exactly, so returned values (and gradients / Hessians in the
original argument) are those of the unreduced input.

The lattice sum runs over an ellipsoid, following Deconinck, Heil, Bobenko,
van Hoeij & Schmies, "Computing Riemann theta functions", Math. Comp. 73
(2004). With pi Im(Om) = Y'Y and the reduced shift c = Im(Om)^-1 Im(z_red),
a term has modulus exp(-|Y(p + c)|^2 + |Yc|^2), so every p with
|Y(p + c)| < R lies in the point set |Y p| < R + r_c, r_c = max |Yc| over
the batch. Its radius R is the smallest one at which the DHBHS bound on the
neglected terms of a derivative of order two,

    (2 sqrt(pi))^2 |Im(Om)^-1| (g/2) (2/rho)^g
        sum_k C(2, k) r_c^(2-k) Gamma((g+k)/2, (R - rho/2)^2),

falls below `TAIL_TOL` (relative to the largest term exp(|Yc|^2)); rho is
the length of the shortest vector of the lattice Y Z^g. The bound rests on
the balls of radius rho/2 around the points being disjoint and on
|u|^k exp(-|u|^2) being subharmonic where |u|^2 >= k + g/2, so R never
drops below rho/2 + sqrt(2 + g/2). r_c is rounded up to a multiple of
RC_STEP, so nearby batches share one cached point set.

Arguments are (N, g) batches; one pass produces value, gradient and Hessian,
the derivatives as one matmul of the terms against [p | p (x) p].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ThetaError(RuntimeError):
    pass


LATTICE_CAP = 4_000_000
TAIL_TOL = 1e-14
RC_STEP = 0.25


@dataclass(frozen=True)
class HalfCharacteristic:
    """Half-integer characteristic delta = (d1, d2), entries in {0, 1/2}."""

    d1: tuple
    d2: tuple

    @property
    def parity_odd(self):
        return int(round(4.0 * float(np.dot(self.d1, self.d2)))) % 2 == 1

    @staticmethod
    def enumerate(g):
        out = []
        for bits in range(4 ** g):
            d = [(bits >> k) & 1 for k in range(2 * g)]
            d1 = tuple(0.5 * b for b in d[:g])
            d2 = tuple(0.5 * b for b in d[g:])
            out.append(HalfCharacteristic(d1, d2))
        out.sort(key=lambda c: (c.d1, c.d2))
        return out


def zero_char(g):
    return HalfCharacteristic((0.0,) * g, (0.0,) * g)


def upper_gamma(a, x):
    """Upper incomplete gamma Gamma(a, x) for a in {1/2, 1, 3/2, ...}."""
    if a <= 0 or 2 * a != int(2 * a):
        raise ValueError("upper_gamma needs a positive integer or half-integer a")
    if a == int(a):
        b, val = 1.0, math.exp(-x)
    else:
        b, val = 0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    while b < a:
        val = b * val + x ** b * math.exp(-x)
        b += 1.0
    return val


def _box(yinv, radius):
    """Half-widths of the integer box holding every p with |Y p| < radius."""
    return np.floor(radius * np.linalg.norm(yinv, axis=1) + 1.0).astype(int)


def _grid(half):
    """Integer points of the box |n_i| <= half_i, as floats."""
    shape = 2 * half + 1
    if int(np.prod(shape)) > LATTICE_CAP:
        raise ThetaError("lattice enumeration cap exceeded")
    return (np.indices(shape).reshape(len(half), -1).T - half).astype(float)


class Theta:
    """Lattice-sum evaluator bound to one period matrix."""

    def __init__(self, omega):
        om = np.atleast_2d(np.asarray(omega, dtype=complex))
        g = om.shape[0]
        if om.shape != (g, g):
            raise ThetaError("period matrix must be square")
        if np.max(np.abs(om - om.T)) > 1e-8 * max(1.0, float(np.max(np.abs(om)))):
            raise ThetaError("period matrix not symmetric")
        t = 0.5 * (om.imag + om.imag.T)
        try:
            y = np.linalg.cholesky(math.pi * t).T
        except np.linalg.LinAlgError:
            raise ThetaError("Im(period matrix) not positive definite") from None
        self.om = om
        self.g = g
        self.t = t
        self.tinv = np.linalg.inv(t)
        self.tinv_norm = float(np.linalg.norm(self.tinv, 2))
        self.y = y
        self.yinv = np.linalg.inv(y)
        # rho = shortest nonzero |Y n|; every n no longer than the shortest
        # column of Y lies in that column's box
        pts = _grid(_box(self.yinv, float(np.min(np.linalg.norm(y, axis=0)))))
        norms = np.linalg.norm(pts @ y.T, axis=1)
        self.rho = float(np.min(norms[norms > 0]))
        self._radius_cache = {}
        self._lattice_cache = {}

    def tail_bound(self, radius, rc):
        """DHBHS bound on the neglected terms of a second derivative, in
        units of the largest term, for the ellipsoid |Y(p + c)| < radius."""
        g, rho = self.g, self.rho
        x = (radius - 0.5 * rho) ** 2
        total = sum(math.comb(2, k) * rc ** (2 - k) * upper_gamma(0.5 * (g + k), x)
                    for k in range(3))
        return 4.0 * math.pi * self.tinv_norm * 0.5 * g * (2.0 / rho) ** g * total

    def radius(self, rc):
        """Smallest R (to 1e-2) with tail_bound(R, rc) <= TAIL_TOL."""
        if rc not in self._radius_cache:
            lo = 0.5 * self.rho + math.sqrt(2.0 + 0.5 * self.g)
            hi = lo + 1.0
            while self.tail_bound(hi, rc) > TAIL_TOL:
                lo, hi = hi, hi + 2.0 * (hi - lo)
            while hi - lo > 1e-2:
                mid = 0.5 * (lo + hi)
                if self.tail_bound(mid, rc) > TAIL_TOL:
                    lo = mid
                else:
                    hi = mid
            self._radius_cache[rc] = hi
        return self._radius_cache[rc]

    def _lattice(self, d1, rc):
        """Points p = n + d1 with |Y p| < R(rc) + rc, their quadratic form
        p'Om p, and the matmul operand [p | p (x) p]."""
        rc = RC_STEP * math.ceil(rc / RC_STEP)
        key = (tuple(d1), rc)
        if key not in self._lattice_cache:
            r_out = self.radius(rc) + rc
            pts = _grid(_box(self.yinv, r_out)) + d1[None, :]
            pts = pts[np.linalg.norm(pts @ self.y.T, axis=1) < r_out]
            quad = np.einsum("pi,ij,pj->p", pts, self.om, pts)
            pp = (pts[:, :, None] * pts[:, None, :]).reshape(len(pts), -1)
            ops = np.concatenate([pts, pp], axis=1).astype(complex)
            self._lattice_cache[key] = (pts, quad, ops)
        return self._lattice_cache[key]

    def _reduce(self, z):
        """z = z_red + Om m + k; returns (z_red, m, k) with m, k integer."""
        m = np.rint(z.imag @ self.tinv.T)
        z1 = z - m @ self.om.T
        k = np.rint(z1.real)
        return z1 - k, m, k

    def eval(self, z, char=None, derivs=2):
        """Value (and derivatives) of theta[char] at a batch of arguments.

        Returns {'val': (N,), 'grad': (N,g), 'hess': (N,g,g)} for the
        unreduced argument.
        """
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        if z.shape[1] != self.g:
            raise ThetaError("argument dimension mismatch")
        if not np.all(np.isfinite(z)):
            raise ThetaError("non-finite theta argument")
        if char is None:
            char = zero_char(self.g)
        g = self.g
        d1 = np.asarray(char.d1, dtype=float)
        d2 = np.asarray(char.d2, dtype=float)

        z_red, m, k = self._reduce(z)
        yc = (z_red.imag @ self.tinv.T) @ self.y.T
        rc = math.sqrt(float(np.max(np.einsum("ni,ni->n", yc, yc)))) if len(z) else 0.0
        pts, quad, ops = self._lattice(d1, rc)

        const = np.exp(1j * math.pi * quad + 2j * math.pi * (pts @ d2))
        terms = np.exp(2j * math.pi * (z_red @ pts.T)) * const[None, :]

        val_red = terms.sum(axis=1)
        mOmm = np.einsum("ni,ij,nj->n", m, self.om, m)
        expo = (2j * math.pi * (k @ d1)
                - 1j * math.pi * mOmm
                - 2j * math.pi * (np.einsum("ni,ni->n", m, z_red) + m @ d2))
        factor = np.exp(expo)

        out = {"val": factor * val_red}
        if derivs >= 1:
            moments = terms @ (ops if derivs >= 2 else ops[:, :g])
            grad_red = 2j * math.pi * moments[:, :g]
            out["grad"] = factor[:, None] * (grad_red - 2j * math.pi * m * val_red[:, None])
        if derivs >= 2:
            # d2 theta(Z) = F [H_red - 2 pi i (m g' + g m') - 4 pi^2 m m' v]
            hess_red = (2j * math.pi) ** 2 * moments[:, g:].reshape(-1, g, g)
            cross = m[:, :, None] * grad_red[:, None, :] + grad_red[:, :, None] * m[:, None, :]
            mm = m[:, :, None] * m[:, None, :]
            out["hess"] = factor[:, None, None] * (
                hess_red
                - 2j * math.pi * cross
                - (2 * math.pi) ** 2 * mm * val_red[:, None, None]
            )
        return out

    def value(self, z, char=None):
        return self.eval(z, char, derivs=0)["val"]

    def loghess(self, z, char=None):
        """(Hessian, gradient) of log theta[char]; raises at theta zeros."""
        e = self.eval(z, char, derivs=2)
        v = e["val"]
        if np.any(np.abs(v) == 0.0):
            raise ThetaError("log-derivative at a theta zero")
        g1 = e["grad"] / v[:, None]
        h = e["hess"] / v[:, None, None] - np.einsum("ni,nj->nij", g1, g1)
        return h, g1

    def odd_nonsingular_char(self):
        """First lexicographic odd characteristic with |grad theta(0)| above
        1e-6 of the largest (or of 1)."""
        zero = np.zeros((1, self.g), dtype=complex)
        scale = 0.0
        grads = []
        chars = [c for c in HalfCharacteristic.enumerate(self.g) if c.parity_odd]
        for ch in chars:
            g1 = self.eval(zero, ch, derivs=1)["grad"][0]
            grads.append(float(np.linalg.norm(g1)))
            scale = max(scale, grads[-1])
        for ch, size in zip(chars, grads):
            if size > 1e-6 * max(scale, 1.0):
                return ch
        raise ThetaError("no nonsingular odd characteristic found")
