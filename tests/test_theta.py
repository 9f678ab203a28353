import math

import numpy as np
import pytest

from speclab.theta import (RC_STEP, TAIL_TOL, HalfCharacteristic, Theta, ThetaError,
                           upper_gamma, zero_char)


OM1 = np.array([[0.3 + 1.1j]])
OM2 = np.array([[0.25 + 0.9j, 0.1 + 0.15j], [0.1 + 0.15j, -0.2 + 1.3j]])


def _rotated(evals, angle, real):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return np.asarray(real) + 1j * (rot @ np.diag(evals) @ rot.T)


# Im eigenvalues 0.55 and 3.3 (ratio 6), tilted against the axes
OM2_ANISO = _rotated([0.55, 3.3], 0.6, [[-0.41, 0.22], [0.22, 0.13]])
OM3 = np.array([[0.21 + 1.05j, 0.33 + 0.21j, -0.12 - 0.18j],
                [0.33 + 0.21j, -0.27 + 0.93j, 0.18 + 0.11j],
                [-0.12 - 0.18j, 0.18 + 0.11j, 0.09 + 1.42j]])


def q_series_theta(z, tau, d1, d2, nmax=60):
    """Independent one-dimensional characteristic theta sum."""
    total = 0.0 + 0.0j
    for n in range(-nmax, nmax + 1):
        p = n + d1
        total += np.exp(1j * np.pi * p * p * tau + 2j * np.pi * p * (z + d2))
    return total


class TestGenus1:
    @pytest.mark.parametrize("bits", range(4))
    def test_against_q_series(self, bits):
        th = Theta(OM1)
        d1, d2 = 0.5 * (bits & 1), 0.5 * (bits >> 1)
        ch = HalfCharacteristic((d1,), (d2,))
        tau = OM1[0, 0]
        for z in (0.11 + 0.21j, -0.73 + 0.4j, 1.83 - 2.12j):
            mine = th.value(np.array([[z]]), ch)[0]
            ref = q_series_theta(z, tau, d1, d2)
            # the q-series reference carries ~1e-16 * (largest term) noise
            term_scale = float(np.exp(np.pi * 1.1 * (abs(z.imag) / 1.1 + 1) ** 2))
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref)) + 1e-14 * term_scale

    def test_gradient_vs_fd(self):
        th = Theta(OM1)
        ch = HalfCharacteristic((0.5,), (0.5,))
        z = 0.3 + 0.1j
        h = 1e-6
        e = th.eval(np.array([[z]]), ch, derivs=2)
        fd = (th.value(np.array([[z + h]]), ch)[0] - th.value(np.array([[z - h]]), ch)[0]) / (2 * h)
        assert abs(e["grad"][0, 0] - fd) < 1e-7
        h2 = 1e-4
        fd2 = (th.value(np.array([[z + h2]]), ch)[0] - 2 * th.value(np.array([[z]]), ch)[0]
               + th.value(np.array([[z - h2]]), ch)[0]) / h2 ** 2
        assert abs(e["hess"][0, 0, 0] - fd2) < 1e-4


class TestGenus2:
    def test_parity(self):
        th = Theta(OM2)
        z = np.array([[0.21 - 0.34j, -0.11 + 0.27j]])
        even = th.value(z, zero_char(2))[0]
        even_m = th.value(-z, zero_char(2))[0]
        assert abs(even - even_m) < 1e-12 * abs(even)
        odd = HalfCharacteristic((0.5, 0.5), (0.5, 0.0))
        assert odd.parity_odd
        vo = th.value(z, odd)[0]
        vo_m = th.value(-z, odd)[0]
        assert abs(vo + vo_m) < 1e-12 * max(1.0, abs(vo))

    def test_quasi_periodicity(self):
        th = Theta(OM2)
        z = np.array([0.17 + 0.05j, -0.33 + 0.4j])
        for mvec in ([1, 0], [0, 1], [2, -1]):
            mv = np.array(mvec, dtype=float)
            lhs = th.value((z + th.om @ mv + np.array([1.0, -2.0]))[None, :])[0]
            pref = np.exp(-1j * np.pi * mv @ th.om @ mv - 2j * np.pi * mv @ z)
            rhs = pref * th.value(z[None, :])[0]
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_reduction_consistency_large_argument(self):
        th = Theta(OM2)
        z = np.array([3.7 - 4.1j, -2.9 + 5.3j])
        # brute: unreduced sum with a big box
        g = 2
        rng = np.arange(-14, 15)
        grids = np.meshgrid(rng, rng, indexing="ij")
        pts = np.stack([x.ravel() for x in grids], axis=1).astype(float)
        quad = np.einsum("pi,ij,pj->p", pts, th.om, pts)
        vals = np.exp(1j * np.pi * quad + 2j * np.pi * pts @ z)
        ref = vals.sum()
        mine = th.value(z[None, :])[0]
        assert abs(mine - ref) <= 1e-9 * abs(ref)

    def test_gradient_hessian_vs_fd(self):
        th = Theta(OM2)
        ch = HalfCharacteristic((0.5, 0.0), (0.5, 0.5))
        z = np.array([0.12 + 0.31j, -0.22 - 0.14j])
        e = th.eval(z[None, :], ch, derivs=2)
        h = 1e-6
        for i in range(2):
            dz = np.zeros(2, dtype=complex)
            dz[i] = h
            fd = (th.value((z + dz)[None, :], ch)[0] - th.value((z - dz)[None, :], ch)[0]) / (2 * h)
            assert abs(e["grad"][0, i] - fd) < 1e-6
        dz0 = np.array([h, 0.0], dtype=complex)
        dz1 = np.array([0.0, h], dtype=complex)
        fd01 = (th.value((z + dz0 + dz1)[None, :], ch)[0]
                - th.value((z + dz0 - dz1)[None, :], ch)[0]
                - th.value((z - dz0 + dz1)[None, :], ch)[0]
                + th.value((z - dz0 - dz1)[None, :], ch)[0]) / (4 * h * h)
        assert abs(e["hess"][0, 0, 1] - fd01) < 1e-4

    def test_odd_char_selection_deterministic(self):
        th = Theta(OM2)
        ch1 = th.odd_nonsingular_char()
        ch2 = th.odd_nonsingular_char()
        assert ch1 == ch2 and ch1.parity_odd

    def test_imag_not_positive_definite_rejected(self):
        with pytest.raises(ThetaError):
            Theta(np.array([[0.3 - 1.0j]]))


def box_theta(om, z, d1, d2, tail=1e-30):
    """Plain unreduced lattice sum of theta[d] at one argument over a box
    around its largest term, with value, gradient and Hessian, and the sums
    of the moduli of their terms (the scale rounding is measured against)."""
    g = len(z)
    t = om.imag
    half = int(math.ceil(math.sqrt(-math.log(tail) / (math.pi * np.linalg.eigvalsh(t)[0])))) + 1
    center = np.rint(-np.linalg.solve(t, z.imag) - d1)
    rng = np.arange(-half, half + 1)
    n = np.stack(np.meshgrid(*([rng] * g), indexing="ij"), axis=-1).reshape(-1, g)
    p = n + center + d1
    terms = np.exp(1j * np.pi * np.einsum("pi,ij,pj->p", p, om, p)
                   + 2j * np.pi * (p @ (z + d2)))
    tp = 2j * np.pi * p
    vals = {"val": terms.sum(), "grad": terms @ tp,
            "hess": np.einsum("p,pi,pj->ij", terms, tp, tp)}
    mod = np.abs(terms)
    scales = {"val": mod.sum(), "grad": mod @ np.abs(tp).max(axis=1),
              "hess": mod @ np.abs(tp).max(axis=1) ** 2}
    return vals, scales


def _shift(om, re, im):
    """Arguments with real parts re and imaginary parts Im(om) im."""
    return np.asarray(re) + 1j * (np.asarray(im) @ om.imag.T)


def _agree_with_box(th, z, ch, tol=1e-13):
    d1 = np.asarray(ch.d1, dtype=float)
    d2 = np.asarray(ch.d2, dtype=float)
    refs = [box_theta(th.om, zi, d1, d2) for zi in z]
    keys = {0: ("val",), 1: ("val", "grad"), 2: ("val", "grad", "hess")}
    for derivs, names in keys.items():
        out = th.eval(z, ch, derivs=derivs)
        assert set(out) == set(names)
        for name in names:
            for n, (ref, scale) in enumerate(refs):
                err = np.max(np.abs(out[name][n] - ref[name]))
                assert err <= tol * scale[name], (name, derivs, n, err / scale[name])


class TestEllipsoidAgainstBox:
    """The ellipsoid sum against a plain box sum whose tail is below 1e-30."""

    RNG = np.random.default_rng(20)

    def _args(self, om, far):
        g = om.shape[0]
        rng = self.RNG
        re = rng.uniform(-0.5, 0.5, (4, g))
        im = rng.uniform(-0.45, 0.45, (4, g))
        if far:
            re = re + rng.integers(-4, 5, (4, g))
            im = im + rng.integers(-3, 4, (4, g))
        return _shift(om, re, im)

    def test_genus3_all_characteristics(self):
        th = Theta(OM3)
        z = np.concatenate([self._args(OM3, False), self._args(OM3, True)])
        chars = HalfCharacteristic.enumerate(3)
        assert len(chars) == 64
        for ch in chars:
            _agree_with_box(th, z, ch)

    @pytest.mark.parametrize("far", [False, True])
    def test_anisotropic_genus2(self, far):
        th = Theta(OM2_ANISO)
        z = self._args(OM2_ANISO, far)
        for ch in HalfCharacteristic.enumerate(2):
            _agree_with_box(th, z, ch)

    def test_batch_mixing_small_and_large_shifts(self):
        th = Theta(OM2_ANISO)
        z = _shift(OM2_ANISO, [[0.1, -0.2], [0.3, 0.05], [2.4, -3.1], [0.2, 0.1]],
                   [[0.01, -0.02], [0.49, -0.48], [3.3, -2.6], [-0.45, 0.5]])
        for ch in (zero_char(2), HalfCharacteristic((0.5, 0.5), (0.5, 0.0))):
            _agree_with_box(th, z, ch)


class TestEllipsoidLattice:
    def test_non_finite_argument_raises(self):
        th = Theta(OM2)
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            z = np.array([[0.1 + 0.2j, 0.3], [bad, 0.0]], dtype=complex)
            with pytest.raises(ThetaError):
                th.eval(z)

    def test_fewer_points_than_box(self):
        th = Theta(OM2_ANISO)
        z = _shift(OM2_ANISO, [[0.2, -0.1]], [[0.05, -0.04]])
        th.eval(z)
        (pts, _, _), = th._lattice_cache.values()
        # the box the ellipsoid replaces: side 2 ceil(r0 + cmax + 1) + 1
        r0 = math.sqrt(-math.log(TAIL_TOL) / (math.pi * np.linalg.eigvalsh(th.t)[0]))
        box = (2 * math.ceil(r0 + 0.05 + 1.0) + 1) ** 2
        assert len(pts) < box / 3

    def test_nearby_batches_share_one_lattice(self):
        th = Theta(OM2_ANISO)
        rng = np.random.default_rng(5)
        base = np.array([0.1, 0.2])
        for _ in range(40):
            im = base + 1e-3 * rng.standard_normal((8, 2))
            th.eval(_shift(OM2_ANISO, rng.uniform(-3, 3, (8, 2)), im))
        assert len(th._lattice_cache) == 1

    def test_cache_bounded_over_reduced_cell(self):
        th = Theta(OM2_ANISO)
        rng = np.random.default_rng(6)
        for _ in range(200):
            th.eval(_shift(OM2_ANISO, rng.uniform(-5, 5, (3, 2)),
                           rng.uniform(-5, 5, (3, 2))))
        # reduced shifts c lie in [-1/2, 1/2]^g, so |Y c| is bounded
        rc_max = 0.5 * np.sqrt(2.0) * np.linalg.norm(th.y, 2)
        assert len(th._lattice_cache) <= math.ceil(rc_max / RC_STEP) + 1

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_upper_gamma(self, a):
        nodes, weights = np.polynomial.legendre.leggauss(40)
        for x in (0.3, 4.0, 30.0):
            # Gauss-Legendre on unit panels of [x, x + 80]
            s = x + np.arange(80)[:, None] + 0.5 * (nodes[None, :] + 1.0)
            ref = float(np.sum(0.5 * weights * s ** (a - 1.0) * np.exp(-s)))
            assert abs(upper_gamma(a, x) - ref) <= 1e-12 * ref
