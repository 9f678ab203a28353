import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speclab import numerics as nm


class TestPolyRoots:
    def test_quadratic(self):
        # x^2 + 1
        rep = nm.poly_roots([1, 0, 1])
        got = sorted(rep.roots, key=lambda z: z.imag)
        assert np.allclose(got, [-1j, 1j], atol=1e-12)

    def test_triple_root_flagged(self):
        # (x-1)^3 = -1 + 3x - 3x^2 + x^3
        rep = nm.poly_roots([-1, 3, -3, 1], cluster_tol=1e-4)
        assert np.allclose(rep.roots, 1.0, atol=1e-4)
        assert np.all(rep.multiplicities == 3)

    def test_against_companion_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            deg = int(rng.integers(3, 12))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            rep = nm.poly_roots(c)
            oracle = np.sort_complex(np.roots(c[::-1]))
            mine = np.sort_complex(rep.roots)
            assert np.allclose(mine, oracle, atol=1e-8)

    def test_companion_fallback_when_aberth_diverges(self, monkeypatch):
        # a sign-flipped derivative drives the Aberth iteration away from
        # the roots; the companion-matrix eigenvalues take over
        roots = np.array([1.0, -2.0, 3j, -0.5 - 1j])
        c = np.array([1.0 + 0j])
        for r in roots:
            c = nm.polymul(c, [-r, 1.0])
        derivative, companion = nm.polyder, np.roots
        calls = []

        def spy(p):
            calls.append(p)
            return companion(p)

        monkeypatch.setattr(nm, "polyder", lambda p: -derivative(p))
        monkeypatch.setattr(np, "roots", spy)
        rep = nm.poly_roots(c)
        assert len(calls) == 1
        assert np.allclose(np.sort_complex(rep.roots), np.sort_complex(roots), atol=1e-12)

    def test_residuals_small(self):
        c = np.array([2.0, -1.0, 0.5j, 1.0, 3.0 + 1j])
        rep = nm.poly_roots(c)
        scale = np.max(np.abs(c))
        assert np.all(rep.residuals <= 1e-10 * scale * 10)


class TestSeries:
    def test_shift(self):
        # p(x) = 1 + 2x + 3x^2 around a=2: p(2+t)
        c = nm.polyshift([1, 2, 3], 2.0)
        t = 0.37
        assert np.isclose(nm.polyval(c, t), nm.polyval([1, 2, 3], 2.0 + t))

    def test_sqrt_and_inv(self):
        a = np.array([4.0, 1.0, -0.5, 0.25])
        s = nm.series_sqrt(a, 8)
        back = nm.series_mul(s, s, 8)
        assert np.allclose(back[:4], a, atol=1e-12)
        inv = nm.series_inv(a, 8)
        one = nm.series_mul(a, inv, 8)
        assert np.isclose(one[0], 1.0) and np.allclose(one[1:], 0.0, atol=1e-12)

    def test_sqrt_branch(self):
        a = np.array([4.0, 1.0])
        s = nm.series_sqrt(a, 4, branch=-2.0)
        assert np.isclose(s[0], -2.0)


class TestQuadrature:
    def test_circle_dz_over_z(self):
        c = nm.circle(0.0, 1.0)
        res = nm.integrate(lambda si, t, z: 1.0 / z, c)
        assert abs(res.value - 2j * np.pi) < 1e-12
        assert res.error >= abs(res.value - 2j * np.pi) or res.error < 1e-12

    def test_cubic_segment(self):
        c = nm.Contour([nm.Line(0.0, 1.0)])
        res = nm.integrate(lambda si, t, z: z ** 3, c)
        assert abs(res.value - 0.25) < 1e-14
        assert res.error >= abs(res.value - 0.25) or res.error < 1e-13

    def test_oscillatory_estimate_conservative(self):
        c = nm.Contour([nm.Line(0.0, 1.0)])
        res = nm.integrate(lambda si, t, z: np.exp(8j * np.pi * z), c)
        exact = (np.exp(8j * np.pi) - 1.0) / (8j * np.pi)
        assert abs(res.value - exact) <= max(res.error, 1e-12)

    def test_sqrt_end_parametrization(self):
        # integral of 1/sqrt(z) from 1 to 0 along the real axis ( = -2 )
        seg = nm.Line(1.0, 0.0, sqrt_end="end")
        res = nm.integrate(lambda si, t, z: 1.0 / np.sqrt(z + 0j), nm.Contour([seg]))
        assert abs(res.value - (-2.0)) < 1e-10

    def test_non_finite_panel_raises(self):
        # a node on a branch-point end makes the last panel non-finite at
        # every depth; it must not be accepted at the depth cap
        c = nm.Contour([nm.Line(0.0, 1.0)], label="leg")
        with pytest.raises(nm.QuadratureError, match="leg"):
            nm.integrate(lambda si, t, z: np.where(t > 0.99, np.nan, 1.0), c, max_depth=3)


def _depth_first_stack(fn, contour, rel_tol=nm.QUAD_REL_TOL, abs_floor=nm.QUAD_ABS_FLOOR,
                       max_depth=24, order=nm.QUAD_ORDER):
    """Reference for numerics.integrate_stack: the depth-first engine that
    calls fn once per panel, on its order-n and order-2n nodes together."""
    t_lo, w_lo = nm._gl_nodes(order)
    t_hi, w_hi = nm._gl_nodes(2 * order)
    t_pair = np.concatenate([t_lo, t_hi])
    n_eval = 0
    scale = total = err = 0.0
    stack = [(si, seg, 0.0, 1.0, 0) for si, seg in enumerate(contour.segments)][::-1]
    while stack:
        si, seg, ta, tb, depth = stack.pop()
        h = tb - ta
        tt = ta + h * t_pair
        f = fn(np.full(len(tt), si), tt, seg.point(tt)) * seg.tangent(tt)[:, None]
        coarse = h * (w_lo @ f[:order])
        fine = h * (w_hi @ f[order:])
        n_eval += 3 * order
        e = np.abs(fine - coarse)
        scale = np.fmax(scale, np.abs(fine))
        tol_here = np.maximum(rel_tol * scale, abs_floor)
        if np.all(e <= tol_here) or depth >= max_depth:
            if depth >= max_depth and not np.all(e <= np.maximum(1e3 * tol_here, 3e-9)):
                raise nm.QuadratureError(
                    "quadrature subdivision exhausted on segment %d of %s "
                    "(panel error %.3e)" % (si, contour.label or "contour", np.max(e)))
            total, err = total + fine, err + e
        else:
            tm = 0.5 * (ta + tb)
            stack.append((si, seg, tm, tb, depth + 1))
            stack.append((si, seg, ta, tm, depth + 1))
    return nm.QuadResult(total, err, n_eval)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestQuadratureStack:
    """numerics.integrate_stack: one adaptive pass serves a stack of
    integrands, each held to its own tolerance."""

    FNS = (lambda z: 1.0 / z, lambda z: z ** 3, lambda z: np.exp(8j * np.pi * z))
    EXACT = (2j * np.pi, 0.0, 0.0)

    def stacked(self, si, t, z):
        return np.stack([f(z) for f in self.FNS], axis=-1)

    @staticmethod
    def branch_leg(si, t, z):
        # a smooth column, and x^(1/4) and log(x)/sqrt(x) on the square-root
        # leg into 0 (segment 1), taken from x = (1 - t)^2 there, exact in t;
        # their singular end forces panels down to the depth cap
        x = np.where(si == 1, (1.0 - t) ** 2, z) + 0j
        return np.stack([np.ones_like(x), x ** 0.25, np.log(x) / np.sqrt(x)], axis=-1)

    LEG = nm.Contour([nm.Line(1.0 + 1.0j, 1.0), nm.Line(1.0, 0.0, sqrt_end="end")])

    def test_matches_scalar_and_closed_forms(self):
        c = nm.circle(0.0, 1.0)
        res = nm.integrate_stack(self.stacked, c)
        assert res.value.shape == (3,) and res.error.shape == (3,)
        for col, (f, exact) in enumerate(zip(self.FNS, self.EXACT)):
            bound = max(res.error[col], 1e-12)
            one = nm.integrate(lambda si, t, z, f=f: f(z), c)
            assert abs(res.value[col] - one.value) <= bound
            assert abs(res.value[col] - exact) <= bound
            # each integrand is resolved as far as it is on its own
            assert res.error[col] <= 10 * one.error + 1e-14

    def test_bitwise_equal_to_depth_first(self):
        for fn, c in ((self.stacked, nm.circle(0.0, 1.0)), (self.branch_leg, self.LEG)):
            res = nm.integrate_stack(fn, c)
            ref = _depth_first_stack(fn, c)
            assert _same_bits(res.value, ref.value) and _same_bits(res.error, ref.error)
            # the speculative panels are counted, and cost little
            assert ref.n_eval <= res.n_eval <= 1.25 * ref.n_eval
        assert ref.n_eval >= 36 * 30  # the leg went deep

    def test_non_finite_column_raises(self):
        c = nm.Contour([nm.Line(0.0, 1.0)], label="leg")

        def fn(si, t, z):
            return np.stack([z, np.where(t > 0.99, np.nan, 1.0)], axis=-1)

        with pytest.raises(nm.QuadratureError, match="leg") as got:
            nm.integrate_stack(fn, c, max_depth=3)
        with pytest.raises(nm.QuadratureError) as want:
            _depth_first_stack(fn, c, max_depth=3)
        assert str(got.value) == str(want.value)

    def test_one_call_per_level(self):
        calls = []

        def fn(si, t, z):
            calls.append((si.copy(), t.copy()))
            return self.stacked(si, t, z)

        res = nm.integrate_stack(fn, nm.circle(0.0, 1.0))
        assert len(calls) > 1  # the oscillatory column forces splits
        assert sum(len(t) for _, t in calls) == res.n_eval
        t12, _ = nm._gl_nodes(12)
        t24, _ = nm._gl_nodes(24)
        pair = np.concatenate([t12, t24])
        for level, (si, t) in enumerate(calls):
            # call `level` holds whole panels of width 2^-level, the 12 and
            # 24 nodes of each, and no panel twice
            h = 0.5 ** level
            ta = t.reshape(-1, 36)[:, 0] - h * t12[0]
            assert np.allclose(t, (ta[:, None] + h * pair).ravel(), atol=1e-14)
            assert np.allclose(ta / h, np.round(ta / h), atol=1e-9)
            assert len(set(np.round(ta, 12))) == len(ta)
            assert np.all(si == 0)


class TestCircleJet:
    """Laurent windows (numerics.laurent_window) on sampled circles."""

    def test_simple_pole(self):
        eta = nm.circle_points(0.5, 256)
        c, tail = nm.laurent_window(1.0 / eta, 0.5, np.arange(-4, 13))
        assert tail <= nm.JET_TAIL_TOL
        assert abs(c[3] - 1.0) < 1e-12  # m = -1
        others = c[4:]  # m = 0 .. 12
        assert np.all(np.abs(others) < 1e-12)

    def test_exponential(self):
        c, tail = nm.laurent_window(np.exp(nm.circle_points(0.5, 256)), 0.5,
                                    np.arange(-4, 13))
        assert tail <= nm.JET_TAIL_TOL
        import math
        for k in range(0, 10):
            assert abs(c[k + 4] - 1.0 / math.factorial(k)) < 1e-12

    def test_rho_robustness(self):
        fn = lambda e: np.exp(e) / (e - 2.0)
        c1, t1 = nm.laurent_window(fn(nm.circle_points(0.5, 256)), 0.5, np.arange(-4, 41))
        c2, t2 = nm.laurent_window(fn(nm.circle_points(0.25, 256)), 0.25, np.arange(-4, 41))
        assert max(t1, t2) <= nm.JET_TAIL_TOL
        for m in range(-1, 8):
            assert abs(c1[m + 4] - c2[m + 4]) < 1e-9

    def test_tail_failure_reported(self):
        # a pole just outside the circle: the window is not converged, and
        # the reported tail says so
        eta = nm.circle_points(0.5, 64)
        _, tail = nm.laurent_window(1.0 / (eta - 0.500001), 0.5, np.arange(-4, 13))
        assert tail > nm.JET_TAIL_TOL

    def test_rows_and_orders(self):
        # rows are independent windows with their own radii; negative orders
        # are principal-part coefficients, in any order requested
        rho = np.array([0.5, 0.25])
        eta = nm.circle_points(rho[:, None], 128)
        vals = np.stack([3.0 / eta[0] ** 2 + np.exp(eta[0]), 1.0 / (eta[1] - 1.0)])
        c, tail = nm.laurent_window(vals, rho, [-2, 0, 3])
        assert c.shape == (2, 3) and tail.shape == (2,)
        assert np.allclose(c[0], [3.0, 1.0, 1.0 / 6.0], atol=1e-13)
        assert np.allclose(c[1], [0.0, -1.0, -1.0], atol=1e-13)


class TestSolveDense:
    def test_identity(self):
        x, cond = nm.solve_dense(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1, 2, 3])
        assert cond < 1.0 + 1e-12

    def test_known_inverse(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([1.0, 1.0])
        x, _ = nm.solve_dense(a, b)
        assert np.allclose(x, np.array([-1.0, 1.0]))

    def test_singular_raises(self):
        with pytest.raises(nm.SingularSystemError):
            nm.solve_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=1000))
def test_roots_reconstruct_polynomial(deg, seed):
    rng = np.random.default_rng(seed)
    roots = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
    c = np.array([1.0 + 0j])
    for r in roots:
        c = nm.polymul(c, [-r, 1.0])
    rep = nm.poly_roots(c)
    assert np.allclose(np.sort_complex(rep.roots), np.sort_complex(roots), atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2000))
def test_series_sqrt_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    a[0] = a[0] + 3.0  # keep the constant term away from zero
    s = nm.series_sqrt(a, 10)
    back = nm.series_mul(s, s, 10)
    assert np.allclose(back[:6], a, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2000),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_polyshift_evaluation_property(seed, re, im):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    a = complex(re, im)
    shifted = nm.polyshift(c, a)
    t = 0.3 - 0.2j
    assert abs(nm.polyval(shifted, t) - nm.polyval(c, a + t)) < 1e-9
