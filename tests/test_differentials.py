from itertools import permutations

import numpy as np
import pytest

from speclab import generator, moduli
from speclab import numerics as nm
from speclab import surface as sf
from speclab.differentials import (EVAL_SCALE, AbelMap, ContourField, DifferentialError,
                                   Geometry, PeriodData, second_kind, third_kind)
from speclab.harness import Checker, Report, Session, _thomae_sides, suite_surface
from speclab.instances import load_instance


class TestNormalizedBasis:
    def test_a_normalization(self, ell4, g2_23):
        for ses in (ell4, g2_23):
            g = ses.geo.genus
            per = ses.geo.period
            norm = np.array([[ses.curve.integrate(
                lambda x, w, a=a: per.V(x, w)[..., a], c).value
                for a in range(g)] for c in ses.geo.basis.a_cycles])
            assert np.max(np.abs(norm - np.eye(g))) < 1e-10

    def test_omega_symmetric_positive(self, ell4, g2_5, g2_23, g2_resfree):
        for ses in (ell4, g2_5, g2_23, g2_resfree):
            om = ses.geo.period.omega
            assert np.max(np.abs(om - om.T)) < 1e-10 * max(1, np.max(np.abs(om)))
            assert np.min(np.linalg.eigvalsh(om.imag)) > 0

    def test_thomae_on_shipped_and_drawn_covers(self, ell4, g2_5, g2_23, g2_resfree,
                                                drawn_curves):
        geos = [ses.geo for ses in (ell4, g2_5, g2_23, g2_resfree)]
        geos += [Geometry(curve) for curve in drawn_curves]
        for geo in geos:
            got, want = _thomae_sides(geo)
            assert len(got) == 2 ** (geo.genus - 1) * (2 ** geo.genus + 1)
            assert not np.any(want == 0)  # no even theta constant vanishes at g <= 2
            assert np.max(np.abs(got - want)) < 1e-11

    def test_thomae_pads_the_vanishing_constant_at_genus_3(self):
        spec = generator._draw("g3-33", 2, [(1.75 + 0.95j, 3), (1.7 - 1.1j, 3)],
                               np.random.default_rng(909001))
        spec = generator._rescale(spec, generator._vet(spec))
        generator._vet(spec)
        ses = Session(spec)
        got, want = _thomae_sides(ses.geo)
        assert ses.geo.genus == 3 and len(got) == 36
        assert np.count_nonzero(want == 0) == 1
        assert abs(got[want == 0][0]) < 1e-11
        report = Report(spec.label, "surface")
        suite_surface(ses, Checker(report))
        assert [c.passed for c in report.checks if c.name == "period-matrix-thomae"] == [True]

    @pytest.mark.parametrize("label", ["ell4", "g2-23"])
    def test_thomae_fails_on_perturbed_omega(self, label):
        """A symmetric 1e-10 change of Omega, made before theta is built,
        fails period-matrix-thomae and no other surface check."""
        ses = Session(load_instance(label))
        period = ses.geo.period
        period.__dict__.pop("theta", None)
        period.omega = period.omega + 1e-10 * np.ones_like(period.omega)
        report = Report(label, "surface")
        suite_surface(ses, Checker(report))
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["period-matrix-thomae"]
        assert failed[0].abs_err > 5e-11


class TestSecondKind:
    def test_principal_part_and_periods(self, ell4):
        curve, geo = ell4.curve, ell4.geo
        wd = second_kind(geo.period, 0, 0, 2)
        wins = moduli.PoleCircles(curve).windows(wd)
        cs = wins[(0, 0)]
        assert abs(cs[1] - 1.0) < 1e-9       # chi^-2 coefficient
        assert abs(cs[0]) < 1e-9 and abs(cs[2]) < 1e-9 and abs(cs[3]) < 1e-9
        other = wins[(0, 1)][:2]
        assert max(abs(c) for c in other) < 1e-9   # no pole on the other sheet
        for c in geo.basis.a_cycles:
            assert abs(curve.integrate(wd, c).value) < 1e-10

    def test_b_period_bilinear_identity(self, ell4, g2_23):
        for ses, (j, s) in ((ell4, (0, 1)), (g2_23, (1, 0))):
            curve, geo = ses.curve, ses.geo
            kj = curve.spec.poles[j].k
            for ell in range(2, kj + 1):
                wd = second_kind(geo.period, j, s, ell)
                bw = np.array([curve.integrate(wd, c).value
                               for c in geo.basis.b_cycles])
                rho, ring, w_ring = moduli.PoleCircles(curve).data[(j, s)]
                rhs = []
                for a in range(geo.genus):
                    f = np.fft.fft(geo.period.V(ring, w_ring)[:, a]) / len(ring)
                    coeff = f[(ell - 2) % len(ring)] / rho ** (ell - 2)
                    rhs.append(2j * np.pi / (ell - 1) * coeff)
                assert np.max(np.abs(bw - np.array(rhs))) < 1e-9

    def test_order_out_of_range(self, ell4):
        with pytest.raises(DifferentialError, match="out of range"):
            second_kind(ell4.geo.period, 0, 0, 7)


class TestThirdKind:
    def test_residues_and_periods(self, g2_23):
        curve, geo = g2_23.curve, g2_23.geo
        u = third_kind(geo.period, 1, 1)
        wins = moduli.PoleCircles(curve).windows(u)
        res = {js: win[0] for js, win in wins.items()}
        assert abs(res[(0, 0)] + 1.0) < 1e-10
        assert abs(res[(1, 1)] - 1.0) < 1e-10
        assert abs(res[(0, 1)]) < 1e-10 and abs(res[(1, 0)]) < 1e-10
        assert abs(sum(res.values())) < 1e-10  # total residue vanishes
        for c in geo.basis.a_cycles:
            assert abs(curve.integrate(u, c).value) < 1e-10

    def test_b_periods_match_abel(self, ell4, g2_5):
        for ses, (j, s) in ((ell4, (0, 1)), (g2_5, (3, 0))):
            curve, geo = ses.curve, ses.geo
            u = third_kind(geo.period, j, s)
            bu = np.array([curve.integrate(u, c).value
                           for c in geo.basis.b_cycles])
            p, p0 = curve.pole_points[(j, s)], curve.pole_points[(0, 0)]
            rhs = 2j * np.pi * (geo.abel.at(p.x, p.w) - geo.abel.at(p0.x, p0.w))
            assert np.max(np.abs(bu - rhs)) < 1e-9

    def test_base_point_rejected(self, ell4):
        with pytest.raises(DifferentialError, match="base point"):
            third_kind(ell4.geo.period, 0, 0)


class TestAbel:
    def test_abel_at_base_zero(self, ell4):
        z = ell4.curve.x_r
        vec = ell4.geo.abel.at(z.x, z.w)
        assert np.max(np.abs(vec)) < 1e-12

    def test_loop_shifts(self, ell4, g2_23):
        for ses in (ell4, g2_23):
            geo = ses.geo
            g = geo.genus
            for a in range(g):
                sa = geo.abel.integrate_v_alpha(geo.basis.a_cycles[a])
                assert np.max(np.abs(sa - np.eye(g)[a])) < 1e-10
                sb = geo.abel.integrate_v_alpha(geo.basis.b_cycles[a])
                assert np.max(np.abs(sb - geo.period.omega[:, a])) < 1e-9

    def test_branch_point_beside_close_pair(self):
        # the half-step A2 build of this draw has branch points 0.157 apart;
        # the Abel integral to the nearer one used to chase rounding noise
        # until a Gauss node landed on the branch point
        ses = Session(generator.generate("g2-resfree", seed_base=3))
        geo = ses.eng.build(1, ses.eng.eps_for(1) / 2)
        for e in geo.curve.branch_points:
            assert np.all(np.isfinite(geo.abel.at(e, None)))

    @pytest.mark.parametrize("fixture", ["ell4", "g2_5", "g2_23", "g2_resfree"])
    def test_branch_points_differ_by_half_periods(self, fixture, request):
        # on a hyperelliptic curve 2(A(e_k) - A(e_0)) = n + Omega m with
        # integer n, m; which characteristic each e_k carries is not pinned
        geo = request.getfixturevalue(fixture).geo
        om = geo.period.omega
        e0 = geo.abel.at(geo.curve.branch_points[0], None)
        for e in geo.curve.branch_points[1:]:
            z = 2.0 * (geo.abel.at(e, None) - e0)
            m = np.linalg.solve(om.imag, z.imag)
            nm_ = np.concatenate([z.real - om.real @ m, m])
            assert np.max(np.abs(nm_ - np.round(nm_))) < 1e-12

    def test_non_finite_abel_vector_names_path(self, ell4, monkeypatch):
        abel = AbelMap(ell4.curve, ell4.geo.period)
        monkeypatch.setattr(abel, "integrate_v_alpha",
                            lambda path: np.full(ell4.geo.genus, np.nan + 0j))
        with pytest.raises(DifferentialError, match="abel->"):
            abel.at(ell4.curve.branch_points[0], None)


class TestStackedIntegrals:
    """PeriodData and AbelMap.integrate_v_alpha integrate all their
    integrands in one pass per contour; the per-integrand loops here are the
    reference. Tolerance: 1e-11 relative to each contour's largest entry."""

    TOL = 1e-11

    def close(self, got, want):
        return np.max(np.abs(got - want)) <= self.TOL * np.max(np.abs(want))

    def test_period_data_matches_loops(self, g2_23):
        curve, basis, per = g2_23.curve, g2_23.geo.basis, g2_23.geo.period
        g = per.g
        raw = {}
        for name, cycles in (("a", basis.a_cycles), ("b", basis.b_cycles)):
            rows = []
            for c in cycles:
                row = [curve.integrate(lambda x, w, k=k: x ** k / w, c).value
                       for k in range(g)]
                rows.append(row + [curve.integrate_v(c).value])
            raw[name] = np.array(rows)
        for i in range(g):
            assert self.close(np.append(per.raw_a[i], per.A_of_v[i]), raw["a"][i])
            assert self.close(np.append(per.raw_b[i], per.B_of_v[i]), raw["b"][i])
        omega = raw["b"][:, :g] @ np.linalg.inv(raw["a"][:, :g])
        assert self.close(per.omega, omega)

    def test_abel_integrals_match_loops(self, g2_23):
        curve, per, abel = g2_23.curve, g2_23.geo.period, g2_23.geo.abel
        paths, _ = sf.zero_paths(curve)
        for path in paths:
            want = np.array([curve.integrate(lambda x, w, a=a: per.V(x, w)[..., a],
                                             path).value for a in range(per.g)])
            assert self.close(abel.integrate_v_alpha(path), want)

    def test_period_data_one_pass_per_cycle(self, g2_23, monkeypatch):
        calls = {"integrate": 0, "integrate_stack": 0}
        for name in calls:
            def counted(self, *args, _orig=getattr(sf.SpectralCurve, name),
                        _name=name, **kw):
                calls[_name] += 1
                return _orig(self, *args, **kw)
            monkeypatch.setattr(sf.SpectralCurve, name, counted)
        PeriodData(g2_23.curve, g2_23.geo.basis)
        assert calls == {"integrate": 0, "integrate_stack": 2 * g2_23.geo.genus}


class TestThetaKernels:
    def test_prime_form_properties(self, ell4, g2_23):
        for ses in (ell4, g2_23):
            kern = ses.geo.kernels
            p1, p2 = ses.eval_points(2)
            E12 = kern.prime_form(p1, p2)
            E21 = kern.prime_form(p2, p1)
            assert abs(E12 + E21) < 1e-9 * abs(E12)
            eps = 1e-5
            En = kern.prime_form(p1, ses.curve.point(p1.x + eps, p1.sheet))
            assert abs(En / eps - 1.0) < 1e-6

    def test_bidifferential_symmetry_and_a_periods(self, ell4):
        ses = ell4
        kern, per, ab = ses.geo.kernels, ses.geo.period, ses.geo.abel
        p1, p2 = ses.eval_points(2)
        assert abs(kern.bhat_point(p1, p2) - kern.bhat_point(p2, p1)) < 1e-12
        A2 = ab.at(p2.x, p2.w)
        V2 = per.V(np.array([p2.x]), np.array([p2.w]))[0]
        cf = ContourField(ses.curve, ses.geo.basis.a_cycles[0])

        def kernel(x, w):
            # B depends on the Abel vectors only modulo the lattice, so the
            # nodes' own Abel values serve as well as a continuation along a1
            A = np.array([ab.at(xi, wi) for xi, wi in zip(x, w)])
            n = len(x)
            return kern.bhat_batch(A, per.V(x, w), np.broadcast_to(A2, (n, len(A2))).copy(),
                                   np.broadcast_to(V2, (n, len(V2))).copy())

        assert abs(cf.integrate_kernel(kernel)) < 1e-9

    def test_biresidue_one(self, ell4):
        # B(x, y) ~ 1/(x-y)^2 near the diagonal: second Laurent coefficient 1
        ses = ell4
        kern = ses.geo.kernels
        p1, _ = ses.eval_points(2)
        rho = 1e-2
        k = 32
        zeta = rho * np.exp(2j * np.pi * np.arange(k) / k)
        vals = np.array([kern.bhat_point(p1, ses.curve.point(p1.x + z, p1.sheet))
                         for z in zeta])
        c2 = np.fft.fft(vals)[(-2) % k] / k * rho ** 2
        assert abs(c2 - 1.0) < 1e-8

    def test_hyperelliptic_algebraic_bidifferential_oracle(self, ell4, g2_5, g2_23,
                                                           g2_resfree):
        # Klein's bidifferential for w^2 = P(x) from the production kappa and
        # this test's own polarization F of P, against the theta-based kernel
        # and Kernels.klein over 12 ordered pairs per instance
        for ses in (ell4, g2_5, g2_23, g2_resfree):
            g = ses.geo.genus
            lam = np.append(ses.curve.P, 0.0)  # so lam[2k + 1] exists for each k below
            kappa = ses.geo.kernels.kappa
            assert np.max(np.abs(kappa - kappa.T)) < 1e-9 * np.max(np.abs(kappa))

            def klein(px, py):
                # symmetric polarization of P = sum lam_k x^k, F(x, x) = 2 P(x)
                F = sum((px.x * py.x) ** k * (2 * lam[2 * k] + lam[2 * k + 1] * (px.x + py.x))
                        for k in range(len(lam) // 2))
                hol = px.x ** np.arange(g) @ kappa @ py.x ** np.arange(g)
                return ((F + 2.0 * px.w * py.w) / (4.0 * (px.x - py.x) ** 2)
                        + hol) / (px.w * py.w)

            pts = ses.eval_points(4)
            for p1, p2 in permutations(pts, 2):
                want = ses.geo.kernels.bhat_point(p1, p2)
                assert abs(klein(p1, p2) - want) < 1e-8 * max(1.0, abs(want))
                got = ses.geo.kernels.klein(*(np.array([complex(c)])
                                              for c in (p1.x, p1.w, p2.x, p2.w)))[0]
                assert abs(got - klein(p1, p2)) < 1e-12 * max(1.0, abs(want))

    def test_bergman_reg_two_routes(self, ell4, g2_5, g2_23, g2_resfree):
        # limit definition (B - v v/(int v)^2 on the diagonal) vs the closed
        # form (S_B - S_v)/6
        for ses in (ell4, g2_5, g2_23, g2_resfree):
            for p in ses.eval_points(3):
                direct = _breg_limit(ses.curve, ses.geo, p)
                formula = _breg_formula(ses.geo, p)
                assert abs(direct - formula) < 1e-8 * max(1.0, abs(formula))

    def test_riemann_bilinear_identity(self, ell4, g2_23):
        # cycle pairing of (v_gamma, v_a v_b / v) against 2 pi i residue sum
        for ses in (ell4, g2_23):
            curve, geo = ses.curve, ses.geo
            g = geo.genus
            per, ab = geo.period, geo.abel

            def K(x, w):
                V = per.V(x, w)
                return V[..., 0] * V[..., g - 1] / curve.phi(x, w)

            a_int = np.array([curve.integrate(K, c).value
                              for c in geo.basis.a_cycles])
            b_int = np.array([curve.integrate(K, c).value
                              for c in geo.basis.b_cycles])
            lhs = 0.0
            for d in range(g):
                # sum_d [ oint_a v_g oint_b K - oint_b v_g oint_a K ]
                lhs += np.eye(g)[0][d] * b_int[d] - per.omega[0, d] * a_int[d]
            rhs = 0.0
            for idx, z in enumerate(curve.zeros):
                fr = geo.frames.frame(idx)
                circle = geo.frames.eval_circle(fr)
                kv = (circle["G"][:, 0] * circle["G"][:, g - 1] / circle["Y"])
                res = np.fft.fft(kv)[-1] / len(kv) * abs(circle["eta"][0])
                Agl = ab.at(z.x, None if z.is_branch else z.w)[0]
                rhs += Agl * res
            assert abs(lhs - 2j * np.pi * rhs) < 1e-8 * max(1.0, abs(lhs))


def _breg_formula(geo, p):
    """(S_B - S_v)/6 in the base coordinate at a regular point, through the
    closed form of Kernels.sb_minus_sv."""
    x = np.array([complex(p.x)])
    w = np.array([complex(p.w)])
    d = geo.kernels.sb_minus_sv(x, w)
    return complex(d[0]) / 6.0


def _breg_limit(curve, geo, p):
    """(B(x,y) - v(x)v(y)/(int_x^y v)^2)|_{y -> x} by a small-circle jet."""
    k = 32
    rho = 0.02
    zeta = rho * np.exp(2j * np.pi * np.arange(k) / k)
    kern = geo.kernels
    vals = []
    xs = p.x + zeta
    s = curve.sqrtP(xs)
    ws = np.where(np.abs(s - p.w) <= np.abs(s + p.w), s, -s)
    vx = curve.phi(np.array([p.x]), np.array([p.w]))[0]
    # flat increment int_x^y v via the local jet of v
    phi_jet = np.fft.fft(curve.phi(xs, ws)) / k
    ms = np.arange(k)
    cm = phi_jet[:10] / rho ** ms[:10]
    flat = np.zeros(k, dtype=complex)
    for m in range(10):
        flat += cm[m] / (m + 1) * zeta ** (m + 1)
    for i in range(k):
        q = sf.SurfacePoint(xs[i], p.sheet, ws[i])
        b = kern.bhat_point(p, q)
        vy = curve.phi(np.array([xs[i]]), np.array([ws[i]]))[0]
        vals.append(b - vx * vy / flat[i] ** 2)
    return complex(np.mean(vals))


class TestFrameTail:
    def test_frame_tails_below_tolerance(self, ell4, g2_5, g2_23, g2_resfree):
        # every local frame records the truncation tail of its series
        # windows; on the shipped instances all are converged
        for ses in (ell4, g2_5, g2_23, g2_resfree):
            for idx in range(len(ses.curve.zeros)):
                tail = ses.geo.frames.frame(idx).tail
                assert 0.0 < tail < nm.JET_TAIL_TOL, (ses.curve.spec.label, idx, tail)


class TestSpecExamples:
    def test_ell4_discriminant_roots_vs_companion(self, ell4):
        rep = nm.poly_roots(ell4.curve.P)
        assert np.all(rep.multiplicities == 1)
        oracle = np.sort_complex(np.roots(ell4.curve.P[::-1]))
        assert np.allclose(np.sort_complex(rep.roots), oracle, atol=1e-10)

    def test_raw_a_period_vs_agm_magnitude(self, ell4):
        # |oint dx/w| against the complete-elliptic-integral value; the
        # contour realization fixes the phase only up to a fourth root of 1
        import math
        e1, e2, e3, e4 = ell4.curve.branch_points

        def cagm(a, b):
            for _ in range(80):
                a2, b2 = 0.5 * (a + b), np.sqrt(a * b)
                if abs(a2 - b2) > abs(a2 + b2):
                    b2 = -b2
                a, b = a2, b2
            return a

        pa = 2 * math.pi / cagm(np.sqrt((e1 - e3) * (e2 - e4)),
                                np.sqrt((e1 - e4) * (e2 - e3)))
        pa = pa / np.sqrt(ell4.curve.P[-1])  # the quartic is not monic
        raw = ell4.geo.period.raw_a[0, 0]
        err = min(abs(raw - u * pa) for u in (1, -1, 1j, -1j))
        assert err < 1e-9 * abs(raw)

    def test_branch_residue_vs_direct_quadrature(self, ell4):
        # res at a branch point of v_1 v_1 / v: frame FFT against direct
        # quadrature over the doubled circle on the cover
        curve, geo = ell4.curve, ell4.geo
        fr = geo.frames.frame(0)
        eta = nm.circle_points(EVAL_SCALE * fr.rho, 256)
        kernel = geo.frames.values(fr, eta)[:, 0] ** 2 / nm.polyval(fr.Y_series, eta)
        res_fft = nm.laurent_window(kernel, EVAL_SCALE * fr.rho, [-1])[0][0]
        b = fr.center
        r = float(np.abs(eta[0]) ** 2)
        doubled = nm.Contour([nm.Arc(b, r, 0.0, 4 * np.pi)])

        def integrand(x, w):
            V = geo.period.V(x, w)
            return V[..., 0] ** 2 / curve.phi(x, w)

        val = curve.integrate(integrand, doubled).value
        assert abs(val - 2j * np.pi * res_fft) < 1e-9 * max(1.0, abs(val))
