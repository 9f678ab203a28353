import math

import numpy as np
import pytest
from itertools import combinations, permutations

from speclab import moduli
from speclab import numerics as nm
from speclab import surface as sf
from speclab import variations as vr
from speclab.differentials import EVAL_SCALE, Geometry, Kernels
from speclab.harness import run_suite
from speclab.theta import Theta


class TestDirections:
    def test_dependent_coordinate_rejected(self, ell4):
        with pytest.raises(moduli.ModuliError, match=r"unknown coordinate 'C\(1,1,1\)'"):
            vr.direction_differential(ell4.geo, "C(1,1,1)")

    def test_a_direction_is_normalized_holomorphic(self, ell4):
        h = vr.direction_differential(ell4.geo, "A1")
        for c in ell4.geo.basis.a_cycles:
            val = ell4.curve.integrate(h, c).value
            assert abs(val - 1.0) < 1e-10

    def test_direction_count_matches_chart(self, g2_23):
        dirs = vr.all_directions(g2_23.geo)
        assert len(dirs) == g2_23.curve.counts.dim


class TestBranchData:
    def test_fd_build_has_its_own_branch_data(self, g2_23):
        geo2 = g2_23.eng.build(0, g2_23.eng.eps_for(0))
        assert geo2.branch is geo2.branch
        assert geo2.branch is not g2_23.geo.branch
        assert geo2.branch.curve is geo2.curve


class TestEndpointCorrection:
    def test_zero_at_simple_zeros(self, ell4):
        d = vr.direction_differential(ell4.geo, "A1")
        idx = next(i for i, z in enumerate(ell4.curve.zeros) if not z.is_branch)
        val = vr.endpoint_correction(ell4.geo, d, idx)
        assert val == 0.0

    def test_nonzero_at_branch(self, ell4):
        d = vr.direction_differential(ell4.geo, "A1")
        val = vr.endpoint_correction(ell4.geo, d, 0)
        assert abs(val) > 1e-8


class TestPeriodVariation:
    def test_two_forms_agree_internally(self, ell4, g2_23):
        # vary_period_matrix raises unless both forms agree to 1e-9
        for ses in (ell4, g2_23):
            for name in ("A1", "C(1,2,1)"):
                d = vr.direction_differential(ses.geo, name)
                vr.vary_period_matrix(ses.geo, d)

    def test_a_direction_symmetry(self, g2_resfree):
        ses = g2_resfree
        g = ses.geo.genus
        T = np.zeros((g, g, g), dtype=complex)
        for gamma in range(g):
            d = vr.direction_differential(ses.geo, f"A{gamma + 1}")
            T[:, :, gamma] = vr.vary_period_matrix(ses.geo, d)
        scale = np.max(np.abs(T))
        for perm in permutations((0, 1, 2)):
            assert np.max(np.abs(T - np.transpose(T, perm))) < 1e-9 * scale


class TestHierarchy:
    def test_q2_definition(self, ell4):
        p1, p2 = ell4.eval_points(2)
        q2 = vr.q_multidiff(ell4.geo, [p1, p2])
        b = ell4.geo.kernels.bhat_point(p1, p2)
        v1 = ell4.curve.phi(np.array([p1.x]), np.array([p1.w]))[0]
        v2 = ell4.curve.phi(np.array([p2.x]), np.array([p2.w]))[0]
        assert abs(q2 - b * b / (v1 * v2)) < 1e-12 * abs(q2)

    def test_q3_symmetric_q4_count(self, ell4):
        pts = ell4.eval_points(4)
        base = vr.q_multidiff(ell4.geo, pts[:3])
        for perm in permutations(range(3)):
            v = vr.q_multidiff(ell4.geo, [pts[i] for i in perm])
            assert abs(v - base) < 1e-9 * abs(base)
        assert len(vr._cycles(4)) == 3

    def test_r_middle_symmetry(self, ell4):
        pts = ell4.eval_points(4)
        a = vr.r_multidiff(ell4.geo, pts)
        swapped = [pts[0], pts[2], pts[1], pts[3]]
        b = vr.r_multidiff(ell4.geo, swapped)
        assert abs(a - b) < 1e-10 * abs(a)

    @staticmethod
    def _random_b(rng, n, samples):
        shape = (n, n) + ((samples,) if samples else ())
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return m + np.swapaxes(m, 0, 1)  # m[a][b] is a scalar or a sample array

    @staticmethod
    def _product(bmat, order):
        prod = 1.0
        for a, b in zip(order, order[1:]):
            prod = prod * bmat[a][b]
        return prod

    @pytest.mark.parametrize("samples", [0, 5])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycle_sum_brute_force(self, n, samples):
        # every order of the n vertices, closed up, counts each cycle once per
        # rotation and direction: 2n times
        rng = np.random.default_rng(n)
        bmat = self._random_b(rng, n, samples)
        want = sum(self._product(bmat, p + p[:1]) for p in permutations(range(n))) / (2 * n)
        got = vr._chain_sum(bmat, vr._cycles(n))
        assert len(vr._cycles(n)) == math.factorial(n - 1) // 2
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("samples", [0, 5])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_path_sum_brute_force(self, n, samples):
        rng = np.random.default_rng(10 + n)
        bmat = self._random_b(rng, n, samples)
        want = sum(self._product(bmat, p) for p in permutations(range(n))
                   if p[0] == 0 and p[-1] == n - 1)
        got = vr._chain_sum(bmat, vr._paths(n))
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_coincident_points_rejected(self, ell4):
        p1, _ = ell4.eval_points(2)
        with pytest.raises(Exception):
            vr.q_multidiff(ell4.geo, [p1, p1])


class TestTau:
    def test_requires_residue_free(self, g2_23):
        with pytest.raises(vr.VariationError, match="residue-free"):
            vr.tau_gradient(g2_23.geo, 0)

    def test_residue_free_detector(self, g2_23, g2_resfree, g2_5):
        assert not vr.is_residue_free(g2_23.curve)
        assert vr.is_residue_free(g2_resfree.curve)
        assert not vr.is_residue_free(g2_5.curve)  # simple poles

    def test_zero_sum_matches_quadrature(self, g2_resfree):
        # each term of the all-zeros residue sum against direct small-circle
        # quadrature of v_gamma / int v
        ses = g2_resfree
        geo = ses.geo
        vals = vr._zero_frame_residues(geo, 0)
        idx = len(ses.curve.branch_points)  # first simple zero
        fr = geo.frames.frame(idx)
        # twice the K_EVAL points of the formula's own circle
        eta = nm.circle_points(EVAL_SCALE * fr.rho, 256)
        num = geo.frames.values(fr, eta)[:, 0]
        den = nm.polyval(nm.series_integrate(fr.Y_series), eta)
        direct = np.mean(num / den * eta)  # (1/2 pi i) oint f d eta
        assert abs(direct - vals[idx]) < 1e-9 * max(1.0, abs(vals[idx]))

    def test_oracle_vector_matches_residue_formula(self, g2_resfree):
        geo = g2_resfree.geo
        oracle = vr.tau_gradient_oracle(geo)
        assert oracle.shape == (geo.genus,)
        for gamma in range(geo.genus):
            f = vr.tau_gradient(geo, gamma)
            assert abs(f - oracle[gamma]) <= 1e-4 * max(abs(f), abs(oracle[gamma]))

    # neither tau side reads theta or the Abel map: both read Klein's kappa
    def test_oracle_calls_no_theta_function(self, g2_resfree, monkeypatch):
        geo = Geometry(g2_resfree.curve, g2_resfree.geo.basis)
        assert TestRoutes._theta_calls(monkeypatch, lambda: vr.tau_gradient_oracle(geo)) == []

    def test_formula_calls_no_theta_function(self, g2_resfree, monkeypatch):
        geo = Geometry(g2_resfree.curve, g2_resfree.geo.basis)
        assert TestRoutes._theta_calls(monkeypatch, lambda: [
            vr.tau_gradient(geo, gamma) for gamma in range(geo.genus)]) == []

    @pytest.mark.parametrize("formula", [
        vr.tau_gradient_oracle,
        lambda geo: sum(vr._zero_frame_residues(geo, 0)),
        lambda geo: vr.tau_gradient(geo, 0),
    ], ids=["oracle", "zero-sum", "tau-gradient"])
    def test_frames_route_abel_vectors_only_when_read(self, g2_resfree, formula):
        # frames hold no Abel vector; the other public formulas are in TestRoutes
        geo = Geometry(g2_resfree.curve, g2_resfree.geo.basis)
        formula(geo)
        assert len(geo.abel._cache) == 0


# every public formula of variations but the two tau sides (pinned in
# TestTau), called on (geo, h = v_1, three points)
FORMULAS = {
    "vary_period_matrix": lambda geo, h, pts: vr.vary_period_matrix(geo, h),
    "vary_valpha": lambda geo, h, pts: vr.vary_valpha(geo, h, pts[0]),
    "vary_bidifferential": lambda geo, h, pts: vr.vary_bidifferential(geo, h, *pts[:2]),
    "vary_log_prime_form": lambda geo, h, pts: vr.vary_log_prime_form(geo, h, *pts[:2]),
    "q_multidiff": lambda geo, h, pts: vr.q_multidiff(geo, pts),
    "r_multidiff": lambda geo, h, pts: vr.r_multidiff(geo, pts),
    "r_ab": lambda geo, h, pts: vr.r_ab(geo, 0, 1, pts),
    "hierarchy_variation": lambda geo, h, pts: [
        vr.hierarchy_variation(geo, 0, pts[:2], variant) for variant in "QR"],
    "period_hessian": lambda geo, h, pts: vr.period_hessian(geo, 0, 1, 1, 0),
}


class TestRoutes:
    """The formulas read Klein's B and the algebraic third kind; theta and
    the Abel map are left to the FD functionals and the Klein gate."""

    @staticmethod
    def _theta_calls(monkeypatch, run):
        calls = []
        evaluate = Theta.eval

        def counted(self, *args, **kw):
            calls.append(args)
            return evaluate(self, *args, **kw)

        monkeypatch.setattr(Theta, "eval", counted)
        run()
        return calls

    @pytest.mark.parametrize("name", FORMULAS)
    def test_formula_reads_no_theta_and_no_abel_map(self, g2_resfree, monkeypatch, name):
        geo = Geometry(g2_resfree.curve, g2_resfree.geo.basis)
        h = vr.direction_differential(geo, "A1")
        pts = g2_resfree.eval_points(3)
        assert self._theta_calls(monkeypatch, lambda: FORMULAS[name](geo, h, pts)) == []
        assert len(geo.abel._cache) == 0

    @pytest.mark.parametrize("fixture", ["ell4", "g2_5", "g2_23", "g2_resfree"])
    def test_bergman_data_against_theta(self, fixture, request):
        # breg_hats and cross_bhats against theta's B on the same circles,
        # with each circle's Abel vectors from the frame's series of v_alpha
        # about its branch point; pinned at 1e-10 of the largest entry
        geo = request.getfixturevalue(fixture).geo
        bd, frames = geo.branch, geo.frames

        def abel(fr, eta):
            anchor = geo.abel.at(fr.center, None)
            return anchor + np.stack([nm.polyval(nm.series_integrate(gs), eta)
                                      for gs in fr.g_series], axis=1)

        breg, cross = [], np.zeros((len(bd.frames),) * 2, dtype=complex)
        for fr, c in zip(bd.frames, bd.circles):
            b = geo.kernels.bhat_batch(abel(fr, c["eta"]), c["G"], abel(fr, -c["eta"]),
                                       frames.values(fr, -c["eta"]))
            breg.append(np.mean(b - 1.0 / (2.0 * c["eta"]) ** 2))
        for i, j in combinations(range(len(bd.frames)), 2):
            (fi, ci), (fj, cj) = ((bd.frames[k], bd.circles[k]) for k in (i, j))
            cross[i, j] = cross[j, i] = np.mean(geo.kernels.bhat_batch(
                abel(fi, ci["eta"]), ci["G"], abel(fj, cj["eta"]), cj["G"]))
        for got, want in ((bd.breg_hats, breg), (bd.cross_bhats, cross)):
            got, want = np.asarray(got), np.asarray(want)
            assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want)), fixture


class TestMutants:
    """A wrong formula piece fails the checks that exist to catch it."""

    @pytest.mark.parametrize("owner, name, wrap", [
        # 1e-5 sum_a v_a(x) v_a(y) added to theta's B removes its
        # a-normalization: the gate reads 3.63e-6 (3.63e-4 at 1e-3)
        (Kernels, "bhat_batch", lambda bhat: lambda self, A1, V1, A2, V2: (
            bhat(self, A1, V1, A2, V2) + 1e-5 * np.einsum("na,na->n", V1, V2))),
        # kappa + 1e-6 max|kappa|: the gate reads 8.34e-7, while both tau
        # sides read kappa, so tau-gradient-A1/A2 stay near 1e-13
        (Kernels.kappa, "func", lambda kappa: lambda self: (
            kappa(self) + 1e-6 * np.max(np.abs(kappa(self))))),
    ], ids=["b-normalization", "kappa"])
    def test_kernel_mutant_fails_the_klein_gate_alone(self, monkeypatch, owner, name, wrap):
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
        checks = {c.name: c.passed for c in run_suite("g2-resfree", "tau").checks}
        assert checks.pop("bidifferential-klein-vs-theta") is False
        assert len(checks) == 3 and all(checks.values()), checks

    def test_kappa_mutant_fails_every_kernel_variation(self, monkeypatch):
        # kappa + 1e-3 max|kappa| on g2-23 kernels: only the formula side
        # reads kappa, so the gate (5.7e-4) and every dv_alpha/d* and dB/d*
        # check fail (2.6e-4 to 6.3e-2 against 1e-4); the dB-symmetry checks
        # pass, since both orders of the formula read the same B
        kappa = Kernels.kappa.func
        monkeypatch.setattr(Kernels.kappa, "func", lambda self: (
            kappa(self) + 1e-3 * np.max(np.abs(kappa(self)))))
        checks = {c.name: c.passed for c in run_suite("g2-23", "kernels").checks}
        failed = {n for n, ok in checks.items() if not ok}
        assert failed == {n for n in checks if not n.startswith("dB-symmetry/")}
        assert len(failed) == 17 and "bidifferential-klein-vs-theta" in failed

    def test_all_zeros_sum_dropped_fails_both_gradient_checks(self, g2_resfree,
                                                                monkeypatch):
        # tau-gradient-A1/A2 read 1.25e-1 and 8.38e-2 against 1e-4; a sum
        # scaled by 1.001 reads 1.25e-4 and 8.38e-5, so A2 misses that size
        geo = g2_resfree.geo
        oracle = vr.tau_gradient_oracle(geo)
        monkeypatch.setattr(vr, "_zero_frame_residues",
                            lambda geo, gamma: [0j] * len(geo.curve.zeros))
        for gamma in range(geo.genus):
            f = vr.tau_gradient(geo, gamma)
            assert abs(f - oracle[gamma]) > 1e-4 * max(abs(f), abs(oracle[gamma]))

    def test_endpoint_correction_sign_flip_fails_every_branch_integral(self, monkeypatch):
        # each branch-integral/d* of ell4 dm-cubic reads rel err 1.39-1.84
        correction = vr.endpoint_correction
        monkeypatch.setattr(vr, "endpoint_correction",
                            lambda geo, h, i: -correction(geo, h, i))
        checks = [c for c in run_suite("ell4", "dm-cubic").checks
                  if c.name.startswith("branch-integral/d")]
        assert len(checks) == 8
        assert not any(c.passed for c in checks)


class TestResidueDirections:
    def test_g2_5_residue_direction_fd(self, g2_5):
        # five simple poles: every C-coordinate is a residue; spot-check the
        # period variation along one against the finite-difference oracle
        ses = g2_5
        name = "C(3,1,1)"
        d = vr.direction_differential(ses.geo, name)
        M = vr.vary_period_matrix(ses.geo, d)
        fd = ses.eng.derivative(lambda g: g.period.omega, name)
        rel = np.max(np.abs(M - fd.value)) / np.max(np.abs(fd.value))
        assert rel < 1e-5, rel

    def test_g2_5_residue_direction_kernel_fd(self, g2_5):
        ses = g2_5
        p1, p2 = ses.eval_points(2)
        name = "C(2,2,1)"
        d = vr.direction_differential(ses.geo, name)
        got = vr.vary_bidifferential(ses.geo, d, p1, p2)

        def B_at(g):
            c = g.curve
            ra = sf.SurfacePoint(p1.x, p1.sheet, c.w_for_sheet(p1.x, p1.sheet))
            rb = sf.SurfacePoint(p2.x, p2.sheet, c.w_for_sheet(p2.x, p2.sheet))
            return g.kernels.bhat_point(ra, rb)

        fd = ses.eng.derivative(B_at, name)
        assert abs(got - fd.value) < 1e-4 * max(1.0, abs(fd.value))
