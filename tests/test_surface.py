import numpy as np
import pytest

from speclab import numerics as nm
from speclab import surface as sf
from speclab.differentials import Geometry
from speclab.instances import load_instance


class TestBuild:
    def test_counts_match(self, ell4, g2_23):
        for ses in (ell4, g2_23):
            curve = ses.curve
            counts = curve.counts
            assert len(curve.branch_points) == counts.p
            assert len(curve.zeros) == counts.r
            assert len(curve.zeros_d0) == counts.r - counts.p

    def test_ell4_divisor_split(self, ell4):
        # one order-4 pole: 4 branch points, 4 other zeros, 2 points over it
        curve = ell4.curve
        assert len(curve.branch_points) == 4
        assert len(curve.zeros_d0) == 4
        assert len(curve.pole_points) == 2

    def test_x_r_is_simple_zero(self, ell4, g2_23, g2_resfree):
        for ses in (ell4, g2_23, g2_resfree):
            assert not ses.curve.x_r.is_branch

    def test_zero_lift_consistency(self, ell4):
        # each simple zero's stored w matches the defining relation w = N1(z)
        for z in ell4.curve.zeros_d0:
            assert abs(z.w - nm.polyval(ell4.curve.N1, z.x)) < 1e-9


class TestContinuation:
    def test_contractible_loop(self, ell4):
        curve = ell4.curve
        x0 = curve.x0
        loop = nm.circle(x0 + 0.3, 0.1)
        w0 = curve.sqrtP(np.array([loop.start()]))[0]
        w_start, w_end = curve.track_contour(loop, w0)
        assert abs(w_end - w0) < 1e-9 * max(1.0, abs(w0))

    def test_single_branch_loop_swaps(self, ell4):
        assert ell4.curve.monodromy(0) == (1, 0)

    def test_monodromy_product_identity(self, ell4, g2_5, g2_23):
        for ses in (ell4, g2_5, g2_23):
            assert ses.curve.monodromy_product() == (0, 1)

    def test_homotopy_stability(self, ell4):
        # two deterministic reroutings of the same class end on the same sheet
        curve = ell4.curve
        a = curve.x_r.x
        b = curve.x0 + 0.5 + 0.25j
        direct = curve.path_between(a, b)
        # slightly bowed two-leg route: no singular point inside the sliver
        mid = 0.5 * (a + b)
        offset = 0.04j * (b - a) / abs(b - a)
        via = mid + offset
        assert float(np.min(np.abs(curve.singular_points - via))) > 0.2
        bowed = nm.Contour(curve.path_between(a, via).segments
                           + curve.path_between(via, b).segments)
        w0 = curve.w_for_sheet(a, curve.x_r.sheet)
        w_direct = curve.track_contour(direct, w0)[1]
        w_bowed = curve.track_contour(bowed, w0)[1]
        assert abs(w_direct - w_bowed) < 1e-8 * max(1.0, abs(w_direct))

    def test_root_collision_raises(self, ell4):
        curve = ell4.curve
        b = complex(curve.branch_points[0])
        bad = nm.Contour([nm.Line(b + 0.3, b + 1e-7), nm.Line(b + 1e-7, b + 0.3j)])
        with pytest.raises(sf.ContinuationError, match="close to a branch"):
            curve.continue_sheet(bad, 0)

    def test_continue_sheet_roundtrip(self, ell4):
        curve = ell4.curve
        loop = curve.branch_loop(0)
        end_sheet, log = curve.continue_sheet(
            nm.Contour(loop.segments, label="loop"), 0)
        assert end_sheet == 1  # single branch loop swaps the sheets


class TestSquareRootLeg:
    def test_w_resolves_branch_end(self, ell4):
        # points within 1e-18 of the branch point: x rounds onto it, but w
        # still follows w^2 = P'(e) (x - e) with x - e exact in t
        curve = ell4.curve
        e = curve.branch_points[0]
        path = sf.path_to_point(curve, e, None, sqrt_end="end")
        k = len(path.segments) - 1
        seg = path.segments[k]
        assert seg.sqrt_end == "end"
        s = np.array([1e-5, 1e-7, 1e-9])
        w = curve.w_on_segment(path, k, 1.0 - s, seg.point(1.0 - s))
        expect = nm.polyval(nm.polyder(curve.P), e) * (seg.z0 - e) * s ** 2
        assert np.all(np.abs(w ** 2 - expect) <= 1e-6 * np.abs(expect))


class TestHomology:
    def test_intersection_matrix_canonical(self, ell4, g2_23, g2_5, g2_resfree):
        for ses in (ell4, g2_23, g2_5, g2_resfree):
            g = ses.geo.genus
            m = sf.intersection_matrix(ses.curve, ses.geo.basis)
            expect = np.block([
                [np.zeros((g, g), dtype=int), np.eye(g, dtype=int)],
                [-np.eye(g, dtype=int), np.zeros((g, g), dtype=int)]])
            assert np.array_equal(m, expect), m

    def test_genus1_riemann_relations(self, ell4):
        om = ell4.geo.period.omega
        assert om.shape == (1, 1)
        assert om[0, 0].imag > 0

    def test_genus2_symmetry(self, g2_5):
        om = g2_5.geo.period.omega
        assert abs(om[0, 1] - om[1, 0]) < 1e-10

    def test_branch_swap_symplectic_invariance(self, g2_23):
        # swapping the two members of the first cut changes the marking by a
        # symplectic move: Omega stays symmetric with positive-definite
        # imaginary part and invariant det Im
        curve2 = sf.build_surface(g2_23.spec)
        e = curve2.branch_points.copy()
        e[[0, 1]] = e[[1, 0]]
        curve2.branch_points = e
        basis2 = sf.homology_basis(curve2)
        geo2 = Geometry(curve2, basis2)
        om1 = g2_23.geo.period.omega
        om2 = geo2.period.omega
        assert abs(om2[0, 1] - om2[1, 0]) < 1e-9
        assert np.min(np.linalg.eigvalsh(om2.imag)) > 0
        assert abs(np.linalg.det(om2.imag) - np.linalg.det(om1.imag)) < 1e-9 \
            * max(1.0, abs(np.linalg.det(om1.imag)))

    def test_homology_not_implemented_for_n3(self):
        spec = load_instance("n3-smoke")
        curve = sf.build_surface(spec)
        with pytest.raises(sf.SurfaceError, match="n>2"):
            sf.homology_basis(curve)


class TestGenericN:
    def test_n3_build_counts(self):
        spec = load_instance("n3-smoke")
        curve = sf.build_surface(spec)
        assert len(curve.branch_points) == curve.counts.p

    def test_n3_monodromy_transpositions(self):
        spec = load_instance("n3-smoke")
        curve = sf.build_surface(spec)
        perm = curve.monodromy(0)
        moved = [i for i, p in enumerate(perm) if p != i]
        assert len(moved) == 2  # simple branch point

    def test_n3_monodromy_product(self):
        spec = load_instance("n3-smoke")
        curve = sf.build_surface(spec)
        assert curve.monodromy_product() == (0, 1, 2)


class TestBranchJetInvariants:
    def test_v_simple_zero_in_frame(self, ell4):
        # v/d(eta) vanishes at the branch point with nonzero slope
        geo = ell4.geo
        for i in range(len(ell4.curve.branch_points)):
            fr = geo.frames.frame(i)
            assert abs(fr.Y_series[0]) < 1e-9 * max(1.0, abs(fr.Y_series[1]))
            jets = geo.frames.y_jet_values(fr)
            assert abs(jets["y0"]) > 1e-6

    def test_jets_stable_under_radius_halving(self, ell4):
        geo = ell4.geo
        curve = ell4.curve
        fr = geo.frames.frame(0)
        b = fr.center
        rho2 = fr.rho / np.sqrt(2.0)
        eta = rho2 * np.exp(2j * np.pi * np.arange(256) / 256)
        x = b + eta ** 2
        w0 = curve.sqrtP(np.array([x[0]]))[0]
        w = curve.track_w(np.append(x, x[0]), w0)[:-1]
        Y = 2.0 * eta * curve.phi(x, w)
        from speclab.differentials import _series_from_samples
        Y2 = _series_from_samples(Y, rho2)
        flip = 1.0 if abs(Y2[1] - fr.Y_series[1]) < abs(Y2[1] + fr.Y_series[1]) else -1.0
        for m in range(6):
            got = flip ** m * Y2[m]
            assert abs(got - fr.Y_series[m]) < 1e-8 * max(1.0, abs(fr.Y_series[m]))
