import dataclasses

import numpy as np
import pytest

from speclab import moduli
from speclab import numerics as nm
from speclab import surface as sf
from speclab.differentials import Geometry
from speclab.generator import generate
from speclab.harness import Session
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
        w_end = curve.end_w(sf._starting_on(curve, loop, w0))
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
        w_direct = curve.end_w(sf._starting_on(curve, direct, w0))
        w_bowed = curve.end_w(sf._starting_on(curve, bowed, w0))
        assert abs(w_direct - w_bowed) < 1e-8 * max(1.0, abs(w_direct))

    def test_continue_sheet_roundtrip(self, ell4):
        assert ell4.curve.monodromy(0) == (1, 0)  # a single branch loop swaps the sheets

    def test_reroutes_built_only_when_needed(self, g2_23, monkeypatch):
        curve = g2_23.curve
        calls = []
        real = sf._rerouted_paths
        monkeypatch.setattr(sf, "_rerouted_paths",
                            lambda *args: calls.append(args) or real(*args))
        x = curve.x0 + 0.5 + 0.25j
        direct = sf.path_to_point(curve, x, None)
        assert calls == []
        w_end = curve.end_w(direct)
        same = sf.path_to_point(curve, x, w_end)
        assert calls == []
        assert same.segments == direct.segments
        # the other lift still reroutes, and lands on it
        other = sf.path_to_point(curve, x, -w_end)
        assert len(calls) == 1
        w_other = curve.end_w(other)
        assert abs(w_other + w_end) < 1e-8 * max(1.0, abs(w_end))


class TestCarry:
    def test_templated_build_carries_instead_of_routing(self, g2_23, monkeypatch):
        curve = g2_23.curve
        coeffs = moduli.coefficient_vector(curve.spec)
        spec2 = moduli.spec_with_coefficients(curve.spec, coeffs * (1.0 + 1e-3j))
        calls = []
        real = sf.SpectralCurve.path_between
        monkeypatch.setattr(sf.SpectralCurve, "path_between",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        curve2 = sf.build_surface(spec2, template=curve)
        assert calls == []
        assert [z.sheet for z in curve2.zeros_d0] == [z.sheet for z in curve.zeros_d0]
        for key, p in curve.pole_points.items():
            w = curve2.pole_points[key].w
            assert abs(w - p.w) < abs(w + p.w)

    def test_carry_refuses_an_ambiguous_lift(self, ell4):
        curve = ell4.curve
        p = curve.point(curve.x0 + 0.5 + 0.25j, 1)
        assert abs(curve.carry(p).w - p.w) <= 1e-12 * abs(p.w)
        with pytest.raises(sf.ContinuationError, match="ambiguous"):
            curve.carry(sf.SurfacePoint(p.x, p.sheet, 1j * p.w))

    def test_branch_path_integral_continuous_across_fd_builds(self):
        # on this g2-23 draw the routed leg to branch zero 3 flipped a detour
        # arc between the +-eps builds of C(1,1,2), and the integral jumped
        # by 6.7; the carried path moves it by O(eps)
        ses = Session(generate("g2-23", seed_base=51888810))
        eng = ses.eng
        index = eng.coord_index("C(1,1,2)")
        paths, targets = sf.zero_paths(ses.curve)
        path = paths[targets.index(3)]
        assert ses.curve.zeros[3].is_branch

        def central(eps):
            vals = []
            for offset in (eps, -eps):
                c = eng.build(index, offset).curve
                vals.append(c.integrate_v(sf.carry_path(c, path, c.zeros[3].x)).value)
            return (vals[0] - vals[1]) / (2 * eps)

        eps = eng.eps_for(index)
        coarse, fine = central(eps), central(eps / 2)
        assert abs(coarse - fine) <= 1e-2 * abs(fine)


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
        w = curve.w_on_segment(path, np.full(len(s), k), 1.0 - s, seg.point(1.0 - s))
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

    def test_capsules_counterclockwise(self, ell4, g2_23, g2_5, g2_resfree, monkeypatch):
        # every capsule routed for the shipped bases, probes included, encloses
        # positive signed area
        built = []
        capsule = sf.capsule

        def recording(*args):
            built.append(capsule(*args))
            return built[-1]

        monkeypatch.setattr(sf, "capsule", recording)
        for ses in (ell4, g2_23, g2_5, g2_resfree):
            sf.homology_basis(ses.curve)
        assert len(built) >= 2 * (1 + 2 + 2 + 2)  # 2g cycles per basis
        for c in built:
            z = c.polyline(per_segment=32)
            area = 0.5 * np.sum(z[:-1].real * z[1:].imag - z[1:].real * z[:-1].imag)
            assert area > 0, c.label

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


def _perturbed(ses, rel=1e-3):
    """One Newton step from the session's curve toward its first chart
    coordinate moved by rel."""
    target = ses.nav.coordinates.vector.copy()
    target[0] += rel
    spec = moduli.spec_with_coefficients(
        ses.spec, moduli.coefficient_vector(ses.spec)
        + np.linalg.solve(ses.nav.jacobian,
                          target - ses.nav.coordinates.vector))
    return sf.build_surface(spec, template=ses.curve)


class TestTransport:
    def test_refused_when_clearance_below_move(self, g2_23):
        base = g2_23.geo.basis
        curve2 = _perturbed(g2_23)
        delta = float(np.max(np.abs(curve2.singular_points - base.origin)))
        assert delta > 0
        shrunk = dataclasses.replace(
            base, clearances=[f + 0.5 * delta for f in base.floors])
        rebuilt = sf.homology_basis(curve2, template_basis=shrunk)
        assert not rebuilt.transported
        assert rebuilt.a_cycles[0].segments is not base.a_cycles[0].segments
        assert rebuilt.b_flipped == base.b_flipped
        carried = sf.homology_basis(curve2, template_basis=base)
        assert carried.transported
        assert carried.a_cycles[0].segments is base.a_cycles[0].segments
        for c1, c2 in zip(rebuilt.a_cycles, carried.a_cycles):
            v1 = curve2.integrate_v(c1).value
            v2 = curve2.integrate_v(c2).value
            assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))

    def test_refused_when_lift_jumps(self, g2_23):
        base = g2_23.geo.basis
        curve2 = _perturbed(g2_23)
        turned = dataclasses.replace(base, start_w=[1j * w for w in base.start_w])
        assert not sf.homology_basis(curve2, template_basis=turned).transported

    def test_template_caches_stay_with_template_curve(self, g2_23):
        base = g2_23.geo.basis
        for c in base.cycles:
            g2_23.curve.integrate_v(c)
        curve2 = _perturbed(g2_23)
        carried = sf.homology_basis(curve2, template_basis=base)
        assert carried.transported
        for c in carried.cycles:
            curve2.integrate_v(c)
            assert c._anchors[0] is curve2
        for c in base.cycles:
            assert c._anchors[0] is g2_23.curve
            assert c._start_w[0] is g2_23.curve

    def test_clearance_is_exact_distance(self, g2_23):
        # the recorded clearance is the closed-form distance from each
        # contour to the origin points: never above a dense sample of it,
        # and within the sample spacing of it
        base = g2_23.geo.basis
        for c, r in zip(base.cycles, base.clearances):
            z = c.polyline(per_segment=4000)
            dense = float(np.min(np.abs(z[:, None] - base.origin[None, :])))
            assert r <= dense + 1e-14
            assert dense - r <= float(np.max(np.abs(np.diff(z))))


def _basis_groups(curve):
    """The branch-point groups homology_basis routes its a and b capsules
    around."""
    e, g = curve.branch_points, curve.counts.genus
    return ([[e[2 * i], e[2 * i + 1]] for i in range(g)]
            + [list(e[2 * i + 1: 2 * g + 1]) for i in range(g)])


def _scanned_capsule(curve, group):
    """_capsule_for by sampling every margin: the best sampled distance wins,
    the first on a tie."""
    group = [complex(p) for p in group]
    singular = [complex(q) for q in curve.singular_points]
    excluded = [q for q in singular if min(abs(q - p) for p in group) > 1e-12]
    d_out = sf._dist_to_set(sf.capsule(group, 1e-9), excluded)
    best = None
    for frac in sf.MARGIN_FRACS:
        c = sf.capsule(group, frac * d_out)
        score = sf._dist_to_set(c, singular)
        if best is None or score > best[0]:
            best = (score, c, frac * d_out)
    _, contour, margin = best
    floor = max(0.25 * margin, 0.03 * sf._min_pairwise(curve.branch_points))
    return contour, sf._exact_distances([contour], curve.singular_points)[0], floor


def _exact_distance_per_segment(contour, points):
    """Reference for sf._exact_distances: one segment at a time."""
    p = np.asarray(points, dtype=complex)
    best = np.inf
    for seg in contour.segments:
        if isinstance(seg, nm.Line):
            d = seg.z1 - seg.z0
            t = np.clip(((p - seg.z0) * np.conj(d)).real / max(abs(d) ** 2, 1e-300),
                        0.0, 1.0)
            dist = np.abs(p - (seg.z0 + t * d))
        else:
            on_arc = (np.mod(np.angle(p - seg.center) - min(seg.a0, seg.a1), 2 * np.pi)
                      <= abs(seg.a1 - seg.a0))
            ends = np.minimum(np.abs(p - seg.point(0.0)), np.abs(p - seg.point(1.0)))
            dist = np.where(on_arc, np.abs(np.abs(p - seg.center) - seg.radius), ends)
        best = min(best, float(np.min(dist)))
    return best


class TestCapsuleRouting:
    """Margins are ranked by exact clearance, and only those that can score
    best are sampled; the result is that of sampling all ten."""

    def test_matches_scan_of_every_margin(self, ell4, g2_5, g2_23, g2_resfree,
                                          drawn_curves):
        curves = [ses.curve for ses in (ell4, g2_5, g2_23, g2_resfree)] + drawn_curves
        for curve in curves:
            for group in _basis_groups(curve):
                contour, clearance, floor = sf._capsule_for(curve, group, "")
                want, want_clearance, want_floor = _scanned_capsule(curve, group)
                assert contour.segments == want.segments
                assert (clearance, floor) == (want_clearance, want_floor)

    def test_sampled_distance_within_gap_of_exact(self, g2_5, g2_23, g2_resfree):
        for ses in (g2_5, g2_23, g2_resfree):
            pts = ses.curve.singular_points
            rounding = 1e-14 * max(1.0, float(np.max(np.abs(pts))))
            for group in _basis_groups(ses.curve):
                for margin in np.geomspace(1e-3, 1.0, 13):
                    c = sf.capsule(group, margin)
                    over = sf._dist_to_set(c, list(pts)) - sf._exact_distances([c], pts)[0]
                    assert -rounding <= over <= sf._sample_gap(c) + rounding

    def test_exact_distance_matches_per_segment(self, ell4, g2_5, g2_23, g2_resfree):
        for ses in (ell4, g2_5, g2_23, g2_resfree):
            pts = ses.curve.singular_points
            paths, _ = sf.zero_paths(ses.curve)
            contours = ses.geo.basis.cycles + paths
            want = [_exact_distance_per_segment(c, pts) for c in contours]
            assert sf._exact_distances(contours, pts) == want
            assert sf._exact_distances(contours, list(pts)) == want
            assert [sf._exact_distances([c], pts)[0] for c in contours] == want

    def test_cold_basis_samples_few_margins(self, g2_23, monkeypatch):
        capsules = _counting(monkeypatch, sf, "_capsule_for")
        sampled = _counting(monkeypatch, sf, "_dist_to_set")
        sf.homology_basis(g2_23.curve)
        assert len(capsules) == 4
        assert len(sampled) <= 3 * len(capsules)

    def test_floor_gates_exact_clearance(self, g2_23, monkeypatch):
        # a floor between the chosen capsule's exact clearance and its sampled
        # distance refuses the capsule
        curve = g2_23.curve
        group = _basis_groups(curve)[2]
        contour, clearance, _ = sf._capsule_for(curve, group, "b1")
        score = sf._dist_to_set(contour, list(curve.singular_points))
        assert score > clearance
        monkeypatch.setattr(sf, "_min_pairwise",
                            lambda pts: (clearance + score) / 2 / 0.03)
        with pytest.raises(sf.SurfaceError, match="could not route capsule b1"):
            sf._capsule_for(curve, group, "b1")


def _w_carried_and_dense(curve, contour):
    """w at every quadrature node of v along contour, from its carried
    anchors and from a copy of it that has no template, so it is tracked
    densely."""
    dense = sf._starting_on(curve, contour, curve.contour_start_w(contour))
    got, want = [], []

    def fn(si, t, z):
        got.append(curve.w_on_segment(contour, si, t, z))
        want.append(curve.w_on_segment(dense, si, t, z))
        return curve.phi(z, got[-1])

    nm.integrate(fn, contour)
    return np.concatenate(got), np.concatenate(want)


def _carried_legs(ses, curve):
    """Every zero leg of the session's curve carried onto curve, as the
    dm-cubic branch-integral functional carries them."""
    paths, targets = sf.zero_paths(ses.curve)
    return [(path, sf.carry_path(curve, path, curve.zeros[i].x))
            for path, i in zip(paths, targets)]


class TestCarriedAnchors:
    """A carried contour takes its w anchors from its template's: the same
    w at every quadrature node as dense tracking on the new curve."""

    def check_carried(self, curve, pairs):
        n_carried = 0
        for template, c in pairs:
            shared = [k for k, seg in enumerate(c.segments)
                      if seg is template.segments[k]]
            got, want = _w_carried_and_dense(curve, c)
            assert np.array_equal(got, want)
            # the shared segments kept the template's anchor grids
            for k in shared:
                assert c._anchors[1][k][0] is template._anchors[1][k][0]
            n_carried += len(shared)
        assert n_carried > 0

    @staticmethod
    def anchored_basis(ses):
        base = ses.geo.basis
        for c in base.cycles:
            ses.curve.anchors(c)
        return base

    def test_perturbed_build(self, g2_23):
        base = self.anchored_basis(g2_23)
        curve2 = _perturbed(g2_23)
        carried = sf.homology_basis(curve2, template_basis=base)
        assert carried.transported
        self.check_carried(curve2, list(zip(base.cycles, carried.cycles))
                           + _carried_legs(g2_23, curve2))

    def test_fd_build(self, g2_23):
        # the FD builds are Newton chains of carries from the session's basis
        base = self.anchored_basis(g2_23)
        eng = moduli.FDEngine(g2_23.nav)
        geo3 = eng.build(0, eng.eps_for(0))
        curve3 = geo3.curve
        assert geo3.basis.transported
        self.check_carried(curve3, list(zip(base.cycles, geo3.basis.cycles))
                           + _carried_legs(g2_23, curve3))

    def test_carry_path_anchors_its_template(self, g2_23):
        # a leg to a branch zero is made without anchors; carry_path anchors
        # it on its own curve, so the copy carries them whatever ran before
        curve2 = _perturbed(g2_23)
        paths, targets = sf.zero_paths(g2_23.curve)
        legs = [(p, i) for p, i in zip(paths, targets) if g2_23.curve.zeros[i].is_branch]
        assert legs and not any(hasattr(p, "_anchors") for p, _ in legs)
        pairs = [(p, sf.carry_path(curve2, p, curve2.zeros[i].x)) for p, i in legs]
        assert all(p._anchors[0] is g2_23.curve for p, _ in pairs)
        self.check_carried(curve2, pairs)

    def test_turned_template_falls_back_to_dense(self, g2_23):
        base = self.anchored_basis(g2_23)
        curve2 = _perturbed(g2_23)
        start_w = sf.homology_basis(curve2, template_basis=base).start_w
        for c, w0 in zip(base.cycles, start_w):
            turned = sf._starting_on(g2_23.curve, c, c._start_w[1])
            turned._anchors = (g2_23.curve, [(t, 1j * w) for t, w in c._anchors[1]])
            carried = sf._starting_on(curve2, turned, w0, carried=range(len(c.segments)))
            dense = sf._starting_on(curve2, c, w0)
            for (t1, w1), (t2, w2) in zip(curve2.anchors(carried), curve2.anchors(dense)):
                assert np.array_equal(t1, t2) and np.array_equal(w1, w2)
            got, want = _w_carried_and_dense(curve2, carried)
            assert np.array_equal(got, want)

    def test_one_track_per_run_matches_segmentwise(self, g2_23):
        # dense anchors tracked in one call per contour equal those tracked
        # segment by segment, each from the end of the one before
        curve = g2_23.curve
        paths, _ = sf.zero_paths(curve)
        for c in g2_23.geo.basis.cycles + paths:
            w_run = curve.contour_start_w(c)
            for seg, (t, w) in zip(c.segments, curve.anchors(c)):
                full = curve.grid(seg)
                ws = curve.track_w(seg.point(full), w_run)
                w_run = ws[-1]
                keep = np.isin(full, t)
                assert np.array_equal(t, full[keep]) and np.array_equal(w, ws[keep])


def _all_pairs_crossings(curve, c1, c2):
    """Reference for intersection_number: every edge pair whose bounding
    boxes overlap goes to the hit test, found on one dense N1 x N2 filter."""
    l1 = sf._tracked_polyline(curve, c1)
    l2 = sf._tracked_polyline(curve, c2)
    p0, p1, q0, q1 = l1.z[:-1], l1.z[1:], l2.z[:-1], l2.z[1:]
    d1, d2 = p1 - p0, q1 - q0
    cand = ((np.minimum(p0.real, p1.real)[:, None] <= np.maximum(q0.real, q1.real)[None, :])
            & (np.minimum(q0.real, q1.real)[None, :] <= np.maximum(p0.real, p1.real)[:, None])
            & (np.minimum(p0.imag, p1.imag)[:, None] <= np.maximum(q0.imag, q1.imag)[None, :])
            & (np.minimum(q0.imag, q1.imag)[None, :] <= np.maximum(p0.imag, p1.imag)[:, None]))
    total = 0
    for i, j in zip(*np.nonzero(cand)):
        a, b, rhs = d1[i], -d2[j], q0[j] - p0[i]
        det = a.real * b.imag - a.imag * b.real
        if abs(det) <= 1e-14:
            continue
        s = (rhs.real * b.imag - rhs.imag * b.real) / det
        t = (a.real * rhs.imag - a.imag * rhs.real) / det
        wa, wb = l1.w[i], l2.w[j]
        if 0 <= s < 1 and 0 <= t < 1 and abs(wa - wb) < abs(wa + wb):
            total += 1 if (d1[i].conjugate() * d2[j]).imag > 0 else -1
    return total


class TestCrossings:
    def test_blocked_filter_matches_all_pairs(self, ell4, g2_5, g2_23, g2_resfree):
        for ses in (ell4, g2_5, g2_23, g2_resfree):
            curve, cycles = ses.curve, ses.geo.basis.cycles
            paths, _ = sf.zero_paths(curve)
            counts = [(sf.intersection_number(curve, c1, c2),
                       _all_pairs_crossings(curve, c1, c2))
                      for c1 in cycles for c2 in cycles + paths]
            assert all(n == ref for n, ref in counts)
            assert any(n != 0 for n, _ in counts[len(cycles) ** 2:])

    def test_polyline_cached_on_its_own_curve(self, g2_23, monkeypatch):
        curve, base = g2_23.curve, g2_23.geo.basis
        a, b = base.a_cycles[0], base.b_cycles[0]
        line = sf._tracked_polyline(curve, a)
        sf._tracked_polyline(curve, b)
        calls = []
        real = sf.SpectralCurve.track_w
        monkeypatch.setattr(sf.SpectralCurve, "track_w",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        assert sf.intersection_number(curve, a, b) == 1
        assert calls == []
        assert sf._tracked_polyline(curve, a) is line

    def test_carried_copy_retracks_on_perturbed_curve(self, g2_23):
        curve, base = g2_23.curve, g2_23.geo.basis
        eng = g2_23.eng
        geo2 = eng.build(0, eng.eps_for(0))
        curve2 = geo2.curve
        assert geo2.basis.transported
        for c, c2 in zip(base.cycles, geo2.basis.cycles):
            assert c2.segments is c.segments
            line = sf._tracked_polyline(curve, c)
            line2 = sf._tracked_polyline(curve2, c2)
            assert line2 is not line
            assert c._tracked[0] is curve and c2._tracked[0] is curve2
            assert np.array_equal(line2.z, line.z)
            assert not np.array_equal(line2.w, line.w)


def _counting(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


class TestOneGrid:
    """The anchors are the one tracked sampling of a contour on a curve: the
    landing check, the quadrature and the crossing polyline all read them."""

    def test_fresh_abel_path_tracked_once_per_candidate(self, g2_23, monkeypatch):
        eng = g2_23.eng
        geo = eng.build(0, eng.eps_for(0))
        curve = geo.curve
        geo.period  # the basis cycles are anchored before counting
        tracks = _counting(monkeypatch, sf.SpectralCurve, "track_w")
        candidates = _counting(monkeypatch, sf, "_starting_on")
        x = curve.x0 + 0.5 + 0.25j
        w = curve.sqrtP(np.array([x]))[0]
        for lift in (w, -w):  # one lift lands directly, the other reroutes
            assert np.all(np.isfinite(geo.abel.at(x, lift)))
        assert len(candidates) >= 3
        assert len(tracks) == len(candidates)

    def test_carried_cycle_polyline_is_its_anchors(self, g2_23, monkeypatch):
        base = TestCarriedAnchors.anchored_basis(g2_23)
        curve2 = _perturbed(g2_23)
        carried = sf.homology_basis(curve2, template_basis=base)
        assert carried.transported
        tracks = _counting(monkeypatch, sf.SpectralCurve, "track_w")
        for template, c in zip(base.cycles, carried.cycles):
            line = sf._tracked_polyline(curve2, c)
            anchors = curve2.anchors(c)
            z = np.concatenate([seg.point(t) for seg, (t, _) in zip(c.segments, anchors)])
            assert np.array_equal(line.z, z)
            assert np.array_equal(line.w, np.concatenate([w for _, w in anchors]))
            # the template's grid, re-solved on the new curve
            assert all(t is t0 for (t, _), (t0, _) in zip(anchors, template._anchors[1]))
        assert tracks == []


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
        Y2 = nm.laurent_window(Y, rho2, np.arange(6))[0]
        flip = 1.0 if abs(Y2[1] - fr.Y_series[1]) < abs(Y2[1] + fr.Y_series[1]) else -1.0
        for m in range(6):
            got = flip ** m * Y2[m]
            assert abs(got - fr.Y_series[m]) < 1e-8 * max(1.0, abs(fr.Y_series[m]))
