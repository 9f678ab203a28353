import os
import signal
import time
import traceback

import numpy as np
import pytest

from speclab import moduli
from speclab import numerics as nm
from speclab import surface as sf
from speclab.differentials import Geometry
from speclab.generator import generate
from speclab.harness import Session, run_suite
from speclab.instances import load_instance


class TestCoordinates:
    def test_residue_sum_vanishes(self, ell4, g2_5):
        for ses in (ell4, g2_5):
            assert abs(moduli.residue_sum(ses.curve)) < 1e-10

    def test_count_matches_dimension(self, g2_23):
        coords = g2_23.nav.coordinates
        assert len(coords.vector) == g2_23.curve.counts.dim

    def test_scaling_equivariance(self, ell4):
        lam = 1.07 - 0.12j
        spec = ell4.spec
        spec2 = moduli.spec_with_coefficients(
            spec, np.concatenate([spec.numer[1] * lam, spec.numer[2] * lam ** 2]))
        curve2 = sf.build_surface(spec2, template=ell4.curve)
        coords2 = moduli.Navigator(Geometry(curve2, sf.homology_basis(
            curve2, template_basis=ell4.geo.basis))).coordinates
        base = ell4.nav.coordinates
        assert np.max(np.abs(coords2.vector - lam * base.vector)) \
            < 1e-9 * max(1.0, np.max(np.abs(base.vector)))


class TestChartLayout:
    def test_keys_count_and_lookup(self, ell4, g2_5, g2_23, g2_resfree):
        for ses in (ell4, g2_5, g2_23, g2_resfree):
            g = ses.geo.genus
            keys = moduli.coordinate_keys(ses.spec, g)
            names = moduli.coordinate_names(ses.spec, g)
            assert len(keys) == len(names) == ses.curve.counts.dim
            for index, (name, key) in enumerate(zip(names, keys)):
                assert moduli.lookup_coordinate(ses.spec, g, name) == (index, key)
            for bad in ("C(1,1,1)", "Z9"):
                with pytest.raises(moduli.ModuliError, match="unknown coordinate"):
                    moduli.lookup_coordinate(ses.spec, g, bad)

    def test_stacked_windows_equal_single_columns(self, g2_23):
        circles = g2_23.nav.circles
        tangents = [moduli.coefficient_tangent(g2_23.curve, ell, i)
                    for ell, i in moduli.coefficient_layout(g2_23.spec)]
        stacked = circles.windows(
            lambda x, w: np.stack([tan(x, w) for tan in tangents], axis=-1))
        for c, tan in enumerate(tangents):
            for ring, coeffs in circles.windows(tan).items():
                assert stacked[ring].shape == (len(tangents), len(coeffs))
                assert np.array_equal(stacked[ring][c], coeffs)


class TestJacobian:
    def test_square(self, ell4, g2_23):
        for ses in (ell4, g2_23):
            jac = ses.nav.jacobian
            assert jac.shape[0] == jac.shape[1] == ses.curve.counts.dim

    def test_columns_match_fd(self, ell4):
        curve = ell4.curve
        jac = ell4.nav.jacobian
        cv = moduli.coefficient_vector(curve.spec)
        h = 1e-6
        for c in (0, len(cv) - 1):
            cvp, cvm = cv.copy(), cv.copy()
            cvp[c] += h
            cvm[c] -= h
            vp = moduli.Navigator(Geometry(
                sf.build_surface(moduli.spec_with_coefficients(curve.spec, cvp),
                                 template=curve),
                ell4.geo.basis)).coordinates.vector
            vm = moduli.Navigator(Geometry(
                sf.build_surface(moduli.spec_with_coefficients(curve.spec, cvm),
                                 template=curve),
                ell4.geo.basis)).coordinates.vector
            col = (vp - vm) / (2 * h)
            assert np.max(np.abs(col - jac[:, c])) < 1e-7

    def test_full_rank(self, ell4):
        jac = ell4.nav.jacobian
        assert np.linalg.matrix_rank(jac, tol=1e-8) == jac.shape[0]

    def test_top_n2_coefficient_block_structure(self, ell4):
        # perturbing the top N2 coefficient leaves the ell=1-extraction of
        # the other singular parts consistent: its Jacobian column has no
        # component on the A-rows beyond quadrature accuracy? (block check:
        # the column matches FD, already covered; here: tangent evaluator)
        curve = ell4.curve
        tan = moduli.coefficient_tangent(curve, 2, len(curve.spec.numer[2]) - 1)
        x = np.array([curve.x0 + 1.0])
        w = curve.sqrtP(x)
        expect = -(x ** (len(curve.spec.numer[2]) - 1)) / (
            nm.polyval(curve.D, x) * w)
        assert abs(tan(x, w)[0] - expect[0]) < 1e-12

    def test_coefficient_tangent_fd(self, ell4):
        # d(phi)/d(coefficient) against raw finite differences of the roots
        curve = ell4.curve
        x = curve.x0 + 0.8 + 0.4j
        w = complex(curve.w_for_sheet(x, 0))
        h = 1e-7
        for (ell, i) in ((1, 0), (2, 2)):
            tan = moduli.coefficient_tangent(curve, ell, i)
            cv = moduli.coefficient_vector(curve.spec)
            layout = moduli.coefficient_layout(curve.spec)
            c = layout.index((ell, i))
            vals = []
            for s in (+1, -1):
                cv2 = cv.copy()
                cv2[c] += s * h
                spec2 = moduli.spec_with_coefficients(curve.spec, cv2)
                curve2 = sf.build_surface(spec2, template=curve)
                w2 = curve2.track_w(np.array([x, x]), w)[-1]
                s2 = curve2.sqrtP(np.array([x]))[0]
                w2 = s2 if abs(s2 - w) <= abs(s2 + w) else -s2
                vals.append(curve2.phi(np.array([x]), np.array([w2]))[0])
            fd = (vals[0] - vals[1]) / (2 * h)
            got = complex(tan(np.array([x]), np.array([w]))[0])
            assert abs(got - fd) < 1e-7 * max(1.0, abs(fd))


class TestNavigation:
    def test_zero_step_identity(self, ell4):
        nav2 = ell4.nav.step_to(ell4.nav.coordinates.vector)
        d = np.max(np.abs(nav2.coordinates.vector
                          - ell4.nav.coordinates.vector))
        assert d < 1e-12

    def test_unit_step(self, g2_23):
        base = g2_23.nav.coordinates.vector
        target = base.copy()
        target[0] += 1e-4
        nav2 = g2_23.nav.step_to(target)
        got = nav2.coordinates.vector
        assert np.max(np.abs(got - target) / np.maximum(1, np.abs(target))) < 1e-11

    def test_chart_integrity_larger_step(self, ell4):
        base = ell4.nav.coordinates.vector
        target = base * (1.0 + 1e-3)
        nav2 = ell4.nav.step_to(target)
        got = nav2.coordinates.vector
        assert np.max(np.abs(got - target)) < 1e-11 * max(1.0, np.max(np.abs(target)))

    def test_scaling_step_recovers_scaled_coefficients(self, ell4):
        eps = 1e-4
        base = ell4.nav.coordinates.vector
        nav2 = ell4.nav.step_to(base * (1.0 + eps))
        n1 = nav2.curve.N1
        n2 = nav2.curve.N2
        assert np.max(np.abs(n1 - (1 + eps) * ell4.curve.N1)) < 1e-9
        assert np.max(np.abs(n2 - (1 + eps) ** 2 * ell4.curve.N2)) < 1e-9

    def test_homology_transport_continuity(self, ell4):
        # Omega moves continuously along a 10-substep path (no marking jump)
        base = ell4.nav.coordinates.vector
        target = base.copy()
        target[0] += 5e-3
        nav = ell4.nav
        om_prev = ell4.geo.period.omega
        for k in range(1, 11):
            inter = base + (target - base) * (k / 10.0)
            nav = nav.step_to(inter)
            om = nav.geo.period.omega
            assert np.max(np.abs(om - om_prev)) < 1e-2
            om_prev = om

    @staticmethod
    def _noisy_chart(monkeypatch, size):
        """Chart coordinates that alternate by +-size (relative) from one
        Newton iterate to the next, so the residual stalls near 2 size."""
        real = moduli.coordinates_of
        calls = []

        def noisy(geo, circles):
            pt = real(geo, circles)
            calls.append(pt)
            sign = 1.0 if len(calls) % 2 else -1.0
            return moduli.ModuliPoint(
                pt.names, pt.vector + sign * size * np.maximum(1.0, np.abs(pt.vector)))

        monkeypatch.setattr(moduli, "coordinates_of", noisy)
        return calls

    def test_newton_accepts_a_plateau_below_1e_10(self, monkeypatch):
        # a residual that stops shrinking at 4e-11 ends the solve on the
        # plateau exit, above NEWTON_TOL and before the iteration limit
        nav = Session(load_instance("ell4")).nav
        target = nav.coordinates.vector.copy()
        target[0] += 1e-4
        calls = self._noisy_chart(monkeypatch, 2e-11)
        got = nav._newton(target)
        resid = np.max(np.abs(got.coordinates.vector - target)
                       / np.maximum(1.0, np.abs(target)))
        assert moduli.NEWTON_TOL < resid <= 1e-10
        assert len(calls) < moduli.NEWTON_MAX_ITER

    def test_newton_raises_when_the_residual_stalls_above_1e_10(self, monkeypatch):
        nav = Session(load_instance("ell4")).nav
        target = nav.coordinates.vector.copy()
        target[0] += 1e-4
        calls = self._noisy_chart(monkeypatch, 5e-9)
        with pytest.raises(moduli.ModuliError, match="did not converge"):
            nav._newton(target)
        assert len(calls) == moduli.NEWTON_MAX_ITER

    def test_step_walked_in_halves_after_surface_error(self, ell4, monkeypatch):
        # a direct step that trips the branch-tracking guard is retried as
        # two half steps: one failed and two successful Newton solves
        calls = []
        newton = moduli.Navigator._newton

        def flaky(nav, target):
            calls.append(target)
            if len(calls) == 1:
                raise sf.SurfaceError("branch tracking guard")
            return newton(nav, target)

        monkeypatch.setattr(moduli.Navigator, "_newton", flaky)
        target = ell4.nav.coordinates.vector * (1.0 + 1e-4)
        got = ell4.nav.step_to(target).coordinates.vector
        assert len(calls) == 3
        assert np.max(np.abs(got - target)) < 1e-10 * np.max(np.abs(target))


class TestTransportedBasis:
    def test_newton_build_matches_fresh_basis(self, g2_23):
        target = g2_23.nav.coordinates.vector.copy()
        target[0] += 1e-3
        nav2 = g2_23.nav.step_to(target)
        assert nav2.geo.basis.transported
        curve = nav2.curve
        fresh = sf.homology_basis(curve)
        assert not fresh.transported
        assert nav2.geo.basis.b_flipped == fresh.b_flipped
        for c1, c2 in zip(nav2.geo.basis.a_cycles, fresh.a_cycles):
            v1 = curve.integrate_v(c1).value
            v2 = curve.integrate_v(c2).value
            assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))
        om = nav2.geo.period.omega
        om_fresh = Geometry(curve, fresh).period.omega
        assert np.max(np.abs(om - om_fresh)) < 1e-10
        g = curve.counts.genus
        expect = np.block([
            [np.zeros((g, g), dtype=int), np.eye(g, dtype=int)],
            [-np.eye(g, dtype=int), np.zeros((g, g), dtype=int)]])
        assert np.array_equal(sf.intersection_matrix(curve, nav2.geo.basis), expect)

    def test_lift_carried_on_resfree_draw(self):
        # re-deriving the start sheets of carried contours from the basepoint
        # flips a lift on one of this draw's FD builds, and PeriodData
        # raises on the asymmetric period matrix
        report = run_suite(generate("g2-resfree", seed_base=84445952), "tau")
        assert report.passed, report.summary_lines()


class TestFDEngine:
    def test_chart_consistency_delta(self, ell4):
        # F = A_beta differentiated in A_gamma is the identity
        fd = ell4.eng.derivative(
            lambda g: moduli.Navigator(g).coordinates.vector[:1], "A1")
        assert abs(fd.value[0] - 1.0) < 1e-10

    def test_gap_shrinks_with_richardson(self, ell4):
        fd = ell4.eng.derivative(lambda g: g.period.omega, "A1")
        assert fd.gap < 1e-5
        assert np.max(np.abs(fd.value - fd.fine)) <= fd.gap + 1e-12

    def test_unknown_coordinate(self, ell4):
        with pytest.raises(moduli.ModuliError, match="unknown coordinate"):
            ell4.eng.coord_index("A9")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFanOut:
    # three workers whatever the host has: two forked children
    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def test_results_in_item_order(self):
        items = list(range(11))
        got = moduli.fan_out(lambda x: (x * x, os.getpid()), items)
        assert [v for v, _ in got] == [x * x for x in items]
        assert {pid for _, pid in got} - {os.getpid()}   # some came from a child
        _no_child_left()

    def test_first_failing_item_raises_with_its_line(self):
        # items 4 and 5 raise in the children (shares 1, 4, 7 and 2, 5, 8)
        # and item 6 here (0, 3, 6); the first in item order is re-raised,
        # from the line that raised it
        def fn(x):
            if x in (4, 5, 6):
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="item 4") as info:
            moduli.fan_out(fn, range(9))
        frame = traceback.extract_tb(info.value.__traceback__)[-1]
        assert frame.name == "fn" and "raise ValueError" in frame.line
        _no_child_left()

    def test_item_raising_only_in_a_child_is_computed_here(self):
        parent = os.getpid()

        def fn(x):
            if os.getpid() != parent and x == 4:
                raise RuntimeError("child only")
            return -x

        assert moduli.fan_out(fn, range(9)) == [-x for x in range(9)]
        _no_child_left()

    def test_child_that_dies_part_way(self):
        parent = os.getpid()

        def fn(x):
            if os.getpid() != parent and x == 4:
                os._exit(3)
            return x + 0.5

        assert moduli.fan_out(fn, range(9)) == [x + 0.5 for x in range(9)]
        _no_child_left()

    def test_unpicklable_result_is_computed_here(self):
        assert [f() for f in moduli.fan_out(lambda x: (lambda: x), range(5))] == list(range(5))
        _no_child_left()

    def test_one_cpu_and_no_items(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        parent = os.getpid()
        assert moduli.fan_out(lambda x: (x, os.getpid()), "ab") == [("a", parent),
                                                                     ("b", parent)]
        assert moduli.fan_out(lambda x: x, []) == []
        _no_child_left()

    def test_interrupt_here_ends_children_blocked_on_full_pipes(self):
        # both children write more than a pipe holds while this process is
        # interrupted; closing its read ends must end both writers, so no
        # later child may hold an earlier one's read end open. Children
        # that hung would be ended by their alarm after 10 s.
        parent = os.getpid()

        class Interrupt(BaseException):
            pass

        def fn(x):
            if os.getpid() == parent:
                raise Interrupt
            signal.alarm(10)
            return bytes(1 << 20)

        start = time.monotonic()
        with pytest.raises(Interrupt):
            moduli.fan_out(fn, range(6))
        assert time.monotonic() - start < 5.0
        _no_child_left()


class TestPrefetch:
    def test_prefetch_bitwise_equal_to_one_cpu(self, monkeypatch):
        spec = load_instance("ell4")

        def omega(geo):
            return geo.period.omega

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two = Session(spec).eng
        two.prefetch([omega], ["A1"])
        got = two.derivative(omega, "A1")
        _no_child_left()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = Session(spec).eng
        one.prefetch([omega], ["A1"])
        want = one.derivative(omega, "A1")
        for field in ("value", "coarse", "fine"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.gap, got.eps) == (want.gap, want.eps) and got.eps > 0

    def test_failed_point_raises_in_derivative(self, monkeypatch):
        # the points below the base cannot be built: prefetch stores the two
        # above it, and derivative meets the error where a serial run would
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        eng = Session(load_instance("ell4")).eng
        real = moduli.Navigator.step_to

        def step_up_only(nav, target, _depth=0):
            if target[0].real < nav.coordinates.vector[0].real:
                raise moduli.ModuliError("no step down")
            return real(nav, target, _depth=_depth)

        def omega(geo):
            return geo.period.omega

        monkeypatch.setattr(moduli.Navigator, "step_to", step_up_only)
        eng.prefetch([omega], ["A1"])
        _no_child_left()
        assert sorted(key[1].real > 0 for _, key in eng._values) == [True, True]
        with pytest.raises(moduli.ModuliError, match="no step down") as info:
            eng.derivative(omega, "A1")
        assert traceback.extract_tb(info.value.__traceback__)[-1].name == "step_up_only"
