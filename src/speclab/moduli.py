"""Moduli navigation: the coordinate chart and its numerical inverse.

Coordinates are the a-periods of v together with the singular-part
coefficients of v at the points over the poles (in chi_j = x - y_j), minus
the one dependent residue. The forward map is quadrature plus pole jets;
the inverse is Newton iteration on the numerator coefficients using the
Jacobian assembled from implicit differentiation of the defining equation,
with branch points, sheet labels and contours transported by continuity.
The finite-difference engine used by every acceptance oracle lives here,
with `fan_out`, which shares its points among the CPUs.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics as nm
from . import surface as sf
from .differentials import Geometry
from .instances import InstanceSpec


class ModuliError(RuntimeError):
    pass


FD_EPS_REL = 1e-4
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 10
POLE_JET_SAMPLES = 128


@dataclass
class ModuliPoint:
    names: tuple
    vector: np.ndarray


def coordinate_keys(spec, genus):
    """The chart layout: ("A", alpha), then ("C", j, s, ell) for the
    coefficient of chi^(-ell) of v over pole j on sheet s, less the dependent
    residue (0, 0, 1)."""
    return tuple([("A", a) for a in range(genus)]
                 + [("C", j, s, ell) for j, p in enumerate(spec.poles)
                    for s in range(spec.n) for ell in range(1, p.k + 1)
                    if (j, s, ell) != (0, 0, 1)])


def coordinate_names(spec, genus):
    return tuple(f"A{k[1] + 1}" if k[0] == "A" else f"C({k[1] + 1},{k[2] + 1},{k[3]})"
                 for k in coordinate_keys(spec, genus))


def lookup_coordinate(spec, genus, name):
    """(index, key) of a coordinate name in the chart."""
    names = coordinate_names(spec, genus)
    if name not in names:
        raise ModuliError(f"unknown coordinate {name!r}; have {names}")
    index = names.index(name)
    return index, coordinate_keys(spec, genus)[index]


def scaled_spec(spec, lam):
    """The cover with N_ell -> lam^ell N_ell, on which v -> lam v."""
    return InstanceSpec(spec.label, spec.n, spec.poles,
                        {ell: spec.numer[ell] * lam ** ell for ell in spec.numer})


class PoleCircles:
    """Cached sample circles over each pole, per sheet, with tracked w."""

    def __init__(self, curve):
        self.curve = curve
        self.data = {}
        for j, p in enumerate(curve.spec.poles):
            rho = sf.JET_RADIUS_FACTOR * curve.singular_distance(p.x)
            ring = p.x + nm.circle_points(rho, POLE_JET_SAMPLES)
            for s in range(curve.n):
                w_center = curve.pole_points[(j, s)].w
                radial = np.linspace(0.0, 1.0, 8)[1:]
                lead_in = p.x + radial * rho
                w_in = curve.track_w(np.concatenate([[p.x], lead_in]), w_center)
                w_ring = curve.track_w(np.concatenate([[lead_in[-1]], ring]),
                                       w_in[-1])[1:]
                self.data[(j, s)] = (rho, ring, w_ring)

    def windows(self, fn):
        """{(j, s): coefficients of chi^(-ell), ell = 1..k_j, in the last
        axis} of fn(x, w) on each ring; fn gives (K,) or stacked (K, m)."""
        out = {}
        for (j, s), (rho, ring, w_ring) in self.data.items():
            vals = np.moveaxis(np.asarray(fn(ring, w_ring)), 0, -1)
            orders = [-ell for ell in range(1, self.curve.spec.poles[j].k + 1)]
            out[(j, s)] = nm.laurent_window(vals, rho, orders)[0]
        return out

    def singular_parts(self, fn):
        """The C coordinates of fn in key order, in the last axis (the keys
        of a genus-0 chart are its C keys)."""
        win = self.windows(fn)
        return np.stack([win[(j, s)][..., ell - 1] for _, j, s, ell
                         in coordinate_keys(self.curve.spec, 0)], axis=-1)


def coordinates_of(geo, circles):
    """Forward chart: a-periods of v plus pole-jet singular coefficients.

    Only the basis a-cycles are read, so Newton iterations avoid the full
    period build.
    """
    curve = geo.curve
    names = coordinate_names(curve.spec, geo.genus)
    a_periods = [curve.integrate_v(c).value for c in geo.basis.a_cycles]
    return ModuliPoint(names, np.concatenate([np.array(a_periods, dtype=complex),
                                              circles.singular_parts(curve.phi)]))


def residue_sum(curve):
    """Sum of all residues of v over the pole fibers (should vanish)."""
    return sum((win[0] for win in PoleCircles(curve).windows(curve.phi).values()),
               0.0 + 0.0j)


def coefficient_layout(spec):
    """(ell, index) pairs for the flattened numerator-coefficient vector."""
    out = []
    for ell in sorted(spec.numer):
        for i in range(len(spec.numer[ell])):
            out.append((ell, i))
    return out


def coefficient_vector(spec):
    return np.concatenate([np.asarray(spec.numer[ell], dtype=complex)
                           for ell in sorted(spec.numer)])


def spec_with_coefficients(spec, vec):
    numer = {}
    pos = 0
    for ell in sorted(spec.numer):
        k = len(spec.numer[ell])
        numer[ell] = np.array(vec[pos:pos + k], dtype=complex)
        pos += k
    return InstanceSpec(spec.label, spec.n, spec.poles, numer)


def coefficient_tangent(curve, ell, i):
    """Evaluator of d(v/dx) for a unit perturbation of coefficient i of N_ell.

    Implicit differentiation of the defining equation; for n = 2,
    d(phi) = -(phi dq1 + dq2) D / w with dq_ell = x^i / D^ell.
    """
    if curve.n != 2:
        raise ModuliError("coefficient tangents implemented for n = 2")
    if ell == 1:
        def fn(x, w, i=i):
            x = np.asarray(x, dtype=complex)
            return -curve.phi(x, w) * x ** i / w
        return fn

    def fn(x, w, i=i, curve=curve):
        x = np.asarray(x, dtype=complex)
        return -(x ** i) / (curve.Dval(x) * w)
    return fn


def coord_jacobian(geo, circles):
    """Matrix of d(coordinates)/d(numerator coefficients); square by the
    dimension count."""
    curve = geo.curve
    tangents = [coefficient_tangent(curve, ell, i)
                for ell, i in coefficient_layout(curve.spec)]

    def stacked(x, w):
        return np.stack([tan(x, w) for tan in tangents], axis=-1)
    rows = [curve.integrate_stack(stacked, c).value for c in geo.basis.a_cycles]
    jac = np.concatenate([np.array(rows, dtype=complex).reshape(-1, len(tangents)),
                          circles.singular_parts(stacked).T])
    if jac.shape[0] != jac.shape[1]:
        raise ModuliError(f"chart is not square: {jac.shape}")
    return jac


class Navigator:
    """Newton navigation of the coordinate chart around one cover.

    The chart reads only the Geometry's basis; the Geometry builds periods,
    theta and kernels lazily, only when a functional asks for them.
    """

    def __init__(self, geo):
        self.geo = geo
        self.curve = geo.curve
        self.circles = PoleCircles(geo.curve)

    @cached_property
    def coordinates(self):
        return coordinates_of(self.geo, self.circles)

    @cached_property
    def jacobian(self):
        return coord_jacobian(self.geo, self.circles)

    def step_to(self, target_vector, _depth=0):
        """New Navigator at the prescribed coordinates (Newton on N-coeffs).

        If a direct step trips the branch-tracking guard the move is walked
        in halves (the chart can be stiff: small coordinate steps may move
        branch points substantially).
        """
        target = np.asarray(target_vector, dtype=complex)
        try:
            return self._newton(target)
        except sf.SurfaceError:
            if _depth >= 4:
                raise
            mid = 0.5 * (self.coordinates.vector + target)
            half = self.step_to(mid, _depth=_depth + 1)
            return half.step_to(target, _depth=_depth + 1)

    def _newton(self, target):
        nav = self
        coeffs = coefficient_vector(self.curve.spec)
        jac = self.jacobian
        per_coord = np.maximum(1.0, np.abs(target))
        resid_prev = np.inf
        for it in range(NEWTON_MAX_ITER):
            resid_vec = nav.coordinates.vector - target
            resid = float(np.max(np.abs(resid_vec) / per_coord))
            if resid <= NEWTON_TOL:
                return nav
            if resid > 0.5 * resid_prev:
                # quadrature noise floors the residual; accept a plateau
                if resid <= 1e-10:
                    return nav
                if it >= 2:
                    jac = nav.jacobian
            resid_prev = resid
            delta, _ = nm.solve_dense(jac, resid_vec)
            coeffs = coeffs - delta
            spec = spec_with_coefficients(self.curve.spec, coeffs)
            curve = sf.build_surface(spec, template=self.curve)
            nav = Navigator(Geometry(
                curve, sf.homology_basis(curve, template_basis=self.geo.basis)))
        resid = float(np.max(np.abs(nav.coordinates.vector - target) / per_coord))
        if resid > 1e3 * NEWTON_TOL:
            raise ModuliError(f"Newton did not converge (residual {resid:.3e})")
        return nav


@dataclass
class FDResult:
    value: object      # Richardson-extrapolated derivative
    coarse: object     # central difference at eps
    fine: object       # central difference at eps/2
    gap: float         # |fine - coarse| consistency gap (shrinks ~4x per halving)
    eps: float         # the coarse step


class FDEngine:
    """Central differences with one Richardson level in chart coordinates.

    Perturbed builds are cached by (coordinate, offset) as their Geometry;
    functionals are callables geo -> scalar or ndarray so several oracles
    can share the same builds. `prefetch` evaluates functionals at the
    points of several coordinates at once, spread over the CPUs by
    fan_out; `derivative` reads the values it stored.
    """

    def __init__(self, nav):
        self.nav = nav
        self._cache = {}
        self._move_cache = {}
        self._values = {}   # (functional, (index, offset)) -> value

    def coord_index(self, name):
        return lookup_coordinate(self.nav.curve.spec, self.nav.geo.genus, name)[0]

    def eps_for(self, index):
        z = self.nav.coordinates.vector[index]
        eps = FD_EPS_REL * max(1.0, abs(z))
        move = self._branch_move_factor(index)
        if move > 0:
            curve = self.nav.curve
            sep = sf._min_pairwise(curve.branch_points)
            eps = min(eps, 0.02 * sep / move)
        return eps

    def _branch_move_factor(self, index):
        """Predicted branch-point displacement per unit step of coordinate
        `index`, from the chart Jacobian and the root sensitivities of the
        discriminant (caps eps on stiff instances)."""
        if index in self._move_cache:
            return self._move_cache[index]
        curve = self.nav.curve
        jac = self.nav.jacobian
        e_i = np.zeros(jac.shape[0], dtype=complex)
        e_i[index] = 1.0
        dcoef, _ = nm.solve_dense(jac, e_i)
        layout = coefficient_layout(curve.spec)
        dP = np.zeros(1, dtype=complex)
        for (ell, i), dc in zip(layout, dcoef):
            if ell == 1:
                mono = np.zeros(i + 1, dtype=complex)
                mono[i] = dc
                dP = nm.polyadd(dP, 2.0 * nm.polymul(curve.N1, mono))
            elif ell == 2:
                mono = np.zeros(i + 1, dtype=complex)
                mono[i] = -4.0 * dc
                dP = nm.polyadd(dP, mono)
        pprime = nm.polyder(curve.P)
        moves = np.abs(nm.polyval(dP, curve.branch_points)
                       / nm.polyval(pprime, curve.branch_points))
        self._move_cache[index] = float(np.max(moves))
        return self._move_cache[index]

    def build(self, index, offset):
        key = (index, complex(offset))
        if key not in self._cache:
            target = self.nav.coordinates.vector.copy()
            target[index] += offset
            self._cache[key] = self.nav.step_to(target).geo
        return self._cache[key]

    def prefetch(self, functionals, names, lead=None):
        """Evaluate functionals at the four points (+-eps, +-eps/2) of each
        coordinate name, the points shared among the CPUs by fan_out, and
        store the values for `derivative`. functionals is one list for every
        name, or a dict of lists by name. At each point they run in order,
        as `derivative` would run them; values a point could not give (its
        build or a functional raised) stay unstored, so `derivative` raises
        the same error where a one-process run would. lead, a callable of
        no arguments, runs here while the points are computed (fan_out);
        prefetch returns its value.

        A templated build carries the anchors of a base contour only where
        they exist (SpectralCurve._carried_anchors), so the anchors of
        every basis cycle are made before any point starts: the values do
        not depend on what lead or earlier work has run. A path that a
        functional carries is anchored by surface.carry_path itself."""
        by_name = functionals if isinstance(functionals, dict) else dict.fromkeys(
            names, functionals)
        points = {}
        for name in names:
            index = self.coord_index(name)
            eps = self.eps_for(index)
            for offset in (eps, -eps, eps / 2.0, -eps / 2.0):
                key = (index, complex(offset))
                if any((f, key) not in self._values for f in by_name[name]):
                    points.setdefault(key, by_name[name])
        for cycle in self.nav.geo.basis.cycles:
            self.nav.curve.anchors(cycle)
        done, led = fan_out(lambda item: self._evaluate(*item), points.items(), lead)
        for (key, fns), values in zip(points.items(), done):
            self._values.update(((f, key), v) for f, v in zip(fns, values))
        return led

    def _evaluate(self, key, functionals):
        """The functionals' values at one point, up to the first that
        raises."""
        values = []
        try:
            geo = self.build(*key)
            for f in functionals:
                values.append(f(geo))
        except Exception:  # derivative meets it again, and raises it
            pass
        return values

    def derivative(self, functional, name):
        index = self.coord_index(name)
        eps = self.eps_for(index)
        d1 = self._central(functional, index, eps)
        d2 = self._central(functional, index, eps / 2.0)
        value = (4.0 * d2 - d1) / 3.0
        gap = float(np.max(np.abs(np.asarray(d2) - np.asarray(d1))))
        return FDResult(value, d1, d2, gap, eps)

    def central(self, functional, name, eps):
        return self._central(functional, self.coord_index(name), eps)

    def _central(self, functional, index, eps):
        keys = [(index, complex(offset)) for offset in (eps, -eps)]
        builds = [None if (functional, key) in self._values else self.build(*key)
                  for key in keys]
        fp, fm = [self._values[(functional, key)] if geo is None else functional(geo)
                  for key, geo in zip(keys, builds)]
        return (np.asarray(fp) - np.asarray(fm)) / (2.0 * eps)


def fan_out(fn, items, lead=None):
    """([fn(x) for x in items], lead()), on every CPU this process may run
    on; lead is a callable of no arguments, or None.

    The indices of items[1:] go into a queue, a pipe whose write end is
    closed before any fork, and every worker takes one index at a time
    from it until it is empty. The workers are this process and W - 1
    forked children, where W is the CPU count of os.sched_getaffinity, at
    most one per item (one where sched_getaffinity, fork or the queue's
    pipe is missing). This process first computes items[0], then runs
    lead() while the children work, then takes from the queue as they do.
    A child sends its results back pickled through a pipe of its own and
    ends with os._exit. Children are forked, not spawned, because each
    must start from this process's state as it is, bit for bit. speclab
    starts no thread, but numpy's BLAS may keep a thread pool; a fork is
    safe only when the BLAS stops that pool before it, as numpy's bundled
    OpenBLAS does in its pthread_atfork handler (the process has one
    thread at the fork). A BLAS without such a handler, such as MKL, must
    run on one thread (MKL_NUM_THREADS=1).

    Each worker stops at its first item that raises. Every item a child
    did not deliver (it raised, the child died, its payload does not
    unpickle, or the queue could not hold its index) is computed here, and
    the first item in order that raises here raises, with its own
    traceback, as in [fn(x) for x in items]; lead's exception comes before
    any item's. On every exit but a return the queue is emptied first, so
    each child stops after its current item, and every child has been
    waited for when fan_out returns or raises.
    """
    items = list(items)
    has_cpus = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    workers = max(1, min(len(items), len(os.sched_getaffinity(0)) if has_cpus else 1))
    queue = _queue(range(1, len(items))) if workers > 1 else None
    children = []
    try:
        while queue is not None and len(children) < workers - 1:
            try:
                read, write = os.pipe()
            except OSError:  # no descriptor to spare: the queue is shared by fewer
                break
            try:
                pid = os.fork()
            except OSError:  # no process to spare: likewise
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _serve(fn, items, queue, [read] + [r for _, r in children], write)
            children.append((pid, read))
            os.close(write)
        results, failed = _share(fn, items, [0] if items else [])
        led = lead() if lead is not None else None
        if failed is None:
            taken = _taken(queue) if queue is not None else range(1, len(items))
            more, failed = _share(fn, items, taken)
            results.update(more)
        if queue is not None:
            _drain(queue)   # after a failure here: each child stops after its item
        for _, read in children:
            with os.fdopen(read, "rb", closefd=False) as fh:
                try:
                    results.update(pickle.load(fh))
                except Exception:  # died or unreadable: its items are computed below
                    pass
    finally:
        if queue is not None:
            _drain(queue)
            os.close(queue)
        for pid, read in children:
            os.close(read)   # a child still writing gets a broken pipe and exits
            os.waitpid(pid, 0)
    stop = failed[0] if failed else len(items)
    for i in range(stop):
        if i not in results:
            results[i] = fn(items[i])
    if failed:
        raise failed[1]
    return [results[i] for i in range(len(items))], led


_RECORD = 4       # bytes per queued index
_PIPE_BUF = 512   # POSIX's least PIPE_BUF: a write of at most this is whole or refused


def _queue(indices):
    """The read end of a pipe that holds indices, _RECORD bytes each, with
    its write end closed, so that a reader meets EOF once it is empty; None
    where no pipe can be made. Indices the pipe cannot hold are left out."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    data = b"".join(i.to_bytes(_RECORD, "little") for i in indices)
    os.set_blocking(write, False)
    try:
        for at in range(0, len(data), _PIPE_BUF):   # whole records only
            os.write(write, data[at:at + _PIPE_BUF])
    except BlockingIOError:  # full: the rest are computed after the queue
        pass
    finally:
        os.close(write)
    return read


def _taken(queue):
    """Indices taken from the queue, one read each, until it is empty."""
    while len(record := os.read(queue, _RECORD)) == _RECORD:
        yield int.from_bytes(record, "little")


def _drain(queue):
    """Empty the queue: a worker that reads it next meets EOF."""
    while os.read(queue, _PIPE_BUF):
        pass


def _share(fn, items, indices):
    """{index: fn(item)} over indices up to the first that raises, and that
    (index, exception) or None."""
    results = {}
    for i in indices:
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _serve(fn, items, queue, reads, write):
    """A forked worker: the items it takes from the queue, computed and
    sent through its pipe, then exit, never returning into the parent's
    code. It first closes the result read ends it inherited, its own and
    the earlier children's, so that once the parent closes a read end its
    writer gets a broken pipe."""
    code = 1
    try:
        for read in reads:
            os.close(read)
        results, _ = _share(fn, items, _taken(queue))
        with os.fdopen(write, "wb") as fh:
            pickle.dump(results, fh)
        code = 0
    finally:
        os._exit(code)
