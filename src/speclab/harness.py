"""Suite orchestration: named checks, JSON reports, convergence sweeps.

Each suite runs a set of named checks at the tolerances pinned by the
acceptance criteria; a check compares a formula value against an oracle
value (finite differences, independent quadrature, closed forms, or an
internal identity) and records absolute/relative error. Gating checks
decide the report's pass flag; exploratory checks are reported but do not
gate. Everything is deterministic: instances are data, evaluation points
are derived from the instance geometry, and there is no seeding anywhere.
"""

from __future__ import annotations

import json
import math
import platform
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from . import moduli
from . import numerics as nm
from . import surface as sf
from . import variations as vr
from .differentials import Geometry
from .instances import counts_of, load_instance
from .theta import HalfCharacteristic

EVAL_MIN_DIST = 0.3  # least distance of an evaluation point to a singular point


class HarnessError(RuntimeError):
    pass


@dataclass
class CheckResult:
    name: str
    paper_eq: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    gating: bool = True
    wall_time: float = 0.0
    absolute: bool = False
    error: str | None = None  # the exception a suite body raised, for its record
    fd_step: float | None = None  # a finite-difference check's coarse step
    fd_gap: float | None = None   # and its Richardson gap |fine - coarse|

    def as_dict(self):
        return {"name": self.name, "paper_eq": self.paper_eq,
                "lhs": [self.lhs.real, self.lhs.imag],
                "rhs": [self.rhs.real, self.rhs.imag],
                "abs_err": self.abs_err, "rel_err": self.rel_err,
                "tol": self.tol, "absolute": self.absolute, "pass": self.passed,
                "gating": self.gating, "wall_time": self.wall_time, "error": self.error,
                "fd_step": self.fd_step, "fd_gap": self.fd_gap}


@dataclass
class Report:
    instance: str
    suite: str
    checks: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.gating)

    @property
    def errored(self):
        return any(c.error for c in self.checks)

    def as_dict(self):
        return {"instance": self.instance, "suite": self.suite,
                "checks": [c.as_dict() for c in self.checks],
                "environment": self.environment, "pass": self.passed}

    def to_json(self):
        return json.dumps(self.as_dict(), indent=1)

    def summary_lines(self):
        out = []
        for c in self.checks:
            if c.error:
                out.append(f"[FAIL] {c.name}: {c.error}")
                continue
            flag = "PASS" if c.passed else "FAIL"
            extra = "" if c.gating else " (exploratory)"
            kind, err = ("abs", c.abs_err) if c.absolute else ("rel", c.rel_err)
            out.append(f"[{flag}] {c.name}: {kind} {err:.2e} "
                       f"(tol {c.tol:.0e}){extra}")
        out.append(("PASS" if self.passed else "FAIL") + f" {self.suite} on {self.instance}")
        return out


class Session:
    """Caches the expensive per-instance objects across suite checks."""

    def __init__(self, spec):
        self.spec = spec
        self.curve = sf.build_surface(spec)
        self.geo = Geometry(self.curve) if spec.n == 2 else None

    @cached_property
    def nav(self):
        return moduli.Navigator(self.geo)

    @cached_property
    def eng(self):
        return moduli.FDEngine(self.nav)

    def eval_points(self, count=2, start=0.11):
        """Deterministic evaluation points away from singular points."""
        curve = self.curve
        ctr = np.mean(curve.singular_points)
        rad = 1.6 * float(np.max(np.abs(curve.singular_points - ctr)))
        pts = []
        k = 0
        while len(pts) < count and k < 200:
            cand = ctr + rad * np.exp(2j * np.pi * (k * 0.37 + start)) \
                * (0.55 + 0.1 * ((k * 7) % 5) / 5)
            if float(np.min(np.abs(curve.singular_points - cand))) > EVAL_MIN_DIST:
                pts.append(curve.point(complex(cand), k % 2))
            k += 1
        if len(pts) < count:
            raise HarnessError("could not place evaluation points")
        return pts


class Checker:
    """Records checks into a report. Each record's wall time is the time
    since the previous record, or since the Checker was made."""

    def __init__(self, report):
        self.report = report
        self._mark = time.perf_counter()

    def _record(self, result):
        now = time.perf_counter()
        result.wall_time = now - self._mark
        self._mark = now
        self.report.checks.append(result)

    def add(self, name, paper_eq, got, want, tol, absolute=False, fd=None):
        """Compare two scalars, or two tensors entrywise with errors relative
        to the global scale, reporting the worst entry (tiny entries of a
        large tensor must not gate on their own relative error). fd is the
        (step, gap) of a finite-difference side, for the record."""
        got = np.atleast_1d(np.asarray(got, dtype=complex)).ravel()
        want = np.atleast_1d(np.asarray(want, dtype=complex)).ravel()
        errs = np.abs(got - want)
        i = int(np.argmax(errs))
        abs_err = float(errs[i])
        scale = float(max(np.max(np.abs(got)), np.max(np.abs(want))))
        rel_err = abs_err / scale if scale > 0 else abs_err
        err = abs_err if absolute else rel_err
        step, gap = fd or (None, None)
        self._record(CheckResult(
            name, paper_eq, complex(got[i]), complex(want[i]), abs_err, rel_err, tol,
            bool(err <= tol), absolute=absolute, fd_step=step, fd_gap=gap))

    def add_flag(self, name, paper_eq, ok, gating=True, detail=0.0):
        self._record(CheckResult(
            name, paper_eq, complex(detail), 0.0, float(abs(detail)),
            float(abs(detail)), 0.0, bool(ok), gating))

    def add_error(self, suite, exc):
        """A gating FAIL record for an exception raised in a suite body,
        named by the suite and the exception class."""
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}"
        self._record(CheckResult(
            f"{suite}-raised-{type(exc).__name__}", "error", 0j, 0j, 0.0, 0.0, 0.0,
            False, error=f"{type(exc).__name__} at {where}: {exc}"))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_surface(ses, chk):
    curve, geo = ses.curve, ses.geo
    counts = counts_of(ses.spec)
    chk.add_flag("branch-count", "2.3", len(curve.branch_points) == counts.p)
    chk.add_flag("zero-count", "2.5", len(curve.zeros) == counts.r)
    chk.add_flag("coordinate-count", "2.7/2.8",
                 len(moduli.coordinate_names(ses.spec, counts.genus)) == counts.dim)
    chk.add_flag("genericity", "section-4-simple-branch", curve.genericity.ok)
    perm = curve.monodromy_product()
    chk.add_flag("monodromy-product-identity", "2.1",
                 perm == tuple(range(curve.n)))
    m = sf.intersection_matrix(curve, geo.basis)
    g = geo.genus
    chk.add_flag("intersection-matrix-canonical", "3.2/3.4",
                 np.array_equal(m, sf.canonical_intersection(g)))
    om = geo.period.omega
    chk.add("period-matrix-symmetric", "Riemann-relations",
            om, om.T, 1e-10, absolute=True)
    im_min = float(np.min(np.linalg.eigvalsh(om.imag)))
    chk.add_flag("Im-period-matrix-positive", "Riemann-relations", im_min > 0,
                 detail=im_min)
    norm = np.array([curve.integrate_stack(geo.period.V, c).value
                     for c in geo.basis.a_cycles])
    chk.add("a-normalization", "2.10", norm, np.eye(g), 1e-10, absolute=True)
    chk.add("residue-sum", "2.9", moduli.residue_sum(curve), 0.0, 1e-10, absolute=True)
    chk.add("period-matrix-thomae", "Thomae-formula", *_thomae_sides(geo), 1e-11,
            absolute=True)


def _thomae_sides(geo):
    """Both sides of Thomae's formula on the hyperelliptic cover, matched.

    theta[eta](0)^8 for every even eta against the squared products
    prod_{i<j in T} (e_i - e_j) prod_{i<j in T'} (e_i - e_j) over the splits
    T | T' of the 2g + 2 branch points into halves (Mumford, Tata Lectures
    on Theta II, IIIa.8), padded with zeros for the even theta constants a
    hyperelliptic curve forces to vanish. Each side is divided by its
    largest entry, which removes the common constant; a symplectic change
    of basis only permutes the characteristics. The sides are paired
    greedily in increasing distance, so the worst pair can only over-report
    that of the best bijection."""
    g = geo.genus
    chars = [c for c in HalfCharacteristic.enumerate(g) if not c.parity_odd]
    z0 = np.zeros((1, g), dtype=complex)
    got = np.array([geo.period.theta.value(z0, c)[0] for c in chars]) ** 8
    e = geo.curve.branch_points

    def vandermonde(half):
        return np.prod([e[i] - e[j] for i, j in combinations(half, 2)])

    want = np.zeros(len(chars), dtype=complex)  # entries past the splits are the padding
    for k, rest in enumerate(combinations(range(1, 2 * g + 2), g)):
        other = [i for i in range(1, 2 * g + 2) if i not in rest]
        want[k] = (vandermonde((0, *rest)) * vandermonde(other)) ** 2
    got, want = (v / v[np.argmax(np.abs(v))] for v in (got, want))
    match = dict(nm.greedy_pairs(np.abs(got[:, None] - want[None, :])))
    return got, want[[match[i] for i in range(len(got))]]


def suite_dm_cubic(ses, chk):
    curve, geo = ses.curve, ses.geo
    eng = ses.eng
    g = geo.genus
    pts = ses.eval_points(5, start=0.07)

    def v_at(gg):
        c = gg.curve
        return np.array([c.phi(np.array([p.x]), np.array([c.carry(p).w]))[0]
                         for p in pts])

    paths, targets = sf.zero_paths(curve)
    bpairs = [(p, i) for p, i in zip(paths, targets) if curve.zeros[i].is_branch]

    def branch_ints(gg):
        c = gg.curve
        return np.array([c.integrate_v(sf.carry_path(c, pth, c.zeros[i].x)).value
                         for pth, i in bpairs])

    def omega_of(gg):
        return gg.period.omega

    def formula_side():
        want_v, want_l, tensors = {}, {}, {}
        directions = vr.all_directions(geo)
        for name, h in directions.items():
            want_v[name] = np.array([h(np.array([p.x]), np.array([p.w]))[0] for p in pts])
            want_l[name] = np.array([curve.integrate(h, pth).value
                                     + vr.endpoint_correction(geo, h, i)
                                     for pth, i in bpairs])
            tensors[name] = vr.vary_period_matrix(geo, h)
        gap = max(vr.period_matrix_forms(geo, h)[1] for h in directions.values())
        return directions, want_v, want_l, tensors, gap

    names = moduli.coordinate_names(ses.spec, g)
    directions, want_v, want_l, tensors, gap = eng.prefetch(
        [v_at, branch_ints, omega_of], names, lead=formula_side)
    for name in names:
        fd_v = eng.derivative(v_at, name)
        chk.add(f"dv/d{name}", "2.14-2.16", fd_v.value, want_v[name], 1e-5,
                fd=(fd_v.eps, fd_v.gap))
        fd_l = eng.derivative(branch_ints, name)
        chk.add(f"branch-integral/d{name}", "4.2-bpA-bpC2", fd_l.value, want_l[name],
                1e-5, fd=(fd_l.eps, fd_l.gap))
        fd_o = eng.derivative(omega_of, name)
        chk.add(f"dOmega/d{name}", "4.1-Oh1-Oh2", tensors[name], fd_o.value, 1e-5,
                fd=(fd_o.eps, fd_o.gap))
    # the worst disagreement of the two forms over the directions, relative
    # to each tensor's scale; vary_period_matrix raises past the same tolerance
    chk.add("Oh1-Oh2-internal-agreement", "4.1-Oh1=Oh2", gap, 0.0, vr.FORM_AGREE_TOL,
            absolute=True)
    if g >= 2:
        T = np.stack([tensors[f"A{a + 1}"] for a in range(g)], axis=2)
        sym = max(float(np.max(np.abs(T - np.transpose(T, (1, 0, 2))))),
                  float(np.max(np.abs(T - np.transpose(T, (2, 1, 0))))),
                  float(np.max(np.abs(T - np.transpose(T, (0, 2, 1))))))
        chk.add("dm-cubic-index-symmetry", "4.1/Oh2-symmetric", sym, 0.0,
                1e-9 * max(1.0, float(np.max(np.abs(T)))), absolute=True)
    coords = ses.nav.coordinates
    euler = np.zeros((g, g), dtype=complex)
    for name, z in zip(coords.names, coords.vector):
        euler += z * tensors[name]
    scale = max(1.0, float(np.max(np.abs(tensors["A1"]))))
    chk.add("euler-scaling-identity", "5.2.1-rescaling",
            euler / scale, np.zeros((g, g)), 1e-8, absolute=True)
    # base-coordinate reparametrization invariance of the endpoint factor
    h0 = next(iter(directions.values()))
    f_old = geo.branch.endpoint_factor(0, h0)
    f_new = _endpoint_factor_reparam(curve, h0, 0)
    chk.add("endpoint-correction-reparametrization", "4.2-invariance", f_new, f_old, 1e-8)


def _endpoint_factor_reparam(curve, h, i):
    """h/d log(v/d chi) at branch point i in the chart chi = 2 zeta + zeta^3."""
    b = complex(curve.branch_points[i])
    rho = math.sqrt(0.15 * curve.singular_distance(b))
    chat = nm.circle_points(rho, 256)
    chi = chat ** 2
    zeta = chi / 2.0
    for _ in range(60):
        zeta = zeta - (2 * zeta + zeta ** 3 - chi) / (2 + 3 * zeta ** 2)
    x = b + zeta
    w0 = curve.sqrtP(np.array([x[0]]))[0]
    w = curve.track_w(np.append(x, x[0]), w0)[:-1]
    dzeta_dchi = 1.0 / (2.0 + 3.0 * zeta ** 2)
    g_samples = h(x, w) * dzeta_dchi * 2.0 * chat
    y_samples = curve.phi(x, w) * dzeta_dchi
    c, _ = nm.laurent_window(np.stack([g_samples, y_samples]), rho, [0, 1])
    return c[0, 0] * c[1, 0] / c[1, 1]


def suite_kernels(ses, chk):
    geo = ses.geo
    eng = ses.eng
    p1, p2, p3 = ses.eval_points(3, start=0.11)
    configs = [(p1, p2), (p2, p3), (p1, p3)]

    def valpha_at(gg, p=p1):
        return gg.period.V(np.array([p.x]), np.array([gg.curve.carry(p).w]))[0]

    def B_at(qa, qb):
        return lambda gg: gg.kernels.bhat_point(gg.curve.carry(qa), gg.curve.carry(qb))

    B_ats = [B_at(qa, qb) for qa, qb in configs]
    names = _kernel_directions(ses)

    def formula_side():
        formulas = {}
        for name in names:
            h = vr.direction_differential(geo, name)
            got = vr.vary_valpha(geo, h, p1)
            gotB = [vr.vary_bidifferential(geo, h, qa, qb) for qa, qb in configs]
            sym = abs(vr.vary_bidifferential(geo, h, p1, p2)
                      - vr.vary_bidifferential(geo, h, p2, p1))
            formulas[name] = got, gotB, sym
        _klein_gate(ses, chk)
        return formulas

    formulas = eng.prefetch([valpha_at, *B_ats], names, lead=formula_side)
    for name in names:
        got, gotB, sym = formulas[name]
        fd = eng.derivative(valpha_at, name)
        chk.add(f"dv_alpha/d{name}", "4.3-va1", got, fd.value, 1e-4, fd=(fd.eps, fd.gap))
        for ci, B_ci in enumerate(B_ats):
            fdB = eng.derivative(B_ci, name)
            chk.add(f"dB/d{name}[cfg{ci}]", "4.4-B1", gotB[ci], fdB.value, 1e-4,
                    fd=(fdB.eps, fdB.gap))
        chk.add(f"dB-symmetry/{name}", "4.4-B1-symmetric", sym, 0.0, 1e-8, absolute=True)


def _kernel_directions(ses):
    """Every A direction, then the first second-kind and the first
    third-kind C direction that the chart has."""
    g = ses.geo.genus
    chart = list(zip(moduli.coordinate_names(ses.spec, g),
                     moduli.coordinate_keys(ses.spec, g)))
    names = [n for n, key in chart if key[0] == "A"]
    for third in (False, True):
        names += [n for n, key in chart if key[0] == "C" and (key[3] == 1) == third][:1]
    return names


def suite_prime_form(ses, chk):
    curve, geo = ses.curve, ses.geo
    eng = ses.eng
    p1, p2, p3 = ses.eval_points(3, start=0.23)
    pairs = [(p1, p2), (p2, p3), (p1, p3)]

    def lnE_at(qa, qb):
        return lambda gg: np.log(gg.kernels.prime_form(gg.curve.carry(qa),
                                                       gg.curve.carry(qb)))

    lnE_ats = [lnE_at(qa, qb) for qa, qb in pairs]
    names = _kernel_directions(ses)[: ses.geo.genus + 1]

    def formula_side():
        kern = geo.kernels
        E12 = kern.prime_form(p1, p2)
        E21 = kern.prime_form(p2, p1)
        chk.add("prime-form-antisymmetry", "odd-theta-parity", E12, -E21, 1e-9)
        eps = 1e-5
        En = kern.prime_form(p1, curve.point(p1.x + eps, p1.sheet))
        chk.add("prime-form-diagonal-slope", "prime-form-definition", En / eps, 1.0, 1e-7)
        # d_x d_y ln E = B at the three pairs: the y-derivative is taken in
        # the theta-gradient form (the half-density drops), the x-derivative
        # by Richardson central differences
        for ci, (qa, qb) in enumerate(pairs):
            fd = _dx_dylnE(geo, qa, qb, 2e-4)
            fd2 = _dx_dylnE(geo, qa, qb, 1e-4)
            fd_r = (4 * fd2 - fd) / 3.0
            chk.add(f"dxdy-lnE-vs-B[{ci}]", "3.x-B=ddlnE", fd_r,
                    kern.bhat_point(qa, qb), 1e-8, fd=(2e-4, abs(fd2 - fd)))
        got = {}
        for name in names:
            h = vr.direction_differential(geo, name)
            got[name] = [vr.vary_log_prime_form(geo, h, qa, qb) for qa, qb in pairs]
        return got

    got = eng.prefetch(lnE_ats, names, lead=formula_side)
    for name in names:
        for ci, lnE_ci in enumerate(lnE_ats):
            fdE = eng.derivative(lnE_ci, name)
            chk.add(f"dlnE/d{name}[cfg{ci}]", "4.5-E1", got[name][ci], fdE.value, 1e-4,
                    fd=(fdE.eps, fdE.gap))


def _dx_dylnE(geo, qa, qb, h):
    """d/dx of the exact y-derivative of ln E (theta-gradient form)."""

    def dy_lnE(ra):
        A1 = geo.abel.at(ra.x, ra.w)
        A2 = geo.abel.at(qb.x, qb.w)
        e = geo.period.theta.eval((A2 - A1)[None, :], geo.period.odd_char, derivs=1)
        V2 = geo.period.V(np.array([qb.x]), np.array([qb.w]))[0]
        return complex((e["grad"][0] / e["val"][0]) @ V2)

    vp = dy_lnE(geo.curve.point(qa.x + h, qa.sheet))
    vm = dy_lnE(geo.curve.point(qa.x - h, qa.sheet))
    return (vp - vm) / (2 * h)


def suite_tau(ses, chk):
    geo = ses.geo
    g = geo.genus

    def formula_side():
        oracle = vr.tau_gradient_oracle(geo)
        for gamma in range(g):
            f = vr.tau_gradient(geo, gamma)
            chk.add(f"tau-gradient-A{gamma + 1}", "4.6-dertauA-vs-deftau", f,
                    oracle[gamma], 1e-4)
        _klein_gate(ses, chk)

    def tau_vec(gg):
        return np.array([vr.tau_gradient(gg, a) for a in range(g)])

    eng = ses.eng
    names = [f"A{delta + 1}" for delta in range(g)]
    eng.prefetch([tau_vec], names, lead=formula_side)
    cross = np.zeros((g, g), dtype=complex)
    steps, gaps = [], []
    for delta, name in enumerate(names):
        fd = eng.derivative(tau_vec, name)
        cross[:, delta] = fd.value
        steps.append(fd.eps)
        gaps.append(fd.gap)
    chk.add("tau-cross-partials-symmetric", "4.6-dertauA", cross, cross.T, 1e-4,
            fd=(max(steps), max(gaps)))


def _klein_gate(ses, chk):
    """Klein's B against theta's at the three pairs of eval_points(3). Every
    formula that reads B reads Klein's, and the tau formula and its oracle
    both read kappa: theta's B checks it without reading it."""
    geo = ses.geo
    pairs = list(combinations(ses.eval_points(3), 2))
    x, w, y, v = np.array([[p.x, p.w, q.x, q.w] for p, q in pairs], dtype=complex).T
    chk.add("bidifferential-klein-vs-theta", "Klein-bidifferential",
            geo.kernels.klein(x, w, y, v),
            [geo.kernels.bhat_point(p, q) for p, q in pairs], 1e-10)


def suite_hessian(ses, chk):
    geo = ses.geo
    eng = ses.eng
    g = geo.genus

    def grad(c):
        return lambda gg: vr.vary_period_matrix(gg, vr.direction_differential(gg, f"A{c + 1}"))

    def b_periods(gg):
        return gg.period.B_of_v

    idx = [(0, 0, 0, 0)] if g == 1 else [(0, 1, 1, 0), (0, 0, 0, 1)]

    def formula_side():
        hess = [vr.period_hessian(geo, a, b, c, d) for a, b, c, d in idx]
        if g == 1:
            return hess, None
        vals = np.array([vr.period_hessian(geo, *p)
                         for p in sorted(set(permutations((0, 0, 1, 1))))])
        return hess, float(np.max(np.abs(vals - vals[0]))) / max(1.0, abs(vals[0]))

    grads = [grad(c) for _, _, c, _ in idx]
    names = [f"A{alpha + 1}" for alpha in range(g)]
    # each A direction with the gradients differentiated along it only
    hess, spread = eng.prefetch(
        {name: [grad_c for (_, _, _, d), grad_c in zip(idx, grads) if d == alpha]
         + [b_periods] for alpha, name in enumerate(names)}, names, lead=formula_side)
    for (a, b, c, d), H, grad_c in zip(idx, hess, grads):
        fd = eng.derivative(grad_c, f"A{d + 1}")
        chk.add(f"hessian-Omega[{a}{b}]-A{c + 1}A{d + 1}", "5.1-doubO",
                H, fd.value[a, b], 5e-4, fd=(fd.eps, fd.gap))
    if g >= 2:
        chk.add("hessian-24-fold-symmetry", "5.1-symmetric", spread, 0.0, 1e-8,
                absolute=True)
    for alpha, name in enumerate(names):
        fdB = eng.derivative(b_periods, name)
        chk.add(f"dB-periods/dA{alpha + 1}-vs-Omega", "5.2.1-OF",
                fdB.value, geo.period.omega[alpha], 1e-5, fd=(fdB.eps, fdB.gap))


def suite_hierarchy(ses, chk):
    curve, geo = ses.curve, ses.geo
    eng = ses.eng
    pts = ses.eval_points(4, start=0.31)
    p1, p2 = pts[:2]

    def formula_side():
        # Q3 full symmetry
        base = vr.q_multidiff(geo, pts[:3])
        worst = 0.0
        for perm in permutations(range(3)):
            v = vr.q_multidiff(geo, [pts[i] for i in perm])
            worst = max(worst, abs(v - base) / max(1e-300, abs(base)))
        chk.add("Q3-full-symmetry", "multtau-symmetric", worst, 0.0, 1e-9, absolute=True)
        # Q4 cycle count
        chk.add_flag("Q4-cycle-count", "multtau-cycles",
                     len(vr._cycles(4)) == 3, detail=len(vr._cycles(4)))
        # R identities
        r2 = vr.r_multidiff(geo, pts[:2])
        b12 = geo.kernels.bhat_point(pts[0], pts[1])
        chk.add("R2-equals-B", "multB-R2", r2, b12, 1e-10)
        r3 = vr.r_multidiff(geo, pts[:3])
        b1 = geo.kernels.bhat_point(pts[0], pts[1])
        b2 = geo.kernels.bhat_point(pts[1], pts[2])
        vmid = curve.phi(np.array([pts[1].x]), np.array([pts[1].w]))[0]
        chk.add("R3-equals-BB-over-v", "multB-R3", r3, b1 * b2 / vmid, 1e-10)
        # R_n^{ab} consistency with its definition at n=2
        rab = vr.r_ab(geo, 0, 0, pts[:2])
        va = geo.period.V(np.array([pts[0].x]), np.array([pts[0].w]))[0][0]
        vb = geo.period.V(np.array([pts[1].x]), np.array([pts[1].w]))[0][0]
        v1 = curve.phi(np.array([pts[0].x]), np.array([pts[0].w]))[0]
        v2 = curve.phi(np.array([pts[1].x]), np.array([pts[1].w]))[0]
        chk.add("Rab-n2-definition", "Rnab", rab, va * vb * b12 / (v1 * v2), 1e-10)
        # variation of Q2 vs FD
        return vr.hierarchy_variation(geo, 0, [p1, p2], "Q")

    def q2_at(gg):
        return _q2_theta(gg, p1, p2)

    got = eng.prefetch([q2_at], ["A1"], lead=formula_side)
    fd = eng.derivative(q2_at, "A1")
    chk.add("dQ2/dA1-vs-FD", "varW1", got, fd.value, 1e-4, fd=(fd.eps, fd.gap))
    # R-variation at n=2 reduces to the bidifferential variation
    h = vr.direction_differential(geo, "A1")
    gotR = vr.hierarchy_variation(geo, 0, [p1, p2], "R")
    gotB = vr.vary_bidifferential(geo, h, p1, p2)
    chk.add("dR2-reduces-to-dB", "varRn-vs-B1", gotR, gotB, 1e-10)
    # symmetry of the Q-variation in the arguments
    gotQ21 = vr.hierarchy_variation(geo, 0, [p2, p1], "Q")
    chk.add("dQ2-argument-symmetry", "varW1-symmetric", got, gotQ21, 1e-8)


def _q2_theta(gg, p1, p2):
    """Q_2 = B^2/(v v) (q_multidiff) through theta's B at two points carried
    to gg's cover: the FD functional of the Q_2 variation, which reads
    Klein's."""
    q1, q2 = gg.curve.carry(p1), gg.curve.carry(p2)
    v = gg.curve.phi(np.array([q1.x, q2.x]), np.array([q1.w, q2.w]))
    return gg.kernels.bhat_point(q1, q2) ** 2 / (v[0] * v[1])


def suite_scaling(ses, chk):
    geo = ses.geo
    lam = 0.83 - 0.41j
    geo2 = Geometry(sf.build_surface(moduli.scaled_spec(ses.spec, lam), template=ses.curve))
    coords2 = moduli.Navigator(geo2).coordinates
    coords = ses.nav.coordinates
    chk.add("coordinates-scale-linearly", "2.8",
            coords2.vector, lam * coords.vector, 1e-9)
    chk.add("period-matrix-scale-invariant", "5.2.1-rescaling",
            geo2.period.omega, geo.period.omega, 1e-9)
    p1, p2 = ses.eval_points(2, start=0.41)
    chk.add("bidifferential-scale-invariant", "5.2.1-rescaling",
            geo2.kernels.bhat_point(geo2.curve.carry(p1), geo2.curve.carry(p2)),
            geo.kernels.bhat_point(p1, p2),
            1e-9)


def suite_n3_smoke(ses, chk):
    """Exploratory generic-n build: counts and monodromy only."""
    curve = ses.curve
    counts = counts_of(ses.spec)
    chk.add_flag("n3-branch-count", "2.3", len(curve.branch_points) == counts.p,
                 gating=False)
    perm = curve.monodromy_product()
    chk.add_flag("n3-monodromy-product", "2.1", perm == tuple(range(curve.n)),
                 gating=False, detail=0.0)


SUITE_FUNCS = {  # in the order `all` runs them
    "surface": suite_surface,
    "dm-cubic": suite_dm_cubic,
    "kernels": suite_kernels,
    "prime-form": suite_prime_form,
    "hierarchy": suite_hierarchy,
    "hessian": suite_hessian,
    "scaling": suite_scaling,
    "tau": suite_tau,
}
SUITES = (*SUITE_FUNCS, "all")


def run_suite(instance, suite):
    """Execute a named suite on an instance (label, path, or InstanceSpec).

    `all` runs every suite of SUITE_FUNCS in order, tau only on a
    residue-free cover. Bad arguments raise HarnessError before any suite
    runs; an exception inside a suite body becomes a gating FAIL record
    (Checker.add_error), and `all` goes on with the next suite."""
    if suite not in SUITES:
        raise HarnessError(f"unknown suite {suite!r}; valid: {', '.join(SUITES)}")
    spec = instance if hasattr(instance, "numer") else load_instance(instance)
    if spec.n != 2 and suite not in ("surface", "all"):
        raise HarnessError(f"suite {suite!r} needs an n = 2 instance; on n = {spec.n} "
                           "only 'surface' and 'all' run, as exploratory checks")
    report = Report(spec.label, suite, environment={
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__})
    chk = Checker(report)  # before the Session, so the first record holds its build
    ses = Session(spec)
    if spec.n != 2:
        runs = {"n3-smoke": suite_n3_smoke}
    elif suite == "all":
        runs = {name: run for name, run in SUITE_FUNCS.items()
                if name != "tau" or vr.is_residue_free(ses.curve)}
    elif suite == "tau" and not vr.is_residue_free(ses.curve):
        raise HarnessError("tau suite requires a residue-free instance with "
                           "all pole orders >= 2 (use 'g2-resfree')")
    else:
        runs = {suite: SUITE_FUNCS[suite]}
    for name, run in runs.items():
        try:
            run(ses, chk)
        except Exception as exc:  # a FAIL record; the next suite still runs
            chk.add_error(name, exc)
    return report


# ---------------------------------------------------------------------------
# epsilon sweeps
# ---------------------------------------------------------------------------

SWEEP_FUNCTIONALS = ("omega", "q2", "b-periods")


def sweep_epsilon(instance, functional, coord, eps_list):
    """Rows (eps, |FD|, |FD - formula|) for raw central differences.

    The error column should shrink ~4x per halving until the Newton noise
    floor; a `floor` flag marks rows where the decrease stalls.
    """
    if not eps_list:
        raise HarnessError("empty epsilon list")
    for eps in eps_list:
        if not (math.isfinite(eps) and eps > 0):
            raise HarnessError(f"every eps must be positive and finite, got {eps!r}")
    spec = instance if hasattr(instance, "numer") else load_instance(instance)
    if spec.n != 2:
        raise HarnessError(f"sweeps need an n = 2 instance, not n = {spec.n}")
    ses = Session(spec)
    geo = ses.geo
    key = moduli.lookup_coordinate(spec, geo.genus, coord)[1]
    if functional in ("b-periods", "q2") and key[0] != "A":
        raise HarnessError(f"the {functional} sweep needs an A coordinate, not {coord!r}")
    eng = ses.eng
    if functional == "omega":
        formula = vr.vary_period_matrix(geo, vr.direction_differential(geo, coord))
        fn = lambda g: g.period.omega
        pick = lambda m: np.asarray(m).ravel()[0]
    elif functional == "b-periods":
        formula = geo.period.omega[key[1]]
        fn = lambda g: g.period.B_of_v
        pick = lambda m: np.asarray(m).ravel()[0]
    elif functional == "q2":
        pts = ses.eval_points(2, start=0.31)
        formula = vr.hierarchy_variation(geo, key[1], pts, "Q")

        def fn(g, pts=pts):
            return _q2_theta(g, *pts)

        pick = lambda m: complex(np.asarray(m).ravel()[0])
    else:
        raise HarnessError(f"unknown functional {functional!r}; "
                           f"valid: {', '.join(SWEEP_FUNCTIONALS)}")
    formula0 = pick(formula)
    rows = []
    prev_err = None
    for eps in eps_list:
        fd = pick(eng.central(fn, coord, eps))
        err = abs(fd - formula0)
        ratio = (prev_err / err) if (prev_err is not None and err > 0) else float("nan")
        floor = bool(prev_err is not None and err > 0.45 * prev_err)
        rows.append({"eps": eps, "fd": fd, "abs_err": err, "ratio": ratio,
                     "floor": floor})
        prev_err = err
    return rows


def sweep_to_csv(rows):
    lines = ["eps,fd_re,fd_im,abs_err,ratio,floor"]
    for r in rows:
        lines.append("%.12g,%.15g,%.15g,%.6e,%.4f,%d" % (
            r["eps"], r["fd"].real, r["fd"].imag, r["abs_err"], r["ratio"],
            int(r["floor"])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------

def describe(instance, dump_contours=False):
    spec = instance if hasattr(instance, "numer") else load_instance(instance)
    counts = counts_of(spec)
    out = {"label": spec.label, "n": spec.n,
           "poles": [{"x": [p.x.real, p.x.imag], "k": p.k} for p in spec.poles],
           "counts": counts.as_dict()}
    curve = sf.build_surface(spec)
    out["branch_points"] = [[b.real, b.imag] for b in curve.branch_points]
    out["monodromies"] = [list(curve.monodromy(i))
                          for i in range(len(curve.branch_points))]
    out["genericity"] = {"ok": curve.genericity.ok,
                         "margins": {k: float(v) for k, v in
                                     curve.genericity.margins.items()},
                         "issues": [i.message for i in curve.genericity.issues]}
    if spec.n == 2:
        out["zeros_of_v"] = [[z.x.real, z.x.imag, z.sheet]
                             for z in curve.zeros_d0]
        out["distinguished_zero"] = [curve.x_r.x.real, curve.x_r.x.imag]
        if dump_contours:
            basis = sf.homology_basis(curve)
            def poly(c):
                z = c.polyline(per_segment=32)
                return [[p.real, p.imag] for p in z]
            out["homology"] = {
                "a": [poly(c) for c in basis.a_cycles],
                "b": [poly(c) for c in basis.b_cycles]}
    return out
