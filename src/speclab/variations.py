"""Variational residue formulas on the moduli of spectral covers.

Every first-order formula has the shape

    d(target)/d(coordinate) = - sum over branch points  c_i(h) * res_i(K)

where h is the direction differential attached to the coordinate (the
normalized holomorphic / second-kind / third-kind differential), c_i(h) is
the endpoint factor h / d log(v/dx) at the branch point, and K is the
target's kernel. `BranchData.residue_sum` evaluates that sum once for every
formula: each residue is the c_{-1} Laurent coefficient of the kernel
sampled on a branch-frame circle in the double-cover parameter
(`numerics.laurent_window`). The period-matrix variation is computed in
both of its algebraically equal forms and cross-checked; the tau gradient
carries the extra sum over all zeros of v; the second-derivative formula
for the period matrix is assembled from the branch jets.

Derivatives are understood with the base coordinate of every evaluation
point held fixed; for the multi-differential hierarchy this convention adds
argument-transport terms -(target) * sum (v_dir/v)(z_k) on top of the
residue sum (at two points the R-hierarchy has none, and its variation
reduces exactly to the bidifferential formula).
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from . import moduli
from . import numerics as nm
from . import surface as sf
from .differentials import (EVAL_SCALE, K_EVAL, K_FRAME, M_JET, ContourField,
                            holomorphic_unit, second_kind, third_kind,
                            third_kind_between)


class VariationError(RuntimeError):
    pass


TWO_PI_I = 2j * math.pi
FORM_AGREE_TOL = 1e-9


def _differential(geo, key):
    if key[0] == "A":
        return holomorphic_unit(geo.period, key[1])
    _, j, s, ell = key
    if ell >= 2:
        return second_kind(geo.period, j, s, ell)
    return third_kind(geo.period, j, s)


def direction_differential(geo, name):
    """Evaluator (x, w) -> h/dx of the differential h dual to a coordinate."""
    return _differential(geo, moduli.lookup_coordinate(geo.curve.spec, geo.genus, name)[1])


def all_directions(geo):
    """{name: direction evaluator} in chart order."""
    spec = geo.curve.spec
    return {name: _differential(geo, key) for name, key in
            zip(moduli.coordinate_names(spec, geo.genus),
                moduli.coordinate_keys(spec, geo.genus))}


# ---------------------------------------------------------------------------
# branch-frame machinery shared by the formulas
# ---------------------------------------------------------------------------

def _residue(vals, rho):
    """c_{-1} of samples on |eta| = rho along the last axis."""
    return nm.laurent_window(vals, rho, [-1])[0][..., 0]


class BranchData:
    """Per-branch-point circle data of one cover: frame, direction series,
    jet scalars. Built once per cover as `Geometry.branch`; it holds the
    cover's curve, local frames and kernels but never the Geometry, whose
    cache would otherwise close a reference cycle that keeps every build
    alive until the cyclic collector runs."""

    def __init__(self, geo):
        self.curve = geo.curve
        self.local = geo.frames
        self.kernels = geo.kernels
        self.frames = [self.local.frame(i)
                       for i in range(len(self.curve.branch_points))]
        self.circles = [self.local.eval_circle(fr) for fr in self.frames]
        self.jets = [self.local.y_jet_values(fr) for fr in self.frames]

    # h / d log(v/dx) at branch point i, for a direction differential
    def endpoint_factor(self, i, h):
        return self.direction_series(i, h)[0] * self.jets[i]["y0"] / self.jets[i]["yp"]

    def direction_series(self, i, h):
        """Series of h/d(eta) on branch frame i."""
        fr = self.frames[i]
        vals = h(fr.x, fr.w) * (2.0 * fr.eta)
        return nm.laurent_window(vals, fr.rho, np.arange(M_JET + 1))[0]

    def residue_sum(self, h, per_branch):
        """sum_i c_i(h) res_i(K) over the branch points, in branch order.

        per_branch(i, circle) samples the kernel K equispaced on
        |eta| = circle["rho"] along its last axis; leading axes give a
        stacked kernel and a stacked sum.
        """
        return sum(self.endpoint_factor(i, h) * _residue(per_branch(i, c), c["rho"])
                   for i, c in enumerate(self.circles))

    @cached_property
    def oh2_circles(self):
        """Extraction circles for kernels divided by dy, per branch point:
        shrunk below the nearest zero of y'(eta), which is a kernel pole but
        not a surface singularity (so no clearance margin excludes it)."""
        out = []
        for fr in self.frames:
            y_series = fr.Y_series[1:] / 2.0
            dy = nm.polytrim(nm.polyder(y_series))
            r_guard = np.inf
            if len(dy) > 1:
                roots = np.roots(dy[::-1])
                inside = np.abs(roots[np.abs(roots) < 0.9 * fr.rho])
                if len(inside):
                    r_guard = float(np.min(inside))
            rho = min(EVAL_SCALE * fr.rho, 0.45 * r_guard)
            eta = nm.circle_points(rho, K_EVAL)
            out.append({"eta": eta, "rho": rho, "G": self.local.values(fr, eta),
                        "yp": nm.polyval(nm.polyder(y_series), eta)})
        return out

    @cached_property
    def circle_xw(self):
        """(x, w) on the evaluation circle of each branch frame. w continues
        the frame's tracked w at the same angle, scaled to the circle's radius
        (w/eta has no zero in the frame disk)."""
        out = []
        for fr, c in zip(self.frames, self.circles):
            x = fr.center + c["eta"] ** 2
            out.append((x, nm.nearest_root(
                self.curve.sqrtP(x, near=[(fr.center, slice(None), c["eta"] ** 2)]),
                EVAL_SCALE * fr.w[::K_FRAME // K_EVAL])))
        return out

    def klein(self, x, w, i):
        """Klein's B(x, t) relative to dx d(eta) for a fixed point (x, w)
        against every point t of evaluation circle i."""
        t, wt = self.circle_xw[i]
        b = self.kernels.klein(np.full_like(t, x), np.full_like(t, w), t, wt)
        return b * (2.0 * self.circles[i]["eta"])

    # -- Bergman data: Klein's closed form on the evaluation circles ----------

    @cached_property
    def breg_hats(self):
        """B_reg in the double-cover parameter at each branch point: the
        mean of S_B/6 there, S_B (dx/d(eta))^2 plus the Schwarzian
        -3/(2 eta^2) of x = b + eta^2."""
        return [complex(np.mean(self.kernels.sb(x) * (2.0 * c["eta"]) ** 2 / 6.0
                                - 1.0 / (2.0 * c["eta"]) ** 2))
                for (x, _), c in zip(self.circle_xw, self.circles)]

    @cached_property
    def cross_bhats(self):
        """B(x_i, x_j) relative to the two double-cover parameters, as a
        symmetric matrix built from the lower index first (diagonal unused)."""
        out = [[0j] * len(self.circles) for _ in self.circles]
        for i, j in combinations(range(len(out)), 2):
            b = self.kernels.klein(*self.circle_xw[i], *self.circle_xw[j])
            out[i][j] = out[j][i] = complex(np.mean(
                b * (2.0 * self.circles[i]["eta"]) * (2.0 * self.circles[j]["eta"])))
        return out

    @cached_property
    def breg_over_v(self):
        """B_reg/v relative to d(eta) on the evaluation circle of each branch
        frame, a pole of order three there: Klein's (S_B - S_v)/6, a quadratic
        differential, times (dx/d(eta))^2 over v/d(eta)."""
        return [self.kernels.sb_minus_sv(x, w) * (2.0 * c["eta"]) ** 2 / (6.0 * c["Y"])
                for (x, w), c in zip(self.circle_xw, self.circles)]


# ---------------------------------------------------------------------------
# endpoint corrections (branch contributions to d/dz of relative periods)
# ---------------------------------------------------------------------------

def endpoint_correction(geo, h, zero_index):
    """-(h / d log(v/dx))(x_i): the extra term in the derivative of
    int_{x_r}^{x_i} v when x_i is a branch point; 0 at simple zeros."""
    if not geo.curve.zeros[zero_index].is_branch:
        return 0.0 + 0.0j
    return -geo.branch.endpoint_factor(zero_index, h)


# ---------------------------------------------------------------------------
# first variation of the period matrix (both forms)
# ---------------------------------------------------------------------------

def vary_period_matrix(geo, h):
    """d(Omega)/d(coordinate) by the branch-point residue formula, h the
    coordinate's direction evaluator; raises unless its two forms agree to
    FORM_AGREE_TOL (period_matrix_forms)."""
    out, gap = period_matrix_forms(geo, h)
    if gap > FORM_AGREE_TOL:
        raise VariationError(
            f"period-variation forms disagree by {gap:.3e} (numerical health)")
    return out


def period_matrix_forms(geo, h):
    """d(Omega)/d(coordinate) in its single-residue form, and the largest
    difference of its endpoint-factor form from it relative to max(1, its
    largest entry)."""

    def form1(i, c):
        G = c["G"].T
        return G[:, None] * G[None, :] / c["Y"]

    bd = geo.branch
    out1 = _symmetrize_fill(bd.residue_sum(h, form1))
    out2 = 0.0
    for i, oh2 in enumerate(bd.oh2_circles):
        eta2 = oh2["eta"]
        G = oh2["G"].T
        k2 = (G[:, None] * G[None, :] * nm.polyval(bd.direction_series(i, h), eta2)
              / (2.0 * eta2 * oh2["yp"]))
        out2 = out2 + _residue(k2, oh2["rho"])
    out2 = _symmetrize_fill(out2)
    out1 *= -TWO_PI_I
    out2 *= -TWO_PI_I
    scale = max(1.0, float(np.max(np.abs(out2))))
    return out2, float(np.max(np.abs(out1 - out2))) / scale


def _symmetrize_fill(m):
    lower = np.tril_indices(m.shape[0], -1)
    m[lower] = m.T[lower]
    return m


# ---------------------------------------------------------------------------
# kernel variations (normalized differentials, bidifferential, prime form)
# ---------------------------------------------------------------------------

def vary_valpha(geo, h, point):
    """d(v_alpha(x))/d(coordinate) relative to dx at the point; vector over alpha."""
    bd = geo.branch
    return -bd.residue_sum(h, lambda i, c: (
        c["G"].T * bd.klein(point.x, point.w, i) / c["Y"]))


def vary_bidifferential(geo, h, p1, p2):
    """d(B(x,y))/d(coordinate) relative to dx dy at the fixed pair."""
    bd = geo.branch
    return -bd.residue_sum(h, lambda i, c: (
        bd.klein(p1.x, p1.w, i) * bd.klein(p2.x, p2.w, i) / c["Y"]))


def vary_log_prime_form(geo, h, p1, p2):
    """d(ln E(x,y))/d(coordinate) at the fixed pair (h-independent kernel).

    The kernel's d_t ln(E(t, x)/E(t, y)) is the normalized third-kind
    differential with residue +1 at x and -1 at y."""
    bd = geo.branch
    dln = third_kind_between(geo.period, p1.x, p1.w, p2.x, p2.w)

    def kernel(i, c):
        return 0.5 * (dln(*bd.circle_xw[i]) * (2.0 * c["eta"])) ** 2 / c["Y"]

    # sign: differentiating this formula in x and y must reproduce the
    # bidifferential variation through B = d_x d_y ln E, which forces the
    # opposite overall sign to the first-kind/bidifferential pattern; the
    # finite-difference oracle confirms it.
    return bd.residue_sum(h, kernel)


# ---------------------------------------------------------------------------
# Bergman tau gradient
# ---------------------------------------------------------------------------

def _zero_frame_residues(geo, gamma):
    """res at every zero of v of v_gamma(x) / int_{x_i}^x v."""
    out = []
    for idx in range(len(geo.curve.zeros)):
        c = geo.frames.zero_circle(idx)
        out.append(complex(_residue(c["G"][:, gamma] / c["den"], c["rho"])))
    return out


def is_residue_free(curve):
    if any(p.k < 2 for p in curve.spec.poles):
        return False
    wins = moduli.PoleCircles(curve).windows(curve.phi).values()
    return max(abs(complex(win[0])) for win in wins) < 1e-10


def tau_gradient(geo, gamma):
    """d(ln tau)/dA_gamma: branch residues of B_reg/v plus the all-zeros sum."""
    if not is_residue_free(geo.curve):
        raise VariationError("tau gradient requires a residue-free instance "
                             "with all pole orders >= 2")
    bd = geo.branch
    vg = holomorphic_unit(geo.period, gamma)
    term1 = bd.residue_sum(vg, lambda i, c: bd.breg_over_v[i])
    term2 = sum(_zero_frame_residues(geo, gamma))
    return -TWO_PI_I * term1 - (1j * math.pi / 8.0) * term2


def tau_gradient_oracle(geo):
    """Chain-rule evaluation of d(ln tau)/dA_gamma through the period
    coordinates, as the vector over gamma: dual-contour integrals of B_reg/v
    paired with the derivatives of the period coordinates, with small-circle
    corrections restoring duality against the reference paths. Only the
    derivatives of the period coordinates depend on gamma. B_reg/v is the
    closed form Kernels.sb_minus_sv: the oracle reads no theta or Abel map."""
    curve, bd, basis, g = geo.curve, geo.branch, geo.basis, geo.genus
    omega = geo.period.omega

    def breg_kernel(x, w):
        return geo.kernels.sb_minus_sv(x, w) / (6.0 * curve.phi(x, w))

    # residues of B_reg/v at every zero on its frame circle, in the frame
    # parameter: dx/d(eta) = 2 eta at a branch point, 1 at a simple zero
    frames = [geo.frames.frame(idx) for idx in range(len(curve.zeros))]
    res_at = [complex(_residue(breg_kernel(fr.x, fr.w) * (2.0 * fr.eta if z.is_branch else 1.0),
                               fr.rho)) for fr, z in zip(frames, curve.zeros)]

    paths, targets = sf.zero_paths(curve)

    # kernel integrals over the a/b representatives
    dual_a, dual_b = [], []
    for d in range(g):
        int_a, int_b = (ContourField(curve, c).integrate_kernel(breg_kernel)
                        for c in (basis.a_cycles[d], basis.b_cycles[d]))
        # duality corrections from crossings with the reference paths
        corr_a = corr_b = 0.0 + 0.0j
        for path, idx in zip(paths, targets):
            nb = sf.intersection_number(curve, basis.b_cycles[d], path)
            na = sf.intersection_number(curve, basis.a_cycles[d], path)
            if nb:
                corr_a += nb * TWO_PI_I * res_at[idx]
            if na:
                corr_b -= na * TWO_PI_I * res_at[idx]
        dual_a.append(-int_b + corr_a)    # dual of a_d is -b_d (+ corrections)
        dual_b.append(int_a + corr_b)     # dual of b_d is +a_d (+ corrections)

    out = np.empty(g, dtype=complex)
    for gamma in range(g):
        vg = holomorphic_unit(geo.period, gamma)
        total = 0.0 + 0.0j
        for d in range(g):
            total += (1.0 if d == gamma else 0.0) * dual_a[d] + omega[gamma, d] * dual_b[d]
        # d P_{l_i} / d A_gamma: path integral of v_gamma plus branch endpoint term
        for path, idx in zip(paths, targets):
            val = curve.integrate(vg, path).value
            if curve.zeros[idx].is_branch:
                val -= bd.endpoint_factor(idx, vg)
            total += val * TWO_PI_I * res_at[idx]
        out[gamma] = total
    return out


# ---------------------------------------------------------------------------
# multi-differential hierarchy
# ---------------------------------------------------------------------------

def _cycles(n):
    """Hamiltonian cycles on the vertices 0..n-1 up to rotation and reversal,
    as closed walks from vertex 0."""
    return [(0,) + p + (0,) for p in permutations(range(1, n)) if p <= p[::-1]]


def _paths(n):
    """Walks from vertex 0 to vertex n-1 through every other vertex."""
    return [(0,) + p + (n - 1,) for p in permutations(range(1, n - 1))]


def _chain_sum(bmat, walks):
    """Sum over the walks of the product of bmat[a][b] along their edges;
    the entries may be scalars or arrays of circle samples."""
    return sum(math.prod(bmat[a][b] for a, b in zip(w, w[1:])) for w in walks)


def _hierarchy_data(geo, points):
    """(x, w) and v/dx at pairwise distinct points, and the matrix of
    Klein's B between them."""
    n = len(points)
    x, w = np.array([(p.x, p.w) for p in points], dtype=complex).T
    i, j = np.triu_indices(n, 1)
    if np.any((np.abs(x[i] - x[j]) < 1e-9) & (np.abs(w[i] - w[j]) < 1e-9)):
        raise VariationError("multi-differential arguments must be "
                             "pairwise distinct")
    bmat = np.zeros((n, n), dtype=complex)
    bmat[i, j] = bmat[j, i] = geo.kernels.klein(x[i], w[i], x[j], w[j])
    return x, w, geo.curve.phi(x, w), bmat


def q_multidiff(geo, points):
    """Sum over the directed Hamiltonian cycles up to rotation, over the
    product of the v's: twice the sum over _cycles, except at n = 2, whose
    one cycle is its own reversal (Q_2 = B^2/(v v))."""
    n = len(points)
    *_, vs, bmat = _hierarchy_data(geo, points)
    return (2.0 if n > 2 else 1.0) * _chain_sum(bmat, _cycles(n)) / np.prod(vs)


def r_multidiff(geo, points):
    """Path sum from the first to the last argument through the middles."""
    *_, vs, bmat = _hierarchy_data(geo, points)
    return _chain_sum(bmat, _paths(len(points))) / np.prod(vs[1:-1])


def r_ab(geo, alpha, beta, points):
    """v_alpha(z_1) v_beta(z_n) times the path sum over all v's."""
    x, w, vs, bmat = _hierarchy_data(geo, points)
    V = geo.period.V(x[[0, -1]], w[[0, -1]])
    return V[0, alpha] * V[1, beta] * _chain_sum(bmat, _paths(len(points))) / np.prod(vs)


def hierarchy_variation(geo, gamma, points, variant):
    """dQ_n/dA_gamma (or the R analog) with evaluation points pinned in the
    base coordinate: branch-residue sum of Q_{n+1} (R_{n+1}) with its new
    argument t on the branch circle, plus the argument-transport terms."""
    n = len(points)
    x, w, vs, bmat = _hierarchy_data(geo, points)
    vg = holomorphic_unit(geo.period, gamma)
    vgam = vg(x, w)
    # t is the last cycle vertex of Q_{n+1}; for R_{n+1} it is the last
    # middle vertex, so the path still ends at z_n
    slot = n if variant == "Q" else n - 1

    def kernel(i, c):
        bt = [geo.branch.klein(xk, wk, i) for xk, wk in zip(x, w)]
        big = [[*row[:slot], b, *row[slot:]] for row, b in zip(bmat, bt)]
        big.insert(slot, [*bt[:slot], None, *bt[slot:]])
        if variant == "Q":
            return 2.0 * _chain_sum(big, _cycles(n + 1)) / (np.prod(vs) * c["Y"])
        return _chain_sum(big, _paths(n + 1)) / (np.prod(vs[1:-1]) * c["Y"])

    residue_sum = geo.branch.residue_sum(vg, kernel)
    if variant == "Q":
        transport = q_multidiff(geo, points) * np.sum(vgam / vs)
    else:
        transport = r_multidiff(geo, points) * np.sum(vgam[1:-1] / vs[1:-1])
    return -residue_sum - transport


# ---------------------------------------------------------------------------
# second derivatives of the period matrix
# ---------------------------------------------------------------------------

def period_hessian(geo, a, b, cidx, d):
    """Second derivative of Omega_{ab} along A_{cidx}, A_d from branch jets."""
    bd = geo.branch
    nbr = len(bd.frames)
    g0, gpp, yp, yppp = ([jet[k] for jet in bd.jets] for k in ("g0", "gpp", "yp", "yppp"))

    cyc3 = [(a, b, cidx), (b, cidx, a), (cidx, a, b)]
    off = 0.0 + 0.0j
    for i in range(nbr):
        for j in range(nbr):
            if i == j:
                continue
            bij = bd.cross_bhats[i][j]
            s = 0.0 + 0.0j
            for (p, q, r) in cyc3:
                s += g0[i][d] * g0[i][r] * g0[j][p] * g0[j][q]
            off += bij * s / (yp[i] * yp[j])
    off *= 0.25

    diag = 0.0 + 0.0j
    cyc4 = [(a, b, cidx, d), (b, cidx, d, a), (cidx, d, a, b), (d, a, b, cidx)]
    for i in range(nbr):
        breg = bd.breg_hats[i]
        quart = g0[i][a] * g0[i][b] * g0[i][cidx] * g0[i][d]
        diag += (6.0 * breg / yp[i] ** 2 - yppp[i] / yp[i] ** 3) * quart
        s4 = 0.0 + 0.0j
        for (p, q, r, t) in cyc4:
            s4 += gpp[i][p] * g0[i][q] * g0[i][r] * g0[i][t]
        diag += s4 / yp[i] ** 2
    diag *= 0.125

    return TWO_PI_I * (off + diag)
