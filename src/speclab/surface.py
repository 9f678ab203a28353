"""The spectral cover as a sheeted surface over the base sphere.

For n = 2 the cover carries the explicit hyperelliptic model w^2 = P(x) with
P = N1^2 - 4 N2, and nearly everything (sheet continuation, monodromy,
homology contours, intersection numbers) is phrased through tracking w along
paths that keep a safety distance from the branch points. Generic-n builds
(continuation and monodromy only) track the full root vector instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .instances import InstanceError, counts_of, validate_genericity
from .numerics import Arc, Contour, Line


class SurfaceError(RuntimeError):
    pass


class ContinuationError(SurfaceError):
    pass


SAFETY_FACTOR = 0.25     # clearance = factor * distance to nearest other singular point
JET_RADIUS_FACTOR = 0.2
TRACK_STEP_FACTOR = 0.2  # max continuation step relative to branch clearance
DETOUR_PASSES = 8        # rounds of arc detours in build_path
CROSSING_BLOCK = 16      # consecutive polyline edges per block box in crossing tests
LIFT_JUMP_MAX = 0.25     # largest relative change of a carried lift (cycle start, anchor)
# capsule margins as fractions of the hull's distance to the other singular
# points, in the order that breaks ties
MARGIN_FRACS = (0.45, 0.35, 0.55, 0.25, 0.3, 0.4, 0.5, 0.62, 0.2, 0.7)
DIST_SAMPLES = 512       # polyline points per arc of the sampled capsule distance
_GRID_PROBES = np.linspace(0.05, 0.95, 16)  # where a segment's grid gauges its clearance


@dataclass(frozen=True)
class SurfacePoint:
    x: complex
    sheet: int
    w: complex  # value of w = 2 D phi + N1 at the point (n = 2 model)


@dataclass
class ZeroPoint:
    x: complex
    w: complex
    sheet: int
    is_branch: bool


# ---------------------------------------------------------------------------
# path construction
# ---------------------------------------------------------------------------

def _detour_line(seg, center, radius):
    """Split a Line at a clearance circle, inserting the smaller-winding arc.

    Endpoints inside the disk get radial connector legs so the contour stays
    continuous (a deliberate close approach, not a clearance violation).
    """
    d = seg.z1 - seg.z0
    L2 = abs(d) ** 2
    if L2 == 0:
        return None
    oc = center - seg.z0
    a = L2
    b = -2 * ((oc * d.conjugate()).real)
    c = abs(oc) ** 2 - radius ** 2
    disc = b * b - 4 * a * c
    if disc <= 0:
        return None
    sq = math.sqrt(disc)
    t1 = (-b - sq) / (2 * a)
    t2 = (-b + sq) / (2 * a)
    if t2 <= 0.0 or t1 >= 1.0:
        return None
    start_inside = t1 < 0.0
    end_inside = t2 > 1.0
    t1 = max(t1, 0.0)
    t2 = min(t2, 1.0)
    if t2 - t1 < 1e-12:
        return None
    if start_inside:
        e1 = center + radius * _unit(seg.z0 - center)
    else:
        e1 = seg.z0 + t1 * d
    if end_inside:
        e2 = center + radius * _unit(seg.z1 - center)
    else:
        e2 = seg.z0 + t2 * d
    a1 = math.atan2((e1 - center).imag, (e1 - center).real)
    a2 = math.atan2((e2 - center).imag, (e2 - center).real)
    ccw = a1 + ((a2 - a1) % (2 * math.pi))
    cw = a1 - ((a1 - a2) % (2 * math.pi))
    # smaller winding; ties (segment through the center) go counterclockwise
    if abs(cw - a1) < abs(ccw - a1) - 1e-12:
        a_end = cw
    else:
        a_end = ccw
    pieces = []
    if start_inside:
        pieces.append(Line(seg.z0, e1))
    elif t1 > 0.0:
        pieces.append(Line(seg.z0, e1))
    pieces.append(Arc(center, radius, a1, a_end))
    if end_inside:
        pieces.append(Line(e2, seg.z1))
    elif t2 < 1.0:
        pieces.append(Line(e2, seg.z1))
    return pieces


def build_path(start, end, obstacles, clearances, sqrt_end=None):
    """Polygonal path from start to end with arc detours around obstacles.

    obstacles/clearances are parallel sequences; an obstacle within its
    clearance of either endpoint is skipped there (deliberate approach).
    sqrt_end in {None, 'end', 'start'} marks a branch-point endpoint so the
    final leg is square-root reparametrized.
    """
    segs = [Line(complex(start), complex(end))]
    for _ in range(DETOUR_PASSES):
        changed = False
        out = []
        for seg in segs:
            if not isinstance(seg, Line):
                out.append(seg)
                continue
            hit = None
            best_t = None
            for o, r in zip(obstacles, clearances):
                if abs(o - complex(start)) < 1e-9 or abs(o - complex(end)) < 1e-9:
                    continue
                rep = _detour_line(seg, complex(o), r)
                if rep is not None:
                    # handle the earliest violation along the segment first
                    t0 = abs(rep[0].z1 - seg.z0) / max(abs(seg.z1 - seg.z0), 1e-300) \
                        if isinstance(rep[0], Line) else 0.0
                    if best_t is None or t0 < best_t:
                        best_t = t0
                        hit = rep
            if hit is None:
                out.append(seg)
            else:
                out.extend(hit)
                changed = True
        segs = out
        if not changed:
            break
    if sqrt_end == "end" and isinstance(segs[-1], Line):
        segs[-1] = Line(segs[-1].z0, segs[-1].z1, sqrt_end="end")
    if sqrt_end == "start" and isinstance(segs[0], Line):
        segs[0] = Line(segs[0].z0, segs[0].z1, sqrt_end="start")
    return Contour(segs)


def _convex_hull(points):
    pts = sorted(set((p.real, p.imag) for p in points))
    if len(pts) == 1:
        return [complex(*pts[0])]
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return [complex(*p) for p in hull]


def capsule(points, margin, label=""):
    """Counterclockwise offset contour around the convex hull of points."""
    pts = [complex(p) for p in points]
    hull = _convex_hull(pts)
    if len(hull) == 1:
        return nm.circle(hull[0], margin)
    m = len(hull)
    segs = []
    for i in range(m):
        a = hull[i]
        b = hull[(i + 1) % m]
        if abs(b - a) < 1e-14:
            continue
        t = (b - a) / abs(b - a)
        nrm = t * (-1j)  # outward normal for counterclockwise hulls
        segs.append(("edge", a + margin * nrm, b + margin * nrm))
        c = hull[(i + 2) % m] if m > 2 else a
        t_next = (c - b) / abs(c - b) if abs(c - b) > 1e-14 else -t
        n_next = t_next * (-1j)
        a0 = math.atan2(nrm.imag, nrm.real)
        a1_raw = math.atan2(n_next.imag, n_next.real)
        sweep = (a1_raw - a0) % (2 * math.pi)
        segs.append(("arc", b, a0, a0 + sweep))
    out = []
    for s in segs:
        if s[0] == "edge":
            out.append(Line(s[1], s[2]))
        else:
            out.append(Arc(s[1], margin, s[2], s[3]))
    return Contour(out, label=label)


# ---------------------------------------------------------------------------
# intersection numbers on the double cover
# ---------------------------------------------------------------------------

@dataclass
class _Polyline:
    """A contour's crossing-test polyline: its anchor points z with their
    tracked w (SpectralCurve.anchor_points), and the bounding boxes (min x,
    max x, min y, max y) of its edges, padded to whole blocks of
    CROSSING_BLOCK edges with empty boxes, and of each block."""
    z: np.ndarray
    w: np.ndarray
    box: np.ndarray = field(init=False)    # (4, blocks, CROSSING_BLOCK)
    block: np.ndarray = field(init=False)  # (4, blocks)

    def __post_init__(self):
        p0, p1 = self.z[:-1], self.z[1:]
        n = len(p0)
        pad = -n % CROSSING_BLOCK
        box = np.empty((4, n + pad))
        box[:, n:] = [[np.inf], [-np.inf], [np.inf], [-np.inf]]
        box[0, :n] = np.minimum(p0.real, p1.real)
        box[1, :n] = np.maximum(p0.real, p1.real)
        box[2, :n] = np.minimum(p0.imag, p1.imag)
        box[3, :n] = np.maximum(p0.imag, p1.imag)
        self.box = box.reshape(4, -1, CROSSING_BLOCK)
        self.block = np.stack([self.box[0].min(axis=1), self.box[1].max(axis=1),
                               self.box[2].min(axis=1), self.box[3].max(axis=1)])


def _boxes_overlap(b1, b2):
    return (b1[0] <= b2[1]) & (b2[0] <= b1[1]) & (b1[2] <= b2[3]) & (b2[2] <= b1[3])


def _tracked_polyline(curve, contour):
    """The contour's anchor grid as a polyline (cached on the contour for
    the curve it was tracked on)."""
    cached = getattr(contour, "_tracked", None)
    if cached is None or cached[0] is not curve:
        contour._tracked = (curve, _Polyline(*curve.anchor_points(contour)))
    return contour._tracked[1]


def intersection_number(curve, c1, c2):
    """Signed intersection number of two tracked closed/relative contours.

    Edge pairs whose bounding boxes overlap go to the hit test; they are
    found among the edges of block pairs whose block boxes overlap."""
    l1 = _tracked_polyline(curve, c1)
    l2 = _tracked_polyline(curve, c2)
    k1, k2 = np.nonzero(_boxes_overlap(l1.block[:, :, None], l2.block[:, None, :]))
    pair, b1, b2 = np.nonzero(_boxes_overlap(l1.box[:, k1, :, None],
                                             l2.box[:, k2, None, :]))
    if len(pair) == 0:
        return 0
    ii = k1[pair] * CROSSING_BLOCK + b1
    jj = k2[pair] * CROSSING_BLOCK + b2
    z1, w1, z2, w2 = l1.z, l1.w, l2.z, l2.w
    p0, q0 = z1[ii], z2[jj]
    a = z1[ii + 1] - p0
    d2 = z2[jj + 1] - q0
    b = -d2
    rhs = q0 - p0
    det = a.real * b.imag - a.imag * b.real
    ok = np.abs(det) > 1e-14
    s = np.where(ok, (rhs.real * b.imag - rhs.imag * b.real) / np.where(ok, det, 1), -1)
    t = np.where(ok, (a.real * rhs.imag - a.imag * rhs.real) / np.where(ok, det, 1), -1)
    hits = ok & (s >= 0) & (s < 1) & (t >= 0) & (t < 1)
    total = 0
    for k in np.nonzero(hits)[0]:
        wa_i, wb_j = w1[ii[k]], w2[jj[k]]
        if abs(wa_i - wb_j) < abs(wa_i + wb_j):  # same sheet
            cross = (a[k].conjugate() * d2[k]).imag
            total += 1 if cross > 0 else -1
    return total


# ---------------------------------------------------------------------------
# spectral curve (n = 2 first class, generic n for build/monodromy)
# ---------------------------------------------------------------------------

class SpectralCurve:
    """Immutable-after-build numerical model of the spectral cover."""

    def __init__(self, spec, template=None):
        self.spec = spec
        self.counts = counts_of(spec)
        self.n = spec.n
        self.D = spec.denominator(1)
        self.N = {ell: np.asarray(spec.numer[ell], dtype=complex) for ell in spec.numer}
        if spec.n == 2:
            self.N1 = self.N[1]
            self.N2 = self.N[2]
            self.P = nm.polyadd(nm.polymul(self.N1, self.N1), -4.0 * self.N2)
            self.disc_poly = self.P
        else:
            self.disc_poly = _poly_discriminant(self.N, spec.n)
        self._w_point_cache = {}
        self._build(template)

    # -- construction -------------------------------------------------------

    def _build(self, template):
        spec = self.spec
        rep = nm.poly_roots(self.disc_poly)
        bp = rep.roots
        if np.any(rep.multiplicities > 1):
            raise SurfaceError("non-simple branch point (discriminant has a "
                               "clustered root)")
        if template is None:
            order = np.lexsort((bp.imag, bp.real))
            self.branch_points = bp[order]
        else:
            self.branch_points = _match_points(bp, template.branch_points)

        poles = spec.pole_locations
        if self.n == 2:
            zrep = nm.poly_roots(self.N2)
            z0 = zrep.roots
            if template is not None:
                z0 = _match_points(z0, np.array([z.x for z in template.zeros_d0]))
        else:
            z0 = nm.poly_roots(self.N[self.n]).roots

        self.singular_points = np.concatenate([self.branch_points, poles, z0])
        self.clearance = _clearances(self.singular_points)

        # basepoint on a bounding circle, maximizing distance to singulars
        if template is None:
            ctr = np.mean(self.singular_points)
            rad = 2.2 * float(np.max(np.abs(self.singular_points - ctr))) + 1.0
            angles = 2 * np.pi * np.arange(72) / 72
            cand = ctr + rad * np.exp(1j * angles)
            dists = np.min(np.abs(cand[:, None] - self.singular_points[None, :]), axis=1)
            self.x0 = complex(cand[int(np.argmax(dists))])
        else:
            self.x0 = template.x0

        if self.n == 2:
            self._build_n2(template, z0)
        else:
            self.zeros_d0 = [ZeroPoint(z, 0.0, -1, False) for z in z0]
            self.zeros = list(self.zeros_d0)

        self.genericity = validate_genericity(spec, self)

    def _build_n2(self, template, z0):
        w0 = np.sqrt(complex(nm.polyval(self.P, self.x0)))
        if template is not None:
            # keep the sheet labels continuous across perturbed builds
            w0 = complex(nm.nearest_root(w0, template.w0_at_x0))
            self.sheet_sign = template.sheet_sign
        else:
            phi_plus = (-nm.polyval(self.N1, self.x0) + w0) / (2 * self.Dval(self.x0))
            phi_minus = (-nm.polyval(self.N1, self.x0) - w0) / (2 * self.Dval(self.x0))
            # sheet 0 is the lexicographically smaller root at the basepoint
            if (phi_plus.real, phi_plus.imag) <= (phi_minus.real, phi_minus.imag):
                self.sheet_sign = (+1, -1)
            else:
                self.sheet_sign = (-1, +1)
        self.w0_at_x0 = w0

        # the lifts of the poles and the sheets of the simple zeros (on the
        # lift w = N1): a cold build labels them by continuation from the
        # basepoint, a templated one carries the template's by continuity
        # (z0 is matched to the template's zeros in order)
        if template is None:
            self.pole_points = {(j, s): self.point(p.x, s)
                                for j, p in enumerate(self.spec.poles)
                                for s in range(2)}
        else:
            self.pole_points = {key: self.carry(p)
                                for key, p in template.pole_points.items()}
        zero_pts = []
        for i, z in enumerate(z0):
            wz = complex(nm.polyval(self.N1, z))
            if template is None:
                w_sheet0 = self.w_for_sheet(z, 0)
                sheet = 0 if abs(w_sheet0 - wz) <= abs(w_sheet0 + wz) else 1
            else:
                sheet = template.zeros_d0[i].sheet
            zero_pts.append(ZeroPoint(complex(z), wz, sheet, False))
        self.zeros_d0 = zero_pts
        branch_zeros = [ZeroPoint(complex(b), 0.0, -1, True) for b in self.branch_points]
        self.zeros = branch_zeros + zero_pts

        if template is None:
            key = [(z.x.real, z.x.imag, z.sheet) for z in self.zeros]
            self.x_r_index = key.index(max(key))
        else:
            self.x_r_index = template.x_r_index
        self.x_r = self.zeros[self.x_r_index]
        if self.x_r.is_branch:
            raise SurfaceError("distinguished zero x_r fell on a branch point; "
                               "regenerate the instance")

    # -- basic evaluators (n = 2) -------------------------------------------

    def sqrtP(self, x, near=()):
        """w candidates: sqrt of the discriminant, evaluated in factored form
        (lead * prod (x - e_i)) so there is no cancellation near the branch
        points; the expanded form loses ~4 digits there. Each (e, at, dx) of
        near replaces the factor x - e of the branch point e by dx at x[at],
        for points closer to e than the rounding of x resolves."""
        x = np.asarray(x, dtype=complex)
        if getattr(self, "branch_points", None) is None or len(
                self.branch_points) != len(self.P) - 1:
            return np.sqrt(nm.polyval(self.P, x))
        prod = np.full_like(x, self.P[-1])
        for e in self.branch_points:
            factor = x - e
            for e_near, at, dx in near:
                if e_near == e:
                    factor[at] = dx
            prod = prod * factor
        return np.sqrt(prod)

    def Dval(self, x):
        """Denominator prod (x - y_j)^{k_j} in factored form: no cancellation
        near the poles, unlike the expanded coefficients."""
        x = np.asarray(x, dtype=complex)
        out = np.ones_like(x)
        for p in self.spec.poles:
            out = out * (x - p.x) ** p.k
        return out

    def phi(self, x, w):
        """Value of v/dx at a point (x, w) of the cover."""
        return (-nm.polyval(self.N1, x) + w) / (2.0 * self.Dval(x))

    def track_w(self, xs, w_start):
        """Continue w = sqrt(P) along an ordered point chain."""
        return nm.continue_root(self.sqrtP(xs), w_start)

    def w_for_sheet(self, x, sheet):
        """w above x on the sheet with the given global label, by
        continuation from the basepoint: the one routine that decides a
        sheet by routing (monodromy loops aside)."""
        key = complex(x)
        if key not in self._w_point_cache:
            path = _starting_on(self, self.path_between(self.x0, key), self.w0_at_x0)
            self._w_point_cache[key] = self.end_w(path)
        # sheet s arrives with sigma_s * w when starting from sigma_s * w0,
        # because tracking is odd in the starting value
        return self.sheet_sign[sheet] * self._w_point_cache[key]

    def point(self, x, sheet):
        return SurfacePoint(complex(x), sheet, complex(self.w_for_sheet(x, sheet)))

    def carry(self, p):
        """The point p of a nearby curve (a template, or the curve an FD
        functional was set up on) carried onto this one by continuity: the
        root of P above p.x nearest p.w. Raises ContinuationError when that
        choice is ambiguous, |w - p.w| > |w + p.w| / 2."""
        w = complex(nm.nearest_root(self.sqrtP(np.array([p.x]))[0], p.w))
        if abs(w - p.w) > 0.5 * abs(w + p.w):
            raise ContinuationError(f"ambiguous lift carried to x = {p.x:.6g}")
        return SurfacePoint(p.x, p.sheet, w)

    # -- paths and tracking ---------------------------------------------------

    def singular_distance(self, c):
        """Distance from c to the nearest singular point other than c."""
        sp = self.singular_points
        return float(np.min(np.abs(sp[np.abs(sp - c) > 1e-12] - c)))

    def obstacle_lists(self, skip=()):
        obs, clg = [], []
        for i, o in enumerate(self.singular_points):
            if any(abs(o - s) < 1e-12 for s in skip):
                continue
            obs.append(complex(o))
            clg.append(self.clearance[i])
        return obs, clg

    def path_between(self, a, b, sqrt_end=None):
        obs, clg = self.obstacle_lists(skip=(a, b))
        return build_path(a, b, obs, clg, sqrt_end=sqrt_end)

    def grid(self, seg):
        """Parameters t in [0, 1] on a segment, both ends included, spaced
        densely enough to continue w (or the root vector) from one point to
        the next: the grid of the anchors and of generic-n monodromy."""
        mid = seg.point(_GRID_PROBES)
        dmin = max(float(np.min(np.abs(mid[:, None] - self.branch_points[None, :]))), 1e-6)
        n = int(min(4096, max(12, 4 * seg.length() / (TRACK_STEP_FACTOR * dmin))))
        return np.linspace(0.0, 1.0, n)

    def contour_start_w(self, contour):
        """w at a contour's start: the lift `_starting_on` gave it, or else
        sheet 0 (cached on the contour; ids are not stable cache keys)."""
        cached = getattr(contour, "_start_w", None)
        if cached is None or cached[0] is not self:
            contour._start_w = (self, complex(self.w_for_sheet(contour.start(), 0)))
        return contour._start_w[1]

    def anchors(self, contour):
        """Per-segment anchor grids (t, w) of tracked w for matching the sign
        of w in integrands. Anchors with tiny |w| (the exact branch endpoint
        of a square-root leg) carry an arbitrary sign and are left out.

        A contour carried from a template (see _starting_on) takes the
        template's anchors on the segments they share (_carried_anchors);
        the other segments are tracked densely, one track_w call per run of
        consecutive ones. These grids are the one tracked sampling of a
        contour on a curve: crossing tests (anchor_points) and the end lift
        (end_w) read them too."""
        cached = getattr(contour, "_anchors", None)
        if cached is None or cached[0] is not self:
            carried = self._carried_anchors(contour)
            w_run = self.contour_start_w(contour)
            data, run = [], []
            for k, seg in enumerate(contour.segments):
                if k not in carried:
                    run.append(seg)
                    continue
                data += self._tracked_run(run, w_run)
                run = []
                data.append(carried[k])
                w_run = carried[k][1][-1]
            data += self._tracked_run(run, w_run)
            contour._anchors = (self, data)
        return contour._anchors[1]

    def _tracked_run(self, segs, w_start):
        """Dense anchors (t, w) on consecutive segments, from w_start."""
        if not segs:
            return []
        ts = [self.grid(seg) for seg in segs]
        w = self.track_w(np.concatenate([seg.point(t) for seg, t in zip(segs, ts)]),
                         w_start)
        start = np.cumsum([0] + [len(t) for t in ts[:-1]])
        a = np.abs(w)
        # a segment whose least |w| clears the bound at its largest keeps
        # every anchor without the median: the bound at the median is lower
        clear = np.minimum.reduceat(a, start) > 1e-6 * (np.maximum.reduceat(a, start) + 1e-300)
        out = []
        for t, wk, ak, ok in zip(ts, np.split(w, start[1:]), np.split(a, start[1:]), clear):
            good = ok or ak > 1e-6 * float(np.median(ak) + 1e-300)
            out.append((t, wk) if np.all(good) else (t[good], wk[good]))
        return out

    def anchor_points(self, contour):
        """The anchors as one chain: points z of the contour and their w."""
        anchors = self.anchors(contour)
        z = np.concatenate([seg.point(t) for seg, (t, _) in zip(contour.segments, anchors)])
        return z, np.concatenate([w for _, w in anchors])

    def end_w(self, contour):
        """w at the contour's end, continued from its start lift: the last
        anchor (so the end must not be a branch point, whose anchor is left
        out)."""
        return self.anchors(contour)[-1][1][-1]

    def _carried_anchors(self, contour):
        """{segment index: (t, w)} on the segments contour shares with its
        template, if the template has anchors: at the template's anchor
        points, the root of P nearest the template's w. Empty when any
        anchor moves by more than LIFT_JUMP_MAX of |w| (the guard of
        `carry`), so that the whole contour is tracked afresh."""
        template, shared = getattr(contour, "_template", (None, ()))
        cached = getattr(template, "_anchors", None)
        if cached is None or not shared:
            return {}
        grids = [cached[1][k] for k in shared]
        z = np.concatenate([contour.segments[k].point(t) for k, (t, _) in zip(shared, grids)])
        w_t = np.concatenate([w for _, w in grids])
        w = nm.nearest_root(self.sqrtP(z), w_t)
        if np.any(np.abs(w - w_t) > LIFT_JUMP_MAX * np.abs(w_t)):
            return {}
        parts = np.split(w, np.cumsum([len(t) for t, _ in grids])[:-1])
        return {k: (t, wk) for k, (t, _), wk in zip(shared, grids, parts)}

    def w_on_segment(self, contour, seg_index, t, z):
        """w at nodes t of a contour, each matched to the tracked anchors of
        its segment; seg_index is each node's segment.

        The radial approach to a branch endpoint keeps the phase stable, so
        the farther anchor left in its place by anchors() matches safely.
        """
        anchors = self.anchors(contour)
        ref = np.empty(len(t), dtype=complex)
        near = []
        cuts = (np.flatnonzero(np.diff(seg_index)) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [len(t)]):  # runs on one segment
            at = slice(lo, hi)
            ta, wa = anchors[seg_index[lo]]
            ref[at] = wa[np.clip(np.searchsorted(ta, t[at]), 0, len(ta) - 1)]
            # on a square-root leg x - e at the branch-point end is exact in
            # the parameter, while x itself rounds onto e as t nears the end
            seg = contour.segments[seg_index[lo]]
            end = getattr(seg, "sqrt_end", None)
            if end == "end":
                near.append((seg.z1, at, (seg.z0 - seg.z1) * (1.0 - t[at]) ** 2))
            elif end == "start":
                near.append((seg.z0, at, (seg.z1 - seg.z0) * t[at] ** 2))
        return nm.nearest_root(self.sqrtP(z, near), ref)

    # -- contour integration ---------------------------------------------------

    def _on_contour(self, fn, contour):
        """fn(x, w) as an integrand of numerics' engine: w is matched once
        per call, that is once per refinement level."""
        def wrapped(si, t, z):
            return fn(z, self.w_on_segment(contour, si, t, z))
        return wrapped

    def integrate(self, fn, contour):
        """Integrate fn(x, w) (value relative to dx) along a tracked contour."""
        return nm.integrate(self._on_contour(fn, contour), contour)

    def integrate_stack(self, fn, contour):
        """Integrate fn(x, w) -> shape (n, k), k integrands relative to dx,
        along a tracked contour in one adaptive pass; value has shape (k,)."""
        return nm.integrate_stack(self._on_contour(fn, contour), contour)

    def integrate_v(self, contour):
        return self.integrate(lambda x, w: self.phi(x, w), contour)

    # -- monodromy -------------------------------------------------------------

    def branch_loop(self, i):
        b = complex(self.branch_points[i])
        r = self.clearance[i]
        approach = self.path_between(self.x0, b + r)
        return Contour(approach.segments
                       + nm.circle(b, r).segments
                       + approach.reversed().segments, label=f"loop{i}")

    def monodromy(self, i):
        """Sheet permutation of the small loop around branch point i."""
        if self.n == 2:
            w_end = self.end_w(_starting_on(self, self.branch_loop(i), self.w0_at_x0))
            if abs(w_end - self.w0_at_x0) < abs(w_end + self.w0_at_x0):
                return (0, 1)
            return (1, 0)
        return _monodromy_generic(self, i)

    def monodromy_product(self):
        """Composition of all branch monodromies in angular-sweep order."""
        order = np.argsort(np.angle(self.branch_points - self.x0))
        perm = tuple(range(self.n))
        for i in order:
            m = self.monodromy(int(i))
            perm = tuple(m[p] for p in perm)
        return perm


def _clearances(singulars):
    n = len(singulars)
    out = np.zeros(n)
    for i in range(n):
        d = np.abs(singulars - singulars[i])
        d[i] = np.inf
        out[i] = SAFETY_FACTOR * float(np.min(d))
    return out


def _match_points(new, old):
    """Order `new` so entry i is the point nearest old[i]; guard collisions."""
    new = np.asarray(new)
    old = np.asarray(old)
    if len(new) != len(old):
        raise SurfaceError("point count changed across a moduli step")
    order = np.full(len(old), -1, dtype=int)
    for i, j in nm.greedy_pairs(np.abs(new[:, None] - old[None, :])):
        order[j] = i
    # matching stays unambiguous while moves are below half the separation
    guard = 0.35 * _min_pairwise(old)
    moved = np.abs(new[order] - old)
    if np.any(moved > guard):
        raise SurfaceError("branch-point tracking collision: a point moved "
                           "more than the matching guard")
    return new[order]


def _min_pairwise(pts):
    if len(pts) < 2:
        return np.inf
    d = np.abs(pts[:, None] - pts[None, :]) + np.eye(len(pts)) * 1e18
    return float(np.min(d))


# ---------------------------------------------------------------------------
# generic-n continuation (build / monodromy only)
# ---------------------------------------------------------------------------

def _poly_discriminant(N, n):
    """Discriminant in u of u^n + N1 u^{n-1} + ... + Nn (polynomial coeffs in x),
    computed by evaluation at Fourier nodes and interpolation."""
    degs = [len(nm.polytrim(N[ell])) - 1 for ell in range(1, n + 1)]
    max_deg = max(d + 1 for d in degs) * (2 * n - 1)  # generous bound
    m = 1
    while m < 2 * max_deg + 8:
        m *= 2
    radius = 1.7
    xs = nm.circle_points(radius, m)
    vals = np.empty(m, dtype=complex)
    for i, x in enumerate(xs):
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        for ell in range(1, n + 1):
            c[n - ell] = nm.polyval(N[ell], x)
        vals[i] = _disc_of_monic(c)
    return nm.polytrim(nm.laurent_window(vals, radius, np.arange(m))[0], rel=1e-9)


def _disc_of_monic(c_asc):
    """Discriminant of a monic polynomial given ascending coefficients."""
    deg = len(c_asc) - 1
    roots = np.roots(c_asc[::-1])
    disc = 1.0 + 0.0j
    for i in range(deg):
        for j in range(i + 1, deg):
            disc *= (roots[i] - roots[j]) ** 2
    return disc


def _roots_at(curve, x):
    c = np.zeros(curve.n + 1, dtype=complex)
    c[curve.n] = 1.0
    for ell in range(1, curve.n + 1):
        c[curve.n - ell] = nm.polyval(curve.N[ell], x)
    return np.roots(c[::-1])


def _track_roots(curve, xs, start_roots):
    roots = np.asarray(start_roots, dtype=complex)
    for x in xs[1:]:
        new = _roots_at(curve, x)
        taken = np.zeros(len(new), dtype=bool)
        ordered = np.empty_like(roots)
        for i, r in enumerate(roots):
            j = int(np.argmin(np.where(taken, np.inf, np.abs(new - r))))
            ordered[i] = new[j]
            taken[j] = True
        sep = _min_pairwise(new)
        if np.max(np.abs(ordered - roots)) > 0.45 * max(sep, 1e-14):
            raise ContinuationError("root tracking step too close to a collision")
        roots = ordered
    return roots


def _monodromy_generic(curve, i):
    z = np.concatenate([seg.point(curve.grid(seg)) for seg in curve.branch_loop(i).segments])
    # sheet order at the basepoint: lexicographic in (Re, Im)
    base = _roots_at(curve, curve.x0)
    base = base[np.lexsort((base.imag, base.real))]
    final = _track_roots(curve, z, base)
    perm = []
    for f in final:
        perm.append(int(np.argmin(np.abs(base - f))))
    if sorted(perm) != list(range(curve.n)):
        raise ContinuationError("monodromy tracking produced a non-permutation")
    return tuple(perm)


def build_surface(spec, template=None):
    """Construct the cover; raises on genericity failure."""
    if spec.n < 2:
        raise InstanceError("$.n", "cover with n < 2 is the base itself")
    curve = SpectralCurve(spec, template=template)
    if not curve.genericity.ok:
        raise SurfaceError("genericity failure: " + curve.genericity.fail_reasons())
    if len(curve.branch_points) != curve.counts.p:
        raise SurfaceError("branch point count mismatch")
    if spec.n == 2 and len(curve.zeros) != curve.counts.r - curve.counts.p + len(curve.branch_points):
        raise SurfaceError("zero divisor count mismatch")
    return curve


# ---------------------------------------------------------------------------
# homology basis (n = 2)
# ---------------------------------------------------------------------------

@dataclass
class HomologyBasis:
    a_cycles: list
    b_cycles: list
    b_flipped: list = field(default_factory=list)
    # transport record: the singular points the capsules were routed around,
    # and per cycle (a then b) the contour's distance to them, its routing
    # floor and w at its start
    origin: np.ndarray = None
    clearances: list = field(default_factory=list)
    floors: list = field(default_factory=list)
    start_w: list = field(default_factory=list)
    transported: bool = False

    @property
    def cycles(self):
        return self.a_cycles + self.b_cycles


def homology_basis(curve, template_basis=None):
    """Capsule realization of the standard nested hyperelliptic basis.

    Branch points in the deterministic order are paired into consecutive
    cuts; a_i rings cut i, b_i rings the block from the right end of cut i
    through the left end of the last cut. Orientations come from computed
    intersection numbers.

    With a template basis (the curve is a small deformation of the
    template's) the template's contours are carried over unchanged while
    they provably still clear the moved singular points: with delta the
    largest move of any singular point from the template's origin points
    (matched in order), every cycle needs clearance - delta > floor, where
    clearance is its exact distance to the origin points and floor the
    routing floor of _capsule_for. By the triangle inequality no singular
    point then crosses a contour, so each carried cycle is homologous to a
    fresh capsule. The origin stays that of the curve the capsules were
    routed on, through any chain of carries, so the moves add up.

    The lift is carried by continuity as well: w at each contour's start is
    the root of P on the new curve nearest the template's, and a jump
    beyond LIFT_JUMP_MAX of |w| refuses the carry. Re-deriving the sheet
    from the basepoint instead would re-route a path whose sheet labeling
    can jump. When the carry is refused the capsules are rebuilt with the
    template's orientations (the intersection numbers are locally
    constant), and `transported` stays False.
    """
    if curve.n != 2:
        raise SurfaceError("homology basis not implemented for n>2")
    e = curve.branch_points
    g = curve.counts.genus
    if template_basis is not None:
        basis = _transported(curve, template_basis)
        if basis is not None:
            return basis
    built = [_capsule_for(curve, [e[2 * i], e[2 * i + 1]], f"a{i + 1}")
             for i in range(g)]
    built += [_capsule_for(curve, list(e[2 * i + 1: 2 * g + 1]), f"b{i + 1}")
              for i in range(g)]
    basis = HomologyBasis([c for c, _, _ in built[:g]],
                          [c for c, _, _ in built[g:]],
                          origin=curve.singular_points.copy(),
                          clearances=[r for _, r, _ in built],
                          floors=[f for _, _, f in built])
    if template_basis is not None:
        basis.b_flipped = list(template_basis.b_flipped)
        for i, flip in enumerate(basis.b_flipped):
            if flip:
                basis.b_cycles[i] = basis.b_cycles[i].reversed()
    else:
        _orient_b_cycles(curve, basis)
    basis.start_w = [curve.contour_start_w(c) for c in basis.cycles]
    return basis


def _transported(curve, template):
    """The template's cycles carried onto curve, or None if the clearance
    bound or the lift continuity fails (see homology_basis)."""
    if template.origin is None or len(template.origin) != len(curve.singular_points):
        return None
    delta = float(np.max(np.abs(curve.singular_points - template.origin)))
    if any(r - delta <= f for r, f in zip(template.clearances, template.floors)):
        return None
    cycles = []
    start_w = []
    for c, w_old in zip(template.cycles, template.start_w):
        w = complex(nm.nearest_root(curve.sqrtP(np.array([c.start()]))[0], w_old))
        if abs(w - w_old) > LIFT_JUMP_MAX * abs(w_old):
            return None
        cycles.append(_starting_on(curve, c, w, carried=range(len(c.segments))))
        start_w.append(w)
    g = len(template.a_cycles)
    return HomologyBasis(cycles[:g], cycles[g:], list(template.b_flipped), template.origin,
                         template.clearances, template.floors, start_w,
                         transported=True)


def _capsule_for(curve, group, label):
    """Capsule around group clear of every other singular point, with its
    clearance and routing floor (see homology_basis).

    The margin whose capsule's sampled distance (_dist_to_set) to the
    singular points is largest wins, the first in MARGIN_FRACS on a tie.
    That distance exceeds the exact clearance by at most _sample_gap, so
    only margins whose clearance plus gap reaches the best clearance are
    sampled; no other can score best. The floor gates the exact clearance."""
    group = [complex(p) for p in group]
    excluded = [complex(q) for q in curve.singular_points
                if min(abs(q - p) for p in group) > 1e-12]
    hull_probe = capsule(group, 1e-9, label)
    d_out = _dist_to_set(hull_probe, excluded)
    margins = [frac * d_out for frac in MARGIN_FRACS]
    caps = [capsule(group, margin, label) for margin in margins]
    # the boundary must keep clear of every singular point, enclosed or not
    clear = _exact_distances(caps, curve.singular_points)
    top = max(clear)
    singular = [complex(q) for q in curve.singular_points]
    best = None
    for r, c, margin in zip(clear, caps, margins):
        if (r + _sample_gap(c)) * (1.0 + 1e-9) < top:
            continue
        score = _dist_to_set(c, singular)
        if best is None or score > best[0]:
            best = (score, c, margin, r)
    _, contour, margin, clearance = best
    spread = _min_pairwise(curve.branch_points)
    floor = max(0.25 * margin, 0.03 * spread)
    if clearance <= floor:
        raise SurfaceError(f"could not route capsule {label} clear of "
                           "singular points; instance geometry too tight")
    return contour, clearance, floor


def _dist_to_set(contour, points):
    if not points:
        return 1.0
    z = contour.polyline(per_segment=DIST_SAMPLES)
    return float(np.min(np.abs(z[:, None] - np.asarray(points)[None, :])))


def _sample_gap(contour):
    """Half the largest step, along the contour, of the polyline
    _dist_to_set samples on a capsule (its segments are traced at uniform
    speed): how far that distance can exceed _exact_distances."""
    return 0.5 * max(seg.length() / (n - 1) for seg, n
                     in zip(contour.segments, contour.sample_counts(DIST_SAMPLES)))


def _exact_distances(contours, points):
    """Distance from each chain of lines and arcs to points (an array or a
    list), in closed form: the lines of all contours in one array pass, their
    arcs in another."""
    p = np.asarray(points, dtype=complex)
    lines, arcs = [], []
    for i, c in enumerate(contours):
        for seg in c.segments:
            (lines if isinstance(seg, Line) else arcs).append((i, seg))
    best = np.full(len(contours), np.inf)
    if lines:
        z0 = np.array([s.z0 for _, s in lines])[:, None]
        d = np.array([s.z1 - s.z0 for _, s in lines])[:, None]
        d2 = np.array([max(abs(s.z1 - s.z0) ** 2, 1e-300) for _, s in lines])[:, None]
        t = np.clip(((p - z0) * np.conj(d)).real / d2, 0.0, 1.0)
        np.minimum.at(best, [i for i, _ in lines], np.min(np.abs(p - (z0 + t * d)), axis=1))
    if arcs:
        # the foot of the radius through p lies on the arc, or the nearest
        # point is an arc end
        center = np.array([s.center for _, s in arcs])[:, None]
        radius = np.array([s.radius for _, s in arcs])[:, None]
        a0 = np.array([s.a0 for _, s in arcs])[:, None]
        a1 = np.array([s.a1 for _, s in arcs])[:, None]
        on_arc = (np.mod(np.angle(p - center) - np.minimum(a0, a1), 2 * np.pi)
                  <= np.abs(a1 - a0))
        # both ends as Arc.point computes them, along a new middle axis
        ends = center + radius * np.exp(1j * (a0 + (a1 - a0) * np.array([0.0, 1.0])))
        ends = np.min(np.abs(p - ends[:, :, None]), axis=1)
        dist = np.where(on_arc, np.abs(np.abs(p - center) - radius), ends)
        np.minimum.at(best, [i for i, _ in arcs], np.min(dist, axis=1))
    return best.tolist()


def _orient_b_cycles(curve, basis):
    """Flip b orientations so the computed pairing is +delta_ij."""
    g = len(basis.a_cycles)
    basis.b_flipped = [False] * g
    for i in range(g):
        n = intersection_number(curve, basis.a_cycles[i], basis.b_cycles[i])
        if n == 0:
            raise SurfaceError(f"a{i + 1} and b{i + 1} do not intersect; "
                               "capsule construction failed")
        if n < 0:
            basis.b_cycles[i] = basis.b_cycles[i].reversed()
            basis.b_flipped[i] = True


def intersection_matrix(curve, basis):
    g = len(basis.a_cycles)
    cycles = basis.a_cycles + basis.b_cycles
    m = np.zeros((2 * g, 2 * g), dtype=int)
    for i in range(2 * g):
        for j in range(i + 1, 2 * g):
            m[i, j] = intersection_number(curve, cycles[i], cycles[j])
            m[j, i] = -m[i, j]
    return m


def canonical_intersection(g):
    """The intersection matrix of a canonical basis a_1..a_g, b_1..b_g."""
    eye = np.eye(g, dtype=int)
    zero = np.zeros((g, g), dtype=int)
    return np.block([[zero, eye], [-eye, zero]])


def zero_paths(curve):
    """Reference paths from x_r to every other zero (branch or simple)."""
    paths = []
    targets = []
    for idx, z in enumerate(curve.zeros):
        if idx == curve.x_r_index:
            continue
        if z.is_branch:
            path = path_to_point(curve, z.x, None, sqrt_end="end",
                                 label=f"l->z{idx}")
        else:
            path = path_to_point(curve, z.x, z.w, label=f"l->z{idx}")
        paths.append(path)
        targets.append(idx)
    return paths, targets


def path_to_point(curve, target_x, target_w, sqrt_end=None, label=""):
    """Tracked path from x_r, starting on x_r's own lift, landing on the
    prescribed lift.

    If the direct route arrives on the wrong sheet, reroute through the
    vicinity of the first branch point, with or without a full loop around
    it, whichever lands on the requested lift.
    """
    src = curve.x_r

    def candidates():
        yield curve.path_between(src.x, target_x, sqrt_end=sqrt_end)
        yield from _rerouted_paths(curve, src.x, target_x)

    for path in candidates():
        path = _starting_on(curve, path, src.w, label=label)
        if target_w is None:
            return path
        w_end = curve.end_w(path)
        if abs(w_end - target_w) <= abs(w_end + target_w):
            return path
    raise ContinuationError("no routing landed on the requested lift")


def carry_path(curve, path, end):
    """A path from x_r of a nearby curve carried onto curve: its first
    segment now starts at curve's x_r and its last ends at `end`, the
    segments between are kept with their anchors, and it starts on x_r's
    lift. An integral along it is continuous in the moduli while no
    singular point crosses the path, which re-routing would not be (a
    detour arc can flip side).

    path (made by path_to_point or zero_paths) is first anchored on the
    curve it was made on, so the copy always carries those anchors, and its
    values do not depend on what has run before: in a forked FD worker as
    in one process (FDEngine.prefetch)."""
    path._start_w[0].anchors(path)
    segs = list(path.segments)
    segs[0] = replace(segs[0], z0=curve.x_r.x)
    segs[-1] = replace(segs[-1], z1=complex(end))
    return _starting_on(curve, path, curve.x_r.w, carried=range(1, len(segs) - 1),
                        segments=segs)


def _starting_on(curve, contour, w, carried=(), **changes):
    """A copy of contour (with changes) that starts on the lift w of curve.
    The copy has per-curve caches of its own, so those of the original stay
    with the curve they were made on. `carried` indexes the segments the
    copy shares with contour: their anchors are carried from contour's
    (SpectralCurve.anchors)."""
    c = replace(contour, **changes)
    c._start_w = (curve, complex(w))
    if carried:
        c._template = (contour, tuple(carried))
    return c


def _rerouted_paths(curve, a, b):
    """Yields two detour routes through the first branch point's clearance circle:
    with and without a full loop around it (the loop swaps sheets)."""
    bp = complex(curve.branch_points[0])
    r = curve.clearance[0]
    p_in = bp + r * _unit(a - bp)
    leg1 = curve.path_between(a, p_in)
    leg2 = curve.path_between(p_in, b)
    a0 = math.atan2((p_in - bp).imag, (p_in - bp).real)
    loop = Arc(bp, r, a0, a0 + 2 * math.pi)
    yield Contour(leg1.segments + [loop] + leg2.segments)
    yield Contour(leg1.segments + leg2.segments)


def _unit(z):
    return z / abs(z) if abs(z) > 0 else 1.0
