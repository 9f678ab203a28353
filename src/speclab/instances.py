"""Spectral-cover instance files: parsing, validation, derived counts.

An instance is the algebraic data of an n-sheeted cover of the sphere:
pole locations y_j with orders k_j and, for each ell, the numerator
polynomial N_ell of the rational coefficient q_ell = N_ell / prod (x-y_j)^{ell k_j}.
The base curve is always the sphere (genus 0) in a single affine chart;
instances are expected to be Moebius-normalized so that nothing sits at
infinity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import numerics as nm


class InstanceError(ValueError):
    """Raised on malformed or non-generic instance data; carries a field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Pole:
    x: complex
    k: int


@dataclass
class InstanceSpec:
    label: str
    n: int
    poles: list
    numer: dict  # ell -> ascending complex coefficient array

    @property
    def sum_k(self):
        return sum(p.k for p in self.poles)

    @property
    def pole_locations(self):
        return np.array([p.x for p in self.poles])

    def denominator(self, power=1):
        """prod_j (x - y_j)^{power * k_j} as ascending coefficients."""
        out = np.array([1.0 + 0.0j])
        for p in self.poles:
            fac = np.array([-p.x, 1.0])
            for _ in range(power * p.k):
                out = nm.polymul(out, fac)
        return out

    def numer_degree_bound(self, ell):
        return ell * self.sum_k - 2 * ell


@dataclass(frozen=True)
class DerivedCounts:
    p: int
    genus: int
    r: int
    dim: int
    coeff_dims: tuple

    def as_dict(self):
        return {"p": self.p, "genus": self.genus, "r": self.r, "dim": self.dim,
                "coeff_dims": list(self.coeff_dims)}


def derived_counts(n, ks):
    """Branch/zero/moduli counts for an n-sheeted cover of the sphere with
    pole orders ks. Valid for n >= 1 (n = 1 degenerates to the base)."""
    g = 0
    sk = int(sum(ks))
    p = n * (n - 1) * (2 * g - 2 + sk)
    genus = n * n * (g - 1) + 1 + (n * (n - 1) // 2) * sk
    r = 2 * genus - 2 + n * sk
    dim = genus + n * sk - 1
    dims = tuple(ell * sk + (2 * ell - 1) * (g - 1) for ell in range(1, n + 1))
    alt = (n * (n + 1) // 2) * sk + n * n * (g - 1)
    assert dim == alt, "moduli dimension computed two ways must agree"
    assert sum(dims) == dim
    return DerivedCounts(p, genus, r, dim, dims)


def counts_of(spec):
    return derived_counts(spec.n, [p.k for p in spec.poles])


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _is_int(value):
    """An integer that is not a boolean (JSON true is a Python int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    return _is_int(value) or isinstance(value, float)


def _as_complex(value, path):
    if _is_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(
            _is_real(v) for v in value):
        return complex(value[0], value[1])
    raise InstanceError(path, "expected a number or [re, im] pair")


def parse_instance(document):
    """Parse and validate an instance JSON document (text or dict)."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise InstanceError("$", f"malformed JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise InstanceError("$", "top level must be an object")

    label = doc.get("label")
    if not isinstance(label, str) or not label:
        raise InstanceError("$.label", "missing or empty label")
    n = doc.get("n")
    if not _is_int(n) or n < 2:
        raise InstanceError("$.n", "sheet count n must be an integer >= 2")

    raw_poles = doc.get("poles")
    if not isinstance(raw_poles, list) or not raw_poles:
        raise InstanceError("$.poles", "at least one pole required")
    poles = []
    for i, rp in enumerate(raw_poles):
        path = f"$.poles[{i}]"
        if not isinstance(rp, dict):
            raise InstanceError(path, "pole must be an object")
        x = _as_complex(rp.get("x"), path + ".x")
        k = rp.get("k")
        if not _is_int(k) or k < 1:
            raise InstanceError(path + ".k", "order k must be an integer >= 1")
        poles.append(Pole(x, k))
    locs = [p.x for p in poles]
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            if locs[i] == locs[j]:
                raise InstanceError(f"$.poles[{j}].x", "duplicate pole location")

    raw_q = doc.get("Q")
    if not isinstance(raw_q, list):
        raise InstanceError("$.Q", "missing differential list")
    numer = {}
    for i, rq in enumerate(raw_q):
        path = f"$.Q[{i}]"
        if not isinstance(rq, dict):
            raise InstanceError(path, "entry must be an object")
        ell = rq.get("ell")
        if not _is_int(ell) or not (1 <= ell <= n):
            raise InstanceError(path + ".ell", f"ell must be in 1..{n}")
        if ell in numer:
            raise InstanceError(path + ".ell", f"duplicate differential ell={ell}")
        coeffs = rq.get("numer")
        if not isinstance(coeffs, list) or not coeffs:
            raise InstanceError(path + ".numer", "missing numerator coefficients")
        numer[ell] = np.array(
            [_as_complex(c, f"{path}.numer[{j}]") for j, c in enumerate(coeffs)])

    spec = InstanceSpec(label, n, poles, numer)
    for ell in range(1, n + 1):
        if ell not in numer:
            raise InstanceError("$.Q", f"missing differential ell={ell}")
        bound = spec.numer_degree_bound(ell)
        deg = len(nm.polytrim(numer[ell])) - 1
        if np.all(numer[ell] == 0):
            deg = -1
        if deg > bound:
            raise InstanceError(
                f"$.Q[ell={ell}].numer",
                f"degree {deg} exceeds bound {bound} (= ell*sum k - 2 ell); "
                "the coefficient would not extend over infinity")
    if spec.sum_k < 1:
        raise InstanceError("$.poles", "at least one k_j > 0 required")
    return spec


def dump_instance(spec):
    """Inverse of parse_instance; bit-stable [re, im] pairs."""
    return json.dumps({
        "label": spec.label,
        "n": spec.n,
        "poles": [{"x": [p.x.real, p.x.imag], "k": p.k} for p in spec.poles],
        "Q": [{"ell": ell,
               "numer": [[complex(c).real, complex(c).imag] for c in spec.numer[ell]]}
              for ell in sorted(spec.numer)],
    }, indent=1)


# ---------------------------------------------------------------------------
# built-in instance library
# ---------------------------------------------------------------------------

BUILTIN_LABELS = ("ell4", "g2-5", "g2-23", "g2-resfree", "n3-smoke")


def load_instance(name):
    """Load a built-in instance by label, or an instance file by path."""
    if name in BUILTIN_LABELS:
        text = resources.files("speclab.data").joinpath(name + ".json").read_text()
        return parse_instance(text)
    with open(name, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

@dataclass
class GenericityIssue:
    check: str
    message: str
    where: list


@dataclass
class GenericityReport:
    ok: bool
    issues: list
    margins: dict

    def fail_reasons(self):
        return "; ".join(f"{i.check}: {i.message}" for i in self.issues)


GENERICITY_MARGIN = 1e-4  # least separation (or |P'|), relative to its scale


def validate_genericity(spec, curve):
    """Check the non-degeneracy assumptions the numerics rely on.

    Requires the built curve (branch points, zeros, fiber data). Verifies:
    simple pairwise-separated discriminant zeros, none at a pole or at
    infinity; simple zeros of the cover differential distinct from branch
    points; unramified fibers over the poles.
    """
    issues = []
    margins = {}
    scale = max(1.0, float(np.max(np.abs(curve.branch_points))) if len(curve.branch_points) else 1.0)

    # discriminant degree exact => no branch point at infinity
    P = curve.disc_poly
    expected_deg = curve.counts.p
    if len(nm.polytrim(P)) - 1 != expected_deg:
        issues.append(GenericityIssue(
            "branch-at-infinity",
            f"discriminant degree {len(nm.polytrim(P)) - 1} != {expected_deg}",
            []))

    bp = curve.branch_points
    if len(bp) >= 2:
        d = np.abs(bp[:, None] - bp[None, :]) + np.eye(len(bp)) * 1e9
        min_sep = float(np.min(d))
        margins["branch_separation"] = min_sep / scale
        if min_sep < GENERICITY_MARGIN * scale:
            ij = np.unravel_index(np.argmin(d), d.shape)
            issues.append(GenericityIssue(
                "non-simple branch point",
                f"branch points {bp[ij[0]]:.6g} and {bp[ij[1]]:.6g} too close",
                [bp[ij[0]], bp[ij[1]]]))

    # simple roots of the discriminant: |P'(root)| bounded below
    dP = nm.polyder(P)
    vals = np.abs(nm.polyval(dP, bp))
    pscale = float(np.max(np.abs(P)))
    margins["disc_derivative"] = float(np.min(vals)) / pscale if len(bp) else np.inf
    for b, v in zip(bp, vals):
        if v < GENERICITY_MARGIN * pscale:
            issues.append(GenericityIssue(
                "non-simple branch point", f"discriminant derivative tiny at {b:.6g}", [b]))

    # poles distinct from branch points (fibers unramified)
    for p in spec.poles:
        dmin = float(np.min(np.abs(bp - p.x))) if len(bp) else np.inf
        if dmin < GENERICITY_MARGIN * scale:
            issues.append(GenericityIssue(
                "pole collides with branch point",
                f"pole {p.x:.6g} within {dmin:.3g} of a branch point", [p.x]))
    margins["pole_branch_distance"] = float(
        min((np.min(np.abs(bp - p.x)) for p in spec.poles), default=np.inf)) / scale

    # zeros of v: simple, distinct from branch points and poles
    z0 = np.array([z.x for z in curve.zeros_d0])
    if len(z0):
        dz = np.abs(z0[:, None] - z0[None, :]) + np.eye(len(z0)) * 1e9
        if float(np.min(dz)) < GENERICITY_MARGIN * scale:
            issues.append(GenericityIssue(
                "non-simple zero", "two zeros of the cover differential coincide", []))
        for z in z0:
            if float(np.min(np.abs(bp - z))) < GENERICITY_MARGIN * scale:
                issues.append(GenericityIssue(
                    "zero at branch point", f"zero {z:.6g} meets a branch point", [z]))
            for p in spec.poles:
                if abs(z - p.x) < GENERICITY_MARGIN * scale:
                    issues.append(GenericityIssue(
                        "zero at pole", f"zero {z:.6g} meets pole {p.x:.6g}", [z]))
        margins["zero_separation"] = float(np.min(dz)) / scale

    return GenericityReport(not issues, issues, margins)
