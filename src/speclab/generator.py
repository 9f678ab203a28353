"""Built-in instance generation.

Instances are manufactured rather than drawn blindly: branch points come
from a jittered ladder (so cuts and capsules have room), poles sit on an
outer circle, N1 is a random moderate polynomial, and N2 = (N1^2 - P)/4
realizes the prescribed discriminant P = prod (x - e_i). Draw seeds advance
until validation passes with margin: genericity, capsule routing, canonical
intersection matrix, positive-definite Im(Omega), the distinguished zero off
the branch locus, and well-conditioned Gram data. The residue-free variant
is reached by Newton steps in the moduli chart that zero the simple-pole
coefficients.

Run `python -m speclab.generator` to regenerate the data files.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from . import moduli
from . import numerics as nm
from . import surface as sf
from .differentials import DifferentialError, Geometry
from .instances import InstanceSpec, Pole, dump_instance, parse_instance


DATA_DIR = pathlib.Path(__file__).parent / "data"


def _ladder(rng, count):
    xs = np.linspace(-1.2, 1.2, count)
    pts = xs + rng.uniform(-0.08, 0.08, count) + 1j * rng.uniform(-0.22, 0.22, count)
    return np.sort_complex(pts)


def _poly_from_roots(roots):
    out = np.array([1.0 + 0.0j])
    for r in roots:
        out = nm.polymul(out, [-r, 1.0])
    return out


def _draw(label, n, poles, rng, residue_free=False):
    ks = [k for _, k in poles]
    sk = sum(ks)
    p = n * (n - 1) * (sk - 2)
    e = _ladder(rng, p)
    if residue_free:
        e = _tune_ladder_residue_free(e, poles)
    if sf._min_pairwise(e) < 0.15:
        raise ModuliHint("ladder points too close after tuning")
    P = _poly_from_roots(e)
    d1 = sk - 2
    pole_xs = np.array([x for x, _ in poles])
    for scale in (0.8, 1.2, 0.5, 1.6, 1.0, 0.65, 1.4, 0.9, 2.0, 0.75):
        for _ in range(4):
            if residue_free:
                N1 = _draw_n1_residue_free(rng, d1, poles) * scale
            else:
                N1 = (rng.standard_normal(d1 + 1) + 1j * rng.standard_normal(d1 + 1)) * scale
            N2 = nm.polyadd(nm.polymul(N1, N1), -P) / 4.0
            if _layout_ok(e, N2, pole_xs):
                return InstanceSpec(label, n, [Pole(complex(x), k) for x, k in poles],
                                    {1: N1, 2: N2})
    raise ModuliHint("no acceptable zero layout for this ladder")


def _layout_ok(e, N2, pole_xs):
    """Cheap pre-filter: zeros of v clear of branch points, poles and each
    other, and the lexicographically maximal zero not a branch point."""
    try:
        z = nm.poly_roots(N2).roots
    except nm.RootFindingError:
        return False
    if len(z) != len(nm.polytrim(N2)) - 1:
        return False
    allpts = np.concatenate([e, z])
    if sf._min_pairwise(allpts) < 0.1:
        return False
    if pole_xs.size and float(np.min(np.abs(
            allpts[:, None] - pole_xs[None, :]))) < 0.3:
        return False
    key_branch = max((b.real, b.imag) for b in e)
    key_zero = max((c.real, c.imag) for c in z)
    return key_zero > key_branch


def _res_parts(poles, j):
    """Local data at pole j: (y, k, series of D/chi^k around y)."""
    y, k = poles[j]
    dpoly = np.array([1.0 + 0.0j])
    for (yy, kk) in poles:
        fac = nm.polyshift(_poly_from_roots([yy] * kk), y)
        dpoly = nm.polymul(dpoly, fac)
    # divide by chi^k: D has a zero of exact order k at its own pole
    dtil = dpoly[k:]
    return complex(y), k, dtil


def _sqrt_residue_defects(P, poles):
    """Per pole: coefficient of chi^(k-1) in sqrt(P(y+chi)) / (D/chi^k);
    the sheet-antisymmetric part of the residues of v."""
    out = []
    for j in range(len(poles)):
        y, k, dtil = _res_parts(poles, j)
        w_ser = nm.series_sqrt(nm.polyshift(P, y), k + 1)
        ratio = nm.series_mul(w_ser, nm.series_inv(dtil, k + 1), k + 1)
        out.append(ratio[k - 1] / 2.0)
    return np.array(out)


def _tune_ladder_residue_free(e, poles):
    """Least-norm Newton on all ladder points so the sqrt parts of the
    residues vanish; the minimal update keeps the ladder well separated."""
    e = np.array(e, dtype=complex)
    m = len(e)

    def defect(pts):
        return _sqrt_residue_defects(_poly_from_roots(pts), poles)

    for _ in range(60):
        f = defect(e)
        if float(np.max(np.abs(f))) < 1e-14:
            return e
        h = 1e-7
        jac = np.zeros((len(poles), m), dtype=complex)
        for c in range(m):
            dv = e.copy()
            dv[c] += h
            jac[:, c] = (defect(dv) - f) / h
        step = np.linalg.pinv(jac) @ f
        if float(np.max(np.abs(step))) > 0.5:
            step = step * (0.5 / float(np.max(np.abs(step))))
        e = e - step
    if float(np.max(np.abs(defect(e)))) > 1e-12:
        raise ModuliHint("ladder tuning did not converge")
    return e


def _draw_n1_residue_free(rng, d1, poles):
    """Random N1 in the linear subspace killing the sheet-symmetric residue
    parts at each pole."""
    ncoef = d1 + 1
    rows = []
    for j in range(len(poles)):
        y, k, dtil = _res_parts(poles, j)
        inv = nm.series_inv(dtil, k + 1)
        row = np.zeros(ncoef, dtype=complex)
        for i in range(ncoef):
            mono = nm.polyshift(np.eye(ncoef, dtype=complex)[i], y)
            ratio = nm.series_mul(mono, inv, k + 1)
            row[i] = ratio[k - 1]
        rows.append(row)
    a = np.array(rows)
    # orthonormal basis of the nullspace via SVD
    _, sv, vh = np.linalg.svd(a)
    rank = int(np.sum(sv > 1e-12 * max(sv[0], 1e-300)))
    null = vh.conj().T[:, rank:]
    if null.shape[1] == 0:
        raise ModuliHint("no residue-free direction for N1")
    coeffs = (rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])) * 0.6
    return null @ coeffs


class ModuliHint(RuntimeError):
    pass


def _draw_n3(label, poles, rng):
    ks = [k for _, k in poles]
    sk = sum(ks)
    numer = {}
    for ell in (1, 2, 3):
        d = ell * sk - 2 * ell
        numer[ell] = (rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)) * 0.5
    return InstanceSpec(label, 3, [Pole(complex(x), k) for x, k in poles], numer)


def _vet(spec):
    """The cover's Geometry once it passes validation; None for n > 2,
    whose covers are vetted for genericity only."""
    curve = sf.build_surface(spec)
    for key, val in curve.genericity.margins.items():
        if val < 0.02:
            raise sf.SurfaceError(f"margin {key} too small ({val:.3g})")
    if spec.n != 2:
        return None
    geo = Geometry(curve)
    m = sf.intersection_matrix(curve, geo.basis)
    if not np.array_equal(m, sf.canonical_intersection(geo.genus)):
        raise sf.SurfaceError(f"intersection matrix not canonical:\n{m}")
    if geo.period.gram_cond > 1e6:  # after the build's symmetry and Im > 0 checks
        raise sf.SurfaceError("ill-conditioned Gram system")
    # keep the odd-theta data comfortably nonsingular
    scale = float(np.linalg.norm(geo.kernels.grad_odd_at_zero))
    if scale < 1e-3:
        raise sf.SurfaceError("odd characteristic too close to singular")
    return geo


def _rescale(spec, geo):
    """Scale Q_ell -> lam^ell Q_ell so the smallest a-period coordinate is
    O(1); singular-part coordinates may then be large, which is harmless
    since navigation steps are relative, while tiny a-periods would starve
    the finite-difference oracles of digits."""
    coords = moduli.Navigator(geo).coordinates
    amin = float(np.min(np.abs(coords.vector[:geo.genus])))
    scale = float(np.max(np.abs(coords.vector)))
    if amin < 1e-6 * scale:
        raise ModuliHint(f"degenerate chart: min |A| = {amin / scale:.2e} of scale")
    return moduli.scaled_spec(spec, 0.25 / amin)


MAX_ATTEMPTS = 160  # seeds tried per generate call


def generate(label, seed_base=None):
    recipes = {
        "ell4": dict(n=2, poles=[(0.0 + 0.0j, 4)], seed=101),
        "g2-5": dict(n=2, poles=[(2.1 + 0.0j, 1), (1.1 + 1.8j, 1), (-0.9 + 1.9j, 1),
                                 (-2.0 - 0.8j, 1), (0.8 - 1.9j, 1)], seed=202),
        "g2-23": dict(n=2, poles=[(1.75 + 0.95j, 2), (1.7 - 1.1j, 3)], seed=303),
        "g2-resfree": dict(n=2, poles=[(1.75 + 0.95j, 2), (1.7 - 1.1j, 3)], seed=404),
        "n3-smoke": dict(n=3, poles=[(2.5 + 0.0j, 1), (-1.3 + 2.2j, 1), (-1.2 - 2.3j, 1)],
                         seed=505),
    }
    rec = recipes[label]
    base = rec["seed"] if seed_base is None else seed_base
    last = None
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(base * 1000 + attempt)
        try:
            if rec["n"] == 3:
                spec = _draw_n3(label, rec["poles"], rng)
                _vet(spec)
                return spec
            residue_free = label == "g2-resfree"
            spec = _draw(label, rec["n"], rec["poles"], rng, residue_free=residue_free)
            spec = _rescale(spec, _vet(spec))
            geo = _vet(spec)
            if residue_free:
                coords = moduli.Navigator(geo).coordinates.vector
                res = [abs(v) for key, v in zip(moduli.coordinate_keys(spec, geo.genus), coords)
                       if key[0] == "C" and key[3] == 1]
                if max(res) > 1e-11:
                    raise sf.SurfaceError(f"residues not annihilated ({max(res):.2e})")
            return spec
        except (sf.SurfaceError, nm.NumericsError, moduli.ModuliError,
                DifferentialError, ModuliHint) as exc:
            last = exc
            continue
    raise RuntimeError(f"could not generate '{label}' after {MAX_ATTEMPTS} "
                       f"attempts; last failure: {last}")


def main():
    DATA_DIR.mkdir(exist_ok=True)
    for label in ("ell4", "g2-5", "g2-23", "g2-resfree", "n3-smoke"):
        spec = generate(label)
        out = DATA_DIR / f"{label}.json"
        out.write_text(dump_instance(spec))
        back = parse_instance(out.read_text())
        assert back.label == label
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
