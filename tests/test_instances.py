import json

import numpy as np
import pytest

from speclab import numerics as nm
from speclab import surface as sf
from speclab.instances import (InstanceError, counts_of, derived_counts,
                               dump_instance, load_instance, parse_instance,
                               validate_genericity)


def minimal_doc(**over):
    doc = {
        "label": "t", "n": 2,
        "poles": [{"x": [0.0, 0.0], "k": 4}],
        "Q": [
            {"ell": 1, "numer": [[0.3, 0.1], [-0.2, 0.0], [0.4, -0.1]]},
            {"ell": 2, "numer": [[0.1, 0.0], [0.0, 0.0], [0.0, 0.0],
                                 [0.0, 0.0], [-0.25, 0.0]]},
        ],
    }
    doc.update(over)
    return doc


class TestParse:
    def test_valid_roundtrip(self):
        spec = parse_instance(json.dumps(minimal_doc()))
        assert spec.n == 2 and spec.sum_k == 4
        back = parse_instance(dump_instance(spec))
        assert np.allclose(back.numer[1], spec.numer[1])
        assert back.poles == spec.poles

    def test_missing_q2(self):
        doc = minimal_doc()
        doc["Q"] = doc["Q"][:1]
        with pytest.raises(InstanceError, match="missing differential ell=2"):
            parse_instance(json.dumps(doc))

    def test_duplicate_pole(self):
        doc = minimal_doc(poles=[{"x": [0.0, 0.0], "k": 2},
                                 {"x": [0.0, 0.0], "k": 2}])
        with pytest.raises(InstanceError, match="duplicate pole"):
            parse_instance(json.dumps(doc))

    def test_n_below_two(self):
        with pytest.raises(InstanceError, match="n must be"):
            parse_instance(json.dumps(minimal_doc(n=1)))

    def test_degree_bound(self):
        doc = minimal_doc()
        doc["Q"][0]["numer"].append([1.0, 0.0])  # degree 3 > 4 - 2
        with pytest.raises(InstanceError, match="degree"):
            parse_instance(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(InstanceError, match="malformed"):
            parse_instance("{not json")

    @pytest.mark.parametrize("edit,path", [
        (lambda d: d["poles"][0].update(x=[True, False]), "$.poles[0].x"),
        (lambda d: d["poles"][0].update(x=True), "$.poles[0].x"),
        (lambda d: d["poles"][0].update(k=True), "$.poles[0].k"),
        (lambda d: d["Q"][0].update(ell=True), "$.Q[0].ell"),
        (lambda d: d["Q"][1]["numer"].__setitem__(0, [0.1, True]), "$.Q[1].numer[0]"),
        (lambda d: d.update(n=True), "$.n"),
    ], ids=["x-pair", "x-scalar", "k", "ell", "numer", "n"])
    def test_booleans_are_not_numbers(self, edit, path):
        doc = minimal_doc()
        edit(doc)
        with pytest.raises(InstanceError) as info:
            parse_instance(json.dumps(doc))
        assert info.value.path == path

    def test_bad_complex(self):
        doc = minimal_doc()
        doc["Q"][0]["numer"][0] = "zap"
        with pytest.raises(InstanceError, match="numer"):
            parse_instance(json.dumps(doc))


class TestCounts:
    def test_five_simple_poles(self):
        c = derived_counts(2, [1, 1, 1, 1, 1])
        assert (c.p, c.genus, c.r, c.dim) == (6, 2, 12, 11)

    def test_single_order_four(self):
        c = derived_counts(2, [4])
        assert (c.p, c.genus, c.r, c.dim) == (4, 1, 8, 8)

    def test_orders_two_three(self):
        c = derived_counts(2, [2, 3])
        assert (c.p, c.genus, c.r, c.dim) == (6, 2, 12, 11)

    def test_degenerate_cover(self):
        c = derived_counts(1, [3])
        assert c.p == 0 and c.genus == 0

    def test_dimension_two_ways_and_coordinate_count(self):
        from speclab.moduli import coordinate_names
        for label in ("ell4", "g2-5", "g2-23"):
            spec = load_instance(label)
            c = counts_of(spec)
            n, sk = spec.n, spec.sum_k
            assert c.dim == (n * (n + 1) // 2) * sk - n * n
            assert c.dim == c.genus + n * sk - 1
            assert len(coordinate_names(spec, c.genus)) == c.dim


class TestGenericity:
    def test_builtin_instances_pass(self):
        for label in ("ell4", "g2-5", "g2-23", "g2-resfree"):
            spec = load_instance(label)
            curve = sf.build_surface(spec)
            assert curve.genericity.ok, curve.genericity.fail_reasons()

    def test_double_branch_root_fails(self, ell4):
        # move one discriminant root onto another by retuning N2: the
        # validator must flag the non-simple branch point
        spec = ell4.spec
        e = ell4.curve.branch_points.copy()
        e[1] = e[0]
        P_dbl = np.array([1.0 + 0.0j])
        for r in e:
            P_dbl = nm.polymul(P_dbl, [-r, 1.0])
        lead = ell4.curve.P[-1]
        numer = {1: spec.numer[1],
                 2: nm.polyadd(nm.polymul(spec.numer[1], spec.numer[1]),
                               -lead * P_dbl) / 4.0}
        from speclab.instances import InstanceSpec
        bad = InstanceSpec("bad", 2, spec.poles, numer)
        with pytest.raises(sf.SurfaceError, match="non-simple|genericity"):
            sf.build_surface(bad)

    def test_pole_on_branch_point_fails(self, ell4):
        from speclab.instances import InstanceSpec, Pole
        spec = ell4.spec
        b = complex(ell4.curve.branch_points[0])
        bad = InstanceSpec("bad", 2, [Pole(b, 4)], dict(spec.numer))
        with pytest.raises(sf.SurfaceError, match="pole collides|genericity"):
            sf.build_surface(bad)

    def test_report_margins_present(self, ell4):
        rep = validate_genericity(ell4.spec, ell4.curve)
        assert rep.ok
        assert "branch_separation" in rep.margins
