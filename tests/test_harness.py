import gc
import json
import time
import weakref

import pytest

from speclab import cli, harness
from speclab.instances import load_instance


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(harness.HarnessError, match="valid:"):
            harness.run_suite("ell4", "foo")

    def test_unknown_instance(self):
        with pytest.raises(FileNotFoundError):
            harness.run_suite("nonexistent-label", "surface")

    def test_surface_report_schema(self):
        report = harness.run_suite("ell4", "surface")
        doc = report.as_dict()
        assert doc["instance"] == "ell4" and doc["suite"] == "surface"
        assert doc["pass"] is True
        for check in doc["checks"]:
            for key in ("name", "paper_eq", "lhs", "rhs", "abs_err",
                        "rel_err", "tol", "pass"):
                assert key in check
            assert len(check["lhs"]) == 2
        json.loads(report.to_json())

    def test_absolute_flag_in_report(self):
        report = harness.run_suite("ell4", "surface")
        checks = {c["name"]: c for c in report.as_dict()["checks"]}
        assert checks["period-matrix-symmetric"]["absolute"] is True
        assert checks["intersection-matrix-canonical"]["absolute"] is False

    def test_tau_requires_residue_free(self):
        with pytest.raises(harness.HarnessError, match="residue-free"):
            harness.run_suite("g2-23", "tau")

    def test_determinism(self):
        r1 = harness.run_suite("ell4", "scaling")
        r2 = harness.run_suite("ell4", "scaling")
        for c1, c2 in zip(r1.checks, r2.checks):
            assert c1.name == c2.name
            assert c1.lhs == c2.lhs and c1.rhs == c2.rhs

    def test_raising_suite_becomes_fail_record(self, monkeypatch, tmp_path, capsys):
        # the first suite of `all` raises: its FAIL record names the class,
        # the next suite still runs, the report is written and verify exits 2
        def raising(ses, chk):
            chk.add_flag("before-the-raise", "none", True)
            return 1 / 0

        def passing(ses, chk):
            chk.add_flag("later-suite", "none", True)

        monkeypatch.setattr(harness, "SUITE_FUNCS", {"surface": raising, "scaling": passing})
        out = tmp_path / "all.json"
        rc = cli.main(["verify", "--instance", "ell4", "--suite", "all",
                       "--report", str(out)])
        assert rc == 2
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks] == [
            "before-the-raise", "surface-raised-ZeroDivisionError", "later-suite"]
        error = checks[1]
        assert error["gating"] and not error["pass"]
        assert error["error"].startswith("ZeroDivisionError at test_harness.py:")
        assert all(c["error"] is None for c in (checks[0], checks[2]))
        assert "[FAIL] surface-raised-ZeroDivisionError" in capsys.readouterr().out

    def test_fd_records_carry_step_and_gap(self):
        checks = harness.run_suite("ell4", "dm-cubic").as_dict()["checks"]
        fd = [c for c in checks if c["name"].startswith(("dv/", "branch-integral/", "dOmega/"))]
        assert len(fd) == 3 * 8
        assert all(c["fd_step"] > 0 and c["fd_gap"] > 0 for c in fd)
        rest = [c for c in checks if c not in fd]
        assert rest and all(c["fd_step"] is None and c["fd_gap"] is None for c in rest)

    def test_every_check_is_timed(self):
        # each record holds the time since the previous one, so none reads 0
        # and together they never exceed the call
        t0 = time.perf_counter()
        report = harness.run_suite("ell4", "scaling")
        elapsed = time.perf_counter() - t0
        walls = [c.wall_time for c in report.checks]
        assert walls and all(w > 0 for w in walls)
        assert sum(walls) <= elapsed


class TestDescribe:
    def test_ell4(self):
        doc = harness.describe("ell4")
        c = doc["counts"]
        assert (c["p"], c["genus"], c["r"], c["dim"]) == (4, 1, 8, 8)
        assert doc["genericity"]["ok"]

    def test_g2_5(self):
        doc = harness.describe("g2-5")
        c = doc["counts"]
        assert (c["p"], c["genus"], c["r"], c["dim"]) == (6, 2, 12, 11)


class TestSweep:
    def test_empty_eps_list(self):
        with pytest.raises(harness.HarnessError, match="empty"):
            harness.sweep_epsilon("ell4", "omega", "A1", [])

    def test_unknown_functional(self):
        with pytest.raises(harness.HarnessError, match="unknown functional"):
            harness.sweep_epsilon("ell4", "zeta", "A1", [1e-3])

    def test_b_periods_converge_at_second_order(self):
        # raw central differences of the b-periods of v in A1 against Omega:
        # the error falls 4x per halving of eps
        rows = harness.sweep_epsilon("ell4", "b-periods", "A1", [1e-3, 5e-4, 2.5e-4])
        assert len(rows) == 3
        for row in rows[1:]:
            assert 3.5 <= row["ratio"] <= 4.5 and not row["floor"]

    def test_csv_shape(self):
        rows = harness.sweep_epsilon("ell4", "omega", "A1", [1e-3, 5e-4])
        csv = harness.sweep_to_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("eps,")
        assert len(lines) == 3


class TestCLI:
    def test_describe(self, capsys):
        rc = cli.main(["describe", "--instance", "ell4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"genus": 1' in out

    def test_verify_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = cli.main(["verify", "--instance", "ell4", "--suite", "scaling",
                       "--report", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        rc2 = cli.main(["verify", "--instance", "ell4", "--suite", "foo"])
        assert rc2 == 2

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        def failing(ses, chk):
            chk.add("always-fails", "none", 1.0, 2.0, 1e-3)

        monkeypatch.setitem(harness.SUITE_FUNCS, "scaling", failing)
        rc = cli.main(["verify", "--instance", "ell4", "--suite", "scaling"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[FAIL] always-fails" in out and "FAIL scaling on ell4" in out

    @pytest.mark.parametrize("flag", ["--tol", "--eps"])
    def test_overrides_are_not_options(self, flag, capsys):
        # tolerances and FD steps are pinned; argparse refuses both flags
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--instance", "ell4", "--suite", "scaling", flag, "1e-3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("eps", ["0", "-1e-3", "nan", "inf"])
    def test_sweep_refuses_bad_eps(self, eps, capsys):
        rc = cli.main(["sweep", "--instance", "ell4", "--functional", "omega",
                       "--coord", "A1", "--eps-list", f"1e-3,{eps}"])
        assert rc == 2
        assert "error: HarnessError" in capsys.readouterr().err

    def test_internal_error_exits_2(self, capsys):
        # an exception is an error (2), never a gating failure (1)
        rc = cli.main(["sweep", "--instance", "ell4", "--functional", "omega",
                       "--coord", "Z9", "--eps-list", "1e-3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "error: ModuliError: unknown coordinate 'Z9'" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--instance", "n3-smoke", "--suite", "tau"],
        ["sweep", "--instance", "n3-smoke", "--functional", "omega", "--coord", "A1",
         "--eps-list", "1e-3"]])
    def test_n2_commands_refuse_n3(self, argv, capsys):
        # a suite that cannot run on n = 3 is an error, never a PASS of the
        # exploratory checks alone
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "error: HarnessError" in err and "n = 2" in err

    @pytest.mark.parametrize("suite", ["surface", "all"])
    def test_n3_exploratory_suites_pass(self, suite, capsys):
        assert cli.main(["verify", "--instance", "n3-smoke", "--suite", suite]) == 0
        assert f"PASS {suite} on n3-smoke" in capsys.readouterr().out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = cli.main(["sweep", "--instance", "ell4", "--functional", "omega",
                       "--coord", "A1", "--eps-list", "1e-3,5e-4",
                       "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("eps,")


class TestKernelDirections:
    def test_pinned_per_instance(self, ell4, g2_5, g2_23, g2_resfree):
        assert harness._kernel_directions(ell4) == ["A1", "C(1,1,2)", "C(1,2,1)"]
        assert harness._kernel_directions(g2_5) == ["A1", "A2", "C(1,2,1)"]
        for ses in (g2_23, g2_resfree):
            assert harness._kernel_directions(ses) == ["A1", "A2", "C(1,1,2)", "C(1,2,1)"]


class TestSweepNoiseFloor:
    def test_tiny_eps_flags_floor(self):
        rows = harness.sweep_epsilon("ell4", "omega", "A1",
                                     [1e-3, 1e-7, 5e-8])
        assert any(r["floor"] for r in rows[1:])

    def test_a_only_functionals_reject_c_coordinates(self):
        for functional in ("q2", "b-periods"):
            with pytest.raises(harness.HarnessError, match="needs an A coordinate"):
                harness.sweep_epsilon("ell4", functional, "C(1,1,2)", [1e-3])


class TestFileInstances:
    def test_describe_from_file(self, tmp_path):
        from speclab.instances import dump_instance, load_instance
        spec = load_instance("ell4")
        path = tmp_path / "inst.json"
        path.write_text(dump_instance(spec))
        doc = harness.describe(str(path))
        assert doc["counts"]["genus"] == 1


class TestNoReferenceCycles:
    def test_session_and_fd_builds_freed_without_collector(self):
        # a reference cycle through a Geometry would keep the Session and
        # every FD build alive until the cyclic collector runs
        gc.disable()
        try:
            ses = harness.Session(load_instance("g2-resfree"))
            harness.suite_tau(ses, harness.Checker(harness.Report("g2-resfree", "tau")))
            refs = [weakref.ref(ses.geo)] + [weakref.ref(geo) for geo in ses.eng._cache.values()]
            del ses
            alive = [r for r in refs if r() is not None]
        finally:
            gc.enable()
        assert len(refs) > 1
        assert not alive, f"{len(alive)} of {len(refs)} geometries alive"
