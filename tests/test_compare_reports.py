import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(name, abs_err=0.0, wall_time=0.1):
    return {"name": name, "abs_err": abs_err, "wall_time": wall_time}


def _report(*checks):
    return {"instance": "ell4", "suite": "all", "pass": True, "checks": list(checks)}


def test_wall_time_is_ignored(compare):
    a = _report(_check("x"), _check("y"))
    b = _report(_check("x", wall_time=9.0), _check("y", wall_time=0.0))
    assert compare.differences(a, b) == []


def test_missing_record_shifts_nothing(compare):
    a = _report(_check("x"), _check("gone"), _check("y", 1e-3), _check("z"))
    b = _report(_check("x"), _check("y", 1e-3), _check("z"), _check("new"))
    assert compare.differences(a, b) == ["only in a: gone", "only in b: new"]


def test_repeated_names_pair_by_occurrence(compare):
    a = _report(_check("x", 1.0), _check("x", 2.0))
    b = _report(_check("x", 1.0), _check("x", 3.0))
    assert compare.differences(a, b) == ["x (#2) abs_err: 2.0 != 3.0"]
    assert compare.differences(a, _report(_check("x", 1.0))) == ["only in a: x (#2)"]


def test_exit_codes(compare, tmp_path, capsys):
    paths = []
    for k, report in enumerate((_report(_check("x")), _report(_check("x", wall_time=5.0)),
                                _report(_check("x", 1.0)))):
        paths.append(tmp_path / f"{k}.json")
        paths[-1].write_text(json.dumps(report))
    assert compare.main([str(paths[0]), str(paths[1])]) == 0
    assert "equal: 1 checks" in capsys.readouterr().out
    assert compare.main([str(paths[0]), str(paths[2])]) == 1
    assert "x abs_err: 0.0 != 1.0" in capsys.readouterr().out
