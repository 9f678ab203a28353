"""Tests of the benchmark's own logic: span arithmetic, wrapper patching,
failure accounting and seeded inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import pathlib
import sys
import types
from types import SimpleNamespace

import pytest

import layers
import run
import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent


def ticking_clock(step=1.0):
    t = [0.0]

    def clock():
        t[0] += step
        return t[0]
    return clock


class TestSpans:
    def test_self_time_of_nested_tree(self):
        # root [1, 12]: a [2, 7] (holding b [3, 4] and c [5, 6]), d [8, 11]
        tr = tracing.Tracer(clock=ticking_clock())
        root = tr.begin("root")
        a = tr.begin("a")
        tr.end(tr.begin("b"))
        tr.end(tr.begin("c"))
        tr.end(a)
        d = tr.begin("d")
        tr.begin("e")
        tr.end(d + 1)
        tr.end(d)
        tr.end(root)
        assert tr.durations() == [11.0, 5.0, 1.0, 1.0, 3.0, 1.0]
        assert tr.self_times() == [3.0, 3.0, 1.0, 1.0, 2.0, 1.0]
        assert tr.parents == [-1, 0, 1, 1, 0, 4]
        assert tr.has_ancestor(2, "root") and not tr.has_ancestor(4, "a")

    def test_wrapped_recursion_counts_outermost_total_once(self):
        tr = tracing.Tracer(clock=ticking_clock())

        def fact(n):
            return 1 if n <= 1 else n * traced(n - 1)
        traced = tr.wrap("moduli.Navigator.step_to", fact,
                         before=lambda args, kw: {"depth": 3 - args[0]})
        assert traced(3) == 6
        assert [tr.parents[i] for i in range(3)] == [-1, 0, 1]
        metrics = layers.per_layer(tr, wall_s=1.0, overhead_frac=0.0, ops_failed_frac=0.0)
        assert metrics["moduli.Navigator.step_to.calls"] == 1
        assert metrics["moduli.Navigator.step_to.halvings"] == 1
        assert metrics["moduli.Navigator.step_to.total_s"] == tr.durations()[0]

    def test_raised_span_is_closed_and_flagged(self):
        tr = tracing.Tracer(clock=ticking_clock())

        def boom():
            raise ValueError("x")
        with pytest.raises(ValueError):
            tr.wrap("generator.generate", boom)()
        assert tr.raised == [True] and tr.ends[0] is not None
        assert layers.per_layer(tr, 1.0, 0.0, 0.0)["generator.generate.failed"] == 1


class TestPatching:
    @pytest.fixture
    def fakepkg(self):
        pkg = types.ModuleType("fakepkg")
        a = types.ModuleType("fakepkg.a")
        exec("def f(x):\n    return x + 1\n"
             "class C:\n    def m(self):\n        return f(1)\n", a.__dict__)
        b = types.ModuleType("fakepkg.b")
        b.f = a.f            # `from .a import f`
        b.C = a.C
        mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
        sys.modules.update(mods)
        yield a, b
        for name in mods:
            del sys.modules[name]

    def test_function_rebound_in_importers_and_method_in_class(self, fakepkg):
        a, b = fakepkg
        f, m = a.f, a.C.m
        tr = tracing.Tracer()
        tr.install("fakepkg", [("a", "f", None, None), ("a", "C.m", None, None)])
        try:
            assert b.f(1) == 2 and a.f(1) == 2
            assert b.C().m() == 2
            assert tr.names == ["a.f", "a.f", "a.C.m", "a.f"]
            assert tr.parents[3] == 2
        finally:
            tr.uninstall()
        assert a.f is f and b.f is f and a.C.__dict__["m"] is m


class FakeReport:
    def __init__(self, instance, suite, passed):
        self.instance, self.suite = instance, suite
        self.checks = [SimpleNamespace(name="c", gating=True, passed=p, tol=1e-6,
                                       absolute=False, abs_err=0.0, rel_err=1e-8)
                       for p in passed]


class TestAccounting:
    def test_injected_exceptions_are_one_failed_operation_each(self):
        def run_suite(spec, suite):
            if spec == "bad":
                raise ValueError("cannot convert float NaN to integer")
            if spec == "worse":
                raise ZeroDivisionError("x")
            return FakeReport(spec, suite, [True, True, spec != "draw-1"])

        def generate(recipe, seed_base):
            if seed_base == 2:
                raise RuntimeError("could not generate")
            return f"draw-{seed_base}"

        runner = workloads.Runner(SimpleNamespace(run_suite=run_suite),
                                  SimpleNamespace(generate=generate), None)
        specs = {("shipped", "ok"): "ok", ("draw", "r", 7): "bad", ("draw", "r", 8): "worse"}
        Step = workloads.Step
        steps = [Step("suite", ("shipped", "ok"), "s"), Step("suite", ("draw", "r", 7), "s"),
                 Step("generate", ("draw", "r", 1)), Step("suite", ("draw", "r", 1), "s"),
                 Step("generate", ("draw", "r", 2)), Step("suite", ("draw", "r", 2), "s"),
                 Step("suite", ("draw", "r", 8), "s")]
        tally = workloads.Tally()
        assert runner.run(steps, specs, tally) > 0
        # 3 + 3 checks, 1 failing; run_suite raised twice; generate raised once
        assert (tally.checks, tally.failed_checks) == (6, 1)
        assert [r[1] for r in tally.raised] == ["ValueError", "RuntimeError",
                                                "ZeroDivisionError"]
        assert (tally.attempted, tally.failed) == (9, 4)
        assert tally.failed_frac == pytest.approx(4 / 9)
        assert tally.shipped_failures == [] and len(tally.shipped_headroom) == 3

    def test_shipped_failure_marks_incorrect(self):
        tally = workloads.Tally()
        tally.record_report(FakeReport("g2-23", "dm-cubic", [True, False]), shipped=True)
        try:
            raise KeyError("k")
        except KeyError as exc:
            tally.record_raise("tau on shipped g2-resfree", exc, shipped=True)
        assert len(tally.shipped_failures) == 2 and tally.failed == 2

    def test_interquartile_mean(self):
        assert run.interquartile_mean([3.0, 1.0, 2.0]) == 2.0
        assert run.interquartile_mean([1.0, 2.0, 3.0, 100.0]) == 2.5
        assert run.interquartile_mean([9.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0]) == 2.0

    def test_headroom(self):
        check = SimpleNamespace(gating=True, tol=1e-5, absolute=True, abs_err=1e-7, rel_err=1.0)
        assert workloads.headroom(check) == pytest.approx(2.0)
        check.abs_err = 0.0
        assert workloads.headroom(check) == workloads.HEADROOM_CAP
        check.tol = 0.0
        assert workloads.headroom(check) is None


class TestSeeds:
    def test_plans_are_a_function_of_the_seed(self):
        def inputs(name, seed):
            return [workloads.probe(name, seed)] + workloads.plan(name, seed, 0)
        for name in workloads.WORKLOADS:
            assert inputs(name, 5) == inputs(name, 5)
            assert inputs(name, 5) != inputs(name, 6)
        def bases(iteration):
            units = workloads.plan("fresh-draws", 5, iteration)
            return [s.source[2] for u in units for s in u if s.kind == "generate"]
        assert len(bases(0)) == len(set(bases(0))) == workloads.FRESH_PER_ITERATION
        assert bases(0) != bases(1)

    def test_same_seed_gives_identical_specs(self):
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        from speclab import generator

        _, recipe, base = workloads.probe("fd-oracle", 3)[0].source
        s1 = generator.generate(recipe, seed_base=base)
        s2 = generator.generate(recipe, seed_base=base)
        assert [p.x for p in s1.poles] == [p.x for p in s2.poles]
        for ell in s1.numer:
            assert (s1.numer[ell] == s2.numer[ell]).all()


def test_benchmark_json_names_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == layers.catalogue()
    assert {m["name"] for m in doc["end_to_end"]} \
        == {"instance_s", "setup_s", "err_headroom_decades", "peak_rss_mb"}
