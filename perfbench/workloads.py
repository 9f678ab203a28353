"""The benchmark's workloads: the inputs each makes from its seed, and one
closed-loop iteration over them with every failure counted.

An iteration is a list of units; a unit verifies one instance with the
workload's suites, and `instance_s` averages the wall times of units.

- fd-oracle: `dm-cubic` on the shipped g2-23 each iteration, and once, as
  a probe after timing, on one fresh draw of the g2-23 recipe. The
  Richardson finite-difference oracle, Newton navigation and templated
  surface rebuilds dominate.
- theta-tau: `tau` on the shipped g2-resfree each iteration, and once, as a
  probe, on one fresh draw of its recipe. Theta lattice sums, branch frames
  and the Abel map dominate; only a few FD builds.
- fresh-draws: `surface` and `scaling` on the four shipped instances, then
  24 draws per iteration cycling through their four recipes, each generated
  and run through the same two suites. Cold surface builds, generation and
  vetting; no FD derivative. The bypass workload for FD and theta changes.

An operation is one gating check, one `run_suite` call that raised or one
`generate` call that raised. A raised call is one failed operation whatever
its exception class, and the run goes on with the next call.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

WORKLOADS = ("fd-oracle", "theta-tau", "fresh-draws")
RECIPES = ("ell4", "g2-5", "g2-23", "g2-resfree")
FRESH_PER_ITERATION = 24
SHIPPED = {"fd-oracle": ("g2-23",), "theta-tau": ("g2-resfree",), "fresh-draws": RECIPES}
_PROBE = {"fd-oracle": ("g2-23", "dm-cubic"), "theta-tau": ("g2-resfree", "tau")}
_STREAM = {name: k for k, name in enumerate(WORKLOADS, start=1)}
# Headroom of a check whose error is exactly 0.
HEADROOM_CAP = 16.0


def seed_bases(workload, seed, iteration, count):
    """Distinct `generate` seed bases, a function of the arguments only."""
    rng = np.random.default_rng([seed, _STREAM[workload], iteration])
    return [int(b) + 10_000 for b in rng.choice(10 ** 8, size=count, replace=False)]


class Step(NamedTuple):
    """One call: kind "generate" or "suite"; source ("shipped", label) or
    ("draw", recipe, seed_base)."""

    kind: str
    source: tuple
    suite: str | None = None


def probe(workload, seed):
    """Steps run once, after the timed phase: one fresh draw of the
    workload's recipe, generated and run through its suite. Failures count
    like any other, but the time stays out of `instance_s` and `setup_s`,
    because one draw's cost swings with the seed (dm-cubic on g2-23 draws
    took 6.6-10.9 s, generating a g2-resfree draw 0.3-1.3 s) and would drown
    the changes those metrics are there to show."""
    if workload not in _PROBE:
        return []
    recipe, suite = _PROBE[workload]
    source = ("draw", recipe, seed_bases(workload, seed, 0, 1)[0])
    return [Step("generate", source), Step("suite", source, suite)]


def plan(workload, seed, iteration):
    """One timed iteration as a list of units, each a list of steps that
    verifies one instance; the units on shipped instances come first."""
    if workload in _PROBE:
        recipe, suite = _PROBE[workload]
        return [[Step("suite", ("shipped", recipe), suite)]]
    units = [[Step("suite", ("shipped", label), suite) for suite in ("surface", "scaling")]
             for label in RECIPES]
    bases = seed_bases(workload, seed, iteration, FRESH_PER_ITERATION)
    for k, base in enumerate(bases):
        source = ("draw", RECIPES[k % len(RECIPES)], base)
        units.append([Step("generate", source)]
                     + [Step("suite", source, suite) for suite in ("surface", "scaling")])
    return units


def headroom(check):
    """log10(tol / err) of a gating check with a tolerance, else None."""
    if not check.gating or check.tol <= 0:
        return None
    err = check.abs_err if check.absolute else check.rel_err
    return math.log10(check.tol / err) if err > 0 else HEADROOM_CAP


@dataclass
class Tally:
    """Operations attempted and failed, and what the shipped gate shows."""

    checks: int = 0
    failed_checks: int = 0
    raised: list = field(default_factory=list)   # (call, exception class, where, message)
    shipped_failures: list = field(default_factory=list)
    shipped_headroom: list = field(default_factory=list)

    @property
    def attempted(self):
        return self.checks + len(self.raised)

    @property
    def failed(self):
        return self.failed_checks + len(self.raised)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def record_report(self, report, shipped):
        for check in report.checks:
            if not check.gating:
                continue
            self.checks += 1
            if not check.passed:
                self.failed_checks += 1
                if shipped:
                    self.shipped_failures.append(f"{report.suite}/{report.instance}: {check.name}")
            if shipped:
                h = headroom(check)
                if h is not None:
                    self.shipped_headroom.append(h)

    def record_raise(self, what, exc, shipped):
        name = type(exc).__name__
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        self.raised.append((what, name, f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}",
                            str(exc).splitlines()[0] if str(exc) else ""))
        if shipped:
            self.shipped_failures.append(f"{what}: raised {name}")


class Runner:
    """Calls into speclab through its modules, so that wrappers installed
    on them later are reached."""

    def __init__(self, harness, generator, instances):
        self.harness = harness
        self.generator = generator
        self.instances = instances

    def load(self, workload):
        """The shipped specs the workload's timed iterations use."""
        return {("shipped", label): self.instances.load_instance(label)
                for label in SHIPPED[workload]}

    def run(self, steps, specs, tally):
        """Run the steps one after another; their wall seconds."""
        t0 = time.perf_counter()
        for step in steps:
            if step.kind == "generate":
                self._generate(step.source, specs, tally)
            elif step.source in specs:   # else its generate call failed, counted
                self._run_suite(step, specs[step.source], tally)
        return time.perf_counter() - t0

    def _generate(self, source, specs, tally):
        _, recipe, base = source
        try:
            specs[source] = self.generator.generate(recipe, seed_base=base)
        except Exception as exc:  # one failed operation; the run goes on
            tally.record_raise(f"generate {recipe} seed_base={base}", exc, shipped=False)

    def _run_suite(self, step, spec, tally):
        shipped = step.source[0] == "shipped"
        try:
            report = self.harness.run_suite(spec, step.suite)
        except Exception as exc:  # one failed operation; the run goes on
            what = (f"{step.suite} on shipped {step.source[1]}" if shipped else
                    f"{step.suite} on {step.source[1]} draw seed_base={step.source[2]}")
            tally.record_raise(what, exc, shipped)
            return
        tally.record_report(report, shipped)
