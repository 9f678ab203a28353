"""speclab benchmark: one workload, inputs made from a seed, a closed loop.

Run from the repository root, against the sources under `src/`:

    python3 perfbench/run.py --workload fd-oracle --seed 1 --seconds 20 --trace 0

One process, one thread (BLAS pinned to 1 thread). Set-up (a fresh import
of speclab and loading the shipped instances) runs SETUP_REPS times and
reports the median. The timed phase runs whole iterations, one after
another, until --seconds have passed, and times each unit (one instance
through the workload's suites) in them. Then the probe (one fresh draw,
generated and run through the workload's suite) runs once, untimed. With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics. With --trace 1 the run times iteration 0 and the probe untraced,
wraps speclab's public functions, replays loading, iteration 0 and the
probe under the wrappers, times them untraced once more, and reports
per-layer metrics, with the traced over the mean untraced time as tracing
overhead. Spans are written to
`.perfbench-out/` in the repository root.

`correct` is true when every gating check on a shipped instance passes at
its pinned tolerance and no call on a shipped instance raised. Failures on
fresh draws are counted in `failed`, each raised call with its exception
class, and listed on the lines before the JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fd-oracle", "theta-tau", "fresh-draws"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def import_speclab():
    """Fresh import of speclab from SRC (earlier copies are dropped)."""
    for name in [m for m in sys.modules if m == "speclab" or m.startswith("speclab.")]:
        del sys.modules[name]
    mods = [importlib.import_module(f"speclab.{m}")
            for m in ("harness", "generator", "instances")]
    where = pathlib.Path(mods[0].__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"speclab imported from {where}, not from {SRC}")
    return mods


def set_up(workloads, name):
    """Median time of SETUP_REPS set-ups; the last one's runner and inputs."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        runner = workloads.Runner(*import_speclab())
        specs = runner.load(name)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), runner, specs


def environment(seed, workload):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "python_threads": threading.active_count(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "workload": workload, "seed": seed, "commit": git_commit(ROOT),
            "src_sha256": source_digest(SRC / "speclab")}


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(pkg):
    h = hashlib.sha256()
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def interquartile_mean(values):
    """Mean of the values between the quartiles; the plain mean of fewer
    than four. Robust to the few units that cost several times the typical
    one, while still averaging most of them."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(runner, workloads, name, seed, specs, tally, seconds):
    """Whole iterations until `seconds` have passed. Returns the wall time
    of every unit and the peak RSS before the first unit on a draw: draws
    differ by seed in the memory they need (80 to 132 MiB for one
    fresh-draws iteration)."""
    times, rss_mb, iteration = [], None, 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        for unit in workloads.plan(name, seed, iteration):
            if rss_mb is None and unit[0].source[0] == "draw":
                rss_mb = peak_rss_mb()
            times.append(runner.run(unit, specs, tally))
        iteration += 1
    return times, peak_rss_mb() if rss_mb is None else rss_mb


def run_traced(runner, workloads, name, seed, specs, tally):
    """Per-layer metrics from a traced replay of iteration 0 and the probe,
    run untraced before and after it as well."""
    import layers
    import tracing

    steps = sum(workloads.plan(name, seed, 0), []) + workloads.probe(name, seed)
    before = runner.run(steps, dict(specs), tally)
    tracer = tracing.Tracer()
    tracer.install("speclab", layers.TARGETS)
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            replay = runner.load(name)
        with tracer.span("bench.iteration"):
            traced = runner.run(steps, replay, tally)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    # untraced runs on both sides, so that a drift in machine speed cancels
    after = runner.run(steps, dict(specs), tally)
    print(f"trace untraced {before:.3f} s, traced {traced:.3f} s, untraced {after:.3f} s")
    untraced = (before + after) / 2.0
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.json.gz")
    metrics = layers.per_layer(tracer, wall, traced / untraced - 1.0, tally.failed_frac)
    units = {n: u for n, u, _ in layers.catalogue()}
    return ({k: (v, units[k], 1) for k, v in metrics.items()},
            layers.unexercised(tracer, name))


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:     # before numpy loads its BLAS
        os.environ[var] = "1"
    if not (SRC / "speclab" / "__init__.py").is_file():
        print(f"error: no speclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    setup_s, runner, specs = set_up(workloads, args.workload)
    tally = workloads.Tally()
    if args.trace:
        metrics, missing = run_traced(runner, workloads, args.workload, args.seed,
                                      specs, tally)
    else:
        times, rss_mb = run_timed(runner, workloads, args.workload, args.seed, specs,
                                  tally, args.seconds)
        probe = runner.run(workloads.probe(args.workload, args.seed), specs, tally)
        if not tally.shipped_headroom:
            print("error: no gating check with a tolerance ran on a shipped instance",
                  file=sys.stderr)
            return 1
        metrics = {
            "instance_s": (interquartile_mean(times), "s", len(times)),
            "setup_s": (setup_s, "s", SETUP_REPS),
            "err_headroom_decades": (min(tally.shipped_headroom), "log10",
                                     len(tally.shipped_headroom)),
            "peak_rss_mb": (rss_mb, "MiB", 1),
        }
        missing = []
        print(f"probe {probe:.3f} s; units {[round(t, 3) for t in times]} s")

    print("environment " + json.dumps(environment(args.seed, args.workload)))
    for key, (value, unit, n) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit} (n={n})")
    print(f"ops attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed_frac:.4g} gating_checks={tally.checks} "
          f"failed_checks={tally.failed_checks} raised={len(tally.raised)}")
    for what, exc, where, msg in tally.raised:
        print(f"raised {exc} at {where} in {what}: {msg}")
    for failure in tally.shipped_failures:
        print(f"shipped gate failed: {failure}")
    if missing:
        print("error: traced layers recorded no call: " + ", ".join(missing), file=sys.stderr)
        return 1
    print(json.dumps({"correct": not tally.shipped_failures, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
