"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 bench/run.py --workload corpus_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` and the metric names and units are read from ``BENCHMARK.json``.

A shared host can change speed by a factor of three from one minute to
the next (see README.md), and both end-to-end times follow it.  So each
time is reported at the reference speed: its wall time times
``REF_PROBE_S`` over the median time of :class:`Probe`, a fixed piece of
work timed in the same process while the program runs or just after.
With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median over fresh interpreters of importing ``cknlab`` and
  generating the workload's inputs, each scaled by probes run in the same
  interpreter just after;
- ``pass_s``: median over the run's passes of one serial pass over the
  workload's operations, scaled by probes sampled during the pass (to the
  power ``PASS_EXPONENT``, since the program slows more than the probe);
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the same untraced passes run first, then one more pass
with every layer wrapped (see ``tracer.py``); the run reports the per-layer
metrics of that pass, the tracing overhead, the raw wall time and the probe
time of the untraced passes, and writes the spans to ``bench/out/``.  Every
pass is checked (see ``checks.py``); a failed check exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 60
SETUP_SAMPLES = 11
SAMPLE_EVERY_S = 0.05
# the probe's usual time on the reference machine (see README.md); a fixed
# scale that turns probe-relative times back into seconds
REF_PROBE_S = 4e-4
# pass times on the reference machine grow as the probe time to about this
# power: the log-log slope over 20 runs was 1.49 on corpus_sweep, 1.71 on
# verify_scenarios and 1.15 on tightness_search (see README.md)
PASS_EXPONENT = 1.5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--time-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _use_checkout_source() -> None:
    """Import ``cknlab`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "cknlab" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}; run the benchmark "
                 "from a source checkout")
    sys.path.insert(0, str(SRC))


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def _workdir() -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=OUT))


class Probe:
    """A fixed piece of work, about 0.4 ms, timed to gauge the host's speed.

    The work is an interpreter loop and small numpy reductions that stay in
    cache: on the reference machine both track the program's speed, while
    reductions over large arrays are slowed by page faults that come and go
    on their own and track nothing.
    """

    def __init__(self):
        import numpy as np

        self.x = np.linspace(0.0, 1.0, 2_000)
        self.samples = []

    def __call__(self, *_signal) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(4_000):
            total += i * i
        for _ in range(20):
            float((self.x * self.x + 1.0).sum())
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def sampling(self):
        """Run the probe on a timer signal every ``SAMPLE_EVERY_S`` meanwhile.

        The handler runs in this thread between bytecodes, so it samples the
        speed the program gets while it runs, and the program's own time is
        the wall time less the samples'.
        """
        previous = signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def time_setup(workload: str, seed: int) -> None:
    """Time the import and the input generation in this fresh process."""
    start = time.perf_counter()
    import cknlab  # noqa: F401  (the import is what is timed)
    import workloads

    workdir = _workdir()
    try:
        workloads.WORKLOADS[workload].make_inputs(seed, workdir)
        elapsed = time.perf_counter() - start
        probe = Probe()
        for _ in range(SETUP_SAMPLES):
            probe()
        print(repr(elapsed), repr(statistics.median(probe.samples)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time at the reference speed, and the median wall time."""
    scaled, wall = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--time-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True)
        elapsed, probe_s = map(float, done.stdout.split()[-2:])
        scaled.append(elapsed * REF_PROBE_S / probe_s)
        wall.append(elapsed)
    return statistics.median(scaled), statistics.median(wall)


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS")
               if v in os.environ}
    return (f"# nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas!r} blas_threads={threads or 'library default'}")


def timed_pass(wl, inputs):
    """One pass: (result, wall s, reference s, probe samples).

    The wall time leaves out the probe samples taken during the pass, and
    the reference time scales it by the samples' median, to the power
    ``PASS_EXPONENT``.
    """
    probe = Probe()
    with probe.sampling():
        start = time.perf_counter()
        res = wl.run_pass(inputs)
        elapsed = time.perf_counter() - start
    wall = elapsed - sum(probe.samples)
    speed = REF_PROBE_S / statistics.median(probe.samples)
    return res, wall, wall * speed ** PASS_EXPONENT, probe.samples


def run_passes(wl, inputs, seconds: float):
    """Whole passes, started while less than ``seconds`` has gone by."""
    results, walls, scaled, probes = [], [], [], []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        gc.collect()
        res, wall, ref_s, pass_probes = timed_pass(wl, inputs)
        if results and res.digest != results[0].digest:
            res.errors.append("report payload differs from the first pass")
        results.append(res)
        walls.append(wall)
        scaled.append(ref_s)
        probes.extend(pass_probes)
    return results, walls, scaled, probes


def traced_pass(wl, seed: int, workdir: Path, label: str):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inputs = wl.make_inputs(seed, workdir)
        gc.collect()
        tracer.begin_pass()
        res, _, traced_s, _ = timed_pass(wl, inputs)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{label}.jsonl")
    return tracer, res, traced_s


def main(argv=None) -> int:
    args = parse_args(argv)
    _use_checkout_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choices: {sorted(workloads.WORKLOADS)}")
    if args.time_setup:
        time_setup(args.workload, args.seed)
        return 0

    specs = _metric_specs()
    if not args.trace:
        setup_s, setup_wall_s = measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload]
    workdir = _workdir()
    try:
        print(environment(), flush=True)
        inputs = wl.make_inputs(args.seed, workdir)
        results, walls, scaled, probes = run_passes(wl, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pass_s = statistics.median(scaled)
        if args.trace:
            label = f"{args.workload}-seed{args.seed}"
            tracer, res, traced_s = traced_pass(wl, args.seed, workdir, label)
            if res.digest != results[0].digest:
                res.errors.append("traced report payload differs from "
                                  "untraced")
            results.append(res)
            values = tracer.metrics()
            values.update({
                "cli.output_bytes": res.output_bytes,
                "host.probe_s": statistics.median(probes),
                "wall.pass_s": statistics.median(walls),
                "trace.pass_s": traced_s,
                "trace.overhead_s": traced_s - pass_s,
                "trace.spans": len(tracer.spans),
            })
            names = specs["per_layer"]
        else:
            values = {"setup_s": setup_s, "pass_s": pass_s,
                      "peak_rss_mb": peak_rss_mb}
            names = specs["end_to_end"]
            print(f"# setup wall s (median of {SETUP_RUNS}): "
                  f"{setup_wall_s:.4f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(names):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(names))} are "
                 "measured or listed in BENCHMARK.json, not both")
    errors = [e for res in results for e in res.errors]
    for error in errors[:20]:
        print(f"# check failed: {error}", flush=True)
    print(f"# passes={len(walls)} "
          f"wall_s={[round(t, 3) for t in walls]} "
          f"ref_s={[round(t, 3) for t in scaled]} "
          f"probe_ms n={len(probes)} "
          f"median={1e3 * statistics.median(probes):.4f} "
          f"min={1e3 * min(probes):.4f} max={1e3 * max(probes):.4f}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(res.attempted for res in results),
        "failed": sum(res.failed for res in results),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
