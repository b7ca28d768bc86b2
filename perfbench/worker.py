"""One benchmark workload in one process; started by run.py.

Set-up (importing the package, generating the inputs) is timed from the
moment run.py spawned this process. Untraced runs time whole rounds of the
workload's operations for about --seconds. Traced runs alternate a
plain round with a traced round, so the difference between them is the
tracing overhead, and report per-layer figures per traced round. The result
is one JSON line on stdout.

The CPU speed of a shared machine changes by up to 1.8x within seconds and
its level drifts over tens of seconds, so a run cannot average it away. A
fixed calibration kernel (a Python loop and a numpy sort) is timed between
operations, at least CAL_EVERY_S apart, between the stages of a long
operation, and before calls of the layer function a workload names as its
calibration point (inside a long library call). The calibrations cut the
timeline into intervals whose speed factor is the mean of the two
calibrations at their ends; an operation's time is the sum over the
intervals it overlaps of overlap / factor, in seconds at the kernel's
nominal speed, leaving out the calibrations themselves. Raw times are kept
in the result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np


# layer metrics printed by the traced run, in BENCHMARK.json order
LAYER_METRICS = (
    ("cli.import_s", "s"), ("cli.simulate_s", "s"), ("cli.correlate_s", "s"), ("cli.fit_s", "s"),
    ("report.file_sha256_s", "s"), ("report.emit_report_s", "s"),
    ("montecarlo.save_stream_s", "s"), ("montecarlo.load_stream_s", "s"),
    ("montecarlo.stream_bytes", "bytes"), ("montecarlo.save_histogram_s", "s"),
    ("montecarlo.load_g2_csv_s", "s"), ("montecarlo.simulate_stream_s", "s"),
    ("montecarlo.photons", "count"), ("montecarlo.cycles", "count"),
    ("montecarlo.photons_per_cycle", "ratio"), ("montecarlo.apply_jitter_s", "s"),
    ("montecarlo.correlate_s", "s"), ("montecarlo.pairs", "count"),
    ("fitting.fit_g2_s", "s"), ("fitting.g2_model_irf_s", "s"),
    ("fitting.g2_model_irf_calls", "count"), ("fitting.g2_model_calls", "count"),
    ("fitting.least_squares_s", "s"), ("fitting.least_squares_calls", "count"),
    ("fitting.model_evals_per_fit", "ratio"), ("fitting.fit_lorentzians_s", "s"),
    ("fitting.fit_lorentzians_calls", "count"), ("fitting.lorentzian_components", "count"),
    ("fitting.lorentzian_peak_calls", "count"), ("fitting.multi_lorentzian_s", "s"),
    ("dynamics.extrapolate_zero_power_s", "s"), ("dynamics.g2_params_from_rates_calls", "count"),
    ("dynamics.g2_params_from_rates_s", "s"), ("dynamics.power_sweep_s", "s"),
    ("dynamics.g2_analytic_s", "s"), ("spectra.track_modes_s", "s"),
    ("spectra.enhancement_ratio_s", "s"), ("spectra.tracks_terminated", "count"),
    ("trace.overhead_s", "s"),
)

SPANNED = {
    "sivcav.report": ("file_sha256", "emit_report"),
    "sivcav.montecarlo": ("save_stream", "load_stream", "save_histogram", "load_g2_csv",
                          "simulate_stream", "apply_jitter", "correlate"),
    "sivcav.fitting": ("fit_g2", "g2_model_irf", "fit_lorentzians", "multi_lorentzian"),
    "sivcav.dynamics": ("extrapolate_zero_power", "g2_params_from_rates", "power_sweep",
                        "g2_analytic"),
    "sivcav.spectra": ("track_modes", "enhancement_ratio"),
}
COUNTED = {"sivcav.fitting": ("g2_model", "lorentzian_peak")}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _after_simulate(counts, args, kwargs, stream):
    rates = _arg(args, kwargs, 0, "rates")
    duration = float(_arg(args, kwargs, 2, "duration"))
    k2t = rates.k21 + rates.k23
    mean_cycle = 1.0 / rates.k12 + 1.0 / k2t + (rates.k23 / k2t) / rates.k31
    counts["montecarlo.photons"] += len(stream)
    counts["montecarlo.cycles"] += duration / mean_cycle


def _after_correlate(counts, args, kwargs, hist):
    counts["montecarlo.pairs"] += int(hist.counts.sum())


def _after_save_stream(counts, args, kwargs, _result):
    counts["montecarlo.stream_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _after_fit_lorentzians(counts, args, kwargs, _result):
    counts["fitting.lorentzian_components"] += int(_arg(args, kwargs, 1, "n_peaks"))


def _after_track_modes(counts, args, kwargs, series):
    counts["spectra.tracks_terminated"] += sum(
        t.terminated_at is not None for t in series.tracked_modes.values()
    )


AFTER = {
    "simulate_stream": _after_simulate,
    "correlate": _after_correlate,
    "save_stream": _after_save_stream,
    "fit_lorentzians": _after_fit_lorentzians,
    "track_modes": _after_track_modes,
}


def instrument(tracer):
    """Wrap the public functions of each layer through their module attributes."""
    for module, names in SPANNED.items():
        layer = module.split(".")[1]
        for name in names:
            tracer.patch(module, name, lambda fn, n=f"{layer}.{name}", a=AFTER.get(name):
                         tracer.spanned(n, fn, a))
    for module, names in COUNTED.items():
        layer = module.split(".")[1]
        for name in names:
            tracer.patch(module, name, lambda fn, n=f"{layer}.{name}_calls": tracer.counted(n, fn))

    def least_squares(fn):
        def call(model, *args, **kwargs):
            return fn(tracer.counted("fitting.model_evals", model), *args, **kwargs)

        return tracer.spanned("fitting.least_squares", call)

    tracer.patch("sivcav.fitting", "least_squares", least_squares)


CAL_NOMINAL_S = 0.020  # calibration kernel time at nominal speed (2-vCPU Xeon VM)
CAL_EVERY_S = 0.5
CAL_REPEATS = 5


def _kernel():
    s = 0
    for i in range(200_000):
        s += i * i
    x = np.sin(np.arange(300_000.0))
    x.sort()
    return s


class SpeedClock:
    """Calibrations (start, end, speed factor); factor 1 is nominal speed."""

    def __init__(self):
        self.points = []

    def calibrate(self):
        times = []
        begin = time.perf_counter()
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
        factor = statistics.median(times) / CAL_NOMINAL_S
        self.points.append((begin, time.perf_counter(), factor))
        return factor

    def maybe_calibrate(self):
        if not self.points or time.perf_counter() - self.points[-1][1] >= CAL_EVERY_S:
            self.calibrate()

    def measure(self, start, end):
        """(raw seconds, nominal seconds) of [start, end] outside the
        calibrations; needs a calibration before start and one after end."""
        raw = nominal = 0.0
        for (_, a, fa), (b, _, fb) in zip(self.points, self.points[1:]):
            overlap = min(end, b) - max(start, a)
            if overlap > 0:
                raw += overlap
                nominal += overlap / (0.5 * (fa + fb))
        return raw, nominal


def calibrate_inside(wl, clock):
    """Calibrate (at most every CAL_EVERY_S) before each call of the layer
    function ``wl.calibration_point`` names, so that an operation that is a
    single long library call is cut into short intervals too."""
    if wl.calibration_point is None:
        return
    module_name, name = wl.calibration_point
    module = importlib.import_module(module_name)
    fn = getattr(module, name, None)
    if fn is None:  # renamed or removed: calibrate between operations only
        return

    def wrapper(*args, **kwargs):
        clock.maybe_calibrate()
        return fn(*args, **kwargs)

    setattr(module, name, wrapper)


def run_round(wl, clock, tracer=None, first_op=0):
    """Time every operation of the pool once; returns (outputs, spans), a
    span being (start, end) of one operation."""
    outputs, spans = [], []
    wrapper = None
    if tracer is not None:
        wrapper = lambda name, fn: tracer.spanned(name, fn)  # noqa: E731
    for i, item in enumerate(wl.pool):
        clock.maybe_calibrate()
        if tracer is not None:
            tracer.op_id = first_op + i
        start = time.perf_counter()
        try:
            out = wl.run(item, wrapper)
        except Exception as err:  # a failing operation is counted, not fatal
            out = err
        spans.append((start, time.perf_counter()))
        outputs.append(out)
    return outputs, spans


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0.0
        self.op_spans = []
        self.failures = Counter()
        self.problems = []

    def add(self, wl, outputs, spans):
        for item, out, span in zip(wl.pool, outputs, spans):
            self.attempted += 1
            self.op_spans.append(span)
            if isinstance(out, Exception):
                work, failure, problems = 0, f"{type(out).__name__}: {out}", []
            else:
                work, failure, problems = wl.evaluate(item, out)
            self.work += work
            if failure is not None:
                self.failed += 1
                self.failures[failure] += 1
            self.problems.extend(problems)


def fresh_import_s(env):
    code = ("import time; t = time.perf_counter(); import sivcav.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def layer_metrics(tracer, rounds, plain_times, traced_times, import_s):
    own, total = tracer.times()
    calls = Counter(span[0] for span in tracer.spans)
    c = tracer.counts
    values = {"cli.import_s": import_s}
    for stage in ("simulate", "correlate", "fit"):
        values[f"cli.{stage}_s"] = total.get(f"cli.{stage}", 0.0) / rounds
    for key, unit in LAYER_METRICS:
        if key in values or unit != "s" or key == "trace.overhead_s":
            continue
        values[key] = own.get(key[:-2], 0.0) / rounds
    for key in ("fitting.g2_model_irf", "fitting.least_squares", "fitting.fit_lorentzians",
                "dynamics.g2_params_from_rates"):
        values[f"{key}_calls"] = calls.get(key, 0) / rounds
    for key in ("fitting.g2_model_calls", "fitting.lorentzian_peak_calls", "montecarlo.photons",
                "montecarlo.cycles", "montecarlo.pairs", "montecarlo.stream_bytes",
                "fitting.lorentzian_components", "spectra.tracks_terminated"):
        values[key] = c.get(key, 0.0) / rounds
    values["montecarlo.photons_per_cycle"] = (
        c["montecarlo.photons"] / c["montecarlo.cycles"] if c.get("montecarlo.cycles") else 0.0
    )
    ls_calls = calls.get("fitting.least_squares", 0)
    values["fitting.model_evals_per_fit"] = c["fitting.model_evals"] / ls_calls if ls_calls else 0.0
    values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    return {key: {"value": values[key], "unit": unit} for key, unit in LAYER_METRICS}


def environment(wl):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "inputs": wl.inputs_record(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, root, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    clock = SpeedClock()
    result = {"setup_s": setup_s, "setup_factor": clock.calibrate()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tally = Tally()
    start = time.perf_counter()
    if not args.trace:
        wl.checkpoint = clock.calibrate
        calibrate_inside(wl, clock)
        round_times = []
        while True:
            outputs, spans = run_round(wl, clock)
            tally.add(wl, outputs, spans)
            round_times.append(spans[-1][1] - spans[0][0])
            # another round only if the run would then end within half a
            # round of --seconds, so runs last about --seconds on average
            if time.perf_counter() - start + 0.5 * statistics.median(round_times) > args.seconds:
                break
    else:
        from spans import Tracer

        tracer = Tracer()
        wl.in_process = True  # the CLI stages run through sivcav.cli.main
        plain_times, traced_times = [], []
        while True:
            outputs, spans = run_round(wl, clock)
            tally.add(wl, outputs, spans)
            plain_times.append(sum(e - s for s, e in spans))
            instrument(tracer)
            try:
                outputs, spans = run_round(wl, clock, tracer, first_op=tally.attempted)
            finally:
                tracer.restore()
            tally.add(wl, outputs, spans)
            traced_times.append(sum(e - s for s, e in spans))
            spent = time.perf_counter() - start
            if spent + plain_times[-1] + traced_times[-1] > args.seconds:
                break
        imports = [fresh_import_s(dict(os.environ)) for _ in range(3)]
        result["layers"] = layer_metrics(tracer, len(traced_times), plain_times, traced_times,
                                         statistics.median(imports))
        result["rounds"] = {"plain": plain_times, "traced": traced_times}
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv"))

    if getattr(wl, "stage_rss_kb", 0):
        rss_kb = wl.stage_rss_kb  # the largest CLI stage process
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    clock.calibrate()  # closes the interval of the last operation
    measured = [clock.measure(s, e) for s, e in tally.op_spans]
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        work=tally.work,
        op_raw=[raw for raw, _ in measured],
        op_nominal=[nominal for _, nominal in measured],
        failures=dict(tally.failures),
        problems=tally.problems[:20],
        peak_rss_mb=rss_kb / 1024.0,
        fit_errors=wl.fit_errors[: len(wl.pool)],  # every round repeats them
        env=environment(wl),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
