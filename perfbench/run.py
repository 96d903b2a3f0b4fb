"""Run one cdlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cdlab checkout; it imports cdlab from ./src and
writes only under ./.perfbench_out. The seed makes every input. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`:

* `--trace 0`: `cal_wall_s` (median wall time of the timed passes) and
  `setup_s` (median time for a fresh process to import cdlab and build the
  inputs), each calibrated by a fixed loop timed around it (`calibrated`),
  and `peak_rss_mb` (peak resident memory of this process).
* `--trace 1`: the per-layer metrics of `spans.LAYER_METRICS`, from one
  traced pass run after the untraced ones; the spans go to
  .perfbench_out/trace-<workload>-seed<seed>.json.

A run makes one untimed warm-up pass, whose outputs are the reference of
the byte-identity check, and then timed passes for `--seconds` seconds.

`failed / attempted` is the workload's failed fraction: every cdl exit
code, named check and byte-identity comparison counts as one attempt.
"""

import os

# One BLAS thread, set before numpy loads; the setup processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_TIMED_PASSES = 3
CALIBRATION_ITERATIONS = 1_000_000
# Calibrated times are in seconds on a host where the calibration loop takes
# this long; it took 50-110 ms on the 2-vCPU host the benchmark was built on.
CALIBRATION_NOMINAL_S = 0.075
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="import cdlab, build the inputs into DIR and exit")
    return p.parse_args(argv)


def import_checkout():
    """Import cdlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "cdlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'cdlab'} not found; run from a cdlab checkout")
    sys.path.insert(0, str(SRC))
    import cdlab
    if SRC.resolve() not in Path(cdlab.__file__).resolve().parents:
        raise SystemExit(f"error: cdlab imported from {cdlab.__file__}, not {SRC}")


def blas_facts() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        facts = {"name": "unknown"}
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    facts["threads"] = threads
    return facts


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_facts()}


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop that does not touch cdlab. A
    shared host's throughput swings by up to 2x over tens of seconds; the
    loop slows with it, so pass time over loop time stays steadier than
    pass time alone."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def calibrated(times, calibration) -> float:
    """CALIBRATION_NOMINAL_S times the median over `times` of each time
    divided by the mean of the calibration loop times before and after it
    (`calibration` holds one more entry than `times`)."""
    ratios = [t / (0.5 * (calibration[k] + calibration[k + 1]))
              for k, t in enumerate(times)]
    return CALIBRATION_NOMINAL_S * statistics.median(ratios) if ratios else 0.0


def measure_setup(args, work: Path) -> tuple:
    """Wall times of fresh processes that import cdlab and build the
    workload's inputs, as each `cdl` invocation does, and the calibration
    loop times around them."""
    times, calibration = [], [calibration_s()]
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(work / f"setup{k}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        calibration.append(calibration_s())
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed: {proc.stderr.strip()}")
    return times, calibration


def _digests(out: Path, names) -> dict:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
            if (out / n).exists() else None for n in names}


class Runner:
    """Runs passes of one workload and keeps every check's outcome."""

    def __init__(self, workload, work: Path):
        from workloads import Check
        self.Check = Check
        self.wl = workload
        self.work = work
        self.checks = []
        self.passes = 0
        self.times = []  # wall times of the timed passes
        self.calibration = []  # calibration_s() before and after each timed pass
        self.reference = None  # canonical CSV digests of the warm-up pass

    def one_pass(self, recorder=None, timed=True) -> bool:
        k = self.passes
        self.passes += 1
        out = self.work / f"pass{k}"
        out.mkdir(parents=True)
        gc.collect()
        result, ok = None, True
        if recorder is not None:
            recorder.install()
        t0 = time.perf_counter()
        try:
            if recorder is not None:
                with recorder.span("bench.pass"):
                    result = self.wl.run(out)
            else:
                result = self.wl.run(out)
        except Exception as exc:  # the pass fails; the run reports it
            traceback.print_exc()
            self.checks.append(self.Check(f"pass {k}: {type(exc).__name__}", False, str(exc)))
            ok = False
        finally:
            if timed:
                self.times.append(time.perf_counter() - t0)
            if recorder is not None:
                recorder.uninstall()
        if ok:
            try:
                self.checks += self.wl.check(out, result)
            except Exception as exc:
                traceback.print_exc()
                self.checks.append(self.Check(f"pass {k} checks: {type(exc).__name__}",
                                              False, str(exc)))
                ok = False
        digests = _digests(out, self.wl.canonical)
        if self.reference is None:
            self.reference = digests
        else:
            for name, d in digests.items():
                self.checks.append(self.Check(f"{name} bytes identical to pass 0",
                                              d is not None and d == self.reference[name]))
        return ok

    def timed_loop(self, seconds: float):
        """An untimed warm-up pass, then timed passes until the next one
        would end after `seconds`, at least MIN_TIMED_PASSES; stops after a
        failed pass."""
        if not self.one_pass(timed=False):
            return
        start = time.perf_counter()
        self.calibration.append(calibration_s())
        while True:
            if not self.one_pass():
                return
            self.calibration.append(calibration_s())
            elapsed = time.perf_counter() - start
            if len(self.times) >= MIN_TIMED_PASSES and elapsed + self.wall_s > seconds:
                return

    @property
    def wall_s(self) -> float:
        return statistics.median(self.times) if self.times else 0.0

    @property
    def cal_wall_s(self) -> float:
        return calibrated(self.times, self.calibration)

    @property
    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_checkout()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, Path(args.setup_only)).prepare()
        return 0

    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work / "inputs")
        wl.prepare()
        facts = machine_facts()
        print("machine " + json.dumps(facts), flush=True)
        runner = Runner(wl, work)
        setup = None if args.trace else measure_setup(args, work)
        runner.timed_loop(args.seconds)
        untraced = runner.wall_s
        if args.trace:
            recorder = spans.Recorder()
            ok = not runner.failed and runner.one_pass(recorder)
            layer = spans.layer_metrics(recorder, dict(
                wl.values, traced_wall_s=runner.times[-1] if ok else 0.0,
                untraced_wall_s=untraced))
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            recorder.dump(trace_file, {"workload": args.workload, "seed": args.seed,
                                       "machine": facts, "metrics": layer})
            units = dict(spans.LAYER_METRICS)
            metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"cal_wall_s": {"value": runner.cal_wall_s, "unit": "s"},
                       "setup_s": {"value": calibrated(*setup), "unit": "s"},
                       "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = runner.failed
    for c in failed:
        print(f"FAILED {c.name}: {c.detail}", file=sys.stderr)
    attempted = len(runner.checks)
    ms = [round(c * 1e3, 1) for c in runner.calibration]
    print(f"{args.workload} seed {args.seed}: {len(runner.times)} timed passes "
          f"{[round(t, 3) for t in runner.times]} s (median {untraced:.4f} s), "
          f"calibration loop {ms} ms, failed_frac = {len(failed)}/{attempted}", flush=True)
    if setup:
        print(f"setup {[round(t, 3) for t in setup[0]]} s, calibration loop "
              f"{[round(c * 1e3, 1) for c in setup[1]]} ms", flush=True)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
