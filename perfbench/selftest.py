"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a cdlab checkout (about half a minute). It shows that

1. the correctness gate trips on a corrupted canonical CSV, both through
   the workload's own check and through the byte-identity comparison;
2. every span wrapper is removed after a traced pass, so untraced passes
   call the original functions and record nothing;
3. BENCHMARK.json declares exactly the workloads and per-layer metrics
   the code reports;
4. the benchmark exits non-zero without printing a result when run in a
   directory that holds no cdlab source.

It writes only under ./.perfbench_out/selftest and exits non-zero on the
first failed assertion.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads

run.import_checkout()

import spans  # noqa: E402
import workloads  # noqa: E402

WORK = run.OUT / "selftest"


class SmallInvert(workloads.InvertSaturated):
    MARKETS = 4


def check_gate_trips_on_corrupted_csv():
    wl = SmallInvert(3, WORK / "inputs")
    wl.prepare()
    runner = run.Runner(wl, WORK / "gate")
    real_run = wl.run

    def run_then_corrupt(out):
        result = real_run(out)
        if out.name == "pass1":  # shift one delta_hat in the second pass
            path = out / "inversion.csv"
            lines = path.read_bytes().split(b"\r\n")
            cells = lines[1].split(b",")
            cells[2] = repr(float(cells[2]) + 1e-6).encode()
            lines[1] = b",".join(cells)
            path.write_bytes(b"\r\n".join(lines))
        return result

    wl.run = run_then_corrupt
    assert runner.one_pass() and not runner.failed, [c.name for c in runner.failed]
    runner.one_pass()
    failed = {c.name for c in runner.failed}
    assert failed == {"inversion.csv delta_hat = delta_true",
                      "inversion.csv bytes identical to pass 0"}, failed
    print("ok: the gate names the corrupted delta_hat and the changed bytes")


def _bound(owner, attr):
    target = spans._resolve(owner)
    if attr is None:
        return dict(target)
    return getattr(target, attr)


def check_wrappers_removed():
    before = {(o, a): _bound(o, a) for o, a, _, _ in spans.WRAP_POINTS}
    wl = workloads.WORKLOADS["transport-rules"](3, WORK / "inputs")
    wl.prepare()
    recorder = spans.Recorder()
    runner = run.Runner(wl, WORK / "trace")
    assert runner.one_pass(recorder) and not runner.failed
    assert not recorder.missing, recorder.missing
    n_spans = len(recorder.start)
    assert n_spans > 1000, n_spans
    after = {(o, a): _bound(o, a) for o, a, _, _ in spans.WRAP_POINTS}
    changed = [k for k in before if before[k] != after[k]]
    assert not changed, changed
    assert runner.one_pass() and not runner.failed
    assert len(recorder.start) == n_spans, "an untraced pass recorded spans"
    print(f"ok: {len(before)} wrap points restored after a traced pass "
          f"of {n_spans} spans; the next pass recorded none")


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == spans.LAYER_METRICS, set(declared) ^ set(spans.LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"cal_wall_s", "setup_s", "peak_rss_mb"}
    print(f"ok: BENCHMARK.json matches {len(declared)} per-layer metrics")


def check_refuses_without_source():
    bare = WORK / "bare"
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(Path(__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "markets-many", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok: without src/cdlab the benchmark exits {proc.returncode} "
          f"and prints no result")


if __name__ == "__main__":
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "bare").mkdir(parents=True)
    try:
        check_benchmark_json()
        check_refuses_without_source()
        check_gate_trips_on_corrupted_csv()
        check_wrappers_removed()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
