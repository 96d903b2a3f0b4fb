"""Cross-check traced runs against the ROADMAP baseline table and the
workload design.

    python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 1
        (for each of the four workloads)
    python3 perfbench/baseline.py --seed N

Reads .perfbench_out/trace-<workload>-seed<N>.json, and runs acceptance
criteria 1, 3 and 4 once, traced, at their full sizes (about 20 s): the
ROADMAP rows about them cannot come from a workload pass, which runs their
code at smaller sizes. The first table puts each row of the ROADMAP
"Baseline measured at this re-anchor" table next to the value measured
here; traced times include the wrappers' cost of a few microseconds per
span. The second table shows, per workload, the numbers that confirm what
the workload was built to stress.
"""

import argparse
import json
import statistics
from collections import Counter
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads
from spans import Recorder, nearest

OUT = Path.cwd() / ".perfbench_out"
JS = (1, 5, 25)
WORKLOADS = ("invert-saturated", "markets-many", "micro-completion", "transport-rules")


def load(workload: str, seed: int) -> dict:
    path = OUT / f"trace-{workload}-seed{seed}.json"
    if not path.exists():
        raise SystemExit(f"error: {path} not found; run that workload with --trace 1")
    return json.loads(path.read_text())


def solves(trace: dict, under: str) -> list:
    """(J, outside share, share evaluations, ms) of each invert inside an
    `under` span."""
    ids = {n: i for i, n in enumerate(trace["names"])}
    name = [s[0] for s in trace["spans"]]
    parent = [s[1] for s in trace["spans"]]
    inside = nearest(name, parent, ids[under])
    owner = nearest(name, parent, ids["inversion.invert"])
    evals = Counter(int(owner[i]) for i, n in enumerate(name)
                    if n == ids["demand.shares"] and owner[i] >= 0)
    out = []
    for i, (n, _, start, end) in enumerate(trace["spans"]):
        if n == ids["inversion.invert"] and inside[i] >= 0:
            J, outside = trace["info"][str(i)]
            out.append((J, outside, evals[i], 1e3 * (end - start)))
    return out


def traced_criteria(seed: int) -> dict:
    """Spans of criteria 1, 3 and 4, run once at their full sizes."""
    run.import_checkout()
    import cdlab.acceptance as acc

    rec = Recorder()
    rec.install()
    try:
        for n in (1, 3, 4):
            acc.ALL_CRITERIA[n](seed)
    finally:
        rec.uninstall()
    return rec.payload({})


def span_s(trace: dict, span: str, under: str | None = None) -> float:
    """Total duration of the `span` spans, only those inside an `under`
    span when it is given."""
    ids = {n: i for i, n in enumerate(trace["names"])}
    name = [s[0] for s in trace["spans"]]
    parent = [s[1] for s in trace["spans"]]
    inside = nearest(name, parent, ids[under]) if under else [0] * len(name)
    return sum(e - s for i, (n, _, s, e) in enumerate(trace["spans"])
               if n == ids.get(span) and inside[i] >= 0)


def rows(seed: int) -> list:
    inv = load("invert-saturated", seed)
    many = load("markets-many", seed)
    micro = load("micro-completion", seed)
    crit = traced_criteria(seed)
    c1 = solves(crit, "acceptance.criterion_1")
    per_j = {J: [s for s in c1 if s[0] == J] for J in JS}
    med = {J: statistics.median(e for _, _, e, _ in per_j[J]) for J in JS}
    ms = {J: statistics.median(t for *_, t in per_j[J]) for J in JS}
    mean_ms = {J: statistics.mean(t for *_, t in per_j[J]) for J in JS}
    worst = max(e for _, _, e, _ in c1)
    cfg = solves(inv, "cli.main")
    m_inv, m_many, m_micro = inv["metrics"], many["metrics"], micro["metrics"]
    return [
        ("share evaluations per invert, J = 1 / 5 / 25 (criterion 1)",
         "median 9.5 / 71.5 / 287.5, max 660",
         f"median {med[1]:g} / {med[5]:g} / {med[25]:g}, max {worst}"),
        ("invert ms per solve, J = 1 / 5 / 25 (criterion 1)", "1.0 / 18 / 32",
         f"median {ms[1]:.2f} / {ms[5]:.1f} / {ms[25]:.1f}, "
         f"mean {mean_ms[1]:.2f} / {mean_ms[5]:.1f} / {mean_ms[25]:.1f}"),
        ("J = 25 generated config (cdl invert, cdl predict): outside share, "
         "evaluations per invert", "not a ROADMAP row",
         f"medians {statistics.median(o for _, o, _, _ in cfg):.3f}, "
         f"{statistics.median(e for _, _, e, _ in cfg):g}; max "
         f"{max(e for _, _, e, _ in cfg)}"),
        ("shares us per call, J = 1 (markets-many) / 25 (invert-saturated)", "68-87",
         f"{m_many['demand.shares.us_per_call']:.1f} / "
         f"{m_inv['demand.shares.us_per_call']:.1f}"),
        ("sample_population, 10k markets, J = 1 (criterion 4 / markets-many)", "1.84 s",
         f"{span_s(crit, 'population.sample_population', 'acceptance.criterion_4') / 2:.2f}"
         f" / {m_many['population.sample_us_per_market'] * 1e4 / 1e6:.2f} s"),
        ("parallel_residual per 360 points (30 profiles x 12)", "6.2 ms",
         f"{m_micro['micro.parallel_residual.us_per_point'] * 360 / 1e3:.2f} ms"),
        ("criterion 1 / 3 / 4 runtime", "2.0 / 4.9 / 8.6 s",
         " / ".join(f"{span_s(crit, f'acceptance.criterion_{n}'):.1f}" for n in (1, 3, 4))
         + " s"),
    ]


def design_rows(seed: int) -> list:
    out = []
    for w in WORKLOADS:
        m = load(w, seed)["metrics"]
        wall = m["trace.wall_s"]
        out.append((w, f"{m['inversion.invert.calls']:g}", f"{m['micro.self_s']:.2f}",
                    f"{(m['demand.self_s'] + m['inversion.self_s']) / wall:.0%}",
                    f"{m['micro.self_s'] / wall:.0%}", f"{wall:.2f}",
                    f"{m['trace.overhead_s']:+.2f}"))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    seed = p.parse_args().seed
    print("| row | ROADMAP (seed 0) | traced run (seed %d) |" % seed)
    print("|---|---|---|")
    for row in rows(seed):
        print("| %s | %s | %s |" % row)
    print()
    print("| workload | invert calls | micro self s | demand + inversion share "
          "| micro share | traced wall s | tracing overhead s |")
    print("|---|---|---|---|---|---|---|")
    for row in design_rows(seed):
        print("| %s | %s | %s | %s | %s | %s | %s |" % row)


if __name__ == "__main__":
    main()
