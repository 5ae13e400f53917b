#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

    python3 sqbench/steadiness.py

Run it from the repository root. For every workload of BENCHMARK.json it

1. runs the benchmark in two sets of ten runs, seeds 1000-1009 in each
   set, so the sets run the same code on the same inputs. Per end-to-end
   metric it prints each set's median and quartiles, the spread
   (Q3 - Q1) / median against the metric's bound, and how much worse the
   second set's median is than the first set's, against the bound;
2. runs the traced run twice with one seed and checks that every exact
   per-layer count agrees, and prints trace.overhead;
3. runs once with --corrupt-expectation and checks the run fails.

Each run's line also shows the share of CPU time the host stole from
the guest while it ran (the "steal" column of /proc/stat). It also
checks that each run prints exactly the metrics BENCHMARK.json names,
with their units. The exit code is 0 when every check holds.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2
SEED = 1000

# Per-layer counts of the traced run that must repeat bit for bit.
EXACT = [
    "wire.response_bytes",
    "sqo.firings_per_query",
    "sqo.cell_writes_per_query",
    "sqo.contradiction_share",
    "sqo.scan_saved_ratio",
    "api.plan_cache_hit_rate",
    "api.plan_cache_invalidations",
    "exec.instances_scanned",
    "exec.predicate_evals",
    "exec.index_probes",
    "exec.pointer_traversals",
    "exec.rows_out",
    "commit.constraint_checks",
    "persist.wal_bytes_per_commit",
]


def run(workload, seed, seconds, trace, corrupt=False):
    cmd = [sys.executable, str(ROOT / "sqbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-expectation")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def check_names(spec, result, trace, problems, label):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            problems.append(f"{label}: missing metric {m['name']}")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{label}: unit of {m['name']} is "
                            f"{got[m['name']]['unit']}, not {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: unlisted metrics {sorted(extra)}")


def steal_ticks():
    """Stolen and total CPU ticks of the host so far (/proc/stat)."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def sets_report(spec, workload, problems):
    seconds = spec["run_seconds"]
    values = {m["name"]: [[] for _ in range(SETS)]
              for m in spec["end_to_end"]}
    for s in range(SETS):
        for i in range(RUNS):
            seed = SEED + i
            stolen0, total0 = steal_ticks()
            code, result = run(workload, seed, seconds, 0)
            stolen1, total1 = steal_ticks()
            steal = (stolen1 - stolen0) / max(1, total1 - total0)
            label = f"{workload} set {s + 1} seed {seed}"
            if code != 0 or result is None or not result["correct"] \
                    or result["failed"] != 0:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            check_names(spec, result, False, problems, label)
            for name, series in values.items():
                series[s].append(result["metrics"][name]["value"])
            print(f"  {label}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in
                sorted(result["metrics"].items()))
                + f" steal={steal:.3f}", flush=True)
    print(f"\n{workload}: median [Q1, Q3] per set; spread = IQR/median; "
          "drift = second set's median worse than the first's")
    for m in spec["end_to_end"]:
        series = values[m["name"]]
        if any(len(v) < 2 for v in series):
            continue
        stats = [quartiles(v) for v in series]
        cells = []
        for q1, med, q3 in stats:
            spread = (q3 - q1) / med if med else 0.0
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] "
                         f"spread {spread:.3f}")
            if spread > m["bound"]:
                problems.append(f"{workload}/{m['name']}: spread "
                                f"{spread:.3f} > bound {m['bound']}")
        drift = worse_by(m, stats[0][1], stats[1][1])
        if drift > m["bound"]:
            problems.append(f"{workload}/{m['name']}: drift {drift:.3f} "
                            f"> bound {m['bound']}")
        print(f"  {m['name']:<16} bound {m['bound']:<5} "
              + " | ".join(cells) + f" | drift {drift:+.3f}")


def traced_report(spec, workload, problems):
    seconds = spec["run_seconds"]
    results = []
    for attempt in range(2):
        code, result = run(workload, SEED, seconds, 1)
        label = f"{workload} traced run {attempt + 1}"
        if code != 0 or result is None or not result["correct"]:
            problems.append(f"{label}: exit {code}, result {result}")
            return
        check_names(spec, result, True, problems, label)
        results.append(result["metrics"])
    for name in EXACT:
        a = results[0].get(name, {}).get("value")
        b = results[1].get(name, {}).get("value")
        if a != b:
            problems.append(f"{workload}/{name}: exact count differs "
                            f"between traced runs ({a} vs {b})")
    print(f"\n{workload} traced: exact counts "
          + ("agree" if all(results[0].get(n) == results[1].get(n)
                            for n in EXACT) else "DIFFER")
          + ", trace.overhead "
          + " / ".join(f"{r['trace.overhead']['value']:.3f}"
                       for r in results))
    for name in sorted(results[0]):
        print(f"  {name:<32} " + "  ".join(
            f"{r[name]['value']:.6g}" for r in results))


def corruption_report(workload, problems):
    code, result = run(workload, SEED, 1, 0, corrupt=True)
    ok = code != 0 and result is not None and not result["correct"]
    print(f"\n{workload} corrupted expectation: exit {code}, "
          f"correct={result['correct'] if result else None} -> "
          + ("fails as it must" if ok else "NOT DETECTED"))
    if not ok:
        problems.append(f"{workload}: corrupted expectation not detected")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        sets_report(spec, workload, problems)
        traced_report(spec, workload, problems)
        corruption_report(workload, problems)
    print()
    for p in problems:
        print("PROBLEM:", p)
    print("steadiness: " + ("all checks hold" if not problems
                            else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
