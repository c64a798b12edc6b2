"""Repeat the benchmark over seeds and summarise its spread.

Run from the repository root, e.g.

    python3 perfbench/prove.py --seeds 1-10 --trace 0 --record
    python3 perfbench/prove.py --seeds 1-3 --trace 1 --record --workloads cli-tune

Each run is the command of ``BENCHMARK.json`` with ``--seconds
run_seconds``.  For every metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  ``--record`` stores the summary in
``perfbench/baseline.json``: medians and quartiles per workload, the
environment, from untraced runs the correctness anchors of every seed, and
from traced runs the tracing overhead (traced minus untraced ``wall_s`` of
the same seed, when the untraced runs are recorded).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    notes = {}
    for line in done.stderr.splitlines():
        for key in ("environment", "anchors"):
            prefix = f"perfbench: {key} "
            if line.startswith(prefix):
                notes[key] = json.loads(line[len(prefix):])
        if "mismatch" in line or "check failed" in line:
            print(f"  {line}")
    return result, notes


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    base = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    section = "per_layer" if args.trace else "end_to_end"

    for workload in names:
        rows, anchors = [], {}
        for seed in args.seeds:
            result, notes = run(spec, workload, seed, args.trace)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in bounds or k == "trace.wall_s"), flush=True)
            rows.append(result)
            anchors[str(seed)] = notes.get("anchors")
            base["environment"] = notes.get("environment", base.get("environment"))
        summary = {}
        for name in rows[0]["metrics"]:
            summary[name] = summarise([r["metrics"][name]["value"] for r in rows])
            if name in bounds:
                s = summary[name]
                print(f"  {name}: median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g} "
                      f"spread {s['spread']:.3f} (bound {bounds[name]})")
        if args.record:
            entry = {"seeds": args.seeds,
                     "attempted": sum(r["attempted"] for r in rows),
                     "failed": sum(r["failed"] for r in rows),
                     "metrics": summary}
            untraced = base.get("end_to_end", {}).get(workload)
            if args.trace and untraced:
                # tracing overhead: traced minus untraced wall_s, same seed
                walls = dict(zip(untraced["seeds"], untraced["metrics"]["wall_s"]["values"]))
                entry["trace_overhead_s"] = {
                    str(seed): r["metrics"]["trace.wall_s"]["value"] - walls[seed]
                    for seed, r in zip(args.seeds, rows) if seed in walls}
            base.setdefault(section, {})[workload] = entry
            if not args.trace:
                base.setdefault("anchors", {})[workload] = anchors
    if args.record:
        base["run_seconds"] = spec["run_seconds"]
        BASELINE.write_text(json.dumps(base, indent=1) + "\n")


if __name__ == "__main__":
    main()
