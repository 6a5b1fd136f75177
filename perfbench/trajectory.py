"""Record one point of the benchmark trajectory: many seeds, every workload.

    python3 perfbench/trajectory.py --seeds 1-10 --label <commit> --out perfbench/baseline.json

Runs ``run.py`` untraced once per seed on every workload of BENCHMARK.json,
plus one traced run per workload on the first seed, one process at a time.
For each end-to-end metric it writes the per-seed values, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  The fingerprints
of each seed's run record are kept, so a later point can show that a change
left the arithmetic alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return json.loads(lines[-1]), record


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--label", required=True, help="what was measured, e.g. a commit id")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    doc = {"label": args.label, "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        values, fingerprints, attempted, failed = {}, {}, 0, 0
        for seed in args.seeds:
            result, record = run(name, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            fingerprints[seed] = record["fingerprint"]
            for m, v in result["metrics"].items():
                values.setdefault(m, []).append(v["value"])
            print(f"{name} seed {seed}: run_s {result['metrics']['run_s']['value']:.3f}",
                  flush=True)
        traced, _ = run(name, args.seeds[0], seconds, 1)
        doc["workloads"][name] = {
            "attempted": attempted, "failed": failed,
            "end_to_end": {m: summary(v) for m, v in values.items()},
            "fingerprints": fingerprints,
            "per_layer_seed": args.seeds[0],
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        for m, s in doc["workloads"][name]["end_to_end"].items():
            print(f"  {m:28s} median {s['median']:12.5g} spread {s['spread']:.3f}")
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
