"""Benchmark of the jointprune pipeline on synthetic inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  One run sets the workload up several times
(``setup_s`` is the import time plus the median set-up), then repeats the
workload's round of timed phases on a fresh copy of the initial network
until ``--seconds`` have passed, and reports the median over rounds.
Correctness checks run on the first round's outputs, outside the timed
region, and every round must reproduce the first round's result
fingerprints exactly.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
spends the first half of the time untraced and the second half traced, and
prints the per-layer metrics, a self-time table and the tracing overhead.
The last line of standard output is always the JSON result.  ``--smoke``
runs one tiny round of every phase and check, in seconds.  The exit code is
0 only when every check passes.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Pin BLAS to one thread before numpy is imported: the paper's setting is a
# single CPU and threadpoolctl is not available to pin it later.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3
MIN_ROUNDS = 3
# Printed with the gated metrics but absent from BENCHMARK.json: on a shared
# machine the run-to-run spread of the latency percentiles exceeds any bound
# the benchmark may set, and the error rate is 0 on a correct run.
UNGATED = {"infer_b1_ms_p50": ("ms", "lower"), "infer_b1_ms_p99": ("ms", "lower"),
           "infer_b1_requests": ("count", "higher"), "error_rate": ("ratio", "lower")}


def blas_info(np):
    """BLAS library name/version and the thread count it reports, if it can."""
    dep = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": dep.get("name"), "version": dep.get("version"), "threads": threads,
            "env": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one tiny round, for tests")
    return p.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def measure(args, s, ckpt_path, checks, workloads, tracer):
    """Run the rounds; returns (untraced, traced, spans, checks, peak RSS).

    Another round starts while the rounds so far plus one as long as the
    last fit in the budget, and always until ``least`` rounds are done.
    ``spans`` holds (first span, end span, counters) per traced round.  The
    peak RSS is read after the first round: later rounds repeat its work,
    and what they add is allocator growth that depends on the round count.
    """
    plain, traced, spans, check_results = [], [], [], []
    measured = 0.0
    peak_rss_mb = None

    def another(rounds, budget, least):
        if args.smoke:
            return not rounds
        return len(rounds) < least or measured + rounds[-1]["round_s"] <= budget

    untraced_budget = args.seconds / 2 if tracer else args.seconds
    while another(plain, untraced_budget, 1 if tracer else MIN_ROUNDS):
        net, res = workloads.run_round(s, ckpt_path)
        plain.append(res)
        measured += res["round_s"]
        if len(plain) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            check_results = checks.run_checks(s, net, res)
        del net
    if tracer is not None:
        tracer.install()
        while another(traced, args.seconds, 1):
            tracer.counts.clear()
            first = tracer.mark()
            tracer.enabled = True
            try:
                _, res = workloads.run_round(s, ckpt_path, tracer)
            finally:
                tracer.enabled = False
            traced.append(res)
            spans.append((first, tracer.mark(), dict(tracer.counts)))
            measured += res["round_s"]
    return plain, traced, spans, check_results, peak_rss_mb


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "jointprune")):
        print(f"error: no jointprune sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import checks
    import tracing
    import workloads
    t_import = time.perf_counter() - T_START

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    e2e_spec, layer_spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ckpt_path = os.path.join(OUT_DIR, tag + ".ckpt")

    setup_times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        s = workloads.set_up(args.workload, args.seed, smoke=args.smoke)
        setup_times.append(time.perf_counter() - t0)

    tracer = tracing.Tracer() if args.trace else None
    try:
        plain, traced, spans, check_results, peak_rss_mb = measure(
            args, s, ckpt_path, checks, workloads, tracer)
    except Exception:  # report the failed run, then exit nonzero
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if os.path.exists(ckpt_path):
            os.remove(ckpt_path)

    results = plain + traced
    first = results[0]["fingerprint"]
    same = all(r["fingerprint"] == first for r in results[1:])
    check_results.append(("rounds_reproduce_fingerprints", same,
                          f"{len(results)} rounds" if same else
                          str([r["fingerprint"] for r in results])))
    ops = workloads.operations(s)
    attempted = len(results) * sum(ops.values()) + len(check_results)
    failed = sum(not ok for _, ok, _ in check_results) + sum(
        r["b1_nonfinite"] + sum(h["phase"] == "aborted" for h in r["jp_hist"])
        for r in results)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "sizes": {**s.sizes, "check_batch": checks.CHECK_BATCH},
        "round_s": [r["round_s"] for r in results],
        "rounds_untraced": len(plain), "rounds_traced": len(traced),
        "operations_per_round": ops,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas_info(np),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "fingerprint": first,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, ok, detail in check_results:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")

    if not args.trace:
        values = workloads.end_to_end(s, plain)
        values["error_rate"] = failed / attempted
        values["setup_s"] = t_import + statistics.median(setup_times)
        values["peak_rss_mb"] = peak_rss_mb
        spec = e2e_spec
    else:
        median_round = statistics.median_low([r["round_s"] for r in traced])
        pick = next(i for i, r in enumerate(traced) if r["round_s"] == median_round)
        res, (lo, hi, counts) = traced[pick], spans[pick]
        values = tracing.layer_metrics(tracer, lo, hi, counts)
        values["checkpoint.bytes"] = res["ckpt_bytes"]
        values["trace.overhead_frac"] = (
            res["round_s"] / statistics.median_low([r["round_s"] for r in plain]))
        values.update({k: v for k, v in res["fingerprint"].items() if k in layer_spec})
        spec = layer_spec
        table = tracing.self_time_table(tracer, lo, hi, res["round_s"])
        print(f"self time of the median traced round ({res['round_s']:.4f} s):")
        for name, calls, sec in table:
            print(f"  {sec:10.4f} s {100 * sec / res['round_s']:6.2f}% {calls:8d}  {name}")
        print(f"  {sum(r[2] for r in table):10.4f} s  total")
        tracer.dump(os.path.join(OUT_DIR, tag + ".spans.json"), [sp[:2] for sp in spans])

    missing = sorted(set(spec) - set(values))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for name, m in spec.items():
        print(f"metric {name} = {values[name]!r} {m['unit']} ({m['better']} is better)")
    for name, (unit, better) in UNGATED.items():
        if name in values:
            print(f"metric {name} = {values[name]!r} {unit} ({better} is better; not gated)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": spec[name]["unit"]} for name in spec},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
