#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see bench/e2e/README.md).

Run from the root of the repository:

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      one run of one workload in a fresh process; the last line of
      standard output is the result as one JSON object
  python3 bench/e2e/run.py --sweep N --out DIR [--workload W ...] [--trace T]
      N runs (seeds 1..N) of each workload (by default those
      BENCHMARK.json gates), saved under DIR, with the median and
      quartile spread of every metric
  python3 bench/e2e/run.py --compare DIR_A DIR_B
      apply BENCHMARK.json's bounds and directions to two sweeps
  python3 bench/e2e/run.py --self-test [--workload W ...]
      every workload with a deliberately wrong expected answer must
      report failed ops
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

WORKLOADS = ["compile", "run-loops", "run-calls", "verify", "serve"]
EXE = "_build/default/bench/e2e/main.exe"
RUN_TIMEOUT_S = 160


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "bench/e2e/main.exe", "bin/occo.exe"],
            stdout=sys.stderr)
    except FileNotFoundError:
        sys.exit("bench/e2e: dune not found")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.exit("bench/e2e: build failed")


def stop(child):
    """Stop every process of the run's group: SIGTERM first (the benchmark
    then drains its daemon and removes its files), SIGKILL 15 s later."""
    try:
        os.killpg(child.pid, signal.SIGTERM)
        child.wait(timeout=15)
    except (ProcessLookupError, subprocess.TimeoutExpired):
        pass
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()


def run_one(workload, seed, seconds, trace, self_test=False, echo=True):
    """Run one workload in its own process group; return the result."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if self_test:
        cmd.append("--self-test")
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"bench/e2e: {workload} ran past {RUN_TIMEOUT_S} s")
    finally:
        stop(child)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(child.returncode or 1)
    meta = next((json.loads(l[len("meta: "):]) for l in lines
                 if l.startswith("meta: ")), {})
    return {"meta": meta, "result": json.loads(lines[-1])}


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def spread(values):
    """Quartile spread over the median, from statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def load_sweep(path):
    runs = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name)) as f:
                r = json.load(f)
            runs.setdefault(r["meta"]["workload"], []).append(r["result"])
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def sweep(args):
    os.makedirs(args.out, exist_ok=True)
    for w in args.workload or [w["name"] for w in spec()["workloads"]]:
        for seed in range(1, args.sweep + 1):
            r = run_one(w, seed, args.seconds, args.trace, echo=False)
            with open(os.path.join(args.out, f"{w}.t{args.trace}.s{seed}.json"),
                      "w") as f:
                json.dump(r, f)
            res = r["result"]
            print(f"{w} seed {seed}: attempted {res['attempted']} "
                  f"failed {res['failed']} correct {res['correct']}",
                  file=sys.stderr)
    for w, results in load_sweep(args.out).items():
        print(f"{w} ({len(results)} runs)")
        for metric in results[0]["metrics"]:
            vs = values(results, metric)
            if len(vs) >= 2:
                s, med = spread(vs)
                print(f"  {metric:36s} median {med:14.6g}  spread {s:7.2%}")


def compare(args):
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    a, b = load_sweep(args.compare[0]), load_sweep(args.compare[1])
    regressed = False
    for w in sorted(set(a) & set(b)):
        print(w)
        for name, m in metrics.items():
            va, vb = values(a[w], name), values(b[w], name)
            if len(va) < 2 or len(vb) < 2:
                continue
            sa, ma = spread(va)
            sb, mb = spread(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma if ma else 0.0
            if all(sign * (y - x) < 0 for x in va for y in vb):
                verdict = "better"
            elif max(sa, sb) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "no regression"
            print(f"  {name:20s} {ma:12.6g} -> {mb:12.6g} ({worse:+7.2%} worse, "
                  f"spread {sa:6.2%}/{sb:6.2%}, bound {m['bound']:.0%}): {verdict}")
    sys.exit(1 if regressed else 0)


def self_test(args):
    ok = True
    for w in args.workload or WORKLOADS:
        res = run_one(w, 1, 2, 0, self_test=True, echo=False)["result"]
        passed = res["failed"] > 0 and not res["correct"]
        ok = ok and passed
        print(f"{w}: {res['failed']}/{res['attempted']} ops failed with a wrong "
              f"expected answer: {'ok' if passed else 'NOT DETECTED'}")
    sys.exit(0 if ok else 1)


def main():
    # A termination request unwinds through run_one's cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int,
                   help="default: BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sweep", type=int, metavar="N")
    p.add_argument("--out", default="bench-e2e-out/sweep")
    p.add_argument("--compare", nargs=2, metavar="DIR")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.compare:
        compare(args)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    build()
    if args.sweep:
        sweep(args)
    elif args.self_test:
        self_test(args)
    elif args.workload and len(args.workload) == 1:
        run_one(args.workload[0], args.seed, args.seconds, args.trace)
    else:
        p.error("give one --workload, or --sweep, --compare or --self-test")


if __name__ == "__main__":
    main()
