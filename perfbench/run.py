#!/usr/bin/env python3
"""Build and run the performance benchmark (see perfbench/README.md).

One run (the last stdout line is the result JSON):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Spread over several seeds (median, quartiles, min, max per metric):
  python3 perfbench/run.py --repeat N [--workload NAME|all] [--seed N]
                           [--seconds S] [--trace 0|1] [--out FILE]

Verdict per (workload, metric) between two --repeat outputs:
  python3 perfbench/run.py --compare BASE.json NEW.json

Every workload at 0.2 s windows and 1% of the layer suite, failing on
any missing metric or incorrect run:
  python3 perfbench/run.py --smoke
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXE = ROOT / "_build" / "default" / HERE.name / "perf.exe"
RUN_TIMEOUT_S = 170


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Build perf.exe from source; dune's shared cache stays off so the
    build reads and writes nothing outside this checkout."""
    if not (ROOT / "dune-project").exists():
        sys.exit("run.py: the benchmark must sit in a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", f"./{HERE.name}/perf.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if done.returncode != 0 or not EXE.exists():
        sys.stderr.write(done.stdout)
        sys.exit("run.py: build failed")


def git(*args):
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None


def provenance(stamp):
    commit = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return dict(stamp,
                commit=commit or "unknown",
                dirty=None if dirty is None else dirty != "",
                host_cores=os.cpu_count())


def perf(workload, seed, seconds, trace, scale=None):
    """One perf.exe run: (provenance, output lines, result dict or None)."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [], None
    lines = done.stdout.splitlines()
    stamp = {}
    for line in lines:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if done.returncode != 0 and result is not None:
        result["correct"] = False
    return provenance(stamp), lines, result


def one(args):
    prov, lines, result = perf(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        sys.stderr.write("".join(line + "\n" for line in lines))
        sys.exit("run.py: perf.exe failed or timed out")
    for line in lines[:-1]:
        if not line.startswith("stamp "):
            print(line)
    print("provenance " + json.dumps(prov))
    print(lines[-1])
    sys.exit(0 if result.get("correct") else 1)


def summarize(values):
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "values": values}


def repeat(args):
    names = ([w["name"] for w in spec()["workloads"]]
             if args.workload == "all" else [args.workload])
    out = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in names:
        runs, per_metric, units = [], {}, {}
        for i in range(args.repeat):
            seed = args.seed + i
            prov, _, result = perf(name, seed, args.seconds, args.trace)
            out.setdefault("provenance", prov)
            if result is None or not result.get("correct"):
                ok = False
                print(f"{name} seed {seed}: FAILED", file=sys.stderr)
                runs.append({"seed": seed, "correct": False})
                continue
            runs.append({"seed": seed, "correct": True,
                         "attempted": result["attempted"],
                         "failed": result["failed"]})
            for m, v in result["metrics"].items():
                per_metric.setdefault(m, []).append(v["value"])
                units[m] = v["unit"]
        summary = {m: dict(summarize(vs), unit=units[m])
                   for m, vs in per_metric.items()}
        out["workloads"][name] = {"runs": runs, "summary": summary}
        for m, s in summary.items():
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print(f"{name:16} {m:34} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"min {s['min']:<12.6g} max {s['max']:<12.6g} "
                  f"spread {spread:6.2%} {s['unit']}", file=sys.stderr)
    text = json.dumps(out, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    sys.exit(0 if ok else 1)


def verdict(base, new, bound, lower_better):
    """better / within / worse / unresolved for one (workload, metric),
    following the benchmark's bound: a change counts as worse when its
    median is worse than the base median by more than the bound; where
    the quartile spread of either side is wider than the bound the
    metric is unresolved unless every new run beats every base run; a
    gain needs the medians to differ by more than the base's quartile
    spread and nine in ten new runs to beat the base median."""
    bm, nm = base["median"], new["median"]
    sign = 1 if lower_better else -1
    worse_by = sign * (nm - bm) / bm
    spread = max((base["q3"] - base["q1"]) / bm, (new["q3"] - new["q1"]) / nm)

    def beats(x, y):
        return sign * (y - x) > 0

    if spread > bound:
        if all(beats(x, y) for x in new["values"] for y in base["values"]):
            return "better", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    wins = sum(beats(x, bm) for x in new["values"])
    if (-worse_by > (base["q3"] - base["q1"]) / bm
            and wins >= 0.9 * len(new["values"])):
        return "better", worse_by
    return "within", worse_by


def compare(args):
    base_path, new_path = args.compare
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    any_worse = False
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            continue
        for metric, bs in b["summary"].items():
            ns = n["summary"].get(metric)
            if ns is None:
                continue
            m = bounds.get(metric)
            if m is None:
                change = (ns["median"] - bs["median"]) / bs["median"] if bs["median"] else 0.0
                print(f"{name:16} {metric:34} {'(no bound)':11} {change:+8.2%}")
                continue
            v, worse_by = verdict(bs, ns, m["bound"], m["better"] == "lower")
            any_worse |= v == "worse"
            print(f"{name:16} {metric:34} {v:11} {-worse_by:+8.2%} "
                  f"(bound {m['bound']:.0%}, median {bs['median']:.6g} -> "
                  f"{ns['median']:.6g} {bs['unit']})")
    sys.exit(1 if any_worse else 0)


def smoke():
    s = spec()
    want = {0: [m["name"] for m in s["end_to_end"]],
            1: [m["name"] for m in s["per_layer"]]}
    ok = True
    for w in s["workloads"]:
        for trace in (0, 1):
            _, _, result = perf(w["name"], 1, 0.2, trace,
                                scale=0.01 if trace else None)
            missing = (want[trace] if result is None
                       else [m for m in want[trace] if m not in result["metrics"]])
            good = result is not None and result["correct"] and not missing
            ok &= good
            print(f"{w['name']:16} trace {trace}: "
                  f"{'ok' if good else 'FAILED'}"
                  f"{' missing ' + ', '.join(missing) if missing else ''}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.compare:
        return compare(args)
    build()
    if args.smoke:
        return smoke()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if not args.workload:
        p.error("--workload is required")
    if args.repeat:
        return repeat(args)
    return one(args)


if __name__ == "__main__":
    main()
