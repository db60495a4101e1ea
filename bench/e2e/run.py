#!/usr/bin/env python3
"""Runner and comparator for bench_e2e (standard library only).

One run, the form BENCHMARK.json names:

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

builds bench_e2e into build-e2e/ on first use, runs it, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics, where metrics holds the end_to_end metrics of BENCHMARK.json
(--trace 0) or its per_layer metrics (--trace 1). It exits non-zero,
without that line, when the sources or a metric are missing, and with
correct=false and exit 1 on a wrong result.

Repeated runs:

    python3 bench/e2e/run.py sweep [--runs K] [--seconds S] [--seed0 N]
                             [--workloads a,b] [--trace] [--out F] [TREE ...]

runs every workload K times (seeds N .. N+K-1) for each source TREE
(default: this checkout), alternating which tree goes first, and writes
per-metric median and quartiles plus a host descriptor to F. A run whose
light-phase generator lateness p99 exceeds 20 us is marked invalid and
left out of the statistics.

    python3 bench/e2e/run.py compare A.json [B.json]

compares the first tree of the sweep results (the base) against the second
under the BENCHMARK.json bounds: a metric is REGRESSED when its median is
worse by more than its bound, and unresolved when the base's own quartile
spread exceeds the bound (unless every new run beats every base run).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# Covered by the repository's build*/ ignore rule.
BUILD_DIR = "build-e2e"
RUN_TIMEOUT_S = 170
MAX_LATENESS_US = 20.0
LATENESS_METRIC = "light.lateness_p99_us"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark(root):
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def build(tree, out):
    """Configures (once) and builds bench_e2e for source tree `tree`, in
    the repository's default build type."""
    if not (tree / "src").is_dir() or not (tree / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no fastfair sources and build under {tree}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", str(tree / "bench" / "e2e"), "-B",
                        str(out), *gen], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run([cmake, "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out / "bench_e2e"


def run_once(exe, workload, seed, seconds, trace_file=None, echo=False):
    """Runs the binary once; returns its JSON result (the last stdout line)."""
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace_file is not None:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={trace_file}")
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        # Also on timeout, Ctrl-C or SIGTERM: never leave the run behind.
        if p.poll() is None:
            p.kill()
            p.wait()
    lines = stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if p.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {p.returncode}")
    return json.loads(lines[-1])


def single(args):
    bench = load_benchmark(ROOT)
    out = ROOT / BUILD_DIR
    exe = build(ROOT, out)
    trace_file = None
    if args.trace:
        trace_file = out / "trace" / f"{args.workload}-seed{args.seed}.json"
    res = run_once(exe, args.workload, args.seed, args.seconds, trace_file,
                   echo=True)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        got = res["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} has unit {got['unit']}, "
                               f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(runs):
    """Per-metric median and quartiles over the valid runs."""
    out = {}
    names = sorted({n for r in runs for n in r["metrics"]})
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs
                if name in r["metrics"]]
        unit = next(r["metrics"][name]["unit"] for r in runs
                    if name in r["metrics"])
        q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                       else (vals[0], vals[0], vals[0]))
        out[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                     "unit": unit, "values": vals}
    return out


def valid(res):
    late = res["metrics"].get(LATENESS_METRIC, {}).get("value", 0.0)
    return res["correct"] and late <= MAX_LATENESS_US


def sweep(args):
    bench = load_benchmark(ROOT)
    trees = [Path(t).resolve() for t in args.trees] or [ROOT]
    labels = [str(t) for t in trees]
    if len(set(labels)) != len(labels):
        labels = [f"{i}:{t}" for i, t in enumerate(labels)]
    exes = [build(t, t / BUILD_DIR) for t in trees]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    raw = {label: {w: [] for w in workloads} for label in labels}
    host = None
    for r in range(args.runs):
        seed = args.seed0 + r
        order = list(range(len(trees)))
        if r % 2 == 1:
            order.reverse()
        for w in workloads:
            for i in order:
                trace_file = None
                if args.trace:
                    trace_file = (trees[i] / BUILD_DIR / "trace" /
                                  f"{w}-seed{seed}.json")
                t0 = time.monotonic()
                res = run_once(exes[i], w, seed, args.seconds, trace_file)
                host = host or res["host"]
                raw[labels[i]][w].append(res)
                tag = "" if valid(res) else "  INVALID"
                log(f"[{labels[i]}] {w} seed={seed} "
                    f"{time.monotonic() - t0:.1f}s{tag}")
    host = dict(host or {}, cpu=cpu_model(), nproc=os.cpu_count())
    doc = {"host": host, "seconds": args.seconds, "trace": args.trace,
           "results": {}}
    for label in labels:
        doc["results"][label] = {}
        for w in workloads:
            runs = raw[label][w]
            good = [r for r in runs if valid(r)]
            doc["results"][label][w] = {
                "runs": len(runs), "invalid": len(runs) - len(good),
                "failed": sum(r["failed"] for r in runs),
                "summary": summarize(good) if good else {}}
    out = Path(args.out) if args.out else ROOT / BUILD_DIR / "sweep.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {out}")
    print_sweep(doc, bench)
    return 0


def ordered_names(bench, summary):
    """BENCHMARK.json's metrics first, then the rest of the run's output."""
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    return ([n for n in declared if n in summary] +
            sorted(n for n in summary if n not in declared))


def print_sweep(doc, bench):
    for label, per_w in doc["results"].items():
        for w, res in per_w.items():
            print(f"== {label} {w} (runs {res['runs']}, invalid "
                  f"{res['invalid']}, failed {res['failed']})")
            for name in ordered_names(bench, res["summary"]):
                s = res["summary"][name]
                spread = ((s["q3"] - s["q1"]) / s["median"]
                          if s["median"] else 0.0)
                print(f"  {name:34s} {s['median']:12.4f} {s['unit']:7s} "
                      f"[{s['q1']:.4f}, {s['q3']:.4f}] spread "
                      f"{100 * spread:5.1f}%")


def compare(args):
    bench = load_benchmark(ROOT)
    sides = []
    for f in args.files:
        doc = json.loads(Path(f).read_text())
        sides += list(doc["results"].items())
    if len(sides) != 2:
        log("compare needs exactly two trees across the given files")
        return 2
    (base_label, base), (new_label, new) = sides
    print(f"base {base_label}\nnew  {new_label}")
    regressed = False
    for w in base:
        if w not in new:
            continue
        print(f"== {w}")
        for side, res in (("base", base[w]), ("new", new[w])):
            if res["invalid"] or res["failed"]:
                print(f"  {side}: {res['invalid']} invalid runs, "
                      f"{res['failed']} failed ops")
                regressed |= res["failed"] > 0
        bounds = {m["name"]: m for m in bench["end_to_end"]}
        for name in ordered_names(bench, base[w]["summary"]):
            b = base[w]["summary"][name]
            n = new[w]["summary"].get(name)
            if n is None or b["median"] == 0:
                continue
            change = (n["median"] - b["median"]) / b["median"]
            spread = (b["q3"] - b["q1"]) / b["median"]
            m = bounds.get(name)
            if m is None:
                # Reported for diagnosis only: no bound, no verdict.
                print(f"  {name:34s} {b['median']:12.4f} -> "
                      f"{n['median']:12.4f} {b['unit']:7s} "
                      f"{100 * change:+6.1f}% (base spread "
                      f"{100 * spread:.1f}%)")
                continue
            lower = m["better"] == "lower"
            worse = change if lower else -change
            beats_all = (max(n["values"]) < min(b["values"]) if lower
                         else min(n["values"]) > max(b["values"]))
            if beats_all:
                status = "better"
            elif spread > m["bound"]:
                status = "unresolved"
            elif worse > m["bound"]:
                status = "REGRESSED"
                regressed = True
            else:
                status = "ok"
            print(f"  {name:34s} {b['median']:12.4f} -> "
                  f"{n['median']:12.4f} {m['unit']:7s} {100 * change:+6.1f}% "
                  f"(bound {100 * m['bound']:.0f}%, base spread "
                  f"{100 * spread:.1f}%) {status}")
    return 1 if regressed else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("sweep", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "sweep":
            p.add_argument("--runs", type=int, default=5)
            p.add_argument("--seconds", type=int, default=16)
            p.add_argument("--seed0", type=int, default=1)
            p.add_argument("--workloads", default="")
            p.add_argument("--trace", action="store_true")
            p.add_argument("--out", default="")
            p.add_argument("trees", nargs="*")
            return sweep(p.parse_args(argv[1:]))
        p.add_argument("files", nargs="+")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return single(p.parse_args(argv))


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so the finally blocks stop child runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
