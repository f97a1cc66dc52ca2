#!/usr/bin/env python3
"""Benchmark runner: builds bench_suite from this checkout, runs one
workload (or all of them), checks the outputs, and prints every metric.

    python3 benchsuite/run.py --workload rebuild_dor --seed 42 --seconds 25 --trace 0
    python3 benchsuite/run.py --workload all --seconds 15      # untraced set
    python3 benchsuite/run.py --workload all --trace 1 --seconds 5    # traced pass
    python3 benchsuite/run.py --smoke                          # pinned checks only

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; with --workload all they are keyed by
workload. Full results (quartiles, digests, self-time table) go to
<out>/<workload>-s<seed>-<t0|t1|smoke>.json and, for traced runs, a Chrome
trace to <out>/<workload>-s<seed>.trace.json.

Correctness, per rep: sim::validate_run passes, the traced rep's SOR cache
replay reproduces the engine's cache counters, and the FNV-1a64 digest of
the rep's metrics document equals every other rep's of the run. Before each
measured run, a pinned check runs the workload once at the pinned seed and
compares its digest with the one pinned in suite.json, so a change to any
simulated result fails the run whatever seed it was given. The pinned
check's simulated results are the sim_* metrics, which therefore repeat
exactly on every run of a commit. A rep that fails a check counts as
failed; the run goes on.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Environment switches that change the measured code path (per-run
# validation, the retired DOR loop, the single global event heap).
MEASUREMENT_ENV = ("FBF_VALIDATE", "FBF_DOR_LEGACY_LOOP", "FBF_GLOBAL_EVENT_HEAP")
# One timed rep, no warm-up, no time budget.
SINGLE_REP = ["--seconds=0", "--min-reps=1", "--warmup=0"]
# The simulated results of the pinned check, reported as end-to-end metrics.
SIM_METRICS = {"sim_recon_s": "recon_s", "sim_hit_ratio": "hit_ratio",
               "sim_disk_reads": "disk_reads", "sim_resp_ms": "resp_ms",
               "sim_p99_ms": "p99_ms"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(build_dir):
    """Configures once, then builds incrementally; output only on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))
    binary = build_dir / "bench_suite"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def quartiles(values):
    """q1, median, q3 (statistics.quantiles' default method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summary(values):
    """Median, quartiles, range, n."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def span_seconds(rep, name):
    for s in rep["spans"]:
        if s[0] == name:
            return (s[3] - s[2]) * 1e-6
    return None


def self_times(rep):
    """Seconds per span name: span duration minus what its children cover
    (children run one after another inside their parent)."""
    spans = rep["spans"]
    child_cover = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_cover[s[1]] += s[3] - s[2]
    out = {}
    for i, s in enumerate(spans):
        out[s[0]] = out.get(s[0], 0.0) + (s[3] - s[2] - child_cover[i]) * 1e-6
    return out


def measure(binary, name, spec, seed, extra, smoke, reference):
    """Runs bench_suite once and checks its reps. `reference` is the digest
    every rep must produce; when empty, the first good rep's digest."""
    flags = dict(spec["flags"], **(spec["smoke"] if smoke else {}))
    cmd = [str(binary), f"--name={name}", f"--seed={seed}"]
    cmd += [f"--{k}" if v is True else f"--{k}={v}" for k, v in flags.items()]
    p = subprocess.run(cmd + extra, capture_output=True, text=True)
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr[-4000:])
        fail(f"bench_suite exited {p.returncode} on {name}")
    raw = json.loads(p.stdout.strip().splitlines()[-1])
    reps = raw["reps"]
    pinned = bool(reference)
    reference = reference or next((r["digest"] for r in reps if r["ok"]), None)
    problems = []
    good = []
    for i, r in enumerate(reps):
        where = f"seed {seed} rep {i} ({r['kind']})"
        if not r["ok"]:
            problems.append(f"{where}: {r['error']}")
        elif r["digest"] != reference:
            problems.append(f"{where}: digest {r['digest']} != {reference}"
                            + (" (pinned)" if pinned else ""))
        elif (r["kind"] == "traced" and sum(self_times(r).values()) >
              span_seconds(r, "workload:" + name) * (1 + 1e-9)):
            # Self times partition the root span; more means children
            # overlap or escape their parent.
            problems.append(f"{where}: self times exceed the root span")
        else:
            good.append(r)
    return {"raw": raw, "good": good, "problems": problems,
            "digest": reference, "attempted": len(reps)}


def summarize(name, seed, pinned, m, traced, bench, nominal_ref_s, trace_path):
    """Turns the pinned check and the measured bench_suite run after it into
    the result document (under --smoke both are the one smoke run)."""
    raw, good = m["raw"], m["good"]
    checks = [m] if pinned is m else [pinned, m]
    attempted = sum(c["attempted"] for c in checks)
    failed = attempted - sum(len(c["good"]) for c in checks)
    problems = m["problems"] if pinned is m else (
        ["pinned check " + p for p in pinned["problems"]] + m["problems"])
    result = {"workload": name, "seed": seed, "traced": traced,
              "digest": m["digest"], "attempted": attempted, "failed": failed,
              "problems": problems, "peak_rss_mb": raw["peak_rss_mb"],
              "metrics": {}}
    timed = [r for r in good if r["kind"] == "timed"]
    traced_reps = [r for r in good if r["kind"] == "traced"]
    if timed:
        # This seed's simulated results: identical in every good rep (same
        # digest); kept for reference, compare.py pairs seeds by digest.
        result["seed_sim"] = timed[0]["sim"]
        pinned_sim = next((r["sim"] for r in pinned["raw"]["reps"] if r["sim"]), {})
        # Host times scaled to the nominal machine speed. Other tenants of
        # the host only ever add time, so each quantity is read off the
        # fastest quarter of its samples (q1 of the times): the rep times
        # give the code's speed, and the reference kernel's times after
        # them how many times slower than nominal the host ran (`slowdown`).
        stripes = timed[0]["stripes"]
        run_s = [span_seconds(r, "sim.run") for r in timed]
        setup_s = [span_seconds(r, "setup") for r in timed]
        ref_s = [r["ref_s"] for r in timed]
        slowdown = quartiles(ref_s)[0] / nominal_ref_s
        samples = {
            "stripes_per_s": [stripes * slowdown / quartiles(run_s)[0]],
            "setup_s": [quartiles(setup_s)[0] / slowdown],
            "raw_stripes_per_s": [stripes / t for t in run_s],
            "raw_setup_s": setup_s,
            "ref_s": ref_s,
            "peak_rss_mb": [raw["peak_rss_mb"]],
            "passed_frac": [(attempted - failed) / attempted],
        }
        samples.update({metric: [pinned_sim[key]]
                        for metric, key in SIM_METRICS.items() if key in pinned_sim})
        result["end_to_end"] = {n: summary(v) for n, v in samples.items()}
        if not traced:
            result["metrics"] = {
                e["name"]: {"value": result["end_to_end"][e["name"]]["median"],
                            "unit": e["unit"]}
                for e in bench["end_to_end"] if e["name"] in result["end_to_end"]}
    if traced_reps:
        layers = {key: statistics.median(r["layers"][key] for r in traced_reps)
                  for key in traced_reps[0]["layers"]}
        if timed:
            untraced = statistics.median(span_seconds(r, "sim.run") for r in timed)
            layers["trace.overhead_frac"] = layers["sim.run_s"] / untraced - 1.0
            layers["bench.ref_s"] = result["end_to_end"]["ref_s"]["median"]
        result["layers"] = layers
        tables = [self_times(r) for r in traced_reps]
        result["self_time_s"] = {k: statistics.median(t[k] for t in tables)
                                 for k in tables[0]}
        if trace_path is not None:
            write_chrome_trace(trace_path, raw, traced_reps)
        if traced:
            # A layer the workload leaves idle reports no value: it did 0.
            result["metrics"] = {
                e["name"]: {"value": layers.get(e["name"], 0.0), "unit": e["unit"]}
                for e in bench["per_layer"]}
    return result


def run_workload(binary, name, spec, args, bench, nominal_ref_s):
    pin = spec["pinned"]
    out = args.out.resolve()
    if args.smoke:
        check = measure(binary, name, spec, pin["seed"], SINGLE_REP + ["--traced"],
                        True, pin["smoke_digest"])
        result = summarize(name, pin["seed"], check, check, False, bench,
                           nominal_ref_s, out / f"{name}-smoke.trace.json")
        tag = "smoke"
    else:
        pinned = measure(binary, name, spec, pin["seed"], SINGLE_REP, False,
                         pin["digest"])
        extra = [f"--seconds={args.seconds}"] + (["--traced"] if args.trace else [])
        full = measure(binary, name, spec, args.seed, extra, False,
                       pin["digest"] if args.seed == pin["seed"] else "")
        trace_path = out / f"{name}-s{args.seed}.trace.json" if args.trace else None
        result = summarize(name, args.seed, pinned, full, bool(args.trace), bench,
                           nominal_ref_s, trace_path)
        tag = f"t{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{name}-s{result['seed']}-{tag}.json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return result


def write_chrome_trace(path, raw, reps):
    """Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
    event per span, one process row per traced rep."""
    events = []
    for n, rep in enumerate(reps):
        for i, (name, parent, start, end) in enumerate(rep["spans"]):
            events.append({
                "name": name, "cat": "bench", "ph": "X", "pid": 1, "tid": n + 1,
                "ts": start, "dur": end - start,
                "args": {"id": f"{n}.{i}",
                         "parent": f"{n}.{parent}" if parent >= 0 else None,
                         "run_id": raw["run_id"]}})
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def print_result(result, bench, layer_map):
    kind = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} seed={result['seed']} {kind}: "
          f"{result['attempted'] - result['failed']}/{result['attempted']} reps ok "
          f"(failed_frac {result['failed'] / result['attempted']:.3g}), "
          f"digest {result['digest']}")
    for p in result["problems"]:
        print(f"   FAILED {p}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(raw_stripes_per_s="1/s", raw_setup_s="s", ref_s="s")
    for name, s in result.get("end_to_end", {}).items():
        print(f"   {name:<16} {s['median']:>14.6g} {units[name]:<6}"
              f" q1={s['q1']:.6g} q3={s['q3']:.6g} min={s['min']:.6g}"
              f" max={s['max']:.6g} n={s['n']}")
    if "layers" not in result:
        return
    for m in bench["per_layer"]:
        value = result["layers"].get(m["name"], 0.0)
        print(f"   [{layer_map[m['name']]['layer']:<8}] {m['name']:<40}"
              f" {value:>14.6g} {m['unit']}")
    print("   self time (s), median over traced reps:")
    for name, value in sorted(result["self_time_s"].items(), key=lambda kv: -kv[1]):
        print(f"     {name:<28} {value:10.6f}")


def main():
    bench = load_json(ROOT / "BENCHMARK.json")
    suite = load_json(HERE / "suite.json")
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in suite["layers"]]
    if missing:
        fail(f"suite.json maps no layer for {', '.join(missing)}")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="workload name from suite.json, or 'all'")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="wall seconds of measured reps per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="pinned checks only: 1/50 size, pinned seed, one rep")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_build" / "results")
    args = ap.parse_args()

    names = list(suite["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in suite["workloads"]:
            fail(f"unknown workload {name!r}; known: {', '.join(suite['workloads'])}")
    if not args.smoke:
        for var in MEASUREMENT_ENV:
            if os.environ.get(var, "0") not in ("", "0"):
                fail(f"{var} is set; it changes the measured code path, so no "
                     "timed result is written (unset it, or use --smoke)")

    binary = build(ROOT / ".bench_build" / "benchsuite")
    results = [run_workload(binary, n, suite["workloads"][n], args, bench,
                            suite["reference"]["nominal_s"])
               for n in names]
    for r in results:
        print_result(r, bench, suite["layers"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = (results[0]["metrics"] if len(results) == 1
               else {r["workload"]: r["metrics"] for r in results})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if attempted == failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
