#!/usr/bin/env python3
"""Study benchmark: core::Study end to end and layer by layer.

Run from the repository root:

  python3 studybench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 studybench/run.py --self-test   # every workload at a tiny scale
  python3 studybench/run.py --pin         # re-pin studybench/digests.json

The first call configures and builds studybench/ (CMake, RelWithDebInfo)
into .bench_build/studybench. A run then starts one studybench process per
repetition until --seconds is spent, checks every repetition, and reports
medians: human-readable lines first, then, as the last stdout line, one
JSON object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer
metrics. README.md says which workload each metric is meant to move.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("scan_serial", "scan_parallel", "attack_month", "scan_fleet")
# The scales were chosen at seed 42; 2021 is held out.
PINNED_SEEDS = (42, 2021)
DIGESTS = BENCH_DIR / "digests.json"
REP_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
            / "studybench")


def build():
    """Configures (once) and builds the studybench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"studybench: no library sources in {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "studybench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"studybench: {' '.join(step[:2])} failed")
    return out / "studybench"


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pinned_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# ------------------------------------------------------------ provenance

def git_revision():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "none"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "none"
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                            "--", "src", "studybench"],
                           capture_output=True, text=True).stdout.strip()
    return lines[1] + ("-dirty" if dirty else "")


def source_digest():
    """SHA-256 over src/ and studybench/: identifies the code when git can't."""
    sha = hashlib.sha256()
    for base in ("src", "studybench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                sha.update(str(path.relative_to(ROOT)).encode() + b"\0")
                sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


# ----------------------------------------------------------- repetitions

def run_rep(binary, workload, seed, traced, trace_out=None, tiny=False,
            serial=False):
    """One studybench process; returns {"record", "traced", "problems"}."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0"]
    if trace_out:
        command += ["--trace-out", str(trace_out)]
    if tiny:
        command.append("--tiny")
    if serial:
        command.append("--serial")
    rep = {"record": None, "traced": traced, "trace_out": trace_out,
           "problems": []}
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rep["problems"].append(f"timed out after {REP_TIMEOUT_S} s")
        return rep
    if proc.returncode:
        rep["problems"].append(
            f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return rep
    try:
        rep["record"] = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        rep["problems"].append("no JSON record on stdout")
        return rep
    rep["problems"] += [f"check {name} failed" for name, ok
                        in rep["record"]["checks"].items() if not ok]
    return rep


def check_digests(reps, pinned):
    """Every repetition must reproduce the pinned digest, or (for a seed
    with no pin) the first repetition's."""
    reference = pinned
    for rep in reps:
        if rep["record"] is None:
            continue
        digest = rep["record"]["digest"]["all"]
        if reference is None:
            reference = digest
        if digest != reference:
            rep["problems"].append(
                "digest differs from the "
                + ("pinned one" if pinned else "run's first repetition"))


def measure(binary, args):
    """Repetitions until --seconds is spent. A traced run alternates traced
    and untraced repetitions, so the tracing overhead is measured too."""
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    batch = (True, False) if args.trace else (False,)
    reps = []
    start = time.monotonic()
    while True:
        for traced in batch:
            out = (trace_dir / f"{args.workload}-seed{args.seed}-rep{len(reps)}"
                   ".json") if traced else None
            reps.append(run_rep(binary, args.workload, args.seed, traced, out))
        elapsed = time.monotonic() - start
        per_batch = elapsed * len(batch) / len(reps)
        if elapsed + per_batch > args.seconds:
            return reps


# --------------------------------------------------------------- metrics

def end_to_end(records):
    def median(fn):
        return statistics.median(fn(r) for r in records)
    return {
        "study_s": median(lambda r: r["study_s"]),
        "setup_s": statistics.median(
            s for r in records for s in r["setup_samples"]),
        "scan_s": median(lambda r: r["scan_s"]),
        "attack_s": median(lambda r: r["attack_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "probes_per_s": median(lambda r: r["probes"] / r["scan_s"]),
        "sim_events_per_s": median(lambda r: r["events"] / r["study_s"]),
        "capture_per_s": median(lambda r: r["captures"] / r["attack_s"]),
    }


def per_layer(traced, untraced):
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["obs.trace_overhead_s"] = (
        statistics.median(r["study_s"] for r in traced)
        - statistics.median(r["study_s"] for r in untraced))
    return values


def self_times(trace_path):
    """Seconds per span name not covered by the span's children."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    children = {}
    for event in events:
        children.setdefault(event["args"]["parent"], []).append(event)
    out = {}
    for event in events:
        start, end = event["ts"], event["ts"] + event["dur"]
        covered, cursor = 0.0, start
        for child in sorted(children.get(event["args"]["id"], []),
                            key=lambda c: c["ts"]):
            low = max(child["ts"], cursor)
            high = min(child["ts"] + child["dur"], end)
            if high > low:
                covered += high - low
            cursor = max(cursor, high)
        out[event["name"]] = (out.get(event["name"], 0.0)
                              + (event["dur"] - covered) / 1e6)
    return out


def report(specs, values):
    """{name: {"value", "unit"}} for every metric BENCHMARK.json lists."""
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise SystemExit(f"studybench: no value for {', '.join(missing)}")
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ------------------------------------------------------------------ modes

def run(binary, args):
    spec = benchmark_spec()
    pinned = pinned_digests().get(args.workload, {}).get(str(args.seed))
    reps = measure(binary, args)
    check_digests(reps, pinned)
    records = [r["record"] for r in reps if r["record"] is not None]
    if not records:
        for rep in reps:
            log(f"studybench: {'; '.join(rep['problems'])}")
        raise SystemExit("studybench: no repetition produced a record")
    failed = sum(1 for r in reps if r["problems"])
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if args.trace:
        if not traced or not untraced:
            raise SystemExit("studybench: a traced run needs both kinds")
        metrics = report(spec["per_layer"], per_layer(traced, untraced))
    else:
        metrics = report(spec["end_to_end"], end_to_end(untraced))

    provenance = {"git_revision": git_revision(),
                  "source_digest": source_digest(),
                  "workload": args.workload, "seed": args.seed,
                  "trace": args.trace, **records[0]["provenance"]}
    print("studybench " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    print(f"repetitions: attempted {len(reps)}, failed {failed}, "
          f"fail_ratio {failed / len(reps):.4f} ratio")
    for rep in reps:
        for problem in rep["problems"]:
            print(f"  FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:16.6f} {metric['unit']}")
    if not args.trace:
        for name in ("study_s", "scan_s", "attack_s"):
            low, high = quartiles([r[name] for r in untraced])
            print(f"  {name} n={len(untraced)} q1={low:.6f} q3={high:.6f}")
    selfs = {}
    for rep in reps:
        if rep["record"] is not None and rep["trace_out"]:
            for name, value in self_times(rep["trace_out"]).items():
                selfs.setdefault(name, []).append(value)
    if selfs:
        print("  self time per span (median s):")
        for name, values in sorted(selfs.items()):
            print(f"    {name:28s} {statistics.median(values):.6f}")
    digest = records[0]["digest"]["all"]
    print(f"digest {digest} ({'pinned' if pinned else 'not pinned'})")

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "provenance": provenance, "metrics": metrics,
        "self_times_s": {k: statistics.median(v) for k, v in selfs.items()},
        "repetitions": [{"record": r["record"], "problems": r["problems"]}
                        for r in reps]}, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def self_test(binary):
    """Each workload at a tiny scale, traced and untraced: every metric of
    BENCHMARK.json prints with its unit and a finite value, every check
    passes, and the gate rejects a corrupted record."""
    spec = benchmark_spec()
    problems = []
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        reps = [run_rep(binary, workload, 42, False, tiny=True),
                run_rep(binary, workload, 42, True, tiny=True,
                        trace_out=trace_dir / f"selftest-{workload}.json")]
        check_digests(reps, None)
        problems += [f"{workload}: {p}" for r in reps for p in r["problems"]]
        if any(r["record"] is None for r in reps):
            continue
        plain, traced = reps[0]["record"], reps[1]["record"]
        for kind, metrics in (
                ("end_to_end", report(spec["end_to_end"], end_to_end([plain]))),
                ("per_layer", report(spec["per_layer"],
                                     per_layer([traced], [plain])))):
            names = {s["name"] for s in spec[kind]}
            if set(metrics) != names:
                problems.append(f"{workload}: {kind} names differ")
            for name, metric in metrics.items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{workload}: {name} = {value!r}")
                elif kind == "end_to_end" and value <= 0:
                    problems.append(f"{workload}: {name} is {value}, not > 0")
            print(f"{workload} {kind}: {len(metrics)} metrics, units "
                  + ", ".join(sorted({m['unit'] for m in metrics.values()})))
        if not self_times(reps[1]["trace_out"]):
            problems.append(f"{workload}: trace file has no spans")
        # The gate itself: a wrong digest must fail the repetition.
        forged = [{"record": json.loads(json.dumps(plain)), "problems": []}]
        forged[0]["record"]["digest"]["all"] = "0" * 64
        check_digests(forged, plain["digest"]["all"])
        if not forged[0]["problems"]:
            problems.append(f"{workload}: a wrong digest was accepted")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def pin(binary):
    """Re-pins digests.json at PINNED_SEEDS, after checking that scan_parallel,
    scan_fleet and a scan_threads 1 run of their config agree."""
    pins = {}
    problems = []
    for seed in PINNED_SEEDS:
        digests = {}
        for workload in WORKLOADS:
            rep = run_rep(binary, workload, seed, False)
            problems += [f"{workload} seed {seed}: {p}" for p in rep["problems"]]
            if rep["record"] is not None:
                digests[workload] = rep["record"]["digest"]["all"]
                pins.setdefault(workload, {})[str(seed)] = digests[workload]
        serial = run_rep(binary, "scan_parallel", seed, False, serial=True)
        problems += [f"serial seed {seed}: {p}" for p in serial["problems"]]
        if serial["record"] is not None:
            digests["serial"] = serial["record"]["digest"]["all"]
        same = {digests.get(k) for k in ("scan_parallel", "scan_fleet", "serial")}
        if len(same) != 1:
            problems.append(f"seed {seed}: scan_parallel, scan_fleet and serial "
                            "digests differ")
        print(f"seed {seed}: " + ", ".join(f"{k} {v[:16]}"
                                           for k, v in digests.items()))
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        return 1
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if not (args.self_test or args.pin or args.workload):
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.pin:
        return pin(binary)
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
