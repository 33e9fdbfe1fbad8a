#!/usr/bin/env python3
"""Builds and runs the lwbench driver; see lwbench/README.md.

Benchmark run (from the repository root):
    python3 lwbench/run.py --workload paper_n100 --seed 1 --seconds 25 --trace 0

The driver's last stdout line is the result JSON. With --trace 1 the
benchmark's host-time spans are also written as Chrome trace-event JSON to
<build dir>/spans/<workload>.json.

Other modes, both at BENCHMARK.json's run_seconds on every workload:
    python3 lwbench/run.py --steadiness [--runs 10] [--base-seed 1001]
        Two interleaved sets of runs of the same build, one fresh seed per
        run; prints each end-to-end metric's median, quartiles and spread
        and how far the two sets' medians differ, against its bound.
    python3 lwbench/run.py --perfetto OUT.json [--seed 1]
        One traced run per workload, merged into one Chrome trace-event
        file with one track per workload.

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, relative to
the current directory (which must be the repository root). A usage error
exits 2 before anything is built or run.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_n100", "dense_n1000", "bootstrap_n2000", "observed_n100"]
RUN_FLAGS = {"--workload", "--seed", "--seconds", "--trace"}
MODE_FLAGS = {"--steadiness": ["--runs", "--base-seed"],
              "--perfetto": ["--seed"]}


def usage(message):
    sys.stderr.write("run.py: %s\n%s" % (message, __doc__))
    sys.exit(2)


def parse(argv):
    """Returns (mode, mode_arg, options) or exits 2."""
    mode, mode_arg, options = None, None, {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if "=" in arg and arg.startswith("--"):
            arg, value = arg.split("=", 1)
        elif arg == "--steadiness":
            value = None
        elif i + 1 < len(argv):
            i += 1
            value = argv[i]
        else:
            usage("missing value for %s" % arg)
        i += 1
        if arg in MODE_FLAGS:
            if mode is not None:
                usage("only one of --steadiness, --perfetto")
            mode, mode_arg = arg, value
        elif arg in RUN_FLAGS or any(arg in f for f in MODE_FLAGS.values()):
            options[arg] = value
        else:
            usage("unknown flag: %s" % arg)
    allowed = RUN_FLAGS if mode is None else set(MODE_FLAGS[mode])
    for flag in options:
        if flag not in allowed:
            usage("%s is not accepted here" % flag)
    for flag in ("--seed", "--seconds", "--runs", "--base-seed"):
        value = options.get(flag, "0")
        if not (value.isascii() and value.isdigit() and len(value) <= 19):
            usage("%s is not a non-negative integer below 10^19: %r"
                  % (flag, value))
    for flag in ("--seconds", "--runs"):
        if flag in options and int(options[flag]) == 0:
            usage("%s must be positive" % flag)
    name = options.get("--workload")
    if name is not None and name not in WORKLOADS:
        usage("unknown workload: %r (known: %s)" % (name, ", ".join(WORKLOADS)))
    if mode is None:
        for flag in sorted(RUN_FLAGS):
            if flag not in options:
                usage("missing %s" % flag)
        if options["--trace"] not in ("0", "1"):
            usage("--trace must be 0 or 1")
    return mode, mode_arg, options


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the driver; returns its path."""
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: simulator sources (src/) not found next to "
                         "lwbench/; run from a full checkout\n")
        sys.exit(1)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", out, "--target", "lwbench", "-j", jobs])
    return os.path.join(out, "lwbench")


def step(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def run_driver(binary, workload, seed, seconds, trace, spans_out=None,
               echo=True):
    """Runs one measurement; returns the parsed result JSON."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    done = subprocess.run(cmd, stdout=subprocess.PIPE)
    text = done.stdout.decode()
    if echo:
        sys.stdout.write(text)
        sys.stdout.flush()
    lines = text.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write("run.py: driver exited %d\n" % done.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["run_seconds"], {m["name"]: m["bound"] for m in spec["end_to_end"]}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def steadiness(binary, options):
    seconds, bound = bounds()
    runs = int(options.get("--runs", "10"))
    base = int(options.get("--base-seed", "1001"))
    if runs < 2:
        usage("--runs must be at least 2")
    values = {(n, s): {} for n in WORKLOADS for s in "AB"}
    failed = 0
    for i in range(runs):
        for n in WORKLOADS:
            order = "AB" if i % 2 == 0 else "BA"
            for s in order:
                seed = base + 2 * i + (0 if s == "A" else 1)
                result = run_driver(binary, n, seed, seconds, 0, echo=False)
                failed += result["failed"]
                for name, m in result["metrics"].items():
                    values[(n, s)].setdefault(name, []).append(m["value"])
                sys.stderr.write("run %d/%d %s set %s seed %d: %s\n" % (
                    i + 1, runs, n, s, seed, " ".join(
                        "%s=%.6g" % (k, m["value"])
                        for k, m in result["metrics"].items())))
    ok = failed == 0
    print("%-16s %-12s %3s %11s %11s %11s %7s %7s %6s  %s" % (
        "workload", "metric", "set", "q1", "median", "q3", "spread", "drift",
        "bound", "verdict"))
    for n in WORKLOADS:
        for name, b in bound.items():
            rows = {s: spread(values[(n, s)][name]) for s in "AB"}
            drift = (rows["B"][1] - rows["A"][1]) / rows["A"][1]
            for s in "AB":
                q1, q2, q3, sp = rows[s]
                if abs(drift) > b or sp > b:
                    verdict = "FAIL"
                    ok = False
                elif sp > b / 3:
                    verdict = "noisy"
                else:
                    verdict = "steady"
                print("%-16s %-12s %3s %11.5g %11.5g %11.5g %6.1f%% %6.1f%% "
                      "%5.0f%%  %s" % (n, name, s, q1, q2, q3, 100 * sp,
                                       100 * drift, 100 * b, verdict))
    print("failed operations: %d" % failed)
    print("steadiness: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def perfetto(binary, out_path, options):
    seconds, _ = bounds()
    seed = int(options.get("--seed", "1"))
    events = []
    for n in WORKLOADS:
        path = os.path.join(build_dir(), "spans", n + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        run_driver(binary, n, seed, seconds, 1, spans_out=path, echo=False)
        with open(path) as f:
            events += json.load(f)["traceEvents"]
    with open(out_path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    print("wrote %s (%d events, one track per workload)" % (out_path, len(events)))
    return 0


def main():
    mode, mode_arg, options = parse(sys.argv[1:])
    binary = build()
    if mode == "--steadiness":
        return steadiness(binary, options)
    if mode == "--perfetto":
        return perfetto(binary, mode_arg, options)
    spans = None
    if options["--trace"] == "1":
        spans = os.path.join(build_dir(), "spans", options["--workload"] + ".json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    run_driver(binary, options["--workload"], options["--seed"],
               options["--seconds"], options["--trace"], spans_out=spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
