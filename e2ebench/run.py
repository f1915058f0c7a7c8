#!/usr/bin/env python3
"""End-to-end benchmark of the pin access oracle: pao_cli analyze and an
in-process pao_serve session, with per-layer attribution.

    python3 e2ebench/run.py --workload analyze_shared --seed 1 \
        --seconds 24 --trace 0

Run from the repository root. It builds pao_cli and the in-process runner
(pao_e2e) from source into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench), generates the seeded inputs, measures, checks the
outputs and prints one JSON object as the last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See e2ebench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload plan. Every workload analyzes its design with pao_cli children
# and serves it in-process with the seeded ECO stream, the two taking turns
# for --seconds; the workloads differ in the design and in how the time
# splits.
#   child_share:  share of --seconds the pao_cli children should take; the
#                 child count is fixed after the first child, within
#                 [min_children, MAX_CHILDREN];
#   min_ops:      ECO requests sent even when the children use up the time.
WORKLOADS = {
    "analyze_shared": {"child_share": 0.6, "min_children": 2, "min_ops": 120},
    "analyze_diverse": {"child_share": 0.8, "min_children": 3,
                        "min_ops": 600},
    "serve_eco": {"child_share": 0.5, "min_children": 5, "min_ops": 1500},
}
MAX_CHILDREN = 16


def load_metrics():
    """(name, unit) of the end-to-end and the per-layer metrics, as
    BENCHMARK.json at the repository root declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


MUTATIONS = ("move", "orient", "add", "remove")
# Candidate tail percentiles, in permille so the ten-beyond test is exact.
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


class BenchError(Exception):
    """The benchmark itself could not run (build, crash, missing input)."""


# --- statistics ---------------------------------------------------------------


def tail_level(n):
    """Highest candidate percentile (as a fraction) with at least ten of n
    samples beyond it; None when n < 20."""
    for k in TAIL_PERMILLE:
        if n * (1000 - k) >= 10 * 1000:
            return k / 1000.0
    return None


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def summarize(values):
    """Median, tail percentile by the ten-beyond rule, and sample count."""
    q = tail_level(len(values))
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "tail_q": q,
        "tail": percentile(values, q) if q is not None else None,
    }


# --- processes ----------------------------------------------------------------


def spawn(argv, stdout_path, stderr_path):
    """Runs argv to completion; returns wall, CPU and peak RSS of that one
    child from its own wait4 (RUSAGE_CHILDREN would give the maximum over
    every child so far, not this child's)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
    }


def run_e2e(exe, args, work, tag):
    """Runs a pao_e2e subcommand and returns its JSON result."""
    out = os.path.join(work, tag + ".out")
    err = os.path.join(work, tag + ".err")
    res = spawn([exe] + args, out, err)
    with open(out) as f:
        lines = f.read().splitlines()
    if res["code"] != 0 or not lines:
        with open(err) as f:
            tail = f.read()[-2000:]
        raise BenchError("pao_e2e %s failed (exit %d): %s"
                         % (args[0], res["code"], tail))
    return json.loads(lines[-1])


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "tools", "pao_cli.cpp")):
        raise BenchError("no PAO sources next to %s; run from a checkout"
                         % HERE)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    bdir = os.path.join(target, "e2ebench")
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log, "a") as out:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "--target", "pao_cli",
                      "pao_e2e", "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=env, check=False).returncode != 0:
                raise BenchError("build failed; see " + log)
    return (os.path.join(bdir, "pao_tools", "pao_cli"),
            os.path.join(bdir, "pao_e2e"), target)


# --- the run ------------------------------------------------------------------


def eco_phase(exe, cli, args, work, lef, defp, budget_s, min_children):
    """Runs `pao_e2e eco` and, whenever it asks ("child <k>"), one
    `pao_cli analyze` child, so the children and the ECO stream take turns.
    After the first child the run gets as many children as fit in
    budget_s, within [min_children, MAX_CHILDREN]. Returns the eco result
    and the per-child accounting."""
    children = []
    total = min_children
    err = open(os.path.join(work, "eco.err"), "w")
    proc = subprocess.Popen([exe] + args, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=err, text=True)
    last = ""
    try:
        for line in proc.stdout:
            if not line.startswith("child "):
                last = line
                continue
            k = int(line.split()[1])
            report = os.path.join(work, "cli%d.json" % k)
            res = spawn([cli, "analyze", lef, defp, "--threads", "1",
                         "--report-json", report],
                        os.path.join(work, "cli%d.out" % k),
                        os.path.join(work, "cli%d.err" % k))
            res["report"] = report
            children.append(res)
            if k == 0 and budget_s > 0:
                fit = round(budget_s / max(res["wall_s"], 1e-3))
                total = min(max(fit, min_children), MAX_CHILDREN)
            proc.stdin.write("%d\n" % total)
            proc.stdin.flush()
    finally:
        proc.stdin.close()
        code = proc.wait()
        err.close()
    if code != 0 or not last:
        with open(os.path.join(work, "eco.err")) as f:
            raise BenchError("pao_e2e eco failed (exit %d): %s"
                             % (code, f.read()[-2000:]))
    return json.loads(last), children


def check_children(children, errors):
    """pao_cli may exit 0, or 1 with failed pins only; reports must show no
    dirty APs. Adds each child's pin counts."""
    for c in children:
        if c["code"] not in (0, 1) or not os.path.isfile(c["report"]):
            errors.append("pao_cli analyze exited %d" % c["code"])
            c["failed_pins"] = c["total_pins"] = 0
            continue
        with open(c["report"]) as f:
            oracle = json.load(f).get("oracle", {})
        c["failed_pins"] = oracle.get("failedPins", -1)
        c["total_pins"] = oracle.get("totalPins", 0)
        if (c["code"] == 1) != (c["failed_pins"] > 0):
            errors.append("pao_cli exit %d with %s failed pins"
                          % (c["code"], c["failed_pins"]))
        if oracle.get("dirtyAps") != 0:
            errors.append("pao_cli report has %s dirty APs"
                          % oracle.get("dirtyAps"))


def eco_metrics(eco):
    """Mutation (pooled), query and report latencies."""
    lat = eco["latency_ms"]
    mut = [x for c in MUTATIONS for x in lat.get(c, [])]
    return mut, lat["query"], lat["report"]


def end_to_end(wl, gen, children, eco):
    """End-to-end values (medians), and the summary (count, median, tail)
    of every timing behind them."""
    mut, query, report = eco_metrics(eco)
    summ = {
        "wall_s": summarize([c["wall_s"] for c in children]),
        "cpu_s": summarize([c["cpu_s"] for c in children]),
        "peak_rss_mb": summarize([c["peak_rss_mb"] for c in children]),
        "setup_s": summarize(
            eco["load_s"] if wl == "serve_eco" else gen["setup_s"]),
        "mutate_p50_ms": summarize(mut),
        "report_p50_ms": summarize(report),
        # Reported, not bounded: its run-to-run spread reached 0.29 of the
        # median on analyze_shared, over the largest bound allowed.
        "query": summarize(query),
    }
    values = {k: s["p50"] for k, s in summ.items() if k != "query"}
    values["eco_ops_per_s"] = eco["stream_requests"] / eco["stream_wall_s"]
    return values, summ


def per_layer(inproc, children, eco):
    values = {k: statistics.median(v) for k, v in inproc["samples"].items()}
    values["trace.overhead_s"] = (values["trace.wall_s"] - statistics.median(
        c["wall_s"] for c in children))
    values["trace.coverage_frac"] = 1.0 - (
        values["trace.unattributed_s"] / values["trace.wall_s"])
    disp = eco["dispatch_ms"]
    values["serve.load_s"] = statistics.median(eco["load_s"])
    values["serve.protocol_us"] = statistics.median(eco["protocol_us"])
    for cmd in MUTATIONS + ("query", "report"):
        values["serve.%s_ms" % cmd] = statistics.median(disp[cmd])
    # Tails by the ten-beyond rule. Unbounded: host bursts move a p99 by
    # 30-75% between runs.
    mut, query, _ = eco_metrics(eco)
    values["serve.mutate_tail_ms"] = summarize(mut)["tail"]
    values["serve.query_tail_ms"] = summarize(query)["tail"]
    dirty = eco["dirty_clusters"]
    visited = eco["cluster_count"]
    values["pao.session.dirty_clusters_per_mut"] = statistics.mean(dirty)
    values["pao.session.clusters_visited_per_mut"] = statistics.mean(visited)
    values["pao.session.dirty_frac"] = sum(dirty) / sum(visited)
    values["pao.session.class_builds_per_mut"] = (
        eco["class_builds"] / len(dirty))
    values["serve.cache_hit_frac"] = eco["cache_hit_frac"]
    return values


def fmt(x):
    return "%.6g" % x if isinstance(x, float) else str(x)


def describe(s):
    """Sample count and tail of a summary, for the table."""
    if s is None:
        return ""
    note = "median of n=%d" % s["n"]
    if s["tail_q"] is not None:
        note += ", p%g %s" % (100 * s["tail_q"], fmt(s["tail"]))
    return note


def print_table(rows):
    for name, value, unit, note in rows:
        print("  %-40s %14s %-6s %s" % (name, fmt(value), unit, note))


def counts(wl, children, eco, errors):
    """Operations and failed operations: pins and failed pins of the
    pao_cli children on the analyze workloads; on serve_eco, requests, and
    non-ok responses plus reports with failed pins. A failure of the other
    phase is a check error (a non-ok request), or not an operation at all
    (failed pins in a service report of an analyze workload after ECO edits,
    or in a child's report on serve_eco, which the first service report
    already counts)."""
    if wl == "serve_eco":
        return eco["attempted"], eco["failed_requests"] + eco["failed_reports"]
    if eco["failed_requests"]:
        errors.append("%d ECO requests failed" % eco["failed_requests"])
    return (sum(c["total_pins"] for c in children),
            sum(max(c["failed_pins"], 0) for c in children))


def run(args):
    wl = args.workload
    plan = WORKLOADS[wl]
    end_to_end_units, per_layer_units = load_metrics()
    cli, exe, target = build()
    work = os.path.join(target, "e2ebench-work", wl)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    prefix = os.path.join(work, "in")
    lef, defp = prefix + ".lef", prefix + ".def"
    errors = []

    gen_reps = 9 if wl != "serve_eco" and not args.trace else 1
    gen = run_e2e(exe, ["gen", wl, str(args.seed), prefix, str(gen_reps)],
                  work, "gen")
    # Traced runs need one untraced child only, for the counts check and
    # trace.overhead_s, and give half of --seconds to the ECO stream and
    # the rest to the traced in-process pipeline.
    if args.trace:
        budget, min_children, eco_s = 0, 1, args.seconds / 2
    else:
        budget = plan["child_share"] * args.seconds
        min_children, eco_s = plan["min_children"], args.seconds
    eco, children = eco_phase(
        exe, cli, ["eco", wl, str(args.seed), lef, defp,
                   str(plan["min_ops"]), repr(eco_s), str(args.trace), work],
        work, lef, defp, budget, min_children)
    errors += eco["errors"]
    check_children(children, errors)
    if args.trace:
        inproc = run_e2e(exe, ["inproc", lef, defp, "2", work]
                         + [c["report"] for c in children], work, "inproc")
        errors += inproc["errors"]

    attempted, failed = counts(wl, children, eco, errors)
    print("e2ebench %s seed=%d trace=%d: %d pao_cli runs, %d ECO requests"
          % (wl, args.seed, args.trace, len(children), eco["attempted"]))
    if args.trace:
        values = per_layer(inproc, children, eco)
        units = per_layer_units
        print_table([(k, values.get(k, "missing"), u, "") for k, u in units])
    else:
        values, summ = end_to_end(wl, gen, children, eco)
        units = end_to_end_units
        rows = [(k, values.get(k, "missing"), u, describe(summ.get(k)))
                for k, u in units]
        rows.append(("(query latency)", summ["query"]["p50"], "ms",
                     describe(summ["query"])))
        print_table(rows)
    missing = [k for k, _ in units if k not in values]
    if missing:
        raise BenchError("no value for metrics " + ", ".join(missing))
    if eco.get("batch_ap_mismatches"):
        print("note: %d instances have the batch run's pattern but other AP "
              "locations" % eco["batch_ap_mismatches"])
    if wl != "serve_eco" and eco["failed_reports"]:
        print("note: %d service reports after ECO edits have failed pins"
              % eco["failed_reports"])
    for e in errors:
        print("CHECK FAILED: " + e)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units},
    }
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        run(args)
    except BenchError as e:
        print("e2ebench: " + str(e), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
