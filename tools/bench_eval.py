#!/usr/bin/env python3
"""Paired CPU benchmark of `pao_cli analyze --threads 1` between two builds.

    python3 tools/bench_eval.py --base OLD/pao_cli --change NEW/pao_cli \\
        --pairs 10 --out BENCH_eval.json \\
        analyze_shared=in/shared.lef,in/shared.def \\
        analyze_diverse=in/diverse.lef,in/diverse.def

Each named input is analyzed by the two binaries in alternating pairs (the
side that runs first alternates too), so slow drift of the host hits both
sides alike. Per input the JSON records, for each side, the median and
quartiles of child CPU seconds (user + sys, from wait4), wall seconds and
peak RSS; the per-pair CPU ratio change/base; and the deterministic work
counters of each side's report (`pao.drc.*`, `pao.eval.*`, the Step-3
counters). It also checks that the two sides agree on everything the
analysis decides: the `oracle` section minus its timings, and the failed-pin
lines of stderr (run with --report-failed so details are printed).

The inputs are any LEF/DEF pairs, e.g. from `pao_cli gen h 0.1 <prefix>` or
from the end-to-end benchmark's seeded generator (`pao_e2e gen <workload>
<seed> <prefix> 1`). Exit 0 when every input agreed, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

COUNTERS = (
    "pao.drc.via_checks",
    "pao.drc.metal_rect_checks",
    "pao.drc.union_boundary_calls",
    "pao.eval.verdict_memo_hits",
    "pao.eval.verdict_memo_misses",
    "pao.step3.pair_checks",
    "pao.step3.cluster_dp_runs",
)


def run(argv, stderr_path):
    """Runs argv with stdout discarded; returns code, wall, CPU, peak RSS."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, ru = os.wait4(pid, 0)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - t0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
    }


def quartiles(values):
    v = sorted(values)
    q = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 \
        else [v[0]] * 3
    return {"q1": q[0], "median": q[1], "q3": q[2]}


def strip_timings(node):
    """The oracle section without its timing-valued keys."""
    if isinstance(node, dict):
        return {k: strip_timings(v) for k, v in node.items()
                if k != "timings" and not k.endswith("Seconds")}
    if isinstance(node, list):
        return [strip_timings(v) for v in node]
    return node


def analyze(cli, lef, defp, work, tag):
    report = os.path.join(work, tag + ".json")
    err = os.path.join(work, tag + ".err")
    res = run([cli, "analyze", lef, defp, "--threads", "1",
               "--report-failed", "1000000", "--report-json", report], err)
    if res["code"] not in (0, 1):
        raise RuntimeError("%s exited %d (see %s)" % (cli, res["code"], err))
    with open(report) as f:
        doc = json.load(f)
    with open(err) as f:
        failed = [ln for ln in f.read().splitlines()
                  if ln.startswith("  FAILED") or ln.startswith("    ")]
    counters = doc.get("metrics", {}).get("counters", {})
    res["counters"] = {k: counters.get(k) for k in COUNTERS}
    res["decided"] = (strip_timings(doc.get("oracle")), failed)
    return res


def bench_input(name, lef, defp, args, work):
    sides = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}
    mismatches = 0
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {}
        for side in order:
            pair[side] = analyze(sides[side], lef, defp, work,
                                 "%s_%s_%d" % (name, side, i))
            runs[side].append(pair[side])
        if pair["base"]["decided"] != pair["change"]["decided"]:
            mismatches += 1
        print("%s pair %d: base %.2f s, change %.2f s CPU"
              % (name, i, pair["base"]["cpu_s"], pair["change"]["cpu_s"]),
              file=sys.stderr)
    ratios = [c["cpu_s"] / b["cpu_s"]
              for b, c in zip(runs["base"], runs["change"])]
    out = {"lef": os.path.basename(lef), "def": os.path.basename(defp),
           "pairs": args.pairs,
           "outputs_identical": mismatches == 0}
    for side in ("base", "change"):
        rs = runs[side]
        out[side] = {
            "cpu_s": quartiles([r["cpu_s"] for r in rs]),
            "wall_s": quartiles([r["wall_s"] for r in rs]),
            "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in rs]),
            "counters": rs[0]["counters"],
        }
    out["cpu_ratio"] = {
        "per_pair": [round(r, 4) for r in ratios],
        "median": statistics.median(ratios),
        "pairs_better": sum(1 for r in ratios if r < 1.0),
    }
    return out, mismatches == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="pao_cli of the parent")
    ap.add_argument("--change", required=True, help="pao_cli of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="write the JSON here (default: stdout)")
    ap.add_argument("--note", default="", help="free text stored as 'note'")
    ap.add_argument("inputs", nargs="+", metavar="NAME=LEF,DEF")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    doc = {"schema": "pao-bench-eval/1", "command":
           "pao_cli analyze <lef> <def> --threads 1 --report-failed 1000000",
           "note": args.note, "inputs": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench_eval_") as work:
        for spec in args.inputs:
            name, _, paths = spec.partition("=")
            lef, _, defp = paths.partition(",")
            if not name or not lef or not defp:
                ap.error("input must be NAME=LEF,DEF, got '%s'" % spec)
            doc["inputs"][name], same = bench_input(name, lef, defp, args,
                                                    work)
            ok = ok and same
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
