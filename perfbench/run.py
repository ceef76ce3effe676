#!/usr/bin/env python3
"""Benchmark of the per-slot drift-plus-penalty controller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-22 --seed 1 --seconds 10 --trace 0

Builds the perfbench binary (perfbench/CMakeLists.txt, Release) from the
library sources, runs the workload in fresh processes of it, checks the
outputs, prints every metric by name and unit, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of an untraced run; --trace 1 reports the per-layer
metrics of a traced run (README.md has both tables and the span format).
Exits 2 without a result when the program cannot be built or run.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# (name, unit, better). BENCHMARK.json lists the same names and units.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("slots_per_s", "1/s", "higher"),
    ("slot_ms_p50", "ms", "lower"),
    ("slot_ms_tail", "ms", "lower"),
    ("end_to_end_s", "s", "lower"),
    ("restart_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("checkpoint_mb", "MB", "lower"),
    ("ok_slot_frac", "fraction", "higher"),
]

# The run's outcome. Printed by every run; in the JSON result only of the
# traced run (as per-layer metrics): across seeds they spread far more than
# any regression bound (README.md, "Why the outcome is not end-to-end").
OUTCOME = [
    ("outcome.cost_avg", "cost", "lower"),
    ("outcome.backlog_avg_pkts", "packets", "lower"),
    ("outcome.delivered_frac", "fraction", "higher"),
    ("outcome.failed_slot_frac", "fraction", "lower"),
]
OUTCOME_UNITS = {n: u for n, u, _ in OUTCOME}

PER_LAYER = [
    ("scenario.load_ms", "ms", "lower"),
    ("model.build_ms", "ms", "lower"),
    ("ctrl.init_ms", "ms", "lower"),
    ("net.prune_build_ms", "ms", "lower"),
    ("net.mobility_ms_per_slot", "ms", "lower"),
    ("net.prune_rebuild_ms_per_slot", "ms", "lower"),
    ("sim.sample_ms_per_slot", "ms", "lower"),
    ("s1.sf_ms_per_slot", "ms", "lower"),
    ("s1.power_ms_per_slot", "ms", "lower"),
    ("s1.candidates_per_slot", "count", "lower"),
    ("s1.scheduled_links_per_slot", "count", "higher"),
    ("s1.fill_in_scan_ms_per_slot", "ms", "lower"),
    ("s1.power_keep_ratio", "fraction", "higher"),
    ("s2.admit_ms_per_slot", "ms", "lower"),
    ("s3.route_ms_per_slot", "ms", "lower"),
    ("s3.routes_per_slot", "count", "higher"),
    ("s4.energy_ms_per_slot", "ms", "lower"),
    ("lp.s4_solves_per_slot", "count", "lower"),
    ("lp.s4_iterations_per_slot", "count", "lower"),
    ("lp.s4_ms_per_solve", "ms", "lower"),
    ("lp.s1_solves_per_slot", "count", "lower"),
    ("lp.s1_iterations_per_slot", "count", "lower"),
    ("lp.warm_accept_ratio", "fraction", "higher"),
    ("state.advance_ms_per_slot", "ms", "lower"),
    ("ckpt.make_ms", "ms", "lower"),
    ("ckpt.save_ms", "ms", "lower"),
    ("ckpt.load_ms", "ms", "lower"),
    ("ckpt.restore_ms", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("slot.unattributed_ms_per_slot", "ms", "lower"),
    ("slot.span_coverage_frac", "fraction", "higher"),
] + OUTCOME

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Spans that run beside the slot path (probes and checks): their time is
# excluded from the traced end-to-end time that trace.overhead_frac uses.
OFF_PATH_PREFIXES = ("probe.", "check.")

# Percentiles tried for slot_ms_tail, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

class BenchError(Exception):
    """The program could not be built or run; no result is printed."""


def nearest_rank(p, n):
    """1-based rank of the p-th percentile of n samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(values, min_beyond=10):
    """Highest ladder percentile with >= min_beyond samples above its rank.

    Nearest-rank definition: the p-th percentile of n sorted samples is the
    sample at rank ceil(p/100 * n); the samples beyond it are the n - rank
    after it. Returns (percentile, value, n). With too few samples for any
    ladder step the maximum is returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for p in TAIL_LADDER:
        rank = nearest_rank(p, n)
        if n - rank >= min_beyond:
            return p, xs[rank - 1], n
    return 100.0, xs[-1], n


def warmup_slots(horizon):
    """Leading slots left out of the steady-state timings."""
    return min(horizon - 1, max(1, horizon // 10))


def horizon_slots(workload, seconds):
    """Fixed horizon: `seconds` at the nominal rate of one pass."""
    return max(2, int(round(seconds * workload["slots_per_second"])))


def format_result(correct, attempted, failed, metrics, units):
    """The final stdout line; `metrics` maps name -> value."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })


def parse_result(line):
    """Inverse of format_result: (correct, attempted, failed, metrics, units)."""
    doc = json.loads(line)
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected keys %s" % sorted(doc))
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    units = {k: v["unit"] for k, v in doc["metrics"].items()}
    return doc["correct"], doc["attempted"], doc["failed"], metrics, units


# ---- build and run ---------------------------------------------------------

def build_dir(root):
    return root / ".bench_build" / "perfbench-cmake"


def child_env(root):
    """Environment for the build and the binary: temporary files stay in
    the build directory."""
    tmp = build_dir(root).parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(root):
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        raise BenchError("no library sources under %s" % root)
    out = build_dir(root)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S,
                                  env=child_env(root))
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError("build failed: %s" % e)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("build failed: %s" % " ".join(cmd))
    binary = out / "perfbench"
    if not binary.is_file():
        raise BenchError("build produced no %s" % binary)
    return binary


def run_binary(binary, root, workload, seed, slots, mode, restarts, deadline,
               spans=None):
    """One perfbench process; returns its JSON document."""
    work = build_dir(root).parent / "runs"
    cmd = [str(binary), "--scenario", str(root / workload["scenario"]),
           "--mode", mode, "--seed", str(seed), "--slots", str(slots),
           "--restarts", str(restarts),
           "--threads", str(workload_threads(workload)),
           "--mobility-mps", repr(float(workload["mobility_mps"])),
           "--work-dir", str(work)]
    if workload["link_prune"]:
        cmd.append("--link-prune")
    if workload["warm_across_slots"]:
        cmd.append("--warm")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting perfbench")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, env=child_env(root))
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("perfbench failed: %s" % e)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench exited %d" % proc.returncode)
    return json.loads(lines[-1])


def run_passes(binary, root, workload, seed, slots, passes, restarts,
               deadline):
    """`passes` plain processes, one after another, sharing the R restarts
    out between them."""
    return [run_binary(binary, root, workload, seed, slots, "plain",
                       restarts // passes + (i < restarts % passes), deadline)
            for i in range(passes)]


def workload_threads(workload):
    return max(1, min(workload["intra_slot_threads"], os.cpu_count() or 1))


# ---- metrics ---------------------------------------------------------------

def finite(xs):
    return all(math.isfinite(x) for x in xs)


def outcome_metrics(doc):
    """The run's outcome, identical for every run of one seed."""
    return {
        "outcome.cost_avg": statistics.fmean(doc["cost"]),
        "outcome.backlog_avg_pkts": statistics.fmean(doc["backlog"]),
        "outcome.delivered_frac": (doc["delivered_packets"] /
                                   doc["offered_packets"]),
        "outcome.failed_slot_frac": doc["failed_slots"] / doc["slots"],
    }


def fastest_pass(pass_slot_s):
    """Each slot's time in its fastest pass. The passes repeat the same work
    in separate processes, so the minimum drops what other load on the
    machine, and a process's unlucky memory layout, added."""
    return [min(times) for times in zip(*pass_slot_s)]


def end_to_end_metrics(docs):
    """End-to-end metrics of the plain-mode documents of one run's passes."""
    slot_s = fastest_pass([d["slot_s"] for d in docs])
    w = warmup_slots(len(slot_s))
    steady = slot_s[w:]
    pct, tail_s, n = tail_percentile(steady)
    setup_s = statistics.median(d["setup_s"] for d in docs)
    restarts = [s for d in docs for s in d["restart_s"]]
    metrics = {
        "setup_s": setup_s,
        "slots_per_s": len(steady) / sum(steady),
        "slot_ms_p50": statistics.median(steady) * 1e3,
        "slot_ms_tail": tail_s * 1e3,
        "end_to_end_s": setup_s + sum(slot_s),
        "restart_s": statistics.median(restarts),
        "peak_rss_mb": statistics.median(d["peak_rss_kb"] for d in docs) / 1024.0,
        "checkpoint_mb": docs[0]["checkpoint_bytes"] / 1e6,
        "ok_slot_frac": 1.0 - docs[0]["failed_slots"] / docs[0]["slots"],
    }
    notes = {"slot_ms_tail": "p%g of %d steady slots" % (pct, n),
             "slots_per_s": "%d steady slots after %d warm-up, fastest of "
                            "%d passes" % (n, w, len(docs)),
             "setup_s": "median of %d, one per pass process" % len(docs),
             "restart_s": "median of %d" % len(restarts),
             "peak_rss_mb": "median of %d passes" % len(docs)}
    return metrics, notes


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def per_layer_metrics(spans, plain_e2e_s):
    """Per-layer metrics from a traced run's spans (README.md, "Spans")."""
    def dur_ms(s):
        return (s["end_ns"] - s["start_ns"]) / 1e6

    by_id = {s["id"]: s for s in spans}
    slots = [s for s in spans if s["name"] == "slot"]
    w = warmup_slots(len(slots))
    steady_ids = {s["slot"] for s in slots[w:]}
    n = len(steady_ids)

    def setup_ms(name):
        return sum(dur_ms(s) for s in spans if s["name"] == name
                   and s["parent"] >= 0 and by_id[s["parent"]]["name"] == "setup")

    def total_ms(name):
        return sum(dur_ms(s) for s in spans if s["name"] == name)

    def per_slot(name):
        return sum(dur_ms(s) for s in spans
                   if s["name"] == name and s["slot"] in steady_ids) / n

    def count(name, key):
        return sum(s["counts"].get(key, 0.0) for s in spans
                   if s["name"] == name and s["slot"] in steady_ids)

    def off_path_span(s):
        return s["name"].startswith(OFF_PATH_PREFIXES)

    children_ms = {}
    off_path_children_ms = {}
    for s in spans:
        if s["parent"] >= 0:
            p = s["parent"]
            children_ms[p] = children_ms.get(p, 0.0) + dur_ms(s)
            if off_path_span(s):
                off_path_children_ms[p] = (off_path_children_ms.get(p, 0.0) +
                                           dur_ms(s))

    def self_ms(s):
        return dur_ms(s) - children_ms.get(s["id"], 0.0)

    # Slot-path time: the slot minus its off-path probes and checks. Only
    # the layer spans count as covered; the self time of `slot` and of the
    # `ctrl.step` container is unattributed.
    steady_slots = slots[w:]
    slot_path_ms = sum(dur_ms(s) - off_path_children_ms.get(s["id"], 0.0)
                       for s in steady_slots)
    unattributed = (sum(self_ms(s) for s in steady_slots) +
                    sum(self_ms(s) for s in spans if s["name"] == "ctrl.step"
                        and s["slot"] in steady_ids))
    off_path = sum(dur_ms(s) for s in spans if off_path_span(s))
    setup_total = sum(dur_ms(s) for s in spans if s["name"] == "setup")
    traced_e2e_s = (setup_total + sum(dur_ms(s) for s in slots) - off_path) / 1e3

    s4_solves = count("s4.energy", "lp_solves")
    warm_cols = count("s1.sf", "warm_cols") + count("s4.energy", "warm_cols")
    scheduled = count("s1.power", "scheduled")
    return {
        "scenario.load_ms": setup_ms("scenario.load"),
        "model.build_ms": setup_ms("model.build"),
        "ctrl.init_ms": setup_ms("ctrl.init"),
        "net.prune_build_ms": setup_ms("net.prune_build"),
        "net.mobility_ms_per_slot": per_slot("net.mobility"),
        "net.prune_rebuild_ms_per_slot": per_slot("net.prune_rebuild"),
        "sim.sample_ms_per_slot": per_slot("sim.sample"),
        "s1.sf_ms_per_slot": per_slot("s1.sf"),
        "s1.power_ms_per_slot": per_slot("s1.power"),
        "s1.candidates_per_slot": count("probe.candidates", "candidates") / n,
        "s1.scheduled_links_per_slot": count("s1.power", "kept") / n,
        "s1.fill_in_scan_ms_per_slot": per_slot("probe.fill_in_scan"),
        "s1.power_keep_ratio": (count("s1.power", "kept") / scheduled
                                if scheduled else 1.0),
        "s2.admit_ms_per_slot": per_slot("s2.admit"),
        "s3.route_ms_per_slot": per_slot("s3.route"),
        "s3.routes_per_slot": count("s3.route", "routes") / n,
        "s4.energy_ms_per_slot": per_slot("s4.energy"),
        "lp.s4_solves_per_slot": s4_solves / n,
        "lp.s4_iterations_per_slot": count("s4.energy", "lp_iterations") / n,
        "lp.s4_ms_per_solve": (count("s4.energy", "lp_wall_s") * 1e3 / s4_solves
                               if s4_solves else 0.0),
        "lp.s1_solves_per_slot": count("s1.sf", "lp_solves") / n,
        "lp.s1_iterations_per_slot": count("s1.sf", "lp_iterations") / n,
        "lp.warm_accept_ratio": ((count("s1.sf", "warm_reused") +
                                  count("s4.energy", "warm_reused")) / warm_cols
                                 if warm_cols else 0.0),
        "state.advance_ms_per_slot": per_slot("state.advance"),
        "ckpt.make_ms": total_ms("ckpt.make"),
        "ckpt.save_ms": total_ms("ckpt.save"),
        "ckpt.load_ms": total_ms("ckpt.load"),
        "ckpt.restore_ms": total_ms("ckpt.restore"),
        "trace.overhead_frac": traced_e2e_s / plain_e2e_s - 1.0,
        "slot.unattributed_ms_per_slot": unattributed / n,
        "slot.span_coverage_frac": 1.0 - unattributed / slot_path_ms,
    }


def describe_env(env):
    return ("env: nproc=%d llc_bytes=%d compiler=%s build_type=%s "
            "GC_OBS_DISABLE=%s intra_slot_threads=%d"
            % (env["nproc"], env["llc_bytes"], env["compiler"],
               env["build_type"], "on" if env["gc_obs_disable"] else "off",
               env["intra_slot_threads"]))


def check(ok, what, problems):
    if not ok:
        problems.append(what)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="two passes and one restart (for the benchmark's tests)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    try:
        with open(BENCH_DIR / "workloads.json") as f:
            workloads = json.load(f)
        if args.workload not in workloads:
            raise BenchError("unknown workload %r (have %s)"
                             % (args.workload, ", ".join(workloads)))
        workload = workloads[args.workload]
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        if not (root / workload["scenario"]).is_file():
            raise BenchError("missing scenario %s" % workload["scenario"])
        binary = build(root)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        slots = horizon_slots(workload, args.seconds)
        passes = 2 if args.smoke else workload["passes"]
        restarts = 1 if args.smoke else workload["restarts"]
        problems = []
        print("workload %s: %s, seed %d, %d slots (%d warm-up), %s"
              % (args.workload, workload["scenario"], args.seed, slots,
                 warmup_slots(slots), "traced" if args.trace else "untraced"))
        if args.trace == 0:
            docs = run_passes(binary, root, workload, args.seed, slots,
                              passes, restarts, deadline)
            doc = docs[0]
            metrics, notes = end_to_end_metrics(docs)
            units = {n: u for n, u, _ in END_TO_END}
            check(all(d["cost"] == doc["cost"] and d["backlog"] == doc["backlog"]
                      for d in docs),
                  "passes of one seed gave different series", problems)
            check(len({d["checkpoint_bytes"] for d in docs}) == 1,
                  "passes wrote checkpoints of different sizes", problems)
        else:
            plain = run_binary(binary, root, workload, args.seed, slots,
                               "plain", 0, deadline)
            plain_e2e = plain["setup_s"] + sum(plain["slot_s"])
            spans_path = build_dir(root).parent / "runs" / (
                "%s-seed%d.spans.jsonl" % (args.workload, args.seed))
            doc = run_binary(binary, root, workload, args.seed, slots,
                             "traced", 1, deadline, spans=spans_path)
            docs = [doc]
            spans = read_spans(spans_path)
            metrics = per_layer_metrics(spans, plain_e2e)
            metrics.update(outcome_metrics(doc))
            notes = {}
            units = {n: u for n, u, _ in PER_LAYER}
            check(doc["cost"] == plain["cost"],
                  "traced cost series differs from the untraced run", problems)
            check(doc["backlog"] == plain["backlog"],
                  "traced backlog series differs from the untraced run",
                  problems)
            print("spans: %s (%d spans)" % (spans_path, len(spans)))
        print(describe_env(doc["env"]))
        check(all(d["restore_ok"] for d in docs),
              "restored checkpoint state differs from the live state", problems)
        check(doc["slots"] == slots and len(doc["cost"]) == slots,
              "horizon not completed", problems)
        check(finite(doc["cost"]) and finite(doc["backlog"]),
              "non-finite cost or backlog", problems)
        check(all(math.isfinite(v) for v in metrics.values()),
              "non-finite metric", problems)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2

    failed = doc["failed_slots"]
    notes["outcome.failed_slot_frac"] = (
        "%d of %d slots degraded or failing validate_decision/auditor bounds;"
        " %d validate, %d audit violations"
        % (failed, slots, doc["validate_violations"], doc["audit_violations"]))
    shown = dict(metrics)
    shown.update(outcome_metrics(doc))
    for name, value in shown.items():
        note = notes.get(name)
        print("%-32s %.6g %s%s" % (name, value,
                                   units.get(name) or OUTCOME_UNITS[name],
                                   "  (%s)" % note if note else ""))
    for p in problems:
        print("CHECK FAILED: %s" % p)
    print(format_result(not problems, slots, failed, metrics, units))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
