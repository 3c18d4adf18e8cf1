#!/usr/bin/env python3
"""End-to-end benchmark of CompDiff campaigns and triage.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Builds the e2ebench package (the CompDiff libraries from src/ plus the
benchmark program in this directory) under $CARGO_TARGET_DIR (default
.bench_build), runs one workload, checks its outputs and prints the
result as one JSON object on the last line of standard output. See
README.md for the workloads and metrics.
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

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "campaign_jobs2", "triage")
RUN_TIMEOUT_S = 170

# End-to-end metrics (untraced runs) and per-layer metrics (traced
# runs), with units. BENCHMARK.json lists the same names.
END_TO_END = {
    "execs_per_s": "inputs/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "minic.parse_s": "s",
    "compiler.compiles": "count",
    "compiler.compile_s": "s",
    "compiler.cache_hit_frac": "fraction",
    "compiler.cache_evictions": "count",
    "compdiff.executors_built": "count",
    "compdiff.executor_build_s": "s",
    "compdiff.rebinds": "count",
    "vm.oracle_execs": "count",
    "vm.oracle_exec_s": "s",
    "vm.guest_insns_per_exec": "insns",
    "vm.ns_per_guest_insn": "ns",
    "vm.timeouts": "count",
    "vm.timeout_exec_s": "s",
    "compdiff.retry_rounds": "count",
    "vm.fuzz_exec_ns": "ns",
    "compdiff.normalize_ns": "ns",
    "fuzz.mutate_ns": "ns",
    "fuzz.unattributed_s": "s",
    "compdiff.pool_busy_frac": "fraction",
    "session.checkpoints": "count",
    "session.journal_bytes_per_kexec": "bytes",
    "fuzz.allocs_per_exec": "count",
    "reduce.candidates": "count",
    "reduce.accept_frac": "fraction",
    "reduce.frontend_rejects": "count",
    "fuzz.execs": "count",
    "fuzz.unique_diffs": "count",
    "fuzz.corpus": "count",
    "fuzz.edges": "count",
    "fuzz.untriaged_diffs": "count",
    "reduce.bundles": "count",
}
# Counters that are a pure function of the workload's inputs: two traced
# runs must report them identically.
EXACT = (
    "vm.guest_insns_per_exec",
    "vm.timeouts",
    "compdiff.retry_rounds",
    "session.checkpoints",
    "session.journal_bytes_per_kexec",
    "fuzz.allocs_per_exec",
    "reduce.candidates",
    "reduce.accept_frac",
    "reduce.frontend_rejects",
    "fuzz.execs",
    "fuzz.unique_diffs",
    "fuzz.corpus",
    "fuzz.edges",
    "fuzz.untriaged_diffs",
    "reduce.bundles",
)
# What a campaign must reproduce for the same seed at any --jobs.
FINGERPRINT = ("execs", "oracle_execs", "corpus", "edges", "sigs",
               "untriaged")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "e2ebench")


def build():
    """Configure and build the package; returns the binary path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("run from a CompDiff checkout: src/ is missing")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "e2ebench",
                  "-j", jobs])
    with open(log_path, "a") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("build failed; see " + log_path)
    return os.path.join(out, "e2ebench")


def run_binary(binary, workload, seed, seconds, trace):
    tag = "%s-%d-%d-%d" % (workload, seed, trace, os.getpid())
    work = os.path.join(build_dir(), "work-" + tag)
    out = os.path.join(build_dir(), "records-" + tag + ".jsonl")
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--work=" + work, "--out=" + out]
    try:
        # Its own process group, so a timeout also stops its forked
        # worker processes.
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise BenchError("e2ebench exited %d: %s"
                             % (proc.returncode, stderr.strip()))
        with open(out) as f:
            return [json.loads(line) for line in f if line.strip()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(out):
            os.remove(out)


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def op_target(op):
    return op["op"]["target"] if op["kind"] == "failed" else op["target"]


def op_failed(op):
    return op["kind"] == "failed" or not op.get("ok", True)


def split(records):
    host = next(r for r in records if r["kind"] == "host")
    setups = [r for r in records if r["kind"] == "setup"]
    ops = [r for r in records if r["kind"] in ("campaign", "witness",
                                                "failed")]
    end = next(r for r in records if r["kind"] == "end")
    return host, setups, ops, end


def end_to_end(workload, setups, ops, end):
    """An operation is one target campaign (campaign workloads) or one
    witness reduced and bundled (triage); execs are inputs through the
    k-way oracle: fuzz-loop inputs, or reduction candidates."""
    done = [op for op in ops if not op_failed(op)]
    # The timed phase, less the checks and clean-up each op did aside.
    timed = end["timed_wall_s"] - sum(op.get("aside_s", 0) for op in ops)
    if not done or timed <= 0:
        raise BenchError("no operation completed")
    execs_key = "candidates" if workload == "triage" else "execs"
    latencies = [op["wall_s"] * 1e3 for op in done]
    return {
        "execs_per_s": sum(op[execs_key] for op in done) / timed,
        "ops_per_s": len(done) / timed,
        "op_p50_ms": quantile(latencies, 0.5),
        "setup_s": statistics.median(s["seconds"] for s in setups),
        "peak_rss_mb": end["peak_rss_kb"] / 1024.0,
    }


def per_layer(workload, host, setups, ops, end):
    done = [op for op in ops if not op_failed(op)]
    k = host["k"]

    def total(key, pool=done):
        return sum(op[key] for op in pool if key in op)

    def layer(key, pool=done):
        return sum(op["layers"][key] for op in pool if "layers" in op)

    def cache(key):
        return sum(op["cache"][key] for op in done if "cache" in op)

    # Exact counters come from work that every traced run repeats: the
    # first campaign round, or the whole (fixed) triage draw.
    first = [op for op in done if op.get("round", 0) == 0]
    oracle_execs = layer("oracle_execs")
    oracle_s = layer("oracle_exec_ns") / 1e9
    insns = layer("guest_insns")
    hits, misses = cache("hits"), cache("misses")
    execs = total("execs")
    first_execs = total("execs", first)
    candidates = total("candidates")
    # Replay estimates: per-call costs weighted by each campaign's calls.
    fuzz_exec_s = sum(op["fuzz_exec_ns"] * op["execs"] for op in done
                      if "fuzz_exec_ns" in op) / 1e9
    mutate_s = sum(op["mutate_ns"] * op["execs"] for op in done
                   if "mutate_ns" in op) / 1e9
    normalize_s = sum(op["normalize_ns"] * op["layers"]["oracle_execs"]
                      for op in done if "normalize_ns" in op) / 1e9
    wall = total("wall_s")
    threads = max([op["layers"]["threads"] for op in done
                   if "layers" in op] or [1])
    campaign = workload != "triage"
    return {
        "minic.parse_s": statistics.median(s["parse_s"] for s in setups),
        "compiler.compiles": layer("compiles"),
        "compiler.compile_s": layer("compile_ns") / 1e9,
        "compiler.cache_hit_frac": hits / (hits + misses)
        if hits + misses else 0.0,
        "compiler.cache_evictions": cache("evictions"),
        "compdiff.executors_built": layer("executors_built"),
        "compdiff.executor_build_s": layer("executor_build_ns") / 1e9,
        "compdiff.rebinds": layer("rebinds"),
        "vm.oracle_execs": oracle_execs,
        "vm.oracle_exec_s": oracle_s,
        "vm.guest_insns_per_exec": layer("guest_insns", first)
        / max(1, layer("oracle_execs", first)),
        "vm.ns_per_guest_insn": layer("oracle_exec_ns") / max(1, insns),
        "vm.timeouts": layer("timeouts", first),
        "vm.timeout_exec_s": layer("timeout_exec_ns") / 1e9,
        "compdiff.retry_rounds": layer("retry_execs", first) // k,
        "vm.fuzz_exec_ns": fuzz_exec_s * 1e9 / max(1, execs),
        "compdiff.normalize_ns": normalize_s * 1e9 / max(1, oracle_execs)
        if campaign else 0.0,
        "fuzz.mutate_ns": mutate_s * 1e9 / max(1, execs),
        "fuzz.unattributed_s": wall - oracle_s - fuzz_exec_s - mutate_s
        - normalize_s if campaign else 0.0,
        "compdiff.pool_busy_frac": oracle_s / (wall * threads)
        if wall else 0.0,
        "session.checkpoints": total("checkpoints", first),
        "session.journal_bytes_per_kexec": total("journal_bytes", first)
        * 1000 / max(1, first_execs),
        "fuzz.allocs_per_exec": total("allocs", first)
        / max(1, first_execs if campaign else candidates),
        "reduce.candidates": candidates,
        "reduce.accept_frac": total("accepted") / max(1, candidates),
        "reduce.frontend_rejects": total("frontend_rejects"),
        "fuzz.execs": first_execs,
        "fuzz.unique_diffs": total("diffs", first),
        "fuzz.corpus": total("corpus", first),
        "fuzz.edges": total("edges", first),
        "fuzz.untriaged_diffs": total("untriaged", first),
        "reduce.bundles": total("bundles"),
    }


class State:
    """Cross-run records kept in the build directory: campaign
    fingerprints per campaign seed, exact counters of traced runs, and
    untraced timed-phase rates for the tracing-overhead estimate."""

    def __init__(self):
        self.dir = os.path.join(build_dir(), "state")
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, name):
        return os.path.join(self.dir, name + ".json")

    def load(self, name):
        try:
            with open(self._path(name)) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None

    def store(self, name, value):
        tmp = self._path(name) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(value, f, sort_keys=True)
        os.replace(tmp, self._path(name))


def check_campaigns(workload, ops, state):
    """The --jobs contract: a campaign seed gives the same outcome on
    every target whatever the workload, jobs count or tracing."""
    problems = []
    by_seed = {}
    for op in ops:
        if op["kind"] != "campaign":
            continue
        fp = {key: op[key] for key in FINGERPRINT}
        seen = by_seed.setdefault(op["seed"], {})
        if op["target"] in seen and seen[op["target"]] != fp:
            problems.append("%s seed %d differs between rounds"
                            % (op["target"], op["seed"]))
        seen[op["target"]] = fp
    for seed, fps in by_seed.items():
        name = "fp-%d" % seed
        stored = state.load(name) or {}
        for target, fp in fps.items():
            prior = stored.get(target)
            if prior and prior["fp"] != fp:
                problems.append("%s seed %d: %s gives %s, %s gave %s"
                                % (target, seed, workload, fp,
                                   prior["by"], prior["fp"]))
            stored.setdefault(target, {"fp": fp, "by": workload})
        state.store(name, stored)
    return problems


def check_exact(workload, seed, layers, ops, state):
    problems = []
    if workload != "triage":
        # The traced run's two rounds use the same seeds. (Allocations
        # are left out here: the worker's first op also pays one-time
        # lazy initialization, so rounds differ by a constant.)
        for key in ("execs", "oracle_execs", "corpus", "edges",
                    "untriaged", "checkpoints", "journal_bytes"):
            for target in {op["target"] for op in ops}:
                values = {op[key] for op in ops
                          if op.get("target") == target and key in op}
                if len(values) > 1:
                    problems.append("%s: %s not exact across rounds: %s"
                                    % (target, key, sorted(values)))
    name = "exact-%s-%d" % (workload, seed)
    exact = {key: layers[key] for key in EXACT}
    prior = state.load(name)
    if prior is not None and prior != exact:
        diff = {key: (prior.get(key), exact[key]) for key in EXACT
                if prior.get(key) != exact[key]}
        problems.append("exact counters differ from the previous traced "
                        "run: %s" % diff)
    state.store(name, exact)
    return problems


def latency_line(workload, ops):
    """The operation latency tail, with its sample count: a p90 is
    valid only with at least 100 samples (ten beyond it)."""
    latencies = [op["wall_s"] * 1e3 for op in ops if not op_failed(op)]
    what = "witness" if workload == "triage" else "campaign"
    p90 = quantile(latencies, 0.9)
    note = "" if len(latencies) >= 100 else " (not valid: under 100)"
    line = "%s_p90_ms %.6g ms over %d samples%s" % (what, p90,
                                                    len(latencies), note)
    if workload == "triage":
        line = ("witnesses_per_s = ops_per_s, witness_p50_ms = op_p50_ms; "
                + line)
    return line


def tracing_overhead(workload, seed, trace, ops, state):
    """Traced against untraced throughput on the same work: a traced
    campaign repeats round 0, so it is compared with round 0 of an
    untraced run of the same seed; the triage draw is the same for
    every seed. Both sides must have run in this build directory."""
    first = [op for op in ops
             if not op_failed(op) and op.get("round", 0) == 0]
    if not first:
        return None
    rate = len(first) / sum(op["wall_s"] for op in first)
    name = "untraced-%s" % workload
    if workload != "triage":
        name += "-%d" % seed
    history = state.load(name) or []
    if not trace:
        state.store(name, history + [rate])
        return None
    if not history:
        return "tracing overhead: no untraced run of the same work yet"
    base = statistics.median(history)
    return ("tracing overhead: %.1f%% (traced %.4g ops/s vs untraced "
            "%.4g over %d runs)" % (100.0 * (base - rate) / base, rate,
                                    base, len(history)))


def host_line(host, load_start, load_end):
    dispatch = host["dispatch"]
    if host["dispatch_env"]:
        dispatch += " (COMPDIFF_DISPATCH=%s set)" % host["dispatch_env"]
    return ("host: nproc %d, load %.2f -> %.2f, dispatch %s, build %s, "
            "commit %s, jobs %d, threads %d, %s"
            % (host["nproc"], load_start, load_end, dispatch,
               host["build_type"], commit(), host["jobs"],
               host["threads_configured"], platform.platform()))


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
        load_start = os.getloadavg()[0]
        records = run_binary(binary, args.workload, args.seed,
                             args.seconds, args.trace)
        load_end = os.getloadavg()[0]
        host, setups, ops, end = split(records)
        state = State()
        problems = []
        if args.workload != "triage":
            problems += check_campaigns(args.workload, ops, state)
        elif len({s["pool_hash"] for s in setups}) != 1:
            problems.append("set-up campaigns filed different records "
                            "on repetition")
        if args.trace:
            metrics = per_layer(args.workload, host, setups, ops, end)
            problems += check_exact(args.workload, args.seed, metrics,
                                    ops, state)
            units = PER_LAYER
        else:
            metrics = end_to_end(args.workload, setups, ops, end)
            units = END_TO_END
        overhead = tracing_overhead(args.workload, args.seed, args.trace,
                                    ops, state)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError, StopIteration) as error:
        log("e2ebench: %s" % error)
        return 1

    failed = [op for op in ops if op_failed(op)]
    sources = {}
    for op in failed:
        reason = op.get("error", "")
        sources.setdefault((op_target(op), reason), 0)
        sources[(op_target(op), reason)] += 1

    print(host_line(host, load_start, load_end))
    print("operations: %d attempted, %d failed, error_frac %.4f"
          % (len(ops), len(failed), len(failed) / len(ops)))
    for (target, reason), count in sorted(sources.items()):
        print("  failed %dx on %s: %s" % (count, target, reason))
    if overhead:
        print(overhead)
    if args.trace:
        print("oracle threads measured: %d"
              % max([op["layers"]["threads"] for op in ops
                     if "layers" in op] or [0]))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    for name, value in metrics.items():
        print("%-34s %14.6g %s" % (name, value, units[name]))
    if not args.trace:
        print(latency_line(args.workload, ops))
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
