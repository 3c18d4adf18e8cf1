#!/usr/bin/env bash
#
# Tier-1 verification plus an observability smoke test.
#
#   scripts/check.sh                 configure + build + ctest (whose
#                                    `obs_smoke` test is the smoke)
#   scripts/check.sh --smoke <cli>   smoke only, against an already
#                                    built compdiff_cli binary (this
#                                    is what the `obs_smoke` CTest
#                                    test runs, so plain `ctest`
#                                    exercises the telemetry paths
#                                    without recursing into itself)
#
# The smoke test runs compdiff_cli with --trace-out/--metrics-out/
# --stats-out and validates every emitted file with the built-in JSON
# checker (`compdiff_cli --validate-json`).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

# Run the `## Reproduce` command of a bundle's report.md as written,
# in the bundle's directory, with compdiff_cli resolved to "$cli".
reproduce() {
    local report="$1" words
    read -ra words <<< "$(sed -n '/^## Reproduce/,$p' "$report" |
        grep -m1 '^compdiff_cli ' || true)"
    if [ "${words[0]:-}" != compdiff_cli ]; then
        echo "no reproduce command in $report" >&2
        return 3
    fi
    (cd "$(dirname "$report")" && "$cli" "${words[@]:1}")
}

# usage_error MESSAGE COMMAND...: the command must exit 2 and print
# MESSAGE. The timeout makes a command that wrongly starts an
# unbounded campaign fail fast instead of hanging the smoke.
usage_error() {
    local message="$1" rc
    shift
    timeout 10 "$@" > "$tmp/usage_error.out" 2>&1 && rc=0 || rc=$?
    if [ "$rc" -ne 2 ] ||
        ! grep -qF -- "$message" "$tmp/usage_error.out"; then
        echo "expected exit 2 and '$message' from: $*" >&2
        cat "$tmp/usage_error.out" >&2
        return 1
    fi
}

smoke() {
    local cli
    cli="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
    local bin_dir bench_dir monitor fleet packetdump
    bin_dir="$(dirname "$cli")"
    bench_dir="$bin_dir/../bench"
    monitor="$bin_dir/compdiff_monitor"
    fleet="$bin_dir/compdiff_fleet"
    packetdump="$bin_dir/fuzz_packetdump"
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN

    echo "== obs smoke: single-input diff with trace + metrics"
    # The built-in demo diverges, so the CLI exits 1 by design.
    "$cli" --quiet \
        --trace-out="$tmp/trace.json" \
        --metrics-out="$tmp/metrics.jsonl" \
        > "$tmp/diff.out" || test $? -eq 1
    "$cli" --validate-json="$tmp/trace.json"
    grep -q '"traceEvents"' "$tmp/trace.json"
    grep -q 'exec\.' "$tmp/trace.json"
    grep -q 'normalize' "$tmp/trace.json"
    grep -q 'compdiff.compare' "$tmp/trace.json"
    grep -q 'compile\.' "$tmp/trace.json"
    # Each JSONL line must itself be valid JSON.
    while IFS= read -r line; do
        [ -z "$line" ] && continue
        printf '%s' "$line" > "$tmp/line.json"
        "$cli" --validate-json="$tmp/line.json" > /dev/null
    done < "$tmp/metrics.jsonl"

    echo "== impls smoke: --impls=paper10 reproduces the default oracle"
    # Explicitly spelling the alias must behave exactly like the
    # default: the demo diverges (exit 1).
    "$cli" --quiet --impls=paper10 > "$tmp/paper10.out" && rc=0 || rc=$?
    test "$rc" -eq 1
    grep -q 'DIVERGENT across 10 implementations' "$tmp/paper10.out"

    echo "== impls smoke: --impls=gcc:-O0,ref cross-backend pair"
    # The demo's unstable guard needs an optimizing configuration to
    # misbehave; gcc-O0 and the reference interpreter agree (exit 0).
    "$cli" --quiet --impls=gcc:-O0,ref > "$tmp/ref.out"
    grep -q 'consistent across 2 implementations' "$tmp/ref.out"

    echo "== hang smoke: a partial timeout through RQ6 to the output cap"
    # The five clang builds loop on print_char('.'), so the oracle
    # reruns them at 8M, 32M and 128M instructions and their output
    # reaches the 1 MiB cap. The VM skips the proven cycles; run in
    # full, this takes seconds (minutes in a sanitizer build). The
    # expected report, with its instruction counts, was recorded
    # running every instruction.
    timeout 60 "$cli" "$repo_root/tests/data/hang_partial.mc" \
        --metrics-out="$tmp/hang_metrics.jsonl" > "$tmp/hang.out"
    cmp "$tmp/hang.out" "$repo_root/tests/data/hang_partial.expected"
    grep -q '"vm.skipped_instructions"' "$tmp/hang_metrics.jsonl"

    echo "== reduce smoke: campaigns + minimized bug bundles"
    # Deterministic campaign targets; --reduce minimizes every unique
    # divergence under a hard candidate budget (keeps CI wall time
    # bounded) and --reports-out bundles each one. Exit 1 = found
    # divergences, by design. netshark's LINE bug (BUG 203) only
    # replays if the filed program keeps its cur_line() call on a
    # later line than the statement it belongs to; floatpack's bundles
    # only replay if every float literal prints back to its own bits.
    for target in pktdump netshark floatpack; do
        reports="$tmp/reports-$target"
        "$cli" --quiet --target="$target" --fuzz=2000 --reduce=200 \
            --reports-out="$reports" > "$tmp/reduce.out" ||
            test $? -eq 1
        bundles=0
        for report in "$reports"/sig-*/report.md; do
            bundle="$(dirname "$report")"
            test -s "$bundle/program.mc"
            # ddmin may shrink a witness to the empty input.
            test -f "$bundle/input.bin"
            grep -q '^# Divergence report sig-' "$report"
            grep -q '^## Reproduce' "$report"
            # Every minimized witness must still diverge when its
            # report's reproduce command runs in a fresh process.
            reproduce "$report" > "$tmp/replay.out" 2>&1 &&
                rc=0 || rc=$?
            if [ "$rc" -ne 1 ] ||
                ! grep -q 'DIVERGENT' "$tmp/replay.out"; then
                echo "replay of $bundle does not diverge:" >&2
                cat "$tmp/replay.out" >&2
                return 1
            fi
            bundles=$((bundles + 1))
        done
        test "$bundles" -gt 0
    done

    echo "== obs smoke: fuzz campaign with fuzzer_stats + plot_data"
    "$cli" --quiet --fuzz=400 \
        --stats-out="$tmp/fuzzer_stats" \
        --plot-out="$tmp/plot_data" \
        --trace-out="$tmp/fuzz_trace.json" \
        > "$tmp/fuzz.out" || test $? -eq 1
    "$cli" --validate-json="$tmp/fuzz_trace.json"
    grep -q '^execs_done' "$tmp/fuzzer_stats"
    grep -q '^compdiff_execs' "$tmp/fuzzer_stats"
    grep -q '^execs_impl_' "$tmp/fuzzer_stats"
    grep -q '^run_time' "$tmp/fuzzer_stats"
    grep -q '^# execs' "$tmp/plot_data"

    echo "== cli smoke: unknown flags are rejected with usage text"
    "$cli" --no-such-flag > "$tmp/usage.out" 2>&1 && rc=0 || rc=$?
    test "$rc" -eq 2
    grep -q 'unknown option --no-such-flag' "$tmp/usage.out"
    grep -q 'usage: compdiff_cli' "$tmp/usage.out"
    "$cli" --help > "$tmp/help.out"
    grep -q 'usage: compdiff_cli' "$tmp/help.out"
    # Bad user input exits 2 with one line and starts no campaign.
    printf 'int main() { print_int(input_byte(0)); return 0; }\n' \
        > "$tmp/prog.mc"
    usage_error '--jobs=-1: expected an unsigned' "$cli" --jobs=-1
    usage_error '--fuzz=abc: expected an unsigned' "$cli" --fuzz=abc
    usage_error '--fuzz=-1: expected an unsigned' "$cli" --fuzz=-1
    usage_error "family 'bogus'" "$cli" --impls=bogus
    usage_error "family 'bogus'" "$cli" --mode=sancheck --impls=bogus
    usage_error "family 'bogus'" "$fleet" --impls=bogus --target=pktdump \
        --session="$tmp/no_fleet"
    usage_error 'no sanitizer' "$cli" --mode=sancheck --impls=gcc:-O2
    usage_error 'cannot open directory' "$cli" --mode=sancheck --seeds=/none
    usage_error 'cannot read /missing/in' "$cli" "$tmp/prog.mc" /missing/in
    usage_error 'unexpected argument x' "$cli" "$tmp/prog.mc" /dev/null x
    usage_error 'exclude each other' "$cli" --target=pktdump "$tmp/prog.mc"
    usage_error 'unknown option --bogus' "$packetdump" --bogus
    usage_error 'unknown option --sync-every' "$fleet" --sync-every=30
    usage_error 'unknown option --status-every' "$fleet" --status-every=10
    usage_error '--watch=abc: expected' "$monitor" --watch=abc "$tmp"
    usage_error 'no larger than 256' "$cli" --jobs=257
    usage_error 'no larger than 256' "$cli" --shards=257
    usage_error 'abc: expected an unsigned' \
        "$bench_dir/table6_sanitizer_overlap" abc
    usage_error 'abc: expected a non-negative decimal' \
        "$bench_dir/table3_juliet_detection" abc
    usage_error 'abc: expected an unsigned' "$bin_dir/juliet_triage" abc

    echo "== session smoke: interrupt-then-resume is bit-identical"
    # One uninterrupted pktdump campaign, and the same campaign run
    # as halt-at-half-budget then resume. The persisted results must
    # match except for the wall-clock-dependent stats lines; the
    # divergence journal must match byte-for-byte. The bounded
    # compile cache's hit/miss/evict counters surface in the metrics.
    "$cli" --quiet --target=pktdump --fuzz=1000 \
        --session="$tmp/sess_full" > "$tmp/sess_full.out" \
        || test $? -eq 1
    "$cli" --quiet --target=pktdump --fuzz=1000 \
        --session="$tmp/sess_cut" --halt-after=500 \
        > "$tmp/sess_cut.out"
    grep -q 'session halted' "$tmp/sess_cut.out"
    test ! -f "$tmp/sess_cut/fuzzer_stats" # halted: checkpoints only
    # The resume also reduces what it found, under an LRU-bounded
    # compile cache: witness replays hit the resident original-
    # program modules, reduction candidates miss and force evictions
    # — all three counters must surface in the metrics export.
    "$cli" --quiet --target=pktdump --fuzz=1000 \
        --session="$tmp/sess_cut" --resume --reduce=100 \
        --cache-entries=11 --metrics-out="$tmp/sess_metrics.jsonl" \
        > "$tmp/sess_resume.out" || test $? -eq 1
    volatile='^(run_time|execs_per_sec|session_restarts)'
    diff <(grep -Ev "$volatile" "$tmp/sess_full/fuzzer_stats") \
         <(grep -Ev "$volatile" "$tmp/sess_cut/fuzzer_stats")
    cmp "$tmp/sess_full/divergences.journal" \
        "$tmp/sess_cut/divergences.journal"
    cmp "$tmp/sess_full/plot_data" "$tmp/sess_cut/plot_data"
    grep -q '^session_restarts *: 1' "$tmp/sess_cut/fuzzer_stats"
    grep -q 'cache.hit' "$tmp/sess_metrics.jsonl"
    grep -q 'cache.miss' "$tmp/sess_metrics.jsonl"
    grep -q 'cache.evict' "$tmp/sess_metrics.jsonl"
    # Resuming with a different campaign must fail loudly.
    "$cli" --quiet --target=pktdump --fuzz=2000 \
        --session="$tmp/sess_cut" --resume \
        > "$tmp/sess_bad.out" 2>&1 && rc=0 || rc=$?
    test "$rc" -eq 2
    grep -q 'exact campaign configuration' "$tmp/sess_bad.out"

    echo "== monitor smoke: aggregate a finished sharded session tree"
    "$cli" --quiet --target=pktdump --fuzz=1500 --shards=3 \
        --session="$tmp/mon/pkt" --checkpoint-every=200 \
        > "$tmp/mon.out" || test $? -eq 1
    "$monitor" "$tmp/mon" > "$tmp/mon_table.out"
    grep -q 'pkt' "$tmp/mon_table.out"
    grep -q 'complete' "$tmp/mon_table.out"
    grep -q 'total execs : 1500' "$tmp/mon_table.out"
    # The JSON document parses; the prom exposition has the right
    # line shapes and totals for every shard.
    "$monitor" --format=json "$tmp/mon" > "$tmp/mon.json"
    "$cli" --validate-json="$tmp/mon.json"
    "$monitor" --format=prom "$tmp/mon" > "$tmp/mon.prom"
    grep -q '^# TYPE compdiff_campaign_execs gauge' "$tmp/mon.prom"
    grep -Eq '^compdiff_campaign_execs\{session="pkt"\} 1500$' \
        "$tmp/mon.prom"
    for shard in 0 1 2; do
        grep -Eq "^compdiff_shard_health\{session=\"pkt\",shard=\"$shard\",state=\"complete\"\} 1$" \
            "$tmp/mon.prom"
        grep -Eq "^compdiff_shard_execs\{session=\"pkt\",shard=\"$shard\"\} 500$" \
            "$tmp/mon.prom"
    done
    # Byte-stable: repeat scans of a finished tree agree exactly.
    "$monitor" --stable "$tmp/mon" > "$tmp/mon_stable1.out"
    "$monitor" --stable "$tmp/mon" > "$tmp/mon_stable2.out"
    cmp "$tmp/mon_stable1.out" "$tmp/mon_stable2.out"
    # No sessions found is a distinct, scriptable failure (exit 1).
    mkdir -p "$tmp/mon_empty"
    "$monitor" "$tmp/mon_empty" > /dev/null 2>&1 && rc=0 || rc=$?
    test "$rc" -eq 1

    echo "== monitor smoke: a killed worker reads as dead, work kept"
    "$cli" --quiet --target=pktdump --fuzz=2000000 \
        --checkpoint-every=500 --session="$tmp/kill/w" \
        > "$tmp/kill.out" 2>&1 &
    kill_pid=$!
    # Wait (bounded) for the first checkpoint to land, then kill -9:
    # the heartbeat still claims "running" but the pid is gone.
    for _ in $(seq 1 150); do
        [ -f "$tmp/kill/w/shard-0.journal" ] &&
            [ "$(wc -c < "$tmp/kill/w/shard-0.journal")" -gt 1024 ] &&
            break
        sleep 0.2
    done
    kill -9 "$kill_pid" 2>/dev/null || true
    wait "$kill_pid" 2>/dev/null || true
    "$monitor" "$tmp/kill" > "$tmp/kill_table.out"
    grep -q 'dead' "$tmp/kill_table.out"
    "$monitor" --format=prom "$tmp/kill" > "$tmp/kill.prom"
    grep -Eq '^compdiff_shard_health\{session="w",shard="0",state="dead"\} 1$' \
        "$tmp/kill.prom"
    # The kill cost the process, not the work: the last checkpoint
    # still reports the saved execs.
    grep -Eq '^compdiff_shard_execs\{session="w",shard="0"\} [1-9]' \
        "$tmp/kill.prom"
    echo "== sancheck smoke: seeded sanitizer defects, resume identity"
    # The flipped oracle (DESIGN.md §14): the fixed sweep over the
    # bundled sanlab target must surface exactly the four seeded
    # sanitizer defects (exit 1 = findings, by design).
    "$cli" --mode=sancheck --quiet > "$tmp/san_sweep.out" &&
        rc=0 || rc=$?
    test "$rc" -eq 1
    grep -q 'findings : 3 FN, 1 FP' "$tmp/san_sweep.out"
    grep -q 'FN x1 FP x1' "$tmp/san_sweep.out" # the -O2 UBSan defect
    # A short campaign rediscovers them, reduces each unique finding,
    # and writes sig-<hex>/ bundles naming the certified UB site and
    # the silent sanitizer.
    "$cli" --mode=sancheck --quiet --fuzz=3000 --shards=2 \
        --session="$tmp/san_full" --reduce=300 \
        --reports-out="$tmp/san_reports" > "$tmp/san_full.out" \
        && rc=0 || rc=$?
    test "$rc" -eq 1
    for sig in 'san:clang-O1+msan:uninit-read:FN' \
               'san:clang-O2+ubsan:signed-overflow:FN' \
               'san:clang-O2+ubsan:signed-overflow:FP' \
               'san:clang-O1+asan:out-of-bounds:FN'; do
        grep -q "$sig" "$tmp/san_full.out"
    done
    msan_report="$(grep -l 'san:clang-O1+msan:uninit-read:FN' \
        "$tmp"/san_reports/sig-*/report.md | head -n 1)"
    test -n "$msan_report"
    grep -q 'certified UB site' "$msan_report"
    grep -q 'silent' "$msan_report"
    # The bundle's reproduce command, run as written, still
    # observes the finding (exit 1) on the minimized pair.
    reproduce "$msan_report" > "$tmp/san_replay.out" 2>&1 &&
        rc=0 || rc=$?
    test "$rc" -eq 1
    grep -q 'uninit-read:FN' "$tmp/san_replay.out"
    # Halt at half budget, resume with a different job count: the
    # deterministic artifacts must match the uninterrupted session
    # byte-for-byte.
    "$cli" --mode=sancheck --quiet --fuzz=3000 --shards=2 \
        --session="$tmp/san_cut" --halt-after=750 \
        > "$tmp/san_cut.out"
    grep -q 'session halted' "$tmp/san_cut.out"
    "$cli" --mode=sancheck --quiet --fuzz=3000 --shards=2 --jobs=2 \
        --session="$tmp/san_cut" --resume > /dev/null \
        || test $? -eq 1
    for s in 0 1; do
        cmp "$tmp/san_full/shard-$s.events.jsonl" \
            "$tmp/san_cut/shard-$s.events.jsonl"
    done
    grep -q 'mode : sancheck' "$tmp/san_cut/MANIFEST"
    # The monitor surfaces the sancheck columns for such sessions.
    "$monitor" --stable "$tmp/san_full" > "$tmp/san_mon.out"
    grep -q 'san_fn' "$tmp/san_mon.out"
    grep -q 'san findings : 3 FN, 1 FP' "$tmp/san_mon.out"
    "$monitor" --format=prom "$tmp/san_full" > "$tmp/san.prom"
    grep -Eq '^compdiff_campaign_san_fn\{session="san_full"\} 3$' \
        "$tmp/san.prom"
    grep -Eq '^compdiff_campaign_san_fp\{session="san_full"\} 1$' \
        "$tmp/san.prom"

    echo "== fleet smoke: multi-process campaign, kill -9, revival"
    # A 3-worker fleet over the same campaign a single process runs
    # as the reference; one worker is SIGKILLed mid-run via its shard
    # lease. The revived fleet's deterministic artifacts must match
    # the reference byte-for-byte (the --stable monitor snapshot
    # compares the whole session tree in one shot; the two trees use
    # the same leaf name so labels line up).
    "$cli" --quiet --target=pktdump --fuzz=4500 --shards=3 \
        --checkpoint-every=200 --session="$tmp/fleet_ref/pkt" \
        > /dev/null || test $? -eq 1
    "$fleet" --target=pktdump --fuzz=4500 --shards=3 --workers=3 \
        --checkpoint-every=200 --poll-every=0.02 --quiet \
        --session="$tmp/fleet_run/pkt" > "$tmp/fleet.out" 2>&1 &
    fleet_pid=$!
    killed=0
    for _ in $(seq 1 500); do
        for s in 0 1 2; do
            lease="$tmp/fleet_run/pkt/shard-$s.lease"
            [ -f "$lease" ] || continue
            worker_pid="$(awk '/^pid/{print $3}' "$lease")"
            if [ -n "$worker_pid" ] &&
                kill -9 "$worker_pid" 2>/dev/null; then
                killed=1
                break 2
            fi
        done
        sleep 0.02
    done
    wait "$fleet_pid" && rc=0 || rc=$?
    test "$rc" -eq 0 -o "$rc" -eq 1
    test "$killed" -eq 1
    grep -q 'fleet_revive' "$tmp/fleet_run/pkt/fleet.jsonl"
    cmp "$tmp/fleet_run/pkt/divergences.journal" \
        "$tmp/fleet_ref/pkt/divergences.journal"
    diff <(grep -Ev "$volatile" "$tmp/fleet_run/pkt/fuzzer_stats") \
         <(grep -Ev "$volatile" "$tmp/fleet_ref/pkt/fuzzer_stats")
    "$monitor" --stable "$tmp/fleet_run" > "$tmp/fleet_mon_a.out"
    "$monitor" --stable "$tmp/fleet_ref" > "$tmp/fleet_mon_b.out"
    cmp "$tmp/fleet_mon_a.out" "$tmp/fleet_mon_b.out"
    # Outside --stable mode the monitor surfaces the fleet history.
    "$monitor" "$tmp/fleet_run" > "$tmp/fleet_mon_live.out"
    grep -Eq 'fleet pkt : [0-9]+ spawns, [1-9][0-9]* revivals' \
        "$tmp/fleet_mon_live.out"

    echo "== bench_compare unit: missing entries skip, gate enforces"
    if command -v python3 > /dev/null 2>&1; then
        bench_py="$repo_root/scripts/bench_compare.py"
        cat > "$tmp/bench_base.json" << 'EOF'
{"benchmarks": [
  {"name": "bm_shared", "items_per_second": 1000.0},
  {"name": "bm_baseline_only", "items_per_second": 500.0}
]}
EOF
        cat > "$tmp/bench_ok.json" << 'EOF'
{"benchmarks": [
  {"name": "bm_shared", "items_per_second": 990.0},
  {"name": "bm_new", "items_per_second": 10.0},
  {"name": "bm_unusable", "real_time": 0.0}
]}
EOF
        # Entries missing from the baseline (or unusable) are skipped
        # with a warning — never a KeyError — and do not fail --strict.
        python3 "$bench_py" --baseline "$tmp/bench_base.json" \
            --strict "$tmp/bench_ok.json" > "$tmp/bench_ok.out" 2>&1
        grep -q 'no baseline entry; skipped' "$tmp/bench_ok.out"
        grep -q 'bm_unusable.*no usable throughput' "$tmp/bench_ok.out"
        grep -q 'dropped from current run' "$tmp/bench_ok.out"
        cat > "$tmp/bench_bad.json" << 'EOF'
{"benchmarks": [{"name": "bm_shared", "items_per_second": 100.0}]}
EOF
        # A 90% drop: warn-only exits 0, --strict fails, a tolerance
        # wider than the drop passes again.
        python3 "$bench_py" --baseline "$tmp/bench_base.json" \
            "$tmp/bench_bad.json" > "$tmp/bench_warn.out"
        grep -q 'WARNING' "$tmp/bench_warn.out"
        python3 "$bench_py" --baseline "$tmp/bench_base.json" \
            --strict "$tmp/bench_bad.json" > /dev/null 2>&1 \
            && rc=0 || rc=$?
        test "$rc" -eq 1
        python3 "$bench_py" --baseline "$tmp/bench_base.json" \
            --strict --tolerance 95 "$tmp/bench_bad.json" > /dev/null
    else
        echo "   (python3 not found; skipped)"
    fi

    echo "== obs smoke: OK"
}

if [ "${1:-}" = "--smoke" ]; then
    smoke "$2"
    exit 0
fi

build_dir="${BUILD_DIR:-$repo_root/build}"

echo "== configure"
cmake -B "$build_dir" -S "$repo_root"
echo "== build"
cmake --build "$build_dir" -j "$(nproc)"
echo "== ctest (the smoke runs as its obs_smoke test)"
(cd "$build_dir" && ctest --output-on-failure -j "$(nproc)" --timeout 300)
echo "== all checks passed"
