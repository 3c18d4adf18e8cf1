#pragma once

/**
 * @file
 * Fleet mode: a multi-process campaign coordinator with
 * crash-revival (the AFL++ -M/-S model, as a supervising service).
 *
 * A fleet runs one deterministic sharded campaign across N worker
 * *processes*. The split of responsibilities:
 *
 *   coordinator (runFleet, in the `compdiff_fleet` binary)
 *     - initializes the session directory (MANIFEST + empty shard
 *       journals) so workers can attach
 *     - chunks unowned, incomplete shards across free worker slots
 *       and fork/execs one worker per chunk (`--worker` re-entry
 *       into the same binary)
 *     - supervises: reaps exits, SIGKILLs hung workers (heartbeat
 *       aged out), breaks dead holders' shard leases, and respawns —
 *       a revived worker restores its shards from their checkpoint
 *       journals and continues bit-exactly
 *     - enforces the campaign exec budget (shards complete when
 *       their journals reach their budget) and a wall-clock deadline
 *       (SIGTERM → workers checkpoint and exit; rerun to continue)
 *     - finalizes: an in-process resume restores every shard's final
 *       checkpoint and writes the fused artifacts (fuzzer_stats,
 *       plot_data, divergences.journal, triage bundles) — which is
 *       why a finished fleet campaign is byte-identical to a
 *       single-process run of the same campaign
 *
 *   worker (runWorker, the `--worker` entry point)
 *     - acquires one lease per assigned shard (session/lease.hh);
 *       a live competing holder means "yield" (exit
 *       kWorkerExitLeaseHeld), never a second fuzzer on the shard
 *     - runs a CampaignSession in workerShards mode: attach to the
 *       coordinator's directory, restore-or-start each owned shard,
 *       checkpoint/heartbeat as every session does
 *     - wires SIGTERM to the session stop flag: a deadline shutdown
 *       is a checkpointed halt, not lost work
 *
 * Everything result-defining flows through the session/journal
 * discipline, so kill -9 any worker at any time: the finished
 * campaign's fuzzer_stats, divergence journals, and bug bundles are
 * byte-identical to an uninterrupted run (tests/test_fleet.cc, and
 * the CI fleet-smoke job). Shards never exchange inputs or coverage,
 * so every fleet campaign is the single-process campaign by
 * construction. The live view is `compdiff_monitor --watch` on the
 * session directory.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/sharded.hh"
#include "minic/ast.hh"
#include "obs/stats.hh"
#include "reduce/report.hh"
#include "session/session.hh"

namespace compdiff::fleet
{

/** Worker process exit codes (the coordinator's protocol). */
constexpr int kWorkerExitOk = 0;        ///< completed or halted
constexpr int kWorkerExitConfig = 2;    ///< bad config / session error
constexpr int kWorkerExitLeaseHeld = 3; ///< shard owned by a live pid

/** One worker's assignment, as passed on its command line. */
struct WorkerSpec
{
    /** Global shard ids, strictly increasing. */
    std::vector<std::size_t> shards;
    /** Fleet-local worker index (display/debug). */
    std::size_t worker = 0;
    /** Coordinator spawn generation (revivals increment it). */
    std::uint64_t generation = 0;
};

/**
 * The extra argv a coordinator appends to its worker command:
 * `--worker-shards=...`, `--worker-index=...`,
 * `--worker-generation=...` (the `--worker` mode switch itself is
 * part of FleetOptions::workerCommand).
 */
std::vector<std::string> workerArgs(const WorkerSpec &spec);

/**
 * Parse one worker extra arg into `spec`; returns true when the arg
 * was consumed. The binary's flag loop calls this so the coordinator
 * and worker sides of the protocol live in this one file.
 */
bool parseWorkerArg(const std::string &arg, WorkerSpec *spec);

/** Parse a comma-separated shard list ("0,2,5"). */
std::vector<std::size_t> parseShardList(const std::string &text);

/**
 * The `--worker` entry point: acquire shard leases, run the
 * CampaignSession over `spec.shards` in worker mode, release the
 * leases. Returns a kWorkerExit* code; never throws.
 */
int runWorker(const minic::Program &program,
              const std::vector<support::Bytes> &seeds,
              session::SessionConfig config, const WorkerSpec &spec);

/** Coordinator knobs. */
struct FleetOptions
{
    /** Worker process slots (elastic: raise it on a later run of the
     *  same session and the extra workers pick up unassigned
     *  shards). */
    std::size_t workers = 2;
    /**
     * argv prefix for spawning a worker: the fleet binary plus every
     * campaign flag, ending with `--worker`. runFleet appends
     * workerArgs() per spawn.
     */
    std::vector<std::string> workerCommand;
    /** Supervision poll interval. */
    double pollSecs = 0.2;
    /** Campaign wall-clock deadline in seconds (0 = none). On
     *  expiry workers get SIGTERM, checkpoint, and exit; the
     *  returned result has completed=false and the session resumes
     *  with a later run. */
    double deadlineSecs = 0;
    /** A worker whose incomplete shards' heartbeats are all older
     *  than this is presumed hung and SIGKILLed (then revived). */
    double deadAfterSecs = 30.0;
    /** Hard cap on spawns per shard — a crash-looping shard aborts
     *  the fleet instead of burning forever. */
    std::size_t maxSpawnsPerShard = 64;
};

/** What a fleet run produced. */
struct FleetResult
{
    /** Every shard reached its budget and the finalize pass ran. */
    bool completed = false;
    std::size_t spawns = 0;
    /** Spawns that re-assigned a previously-spawned shard (dead or
     *  hung worker revival, or a resumed session). */
    std::size_t revivals = 0;
    /** Workers that exited kWorkerExitLeaseHeld. */
    std::size_t leaseConflicts = 0;
    /** Folded campaign outcome (valid when completed). */
    fuzz::ShardedResult result;
    /** Merged final snapshot (valid when completed). */
    obs::FuzzerStatsSnapshot stats;
    /** Triage reports (when config.triage.reduceFound). */
    std::vector<reduce::DivergenceReport> reports;
};

/**
 * Run the whole fleet: initialize, spawn, supervise, revive,
 * finalize. `config.workerShards` is ignored (the coordinator owns
 * the full campaign); `config.dir` is required.
 *
 * @throws session::SessionError on an unusable configuration or a
 *         shard that keeps crash-looping past maxSpawnsPerShard.
 */
FleetResult runFleet(const minic::Program &program,
                     const std::vector<support::Bytes> &seeds,
                     session::SessionConfig config,
                     const FleetOptions &options);

/**
 * Chunk `pending` shards across up to `slots` workers: disjoint,
 * order-preserving, sizes within one of each other, no empty chunks.
 */
std::vector<std::vector<std::size_t>>
chunkShards(const std::vector<std::size_t> &pending,
            std::size_t slots);

} // namespace compdiff::fleet
