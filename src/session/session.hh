#pragma once

/**
 * @file
 * Campaign sessions: the single owner of a fuzzing campaign's
 * lifecycle — configure → run → checkpoint → resume → triage →
 * report.
 *
 * Before this layer existed, every driver (targets::runCampaign, the
 * CLI, the bench programs) hand-wired the same flow: plan shards,
 * construct fuzzers, run them, fold results, maybe reduce, maybe
 * write telemetry — and none of it survived a killed process.
 * CampaignSession centralizes the flow and adds crash-safe
 * persistence on top of the determinism contract the lower layers
 * already guarantee:
 *
 *   - The campaign is a pure function of (program, seeds, options,
 *     shards). `jobs` is thread count only.
 *   - Every shard checkpoints its complete fuzz::FuzzerState to an
 *     append-only checksummed journal (`shard-<N>.journal`) every
 *     `checkpointEvery` executions and at shutdown, only ever at
 *     safe points of the fuzz loop.
 *   - Resume restores each shard from its last valid checkpoint and
 *     continues. A campaign killed at ANY point and resumed produces
 *     bit-identical corpus, diff set, and signature set to an
 *     uninterrupted run with the same budget — a kill between
 *     checkpoints merely re-does the work since the last one.
 *
 * Session directory layout:
 *
 *   MANIFEST             campaign identity: format version, option
 *                        fingerprint, shards, budget, seed (atomic
 *                        write-then-rename; resume validates it)
 *   shard-<N>.journal    per-shard checkpoint journal (compacted to
 *                        header + last checkpoint on every resume)
 *   shard-<N>.events.jsonl
 *                        per-shard campaign event journal
 *                        (discoveries/divergences/crashes on the
 *                        exec-index axis; deterministic — rewound to
 *                        the restored checkpoint on resume, so kill
 *                        +resume replays an identical byte prefix)
 *   events.jsonl         session-scope ops log (same line format):
 *                        session_open/checkpoint/halt/complete/
 *                        cache/reduce_* process history — append-
 *                        only across restarts, deliberately NOT
 *                        replay-invariant
 *   heartbeat-<N>        per-shard liveness snapshot (atomic
 *                        rewrite at safe points; display/health only
 *                        — see session/heartbeat.hh)
 *   session_stats        cumulative wall-clock seconds and restart
 *                        count (AFL++-style: survives restarts)
 *   fuzzer_stats         merged final snapshot (completed runs)
 *   plot_data[.shardN]   per-shard plot series (completed runs)
 *   divergences.journal  folded unique DivergenceRecords (completed
 *                        runs) — what triage and reduction consume
 *   metrics.jsonl        obs registry snapshot with histogram
 *                        percentiles (completed runs, only when
 *                        metrics are enabled)
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fuzz/sharded.hh"
#include "minic/ast.hh"
#include "obs/events.hh"
#include "reduce/report.hh"
#include "sancheck/report.hh"
#include "session/records.hh"
#include "session/serial.hh"

namespace compdiff::session
{

/** Everything that defines a session. */
struct SessionConfig
{
    /**
     * Session directory. Empty runs the campaign ephemerally — same
     * lifecycle, no persistence (and resume/checkpointEvery are
     * ignored).
     */
    std::string dir;
    /**
     * Reopen an existing session and continue it. The manifest must
     * match this config's campaign identity (fingerprint, shards,
     * budget, seed); a mismatch is a SessionError, not a silent
     * restart.
     */
    bool resume = false;
    /**
     * Per-shard executions between cadence checkpoints; 0 picks
     * maxExecs/20 (at least one). Checkpoints also happen at
     * shutdown regardless of cadence.
     */
    std::uint64_t checkpointEvery = 0;
    /**
     * Testing/interrupt hook: stop every shard at its first safe
     * point at or beyond this many shard-local executions (0 = run
     * to completion). The halted state is checkpointed, so a
     * subsequent resume finishes the campaign.
     */
    std::uint64_t haltAfterExecs = 0;
    /**
     * Minimum wall-clock seconds between heartbeat rewrites per
     * shard (<= 0 writes at every safe point). Display/health
     * cadence only — heartbeats never influence campaign results,
     * so this knob is absent from the campaign fingerprint.
     */
    double heartbeatSecs = 1.0;

    /** The campaign itself (see the determinism contract above). */
    fuzz::FuzzOptions fuzz;
    std::size_t shards = 1;
    /** Worker threads; never changes results. */
    std::size_t jobs = 1;

    /** Post-campaign triage (the single carrier of these knobs). */
    TriageOptions triage;

    /** Where else a completed campaign writes its `fuzzer_stats`
     *  and `plot_data[.shardN]` ("" = nowhere); not fingerprinted. */
    std::string statsOutPath;
    std::string plotOutPath;

    // --- fleet-worker mode (src/fleet) ---

    /**
     * Run only these shards of the campaign (global shard indices,
     * strictly increasing). Empty = run every shard (the default).
     * Worker mode *attaches* to an existing session directory — the
     * fleet coordinator creates it first (initializeDir()): the
     * MANIFEST must be present and match, each owned shard restores
     * from its journal when a checkpoint exists (a revived worker
     * continues bit-exactly) and starts fresh otherwise, and the
     * session-level bookkeeping (session_stats, final artifacts) is
     * left to the coordinator's finalize pass. `resume` is ignored
     * in worker mode.
     */
    std::vector<std::size_t> workerShards;
    /**
     * Cooperative stop: when non-null and set, every shard halts at
     * its next safe point exactly like haltAfterExecs — checkpointed
     * and resumable. Fleet workers wire SIGTERM to this so a
     * coordinator deadline is a graceful, work-preserving shutdown.
     */
    const std::atomic<bool> *stopFlag = nullptr;
};

/**
 * One campaign's lifecycle owner. Construct, run(), then read
 * results / triage(). The program and the session config must
 * outlive the session.
 */
class CampaignSession
{
  public:
    /**
     * @param program Analyzed target program (must outlive the
     *                session).
     * @param seeds   Initial corpus, distributed round-robin across
     *                shards.
     * @param config  Session configuration.
     */
    CampaignSession(const minic::Program &program,
                    std::vector<support::Bytes> seeds,
                    SessionConfig config);
    ~CampaignSession();

    CampaignSession(const CampaignSession &) = delete;
    CampaignSession &operator=(const CampaignSession &) = delete;

    /**
     * Open (or resume) the session and drive the campaign to
     * completion or to the haltAfterExecs point. Returns the folded
     * result (partial when halted()).
     *
     * @throws SessionError on an invalid session directory: missing
     *         or mismatching manifest, corrupt journal header, or a
     *         config that contradicts the persisted campaign.
     */
    const fuzz::ShardedResult &run();

    /** Folded campaign outcome (valid after run()). */
    const fuzz::ShardedResult &result() const { return result_; }

    /** Did run() stop at the haltAfterExecs safe point? */
    bool halted() const { return halted_; }

    /** Did the campaign reach its full budget? */
    bool completed() const { return completed_; }

    /** Times this session has been resumed (0 on the first run). */
    std::uint64_t restarts() const { return restarts_; }

    /** Cumulative campaign wall-clock seconds across restarts. */
    double runTimeSecs() const { return runSecs_; }

    /**
     * Merged AFL++-style snapshot with the cumulative session
     * fields (run_time, session_restarts, execs_per_sec over the
     * cumulative time) filled in.
     */
    obs::FuzzerStatsSnapshot statsSnapshot() const;

    /**
     * The campaign's unique divergences as portable records (valid
     * after run()): fold order, signature-deduplicated.
     */
    std::vector<DivergenceRecord> divergenceRecords() const;

    /**
     * Post-campaign triage: run the reduction pipeline over every
     * divergence record and (when triage.reportsDir is set) write
     * one report bundle per divergence. Returns an empty vector
     * unless config.triage.reduceFound.
     */
    std::vector<reduce::DivergenceReport> triage() const;

    /**
     * Sancheck-mode analog of triage(): reduce every unique
     * sanitizer finding into a `sig-<hex>/` bundle whose report
     * names the certified UB site and the silent or mis-firing
     * sanitizer. Returns an empty vector unless the campaign ran
     * with fuzz.sancheckMode and config.triage.reduceFound.
     */
    std::vector<sancheck::FindingReport> triageSancheck() const;

    const SessionConfig &config() const { return config_; }

    /**
     * Coordinator entry point: create the session directory with its
     * MANIFEST and (empty) shard journals without fuzzing anything,
     * so fleet workers can attach (workerShards mode). Idempotent: a
     * directory already holding a *matching* manifest validates and
     * returns (an elastic coordinator restart); a mismatching one is
     * a SessionError. Missing journals are created either way.
     */
    void initializeDir();

    /**
     * Load the divergence records a completed session persisted
     * (`<dir>/divergences.journal`) without re-running anything.
     *
     * @throws SessionError when the journal is missing or corrupt.
     */
    static std::vector<DivergenceRecord>
    loadDivergenceRecords(const std::string &dir);

  private:
    bool persistent() const { return !config_.dir.empty(); }
    bool workerMode() const { return !config_.workerShards.empty(); }
    /** Global shard id of local fuzzer slot `local`. */
    std::size_t globalShard(std::size_t local) const
    {
        return owned_[local];
    }
    /** Resolve workerShards (or all shards) into owned_. */
    void resolveOwnedShards();
    std::string shardJournalPath(std::size_t shard) const;
    std::string shardEventsPath(std::size_t shard) const;
    std::uint64_t checkpointCadence(
        const fuzz::FuzzOptions &shard_options) const;
    std::uint64_t campaignFingerprint() const;
    std::string renderManifest() const;
    /** Validate an existing MANIFEST against this config. */
    void validateManifest(const std::string &text) const;
    /** Create or reopen the session directory. */
    void openDir(
        std::vector<std::unique_ptr<fuzz::FuzzerState>> &restored);
    void installHooks();
    void writeFinalArtifacts();
    /** What triage() and triageSancheck() share: the budget, jobs
     *  and bundle directory copied into `options`, and the
     *  reduce_start / reduced / reduce_done ops events around
     *  `reduce(options)`. */
    template <typename Options, typename Reduce>
    auto reduceWitnesses(Options options, const Reduce &reduce) const;
    /** Rewind/initialize event logs + heartbeats after restore. */
    void initShardObservability();
    /** Append campaign events discovered since the last safe point
     *  to shard `s`'s event journal. */
    void emitShardEvents(std::size_t shard,
                         const fuzz::Fuzzer &fuzzer);
    /** Rewrite shard `s`'s heartbeat (throttled unless `force`). */
    void writeShardHeartbeat(std::size_t shard,
                             const fuzz::Fuzzer &fuzzer,
                             const char *phase, bool force);
    /** Append one event to the session-scope ops log (thread-safe;
     *  shard threads log their checkpoints through this). */
    void appendOpsEvent(obs::CampaignEvent event) const;
    /** Display-only: cumulative wall-clock seconds right now. */
    double runSecsNow() const;

    const minic::Program &program_;
    std::vector<support::Bytes> seeds_;
    SessionConfig config_;

    std::vector<fuzz::ShardPlan> plans_;
    /** Global shard ids this session runs, local slot order (all
     *  shards outside worker mode). Every on-disk per-shard path is
     *  keyed by the *global* id; every in-memory vector below is
     *  indexed by the *local* slot. */
    std::vector<std::size_t> owned_;
    std::vector<std::unique_ptr<fuzz::Fuzzer>> fuzzers_;
    /** Next cadence-checkpoint threshold, per shard (each slot is
     *  touched only by its shard's thread). */
    std::vector<std::uint64_t> nextCheckpoint_;
    /** How much of each shard's corpus/diffs/crashes vectors has
     *  already been written to its event journal (per-shard slots,
     *  each touched only by its shard's thread). */
    struct EmitCursor
    {
        std::size_t corpus = 0;
        std::size_t diffs = 0;
        std::size_t crashes = 0;
    };
    std::vector<EmitCursor> emitted_;
    /** Last heartbeat write time, per shard (throttling only). */
    std::vector<std::chrono::steady_clock::time_point> lastBeat_;
    /** Serializes ops-log appends across shard threads. */
    mutable std::mutex opsMu_;
    /** This incarnation's start (display-only wall clock). */
    std::chrono::steady_clock::time_point wallStart_;

    fuzz::ShardedResult result_;
    bool ran_ = false;
    bool halted_ = false;
    bool completed_ = false;
    std::uint64_t restarts_ = 0;
    /** Wall-clock seconds from previous incarnations. */
    double savedRunSecs_ = 0;
    double runSecs_ = 0;
};

/**
 * Atomically rewrite `<dir>/session_stats`: cumulative wall-clock
 * seconds and restart count. Display-only; the session and the
 * fleet coordinator both write the file through this.
 */
void writeSessionStats(const std::string &dir, double run_secs,
                       std::uint64_t restarts);

} // namespace compdiff::session
