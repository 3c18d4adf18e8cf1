#pragma once

/**
 * @file
 * CompDiff-AFL++ (paper Section 3.2, Algorithm 1).
 *
 * The fuzzer keeps AFL++'s core loop intact: select a seed, mutate
 * it, execute the coverage-instrumented binary B_fuzz, save crashes,
 * keep coverage-increasing inputs as seeds. The CompDiff integration
 * is exactly the highlighted lines of Algorithm 1: every generated
 * input is additionally executed on the k differential binaries B_i
 * and saved into the `diffs` list when their (normalized) outputs
 * disagree.
 *
 * The oracle is plug-and-play: disable it (FuzzOptions::enableCompDiff
 * = false) and this is a plain greybox crash fuzzer; enable a
 * sanitizer on B_fuzz and it is a sanitizer fuzzing campaign —
 * the two comparison arms of the paper's evaluation.
 *
 * Checkpoint/resume: the whole campaign state — corpus, virgin map,
 * both RNG streams, dedup signatures, found diffs/crashes, stats —
 * is capturable as a FuzzerState at any safe point (the top of the
 * outer fuzz loop) and restorable into a freshly constructed Fuzzer.
 * The campaign is deterministic, so a restore followed by run()
 * reproduces an uninterrupted campaign bit for bit. Persistence (the
 * session directory, journaling, shard merge) lives one layer up in
 * src/session; the Fuzzer itself only snapshots and restores. So
 * does every file: session::CampaignSession writes `fuzzer_stats`
 * and `plot_data` from statsSnapshot() and plotData().
 */

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "compdiff/engine.hh"
#include "compiler/config.hh"
#include "fuzz/mutator.hh"
#include "obs/stats.hh"
#include "sancheck/sancheck.hh"
#include "support/bytes.hh"
#include "vm/coverage.hh"
#include "vm/vm.hh"

namespace compdiff::fuzz
{

/** One corpus entry. */
struct Seed
{
    support::Bytes data;
    std::size_t coverageBits = 0; ///< path size when first seen
    std::uint64_t foundAtExec = 0;
    int depth = 0; ///< mutation generations from an initial seed
};

/** A saved divergence ("diffs/" directory analog). */
struct FoundDiff
{
    support::Bytes input;
    core::DiffResult result;
    std::uint64_t execIndex = 0;
    /** Ground-truth probes fired by the B_fuzz run (for triage). */
    std::vector<int> probes;
    /**
     * The triage signature this diff was deduplicated under: the
     * sorted probe set when the input fired probes, else the
     * behavior-class partition + exit classes. In sancheck mode it
     * is the finding's signatureHash(). Shard folding and the
     * campaign's untriaged surfacing key on this value.
     */
    std::uint64_t signature = 0;
    /**
     * Second-tier key: semdiff::semanticKeyOf(canonical fingerprint
     * of the campaign program, probe-free divergence signature).
     * Two probe-distinguished witnesses of the same bug share this
     * value, so uniq-sem counts predict the post-reduction merged
     * bundle count. 0 in sancheck mode (no behavior partition).
     */
    std::uint64_t semanticKey = 0;
    /**
     * Sancheck mode only: the classified sanitizer defect this
     * record carries (implId empty in differential mode; `result`
     * is then default-constructed).
     */
    sancheck::SanFinding sanFinding;
};

/** A saved crash (or sanitizer report) from B_fuzz. */
struct FoundCrash
{
    support::Bytes input;
    std::string exitClass;
    std::vector<vm::SanReport> sanReports;
    std::vector<int> probes;
    /** Execution index (== nonce) the crash was observed at. */
    std::uint64_t execIndex = 0;
};

/** Campaign configuration. */
struct FuzzOptions
{
    /** Total executions of B_fuzz (the fuzzing budget). */
    std::uint64_t maxExecs = 20'000;
    std::uint64_t rngSeed = 0xFA2200D1;
    std::size_t maxInputSize = 256;

    /**
     * Worker threads for the k-way differential oracle inside this
     * campaign (DiffOptions::jobs): 1 = serial, 0 = hardware.
     * Campaign results are bit-identical for every value — threads
     * change wall-clock only, never observations (see DiffEngine).
     * With several shards, planShards sets it to 1: the threads
     * then run shards (fuzz/sharded.hh).
     */
    std::size_t jobs = 1;

    /** Configuration of the coverage/sanitizer binary B_fuzz. */
    compiler::CompilerConfig fuzzConfig{
        compiler::Vendor::Clang, compiler::OptLevel::O2,
        compiler::Sanitizer::None};

    /** The CompDiff oracle (Algorithm 1 lines 9-12). */
    bool enableCompDiff = true;
    core::ImplementationSet diffImpls =
        core::paper10Implementations();
    core::DiffOptions diffOptions;

    /**
     * Sancheck mode (DESIGN.md §14): replace the k-way differential
     * oracle with the sanitizer-checking oracle — every generated
     * input is certified by the reference interpreter and run on the
     * sanitized implementations, and classified FN/FP findings are
     * recorded as FoundDiffs keyed by their finding signature. The
     * differential oracle knobs (enableCompDiff, diffImpls,
     * divergenceFeedback) are ignored in this mode.
     */
    bool sancheckMode = false;
    /** Sanitized implementations for sancheck mode; empty means
     *  sancheck::defaultImplementations(). */
    core::ImplementationSet sancheckImpls;

    /**
     * NEZHA-style divergence feedback (the paper's Section 5
     * outlook): treat a never-seen behavior-class *partition* of the
     * differential binaries as novelty and keep the input as a seed,
     * in addition to the coverage signal. Off by default — plain
     * CompDiff-AFL++ leaves the fuzzer's feedback untouched. The
     * oracle results then steer the corpus, so the oracle queue is
     * flushed after every execution instead of at observation points.
     */
    bool divergenceFeedback = false;

    vm::VmLimits limits;

    // Files and post-campaign triage are *not* configured here:
    // session::SessionConfig carries the fuzzer_stats / plot_data
    // paths and the triage knobs, and session::CampaignSession
    // writes the files and feeds the divergence records to reduce::.
};

/** Campaign statistics. */
struct FuzzStats
{
    std::uint64_t execs = 0;
    std::uint64_t compdiffExecs = 0; ///< runs of differential binaries
    std::size_t seeds = 0;
    std::size_t crashes = 0;        ///< unique crash signatures
    std::size_t diffs = 0;          ///< unique divergence signatures
    std::size_t edges = 0;          ///< distinct coverage map cells
    /** Exec index of the last discovery (seed, crash, or diff);
     *  execution counts are the deterministic time axis. */
    std::uint64_t lastFindExec = 0;
    /** Exec index of the last new divergence (0 = none). */
    std::uint64_t lastDiffExec = 0;
};

/**
 * The complete resumable snapshot of a mid-campaign Fuzzer, taken at
 * a safe point (top of the outer fuzz loop, or after run() ended).
 *
 * Found diffs and crashes are stored as compact *records* — the
 * input plus the exec index (== execution nonce) they were observed
 * at — not as their heavyweight results: restoreState() re-derives
 * DiffResult / crash reports by re-executing the recorded input
 * under the recorded nonce, which is bit-exact because every
 * execution in this system is a pure function of (binary, input,
 * nonce). That keeps checkpoints small and makes "a resumed campaign
 * equals an uninterrupted one" hold for the full result objects, not
 * just for counters.
 */
struct FuzzerState
{
    FuzzStats stats;
    std::uint64_t nonceCounter = 0;
    support::Rng::State rng{};
    support::Rng::State mutatorRng{};
    /** Next plot-sample threshold of the interrupted run(). */
    std::uint64_t nextPlot = 0;

    std::vector<Seed> corpus;

    struct DiffRecord
    {
        support::Bytes input;
        std::uint64_t execIndex = 0;
        std::uint64_t signature = 0;
        std::vector<int> probes;
    };
    struct CrashRecord
    {
        support::Bytes input;
        std::uint64_t execIndex = 0;
    };
    std::vector<DiffRecord> diffs;
    std::vector<CrashRecord> crashes;

    /** Sorted NEZHA partition digests (divergenceFeedback). */
    std::vector<std::uint64_t> partitionsSeen;
    /** Executions of each oracle member, implementation order. */
    std::vector<std::uint64_t> perConfigExecs;
    std::vector<obs::PlotWriter::Row> plotRows;
    /** Raw VirginMap bytes (vm::kCoverageMapSize). */
    support::Bytes virginMap;
};

/**
 * The CompDiff-AFL++ campaign driver.
 */
class Fuzzer
{
  public:
    /**
     * Called at every safe point of run() (top of the outer fuzz
     * loop). The hook only reads the fuzzer; return false to halt
     * the campaign there — the hook is how
     * session::CampaignSession checkpoints on a cadence and how an
     * interrupt (or a --halt-after test point) stops a campaign
     * without losing journaled state.
     */
    using IterationHook = std::function<bool(const Fuzzer &)>;

    /**
     * @param program       Analyzed target program; must outlive the
     *                      fuzzer.
     * @param initial_seeds Initial corpus (the "official test suite"
     *                      seeds of Section 4.3); an empty vector is
     *                      replaced by a single empty input.
     * @param options       Campaign knobs.
     */
    Fuzzer(const minic::Program &program,
           std::vector<support::Bytes> initial_seeds,
           FuzzOptions options = {});

    /** Run the whole campaign and return final statistics. */
    FuzzStats run();

    /** Saved divergences, one per unique behavior signature. */
    const std::vector<FoundDiff> &diffs() const { return diffs_; }

    /** Saved crashes, one per unique exit/report signature. */
    const std::vector<FoundCrash> &crashes() const
    {
        return crashes_;
    }

    const std::vector<Seed> &corpus() const { return corpus_; }
    const FuzzStats &stats() const { return stats_; }

    /**
     * AFL++-style `fuzzer_stats` snapshot of the campaign so far.
     * Invariant: snapshot.compdiffExecs equals the sum of its
     * per-configuration execution counts (retries included).
     */
    obs::FuzzerStatsSnapshot statsSnapshot() const;

    /** The `plot_data` time series collected during run(). */
    const obs::PlotWriter &plotData() const { return plot_; }

    // --- checkpoint/resume (session::CampaignSession) ---

    /** Snapshot the full campaign state at a safe point. */
    FuzzerState captureState() const;

    /**
     * Restore a snapshot into this (freshly constructed, same
     * program/options) fuzzer: a subsequent run() continues the
     * campaign exactly where the snapshot left it. Diff results and
     * crash reports are re-derived by re-executing the recorded
     * inputs under their recorded nonces.
     *
     * @throws std::runtime_error when the snapshot is inconsistent
     *         with this fuzzer's configuration (oracle width or
     *         coverage-map size mismatch).
     */
    void restoreState(const FuzzerState &state);

    /** Install (or clear) the safe-point hook; see IterationHook. */
    void setIterationHook(IterationHook hook)
    {
        hook_ = std::move(hook);
    }

    /** Did the last run() stop early because the hook said so? */
    bool haltedByHook() const { return haltedByHook_; }

    // --- shard-merge accessors (fuzz::foldShards) ---
    /** Accumulated campaign coverage (merged across shards). */
    const vm::VirginMap &virginMap() const { return virgin_; }
    /** Crash signature -> index into crashes(). */
    const std::map<std::string, std::size_t> &
    crashSignatures() const
    {
        return crashSignatures_;
    }
    /** Executions of each oracle member, implementation order. */
    const std::vector<std::uint64_t> &perConfigExecs() const
    {
        return perConfigExecs_;
    }

    const FuzzOptions &options() const { return options_; }

  private:
    std::size_t selectSeed();
    /** Run B_fuzz on one input and queue its oracle run. Takes the
     *  input by value: executing it may grow corpus_ and would
     *  invalidate any reference into it. */
    void executeOne(support::Bytes input, std::size_t depth);
    /** Account one oracle outcome (RQ6 retry rounds) and
     *  dedup/record a divergence; `exec_index` is the execution the
     *  input was generated at, which a flush records even after
     *  later executions advanced the clock. */
    void recordDiffOutcome(const support::Bytes &input,
                           core::DiffResult diff,
                           const std::vector<int> &probes,
                           std::uint64_t exec_index);
    /** Run every queued input through DiffEngine::runBatch and
     *  record the outcomes (plus NEZHA seeds under
     *  divergenceFeedback). No-op when nothing is pending. */
    void flushDiffBatch();
    /** Sancheck mode: certify + sanitize + classify one input and
     *  dedup/record the findings under their signature hashes. */
    void runSancheck(const support::Bytes &input,
                     const std::vector<int> &probes,
                     std::uint64_t exec_index);
    /** The crash-dedup key of a B_fuzz result. */
    static std::string
    crashSignatureOf(const vm::ExecutionResult &result);

    const minic::Program &program_;
    FuzzOptions options_;
    support::Rng rng_;
    Mutator mutator_;

    std::shared_ptr<const bytecode::Module> fuzzModule_;
    /** Resident B_fuzz binary (forkserver reuse across the
     *  campaign; its per-run arena is reset, not reallocated). */
    vm::Vm fuzzVm_;
    std::unique_ptr<core::DiffEngine> diffEngine_;
    /** The sancheck-mode oracle (mutually exclusive with
     *  diffEngine_). */
    std::unique_ptr<sancheck::SanCheckOracle> sanOracle_;

    vm::CoverageMap coverage_;
    vm::VirginMap virgin_;

    std::vector<Seed> corpus_;
    std::vector<FoundDiff> diffs_;
    std::vector<FoundCrash> crashes_;
    std::map<std::uint64_t, std::size_t> diffSignatures_;
    std::map<std::string, std::size_t> crashSignatures_;
    std::set<std::uint64_t> partitionsSeen_;
    FuzzStats stats_;
    std::uint64_t nonceCounter_ = 0;

    /** Plot bookkeeping lives in members so checkpoints capture the
     *  exact sampling phase of an interrupted run(). */
    std::uint64_t nextPlot_ = 0;
    /** True after restoreState(): run() skips the seed dry-run the
     *  original campaign already performed. */
    bool resumed_ = false;
    bool haltedByHook_ = false;
    IterationHook hook_;

    /** Executions of each oracle member, implementation order. */
    std::vector<std::uint64_t> perConfigExecs_;
    obs::PlotWriter plot_;

    /** Canonical-form fingerprint of the campaign program (computed
     *  once at construction; the semanticKey half every FoundDiff
     *  shares). */
    std::uint64_t canonFingerprint_ = 0;

    /** An execution whose oracle run waits for the next flush. */
    struct PendingDiff
    {
        support::Bytes input;
        /** Execution index == oracle nonce base (the same value
         *  restoreState() replays the record under). */
        std::uint64_t execIndex = 0;
        /** Ground-truth probes from the B_fuzz run (triage key). */
        std::vector<int> probes;
        /** Seed fields for a NEZHA corpus entry (divergenceFeedback
         *  only; 0 otherwise). */
        std::size_t coverageBits = 0;
        int depth = 0;
    };
    std::vector<PendingDiff> pendingDiffs_;
};

} // namespace compdiff::fuzz
