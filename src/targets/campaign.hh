#pragma once

/**
 * @file
 * Fuzzing-campaign harness over the target programs (paper Section
 * 4.3): runs CompDiff-AFL++ on a target, triages found divergences
 * back to the planted bugs via their ground-truth probes, and checks
 * each found bug against the three sanitizers (Table 6).
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hh"
#include "reduce/report.hh"
#include "session/records.hh"
#include "targets/targets.hh"

namespace compdiff::targets
{

/** One planted bug recovered by a campaign. */
struct BugFinding
{
    int probeId = 0;
    const PlantedBug *bug = nullptr;
    support::Bytes witness; ///< first divergence-triggering input
    /** Per-implementation output hashes on the witness (Figure 2). */
    std::vector<std::uint64_t> hashVector;
    bool asanFires = false;
    bool ubsanFires = false;
    bool msanFires = false;
};

/**
 * A divergence no planted bug claims — either its witness fired no
 * ground-truth probe, or the probe matched no bug record. These
 * would be unplanted bugs in the target itself, so campaigns keep
 * the full evidence (not just a count): the reducer and report
 * bundler consume them like any other witness.
 */
struct UntriagedDiff
{
    /** The fuzzer's triage signature (FoundDiff::signature). */
    std::uint64_t signature = 0;
    support::Bytes witness;
    /** Per-implementation output hashes on the witness. */
    std::vector<std::uint64_t> hashVector;
};

/** Outcome of one campaign on one target. */
struct CampaignResult
{
    std::string target;
    fuzz::FuzzStats stats;
    std::vector<BugFinding> found;
    /** Divergences that fired no probe (must stay empty: they would
     *  be unplanted bugs in the target itself). */
    std::vector<UntriagedDiff> untriaged;
    /** Reduction outcomes when CampaignOptions::triage.reduceFound,
     *  one per unique divergence in shard-fold order. */
    std::vector<reduce::DivergenceReport> reports;
    /** True when the campaign stopped at a session halt point
     *  (stats are the partial fold; triage was skipped — resume the
     *  session to finish). */
    bool halted = false;

    bool foundProbe(int probe_id) const;

    /** Count view of `untriaged` (the pre-reduction API). */
    std::size_t untriagedDiffs() const { return untriaged.size(); }
};

/** Campaign knobs. */
struct CampaignOptions
{
    std::uint64_t maxExecs = 60'000;
    std::uint64_t rngSeed = 0xA11CE;
    /** Also run the sanitizer checks on each witness (Table 6). */
    bool checkSanitizers = true;
    /**
     * Per-execution limits. The targets are small record parsers;
     * modest segments keep the per-run setup cost (the forkserver-
     * analog overhead) low.
     */
    vm::VmLimits limits{
        .maxInstructions = 200'000,
        .stackSize = 1 << 14,
        .heapSize = 1 << 15,
        .maxOutput = 1 << 16,
        .maxCallDepth = 64,
    };

    /**
     * Deterministic work partition: the campaign runs as this many
     * independent shards (fuzz/sharded.hh). Results depend
     * on `shards` — changing it changes the campaign — but never on
     * `jobs`. shards == 1 reproduces the plain single-fuzzer path.
     */
    std::size_t shards = 1;
    /**
     * Worker threads (0 = one per hardware thread). With shards > 1
     * the threads run shards; with shards == 1 they run the k-way
     * oracle. Either way, results are bit-identical for every value.
     */
    std::size_t jobs = 1;

    /**
     * AFL++-style telemetry: when non-empty, each campaign writes
     * `<statsDir>/<target>/fuzzer_stats` and `.../plot_data`
     * (directories are created as needed; sharded campaigns write
     * one `plot_data.shard<N>` series per shard).
     */
    std::string statsDir;

    /**
     * Crash-safe persistence: when non-empty, each campaign runs as
     * a session::CampaignSession under `<sessionDir>/<target>/` —
     * checkpointed every `checkpointEvery` shard executions and at
     * shutdown, resumable with `resume`. Empty runs ephemerally
     * (same lifecycle, nothing persisted).
     */
    std::string sessionDir;
    bool resume = false;
    std::uint64_t checkpointEvery = 0;
    /** Stop every shard at this many shard-local executions (0 =
     *  run to completion); see SessionConfig::haltAfterExecs. */
    std::uint64_t haltAfterExecs = 0;

    /**
     * Post-campaign triage — the single carrier of the reduction /
     * report knobs (a per-target subdirectory is appended to
     * triage.reportsDir).
     */
    session::TriageOptions triage;
};

/** Run CompDiff-AFL++ on one target. */
CampaignResult runCampaign(const TargetProgram &target,
                           const CampaignOptions &options = {});

/** Run campaigns on every target. */
std::vector<CampaignResult>
runAllCampaigns(const CampaignOptions &options = {});

/** Aggregate per-column counts over campaign results (Table 5). */
struct ColumnCounts
{
    std::size_t planted = 0;
    std::size_t found = 0;
    std::size_t confirmed = 0;
    std::size_t fixed = 0;
    std::size_t sanitizerAlso = 0; ///< found AND sanitizer fires
};
std::map<std::string, ColumnCounts>
aggregateByColumn(const std::vector<CampaignResult> &results);

} // namespace compdiff::targets
