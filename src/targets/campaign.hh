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
#include "session/session.hh"
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
    /** Reduction outcomes when config.triage.reduceFound is set,
     *  one per unique divergence in shard-fold order. */
    std::vector<reduce::DivergenceReport> reports;
    /** True when the campaign stopped at a session halt point
     *  (stats are the partial fold; triage was skipped — resume the
     *  session to finish). */
    bool halted = false;
};

/**
 * The harness's campaign defaults: 60,000 executions, seed 0xA11CE,
 * inputs of at most 64 bytes, and per-execution limits of 200k
 * instructions, a 16 KiB stack and a 32 KiB heap. The targets are
 * small record parsers that saturate well below AFL's input ceiling,
 * and modest segments keep the per-run setup cost (the forkserver-
 * analog overhead) low. One shard, one job, nothing persisted.
 */
session::SessionConfig campaignConfig();

/**
 * Run CompDiff-AFL++ on one target as a session::CampaignSession
 * with `config`, then triage its divergences back to the planted
 * bugs. A non-empty `config.dir` or `config.triage.reportsDir` names
 * a parent directory: this target's session and report bundles go
 * under `<dir>/<target>/`. With `check_sanitizers`, each bug's
 * minimized witness also runs on the three sanitizer builds
 * (Table 6).
 */
CampaignResult runCampaign(const TargetProgram &target,
                           const session::SessionConfig &config,
                           bool check_sanitizers);

/** Run campaigns on every target. */
std::vector<CampaignResult>
runAllCampaigns(const session::SessionConfig &config,
                bool check_sanitizers);

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
