#pragma once

/**
 * @file
 * Sharded fuzz campaigns (AFL++'s -M/-S instance model, in-process):
 * the plan / run / fold stages session::CampaignSession drives.
 *
 * A sharded campaign splits one fuzzing budget into S independent
 * sub-campaigns ("shards"). Each shard owns everything it mutates —
 * its Fuzzer, RNG stream, corpus, coverage map, and stats block — so
 * shards run with zero shared mutable state and zero locks; the
 * driver folds the per-shard results only after every shard has
 * finished (merged coverage bitmap, signature-deduplicated diffs and
 * crashes, summed stats).
 *
 * Determinism contract (the part worth reading twice):
 *   - `shards` defines the campaign. Shard s derives its RNG seed,
 *     its budget slice, and its round-robin share of the seed pool
 *     purely from (options, s).
 *   - `jobs` is only a thread count for *executing* those shards.
 *     Results are bit-identical for jobs=1 and jobs=N because no
 *     shard ever observes another shard's timing — exactly the same
 *     argument that makes DiffOptions::jobs result-neutral.
 * This mirrors AFL++, where the number of -S instances shapes the
 * campaign but the machine's core count does not.
 *
 * The stages are separate so that the session can own the per-shard
 * Fuzzers between them: it restores checkpoints into them before the
 * run, journals their state during it, and writes the campaign's
 * files after the fold. There is no other campaign driver.
 */

#include <cstddef>
#include <memory>
#include <vector>

#include "fuzz/fuzzer.hh"

namespace compdiff::fuzz
{

/** Everything that defines one shard: its options and seed share. */
struct ShardPlan
{
    FuzzOptions options;
    std::vector<support::Bytes> seeds;
};

/** Folded outcome of a sharded campaign. */
struct ShardedResult
{
    /** Summed/deduped totals (see field comments below). */
    FuzzStats total;
    /** Each shard's own stats block, shard order. */
    std::vector<FuzzStats> perShard;
    /** Unique divergences across shards (signature-deduplicated,
     *  first-seen in shard order; execIndex is shard-local). */
    std::vector<FoundDiff> diffs;
    /** Unique crashes across shards (same dedup discipline). */
    std::vector<FoundCrash> crashes;
    /** Per-implementation executions folded in config order. */
    std::vector<std::pair<std::string, std::uint64_t>>
        perConfigExecs;

    /** Merged AFL++-style `fuzzer_stats` snapshot. */
    obs::FuzzerStatsSnapshot statsSnapshot() const;
};

/**
 * Derive the per-shard plans from one campaign description.
 *
 * Budget: options.maxExecs is split evenly (low shards take the
 * remainder). Seeds: round-robin by index. RNG: shard 0 keeps
 * options.rngSeed (shards=1 therefore reproduces a plain Fuzzer run
 * exactly); shard s>0 mixes s into the seed. With several shards the
 * per-shard oracle runs serially (jobs forced to 1) — the thread
 * budget belongs to the shard level.
 */
std::vector<ShardPlan>
planShards(const FuzzOptions &options,
           const std::vector<support::Bytes> &seeds,
           std::size_t shards);

/**
 * Run the shard fuzzers to completion (or until their iteration
 * hooks halt them) on up to `jobs` threads (0 = one per hardware
 * thread; see support::runIndexed). Shards share no mutable state,
 * so the thread count cannot change any result.
 */
void runShardFuzzers(std::vector<std::unique_ptr<Fuzzer>> &fuzzers,
                     std::size_t jobs);

/**
 * Fold finished shards in deterministic shard order: merged virgin
 * map, signature-deduplicated diffs/crashes (first shard wins),
 * summed stats and per-config execution counts.
 */
ShardedResult
foldShards(const std::vector<std::unique_ptr<Fuzzer>> &fuzzers);

/**
 * Write each shard's `plot_data` series. A single shard keeps the
 * plain filename (the sharded runner is then a drop-in for a plain
 * Fuzzer run); several shards get a ".shard<N>" suffix each.
 */
void
writeShardPlots(const std::vector<std::unique_ptr<Fuzzer>> &fuzzers,
                const std::string &plotPath);

} // namespace compdiff::fuzz
