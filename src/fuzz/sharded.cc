#include "fuzz/sharded.hh"

#include <algorithm>
#include <utility>

#include "obs/metrics.hh"
#include "support/hash.hh"
#include "support/thread_pool.hh"
#include "vm/coverage.hh"

namespace compdiff::fuzz
{

using support::Bytes;

namespace
{

/** Shard s's RNG seed; shard 0 keeps the campaign seed exactly. */
std::uint64_t
shardSeed(std::uint64_t base, std::size_t shard)
{
    if (shard == 0)
        return base;
    return support::murmurMix64(
        base ^ support::murmurMix64(0x5A44ULL + shard));
}

/** Invert a signature -> index map into index -> signature order. */
template <typename Key>
std::vector<Key>
signaturesByIndex(const std::map<Key, std::size_t> &signatures,
                  std::size_t count)
{
    std::vector<Key> by_index(count);
    for (const auto &[signature, index] : signatures)
        by_index[index] = signature;
    return by_index;
}

} // namespace

obs::FuzzerStatsSnapshot
ShardedResult::statsSnapshot() const
{
    obs::FuzzerStatsSnapshot snapshot;
    snapshot.execsDone = total.execs;
    snapshot.compdiffExecs = total.compdiffExecs;
    snapshot.perConfigExecs = perConfigExecs;
    snapshot.corpusSize = total.seeds;
    snapshot.crashes = total.crashes;
    snapshot.diffs = total.diffs;
    snapshot.edges = total.edges;
    snapshot.lastFindExec = total.lastFindExec;
    snapshot.lastDiffExec = total.lastDiffExec;
    return snapshot;
}

std::vector<ShardPlan>
planShards(const FuzzOptions &options,
           const std::vector<Bytes> &seeds, std::size_t shards)
{
    const std::size_t count = std::max<std::size_t>(shards, 1);
    std::vector<ShardPlan> plans;
    plans.reserve(count);
    const std::uint64_t base_execs = options.maxExecs / count;
    const std::uint64_t extra = options.maxExecs % count;
    for (std::size_t s = 0; s < count; s++) {
        ShardPlan plan;
        plan.options = options;
        plan.options.maxExecs = base_execs + (s < extra ? 1 : 0);
        plan.options.rngSeed = shardSeed(options.rngSeed, s);
        // With several shards, the thread budget belongs to the
        // shard level; nested oracle parallelism would only
        // oversubscribe the pool.
        if (count > 1)
            plan.options.jobs = 1;
        for (std::size_t i = s; i < seeds.size(); i += count)
            plan.seeds.push_back(seeds[i]);
        plans.push_back(std::move(plan));
    }
    return plans;
}

void
runShardFuzzers(std::vector<std::unique_ptr<Fuzzer>> &fuzzers,
                std::size_t jobs)
{
    // Shards share no mutable state: results depend on the shard
    // count only.
    support::runIndexed(fuzzers.size(), jobs,
                        [&](std::size_t s) { fuzzers[s]->run(); });
}

ShardedResult
foldShards(const std::vector<std::unique_ptr<Fuzzer>> &fuzzers)
{
    // Single-threaded fold in deterministic shard order.
    ShardedResult result;
    vm::VirginMap merged_virgin;
    std::map<std::uint64_t, std::size_t> diff_signatures;
    std::map<std::string, std::size_t> crash_signatures;
    for (const auto &fuzzer_ptr : fuzzers) {
        const Fuzzer &fuzzer = *fuzzer_ptr;
        const FuzzStats &stats = fuzzer.stats();
        result.perShard.push_back(stats);

        result.total.execs += stats.execs;
        result.total.compdiffExecs += stats.compdiffExecs;
        result.total.seeds += stats.seeds;
        // Shard-local exec indices: the folded "last find" is the
        // deepest any shard had to dig.
        result.total.lastFindExec = std::max(
            result.total.lastFindExec, stats.lastFindExec);
        result.total.lastDiffExec = std::max(
            result.total.lastDiffExec, stats.lastDiffExec);

        merged_virgin.merge(fuzzer.virginMap());

        for (const auto &diff : fuzzer.diffs()) {
            if (diff_signatures
                    .emplace(diff.signature, result.diffs.size())
                    .second)
                result.diffs.push_back(diff);
        }
        const auto crash_sigs = signaturesByIndex(
            fuzzer.crashSignatures(), fuzzer.crashes().size());
        for (std::size_t i = 0; i < fuzzer.crashes().size(); i++) {
            if (crash_signatures
                    .emplace(crash_sigs[i], result.crashes.size())
                    .second)
                result.crashes.push_back(fuzzer.crashes()[i]);
        }

        const auto &per_config = fuzzer.perConfigExecs();
        const auto shard_snapshot = fuzzer.statsSnapshot();
        if (result.perConfigExecs.empty()) {
            result.perConfigExecs = shard_snapshot.perConfigExecs;
        } else {
            for (std::size_t i = 0; i < per_config.size(); i++)
                result.perConfigExecs[i].second += per_config[i];
        }
    }
    result.total.crashes = result.crashes.size();
    result.total.diffs = result.diffs.size();
    result.total.edges = merged_virgin.edgesSeen();

    if (obs::metricsEnabled()) {
        obs::counter("fuzz.shards").add(fuzzers.size());
        obs::gauge("fuzz.sharded_edges").set(result.total.edges);
    }
    return result;
}

void
writeShardPlots(const std::vector<std::unique_ptr<Fuzzer>> &fuzzers,
                const std::string &plotPath)
{
    if (plotPath.empty())
        return;
    if (fuzzers.size() == 1) {
        obs::writeTextFile(plotPath, fuzzers[0]->plotData().str());
        return;
    }
    for (std::size_t s = 0; s < fuzzers.size(); s++) {
        obs::writeTextFile(plotPath + ".shard" + std::to_string(s),
                           fuzzers[s]->plotData().str());
    }
}

} // namespace compdiff::fuzz
