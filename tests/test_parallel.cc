/**
 * @file
 * Determinism tests for the parallel execution layer: the engine's
 * thread pool (DiffOptions::jobs), sharded fuzz campaigns, and the
 * content-addressed compile cache. The contract under test is
 * the strongest one: results must be bit-identical between jobs=1
 * and jobs=N — parallelism buys wall-clock only, never different
 * observations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "compiler/cache.hh"
#include "compiler/config.hh"
#include "fuzz/sharded.hh"
#include "minic/parser.hh"
#include "obs/stats.hh"

namespace
{

using namespace compdiff;
using core::DiffEngine;
using core::DiffOptions;
using core::DiffResult;
using support::Bytes;

void
expectIdentical(const DiffResult &a, const DiffResult &b)
{
    EXPECT_EQ(a.divergent, b.divergent);
    EXPECT_EQ(a.unresolvedTimeout, b.unresolvedTimeout);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.classOf, b.classOf);
    EXPECT_EQ(a.classCount, b.classCount);
    EXPECT_EQ(a.hashVector(), b.hashVector());
    ASSERT_EQ(a.observations.size(), b.observations.size());
    for (std::size_t i = 0; i < a.observations.size(); i++) {
        const auto &oa = a.observations[i];
        const auto &ob = b.observations[i];
        EXPECT_EQ(oa.impl, ob.impl);
        EXPECT_EQ(oa.normalizedOutput, ob.normalizedOutput);
        EXPECT_EQ(oa.exitClass, ob.exitClass);
        EXPECT_EQ(oa.hash, ob.hash);
        EXPECT_EQ(oa.timedOut, ob.timedOut);
        EXPECT_EQ(oa.instructions, ob.instructions);
    }
}

TEST(ParallelEngine, BitIdenticalAcrossJobCounts)
{
    // Listing 1's unstable overflow guard: inputs steer it across
    // the accept/reject boundary, and the engine diverges on some.
    auto program = minic::parseAndCheck(R"(
        int check(int offset, int len) {
            if (offset < 0 || len < 0) { return -1; }
            if (offset + len < offset) { return -1; }
            return 0;
        }
        int main() {
            int offset = 2147483647 - input_byte(0);
            int len = input_byte(1);
            if (check(offset, len) < 0) { print_str("rejected"); }
            else { print_str("accepted"); }
            print_int(offset % 7);
            return 0;
        }
    )");
    DiffOptions serial;
    serial.jobs = 1;
    DiffOptions parallel = serial;
    parallel.jobs = 4;
    DiffEngine engine1(*program,
                       compiler::standardImplementations(), serial);
    DiffEngine engine4(*program,
                       compiler::standardImplementations(),
                       parallel);
    bool saw_divergent = false;
    for (std::uint8_t a = 0; a < 12; a++) {
        const Bytes input = {a, static_cast<std::uint8_t>(a * 21)};
        auto r1 = engine1.runInput(input, a);
        auto r4 = engine4.runInput(input, a);
        expectIdentical(r1, r4);
        saw_divergent |= r1.divergent;
    }
    EXPECT_TRUE(saw_divergent);
}

TEST(ParallelEngine, TimeoutRoundsIdenticalAcrossJobCounts)
{
    // A loop whose cost varies per optimization level (the constant
    // subexpression folds away above O0), run under a budget wedged
    // between the cheapest and the costliest implementation: that
    // forces a *partial* timeout and hence the RQ6 retry machinery.
    // The retry accounting must not depend on scheduling either.
    auto program = minic::parseAndCheck(R"(
        int main() {
            int n = 200 + input_byte(0);
            int sum = 0;
            for (int i = 0; i < n; i = i + 1) {
                sum = sum + (3 * 4 + 5) + i - (7 * 2);
            }
            print_int(sum);
            return 0;
        }
    )");
    // Calibrate: measure every implementation's true cost first.
    DiffEngine probe(*program);
    const auto base = probe.runInput({5}, 99);
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    for (const auto &obs : base.observations) {
        lo = std::min(lo, obs.instructions);
        hi = std::max(hi, obs.instructions);
    }
    ASSERT_LT(lo, hi) << "costs must differ across configs";

    DiffOptions serial;
    serial.limits.maxInstructions = (lo + hi) / 2;
    serial.jobs = 1;
    DiffOptions parallel = serial;
    parallel.jobs = 4;
    DiffEngine engine1(*program,
                       compiler::standardImplementations(), serial);
    DiffEngine engine4(*program,
                       compiler::standardImplementations(),
                       parallel);
    bool saw_retry = false;
    for (std::uint8_t b = 0; b < 8; b++) {
        auto r1 = engine1.runInput({b}, b);
        auto r4 = engine4.runInput({b}, b);
        expectIdentical(r1, r4);
        saw_retry |= r1.attempts > 1;
    }
    EXPECT_TRUE(saw_retry);
}

/** The oracle-carrying fuzz target from test_fuzz.cc. */
const char *kUnstableTarget = R"(
    int main() {
        if (input_byte(0) == 'U') {
            int l;
            print_int(l);
            probe(42);
        } else {
            print_str("fine");
        }
        return 0;
    }
)";

void
expectIdentical(const fuzz::FuzzStats &a, const fuzz::FuzzStats &b)
{
    EXPECT_EQ(a.execs, b.execs);
    EXPECT_EQ(a.compdiffExecs, b.compdiffExecs);
    EXPECT_EQ(a.seeds, b.seeds);
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.diffs, b.diffs);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.lastFindExec, b.lastFindExec);
    EXPECT_EQ(a.lastDiffExec, b.lastDiffExec);
}

/**
 * Run one campaign at jobs 1 and 4 and require identical results.
 * `jobs` means what --jobs means: shard threads with several shards
 * (planShards then pins the oracle to 1), the oracle's pool with one.
 */
void
expectJobsInvariant(const minic::Program &program,
                    fuzz::FuzzOptions options, std::size_t shards)
{
    const std::vector<Bytes> seeds = {{'A'}, {'B', 'C'}};
    options.jobs = 1;
    auto serial = fuzz::runShardedCampaign(program, seeds, options,
                                           shards, /*jobs=*/1);
    options.jobs = 4;
    auto threaded = fuzz::runShardedCampaign(program, seeds, options,
                                             shards, /*jobs=*/4);

    expectIdentical(serial.total, threaded.total);
    ASSERT_EQ(serial.perShard.size(), shards);
    ASSERT_EQ(threaded.perShard.size(), shards);
    for (std::size_t s = 0; s < shards; s++)
        expectIdentical(serial.perShard[s], threaded.perShard[s]);
    ASSERT_EQ(serial.diffs.size(), threaded.diffs.size());
    for (std::size_t i = 0; i < serial.diffs.size(); i++) {
        EXPECT_EQ(serial.diffs[i].input, threaded.diffs[i].input);
        EXPECT_EQ(serial.diffs[i].execIndex,
                  threaded.diffs[i].execIndex);
    }
    // The merged fuzzer_stats render must match byte-for-byte
    // (execsPerSec stays 0 in the snapshot: exec-count time axis).
    EXPECT_EQ(obs::renderFuzzerStats(serial.statsSnapshot()),
              obs::renderFuzzerStats(threaded.statsSnapshot()));
}

TEST(ParallelEngine, PoolStartsAtMostKMinusOneThreads)
{
    // runRound hands the pool one task per implementation and the
    // calling thread runs tasks too, so a k = 2 engine needs one
    // worker however many jobs it is given.
    const auto threads = [] {
        return std::distance(
            std::filesystem::directory_iterator("/proc/self/task"),
            std::filesystem::directory_iterator());
    };
    auto program = minic::parseAndCheck(
        "int main() { print_int(input_byte(0)); return 0; }");
    DiffOptions options;
    options.jobs = 8;
    const auto before = threads();
    DiffEngine engine(
        *program,
        core::ImplementationRegistry::global().parse(
            "gcc:-O0,clang:-O2"),
        options);
    EXPECT_EQ(threads() - before, 1);
    EXPECT_FALSE(engine.runInput({7}).divergent);
}

TEST(ShardedCampaign, BitIdenticalAcrossJobCounts)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    fuzz::FuzzOptions options;
    options.maxExecs = 1'500;
    expectJobsInvariant(*program, options, /*shards=*/3);
    // NEZHA feedback flushes the oracle queue after every execution;
    // at one shard, jobs is the oracle's pool width, so this campaign
    // drives the pool one input at a time.
    options.divergenceFeedback = true;
    expectJobsInvariant(*program, options, /*shards=*/1);
}

TEST(ShardedCampaign, SingleShardReproducesPlainFuzzer)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    fuzz::FuzzOptions options;
    options.maxExecs = 1'000;
    const std::vector<Bytes> seeds = {{'A'}};

    fuzz::Fuzzer plain(*program, seeds, options);
    plain.run();
    auto sharded = fuzz::runShardedCampaign(
        *program, seeds, options, /*shards=*/1, /*jobs=*/1);

    expectIdentical(plain.stats(), sharded.total);
    ASSERT_EQ(plain.diffs().size(), sharded.diffs.size());
    for (std::size_t i = 0; i < sharded.diffs.size(); i++)
        EXPECT_EQ(plain.diffs()[i].input, sharded.diffs[i].input);
    EXPECT_EQ(obs::renderFuzzerStats(plain.statsSnapshot()),
              obs::renderFuzzerStats(sharded.statsSnapshot()));
}

TEST(ShardedCampaign, ShardCountSplitsBudgetExactly)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    fuzz::FuzzOptions options;
    options.maxExecs = 1'001; // deliberately not divisible by 3
    auto result = fuzz::runShardedCampaign(*program, {{'A'}},
                                           options, /*shards=*/3);
    EXPECT_EQ(result.total.execs, 1'001u);
    ASSERT_EQ(result.perShard.size(), 3u);
    EXPECT_EQ(result.perShard[0].execs, 334u);
    EXPECT_EQ(result.perShard[1].execs, 334u);
    EXPECT_EQ(result.perShard[2].execs, 333u);
}

TEST(CompileCache, SecondEngineIsAllHits)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    auto &cache = compiler::CompileCache::global();
    cache.clear();
    DiffEngine first(*program);
    const std::size_t entries = cache.size();
    EXPECT_GE(entries, first.size());
    const std::uint64_t hits_before = cache.hits();
    DiffEngine second(*program);
    EXPECT_EQ(cache.size(), entries); // nothing recompiled
    EXPECT_GE(cache.hits() - hits_before, second.size());
}

TEST(CompileCache, TraitsTweakGetsOwnEntries)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    auto &cache = compiler::CompileCache::global();
    cache.clear();
    DiffEngine stock(*program);
    const std::size_t entries = cache.size();
    DiffOptions ablated;
    ablated.traitsTweak = [](compiler::Traits &traits) {
        traits.foldUbGuards = false;
        traits.alwaysTrueIncCmp = false;
    };
    DiffEngine tweaked(*program,
                       compiler::standardImplementations(), ablated);
    // The ablation changes at least one configuration's traits, so
    // the cache must grow — tweaked modules are distinct entries.
    EXPECT_GT(cache.size(), entries);
}

TEST(CompileCache, FingerprintSeesEveryTraitFlip)
{
    compiler::Traits traits;
    const std::uint64_t base = compiler::traitsFingerprint(traits);
    compiler::Traits flipped = traits;
    flipped.foldUbGuards = !flipped.foldUbGuards;
    EXPECT_NE(compiler::traitsFingerprint(flipped), base);
    flipped = traits;
    flipped.stackFill = 0xAA;
    EXPECT_NE(compiler::traitsFingerprint(flipped), base);
    flipped = traits;
    flipped.freelistLifo = !flipped.freelistLifo;
    EXPECT_NE(compiler::traitsFingerprint(flipped), base);
}

} // namespace
