/**
 * @file
 * Campaign-session tests: the crash-safe checkpoint/resume contract.
 *
 * The invariant under test is the strongest one the design claims: a
 * campaign killed at any iteration and resumed must produce
 * bit-identical results — corpus, diff set, signature set, plot rows,
 * RNG state, the complete FuzzerState — to an uninterrupted run with
 * the same budget, for every --jobs/--shards combination. The tests
 * compare the final shutdown checkpoints byte-for-byte, which covers
 * every field the fuzzer owns, then spot-check the user-visible
 * artifacts (divergence journal, fuzzer_stats) on top.
 *
 * Robustness: a journal whose tail was torn mid-record (hard kill
 * during an append) must resume from the last complete checkpoint
 * and still converge to the identical final state; garbage manifest
 * or journal files must be rejected with a clear diagnostic, never
 * silently restarted.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/cache.hh"
#include "fuzz/sharded.hh"
#include "minic/parser.hh"
#include "obs/stats.hh"
#include "session/checkpoint.hh"
#include "session/heartbeat.hh"
#include "session/serial.hh"
#include "session/session.hh"
#include "vm/coverage.hh"

namespace
{

using namespace compdiff;
using support::Bytes;

/** The oracle-carrying fuzz target from test_fuzz.cc: reading the
 *  uninitialized local diverges across implementations. */
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

const std::vector<Bytes> kSeeds = {{'A'}, {'B', 'C'}};

/** Fresh scratch directory under the system temp dir. */
std::string
freshDir(const std::string &leaf)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("compdiff_" + std::string(info->test_suite_name()) + "_" +
         info->name() + "_" + leaf);
    std::filesystem::remove_all(dir);
    return dir.string();
}

session::SessionConfig
baseConfig(const std::string &dir, std::size_t shards,
           std::size_t jobs)
{
    session::SessionConfig config;
    config.dir = dir;
    config.shards = shards;
    config.jobs = jobs;
    config.fuzz.maxExecs = 1'200;
    return config;
}

/** The final (shutdown) checkpoint payload of every shard. */
std::vector<Bytes>
finalCheckpoints(const std::string &dir, std::size_t shards)
{
    std::vector<Bytes> payloads;
    for (std::size_t s = 0; s < shards; s++) {
        auto payload = session::readLastRecord(
            dir + "/shard-" + std::to_string(s) + ".journal");
        EXPECT_TRUE(payload.has_value());
        payloads.push_back(payload.value_or(Bytes{}));
    }
    return payloads;
}

/** fuzzer_stats minus the wall-clock-dependent lines. */
std::string
stableStatsLines(const std::string &text)
{
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("run_time", 0) == 0 ||
            line.rfind("execs_per_sec", 0) == 0 ||
            line.rfind("session_restarts", 0) == 0) {
            continue;
        }
        out << line << "\n";
    }
    return out.str();
}

void
expectIdenticalRecords(
    const std::vector<session::DivergenceRecord> &a,
    const std::vector<session::DivergenceRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].signature, b[i].signature);
        EXPECT_EQ(a[i].input, b[i].input);
        EXPECT_EQ(a[i].execIndex, b[i].execIndex);
        EXPECT_EQ(a[i].probes, b[i].probes);
        EXPECT_EQ(a[i].hashVector, b[i].hashVector);
    }
}

/**
 * The tentpole invariant, for one (shards, jobs) point: run the
 * campaign uninterrupted in one session, halted-then-resumed in
 * another, and require bit-identical outcomes.
 */
void
checkHaltResumeIdentity(std::size_t shards, std::size_t jobs)
{
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " jobs=" + std::to_string(jobs));
    auto program = minic::parseAndCheck(kUnstableTarget);
    const std::string dir_full =
        freshDir("full_s" + std::to_string(shards) + "_j" +
                 std::to_string(jobs));
    const std::string dir_cut =
        freshDir("cut_s" + std::to_string(shards) + "_j" +
                 std::to_string(jobs));

    // Uninterrupted baseline.
    session::SessionConfig config =
        baseConfig(dir_full, shards, jobs);
    session::CampaignSession full(*program, kSeeds, config);
    full.run();
    ASSERT_TRUE(full.completed());

    // Same campaign, stopped at the half-budget safe point...
    session::SessionConfig cut_config =
        baseConfig(dir_cut, shards, jobs);
    cut_config.haltAfterExecs =
        config.fuzz.maxExecs / (2 * shards);
    {
        session::CampaignSession cut(*program, kSeeds, cut_config);
        cut.run();
        ASSERT_TRUE(cut.halted());
        ASSERT_FALSE(cut.completed());
        ASSERT_LT(cut.result().total.execs, config.fuzz.maxExecs);
    }

    // ...then resumed to completion by a brand-new process-alike.
    session::SessionConfig resume_config =
        baseConfig(dir_cut, shards, jobs);
    resume_config.resume = true;
    session::CampaignSession resumed(*program, kSeeds,
                                     resume_config);
    resumed.run();
    ASSERT_TRUE(resumed.completed());
    EXPECT_EQ(resumed.restarts(), 1u);

    // The complete per-shard fuzzer states are byte-identical:
    // corpus, RNG, virgin map, plot rows, stats, diff + crash sets.
    EXPECT_EQ(finalCheckpoints(dir_full, shards),
              finalCheckpoints(dir_cut, shards));

    // So are the deterministic shard event journals: resume rewinds
    // and re-derives each shard's events from restored state, so a
    // kill+resume run replays the exact byte stream an uninterrupted
    // run would have written.
    for (std::size_t s = 0; s < shards; s++) {
        const std::string leaf =
            "/shard-" + std::to_string(s) + ".events.jsonl";
        const auto events_full =
            session::readTextFile(dir_full + leaf);
        const auto events_cut = session::readTextFile(dir_cut + leaf);
        ASSERT_TRUE(events_full && events_cut) << leaf;
        EXPECT_EQ(*events_full, *events_cut) << leaf;
    }

    // And so is everything user-visible derived from them.
    EXPECT_EQ(full.result().total.execs,
              resumed.result().total.execs);
    EXPECT_EQ(full.result().total.diffs,
              resumed.result().total.diffs);
    EXPECT_EQ(full.result().total.crashes,
              resumed.result().total.crashes);
    EXPECT_EQ(full.result().total.edges,
              resumed.result().total.edges);
    expectIdenticalRecords(full.divergenceRecords(),
                           resumed.divergenceRecords());
    expectIdenticalRecords(
        session::CampaignSession::loadDivergenceRecords(dir_full),
        session::CampaignSession::loadDivergenceRecords(dir_cut));
    const auto stats_full =
        session::readTextFile(dir_full + "/fuzzer_stats");
    const auto stats_cut =
        session::readTextFile(dir_cut + "/fuzzer_stats");
    ASSERT_TRUE(stats_full && stats_cut);
    EXPECT_EQ(stableStatsLines(*stats_full),
              stableStatsLines(*stats_cut));
    const auto cut_stats = obs::parseFuzzerStats(*stats_cut);
    EXPECT_EQ(cut_stats.at("session_restarts"), "1");

    std::filesystem::remove_all(dir_full);
    std::filesystem::remove_all(dir_cut);
}

TEST(SessionResume, BitIdenticalSerialSingleShard)
{
    checkHaltResumeIdentity(/*shards=*/1, /*jobs=*/1);
}

TEST(SessionResume, BitIdenticalSerialSharded)
{
    checkHaltResumeIdentity(/*shards=*/3, /*jobs=*/1);
}

TEST(SessionResume, BitIdenticalThreadedSingleShard)
{
    checkHaltResumeIdentity(/*shards=*/1, /*jobs=*/4);
}

TEST(SessionResume, BitIdenticalThreadedSharded)
{
    checkHaltResumeIdentity(/*shards=*/3, /*jobs=*/4);
}

/**
 * Wall-clock hygiene audit: every wall-clock-derived artifact
 * (session_stats run_secs, heartbeat files) is display-only. A
 * resume that finds those artifacts mangled — absurd run_secs,
 * heartbeats deleted outright — must still converge to the
 * bit-identical campaign outcome, proving wall-clock never feeds a
 * campaign decision. Only exec-index (the deterministic time axis)
 * may do that.
 */
TEST(SessionObservability, WallClockNeverFeedsCampaignDecisions)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    const std::string dir_full = freshDir("full");
    const std::string dir_cut = freshDir("cut");

    session::SessionConfig config = baseConfig(dir_full, 2, 1);
    session::CampaignSession full(*program, kSeeds, config);
    full.run();
    ASSERT_TRUE(full.completed());

    session::SessionConfig cut_config = baseConfig(dir_cut, 2, 1);
    cut_config.haltAfterExecs = 300;
    {
        session::CampaignSession cut(*program, kSeeds, cut_config);
        cut.run();
        ASSERT_TRUE(cut.halted());
    }

    // Mangle every wall-clock artifact the halted session left.
    session::atomicWriteFile(dir_cut + "/session_stats",
                             "run_secs : 99999999.0\n"
                             "restarts : 0\n");
    for (std::size_t s = 0; s < 2; s++) {
        std::filesystem::remove(
            session::heartbeatPath(dir_cut, s));
    }

    session::SessionConfig resume_config = baseConfig(dir_cut, 2, 1);
    resume_config.resume = true;
    session::CampaignSession resumed(*program, kSeeds,
                                     resume_config);
    resumed.run();
    ASSERT_TRUE(resumed.completed());

    EXPECT_EQ(finalCheckpoints(dir_full, 2),
              finalCheckpoints(dir_cut, 2));
    expectIdenticalRecords(
        session::CampaignSession::loadDivergenceRecords(dir_full),
        session::CampaignSession::loadDivergenceRecords(dir_cut));
    for (std::size_t s = 0; s < 2; s++) {
        const std::string leaf =
            "/shard-" + std::to_string(s) + ".events.jsonl";
        const auto events_full =
            session::readTextFile(dir_full + leaf);
        const auto events_cut = session::readTextFile(dir_cut + leaf);
        ASSERT_TRUE(events_full && events_cut);
        EXPECT_EQ(*events_full, *events_cut);
    }

    std::filesystem::remove_all(dir_full);
    std::filesystem::remove_all(dir_cut);
}

TEST(SessionResume, TornJournalTailResumesFromPreviousCheckpoint)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    const std::string dir_full = freshDir("full");
    const std::string dir_torn = freshDir("torn");

    session::SessionConfig config = baseConfig(dir_full, 1, 1);
    config.checkpointEvery = 100;
    session::CampaignSession full(*program, kSeeds, config);
    full.run();

    session::SessionConfig cut_config = baseConfig(dir_torn, 1, 1);
    cut_config.checkpointEvery = 100;
    cut_config.haltAfterExecs = 600;
    {
        session::CampaignSession cut(*program, kSeeds, cut_config);
        cut.run();
        ASSERT_TRUE(cut.halted());
    }

    // Simulate a kill mid-append: tear the last record's tail off.
    const std::string journal = dir_torn + "/shard-0.journal";
    const auto before = session::readRecords(journal);
    ASSERT_GE(before.size(), 2u);
    std::filesystem::resize_file(
        journal, std::filesystem::file_size(journal) - 7);
    const auto after = session::readRecords(journal);
    ASSERT_EQ(after.size(), before.size() - 1);

    // Resume re-does the work since the surviving checkpoint and
    // still converges to the bit-identical final state.
    session::SessionConfig resume_config = baseConfig(dir_torn, 1, 1);
    resume_config.checkpointEvery = 100;
    resume_config.resume = true;
    session::CampaignSession resumed(*program, kSeeds,
                                     resume_config);
    resumed.run();
    ASSERT_TRUE(resumed.completed());
    EXPECT_EQ(finalCheckpoints(dir_full, 1),
              finalCheckpoints(dir_torn, 1));
    expectIdenticalRecords(
        session::CampaignSession::loadDivergenceRecords(dir_full),
        session::CampaignSession::loadDivergenceRecords(dir_torn));

    std::filesystem::remove_all(dir_full);
    std::filesystem::remove_all(dir_torn);
}

TEST(SessionResume, GarbageManifestRejectedWithDiagnostic)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    const std::string dir = freshDir("dir");
    {
        session::SessionConfig config = baseConfig(dir, 1, 1);
        config.haltAfterExecs = 100;
        session::CampaignSession cut(*program, kSeeds, config);
        cut.run();
    }
    {
        std::ofstream out(dir + "/MANIFEST",
                          std::ios::binary | std::ios::trunc);
        out << "This is not a session manifest.\n";
    }
    session::SessionConfig resume_config = baseConfig(dir, 1, 1);
    resume_config.resume = true;
    session::CampaignSession resumed(*program, kSeeds,
                                     resume_config);
    try {
        resumed.run();
        FAIL() << "garbage manifest must not resume";
    } catch (const session::SessionError &error) {
        EXPECT_NE(std::string(error.what()).find("format_version"),
                  std::string::npos)
            << error.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(SessionResume, GarbageJournalRejectedWithDiagnostic)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    const std::string dir = freshDir("dir");
    {
        session::SessionConfig config = baseConfig(dir, 1, 1);
        config.haltAfterExecs = 100;
        session::CampaignSession cut(*program, kSeeds, config);
        cut.run();
    }
    {
        std::ofstream out(dir + "/shard-0.journal",
                          std::ios::binary | std::ios::trunc);
        out << "Definitely not a checkpoint journal.\n";
    }
    session::SessionConfig resume_config = baseConfig(dir, 1, 1);
    resume_config.resume = true;
    session::CampaignSession resumed(*program, kSeeds,
                                     resume_config);
    try {
        resumed.run();
        FAIL() << "garbage journal must not resume";
    } catch (const session::SessionError &error) {
        EXPECT_NE(
            std::string(error.what()).find("not a session journal"),
            std::string::npos)
            << error.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(SessionResume, CorruptCheckpointPayloadRejected)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    const std::string dir = freshDir("dir");
    {
        session::SessionConfig config = baseConfig(dir, 1, 1);
        config.haltAfterExecs = 100;
        session::CampaignSession cut(*program, kSeeds, config);
        cut.run();
    }
    // A well-framed, checksummed record whose *payload* is garbage —
    // past the journal layer, the decoder must still catch it.
    session::appendRecord(dir + "/shard-0.journal",
                          Bytes{1, 2, 3, 4, 5});
    session::SessionConfig resume_config = baseConfig(dir, 1, 1);
    resume_config.resume = true;
    session::CampaignSession resumed(*program, kSeeds,
                                     resume_config);
    try {
        resumed.run();
        FAIL() << "corrupt checkpoint payload must not restore";
    } catch (const session::SessionError &error) {
        EXPECT_NE(std::string(error.what()).find("checkpoint record"),
                  std::string::npos)
            << error.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(SessionResume, MismatchedConfigurationRejected)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    const std::string dir = freshDir("dir");
    {
        session::SessionConfig config = baseConfig(dir, 1, 1);
        config.haltAfterExecs = 100;
        session::CampaignSession cut(*program, kSeeds, config);
        cut.run();
    }
    session::SessionConfig resume_config = baseConfig(dir, 1, 1);
    resume_config.resume = true;
    resume_config.fuzz.rngSeed ^= 1; // a different campaign
    session::CampaignSession resumed(*program, kSeeds,
                                     resume_config);
    try {
        resumed.run();
        FAIL() << "a different campaign must not resume";
    } catch (const session::SessionError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("exact campaign configuration"),
                  std::string::npos)
            << error.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(SessionResume, FreshSessionRefusesOccupiedDirectory)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    const std::string dir = freshDir("dir");
    {
        session::SessionConfig config = baseConfig(dir, 1, 1);
        config.haltAfterExecs = 100;
        session::CampaignSession cut(*program, kSeeds, config);
        cut.run();
    }
    session::SessionConfig config = baseConfig(dir, 1, 1);
    session::CampaignSession clobber(*program, kSeeds, config);
    EXPECT_THROW(clobber.run(), session::SessionError);
    std::filesystem::remove_all(dir);
}

TEST(SessionResume, ResumeWithoutDirectoryRejected)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    session::SessionConfig config;
    config.resume = true;
    config.fuzz.maxExecs = 100;
    session::CampaignSession session(*program, kSeeds, config);
    EXPECT_THROW(session.run(), session::SessionError);
}

TEST(SessionEphemeral, MatchesDirectShardedCampaign)
{
    // A shard is, by definition, one plain Fuzzer per planShards
    // plan: the session's shards must be exactly those runs.
    auto program = minic::parseAndCheck(kUnstableTarget);
    fuzz::FuzzOptions options;
    options.maxExecs = 1'000;
    const auto plans = fuzz::planShards(options, kSeeds, 3);

    session::SessionConfig config;
    config.fuzz = options;
    config.shards = 3;
    session::CampaignSession session(*program, kSeeds, config);
    const auto &via_session = session.run();
    ASSERT_TRUE(session.completed());
    ASSERT_EQ(via_session.perShard.size(), plans.size());

    std::set<std::uint64_t> filed;
    std::size_t next_diff = 0;
    std::uint64_t execs = 0;
    vm::VirginMap edges;
    for (std::size_t s = 0; s < plans.size(); s++) {
        fuzz::Fuzzer direct(*program, plans[s].seeds,
                            plans[s].options);
        const fuzz::FuzzStats stats = direct.run();
        execs += stats.execs;
        edges.merge(direct.virginMap());
        const fuzz::FuzzStats &shard = via_session.perShard[s];
        EXPECT_EQ(stats.execs, shard.execs) << "shard " << s;
        EXPECT_EQ(stats.compdiffExecs, shard.compdiffExecs);
        EXPECT_EQ(stats.seeds, shard.seeds);
        EXPECT_EQ(stats.crashes, shard.crashes);
        EXPECT_EQ(stats.diffs, shard.diffs);
        EXPECT_EQ(stats.edges, shard.edges);
        EXPECT_EQ(stats.lastFindExec, shard.lastFindExec);
        EXPECT_EQ(stats.lastDiffExec, shard.lastDiffExec);
        // The fold keeps each shard's diffs in order, minus the
        // signatures an earlier shard already filed.
        for (const auto &diff : direct.diffs()) {
            if (!filed.insert(diff.signature).second)
                continue;
            ASSERT_LT(next_diff, via_session.diffs.size());
            const auto &folded = via_session.diffs[next_diff++];
            EXPECT_EQ(folded.signature, diff.signature);
            EXPECT_EQ(folded.input, diff.input);
            EXPECT_EQ(folded.execIndex, diff.execIndex);
        }
    }
    EXPECT_EQ(next_diff, via_session.diffs.size());
    EXPECT_EQ(via_session.total.diffs, via_session.diffs.size());
    EXPECT_EQ(via_session.total.execs, execs);
    EXPECT_EQ(via_session.total.edges, edges.edgesSeen());
}

TEST(SessionSerial, FuzzerStateRoundTrips)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    fuzz::FuzzOptions options;
    options.maxExecs = 400;
    fuzz::Fuzzer fuzzer(*program, kSeeds, options);
    fuzzer.run();
    const fuzz::FuzzerState state = fuzzer.captureState();
    const Bytes payload = session::encodeFuzzerState(state);
    const fuzz::FuzzerState back =
        session::decodeFuzzerState(payload);
    EXPECT_EQ(session::encodeFuzzerState(back), payload);
}

TEST(CompileCacheBound, StaysUnderCapDuringShardedSession)
{
    auto program = minic::parseAndCheck(kUnstableTarget);
    auto &cache = compiler::CompileCache::global();
    cache.clear();
    // Tighter than one oracle's worth of modules: the sharded run
    // must evict to stay under the cap, and keep working.
    cache.setLimits(/*max_entries=*/6, /*max_bytes=*/0);

    session::SessionConfig config;
    config.fuzz.maxExecs = 600;
    config.shards = 3;
    session::CampaignSession session(*program, kSeeds, config);
    session.run();

    EXPECT_LE(cache.size(), 6u);
    EXPECT_GT(cache.misses(), 0u);
    EXPECT_GT(cache.evictions(), 0u);

    cache.setLimits(compiler::CompileCache::kDefaultMaxEntries,
                    compiler::CompileCache::kDefaultMaxBytes);
    cache.clear();
}

TEST(CompileCacheBound, LruEvictsOldestAndCountsBytes)
{
    auto &cache = compiler::CompileCache::global();
    cache.clear();
    cache.setLimits(/*max_entries=*/2, /*max_bytes=*/0);

    auto a = minic::parseAndCheck("int main() { return 1; }");
    auto b = minic::parseAndCheck("int main() { return 2; }");
    auto c = minic::parseAndCheck("int main() { return 3; }");
    const compiler::CompilerConfig config;
    compiler::compileCached(*a, config);
    compiler::compileCached(*b, config);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_GT(cache.bytesUsed(), 0u);
    const std::uint64_t evictions_before = cache.evictions();
    compiler::compileCached(*c, config); // evicts a
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), evictions_before + 1);
    // b and c are resident (hits); a was evicted (miss again).
    const std::uint64_t misses_before = cache.misses();
    compiler::compileCached(*b, config);
    compiler::compileCached(*c, config);
    EXPECT_EQ(cache.misses(), misses_before);
    compiler::compileCached(*a, config);
    EXPECT_EQ(cache.misses(), misses_before + 1);

    cache.setLimits(compiler::CompileCache::kDefaultMaxEntries,
                    compiler::CompileCache::kDefaultMaxBytes);
    cache.clear();
}

} // namespace
