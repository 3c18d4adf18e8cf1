/**
 * @file
 * Fleet-mode tests: multi-process coordination, crash revival, and
 * the bit-identity contract under worker death.
 *
 * The invariant under test extends test_session.cc's strongest claim
 * across process boundaries: kill -9 any fleet *worker process* at
 * any time, and the finished campaign's checkpoints, event journals,
 * divergence journal, and fuzzer_stats are byte-identical to a
 * single-process run of the same campaign. The revival matrix
 * exercises it for 1-worker and 3-worker fleets with the kill landing
 * early (before the first cadence checkpoint is likely) and late
 * (after saved progress exists, so the revived worker must resume
 * mid-shard rather than restart).
 *
 * The lease tests pin down the mutual-exclusion token: disjoint
 * chunk assignment, double-spawn refusal against a live holder, and
 * dead-holder breaking. The deadline test covers the wall-clock
 * budget: SIGTERM'd workers checkpoint and exit, and rerunning the
 * same command finishes the campaign — still byte-identically.
 *
 * The worker/coordinator processes run the real `compdiff_fleet`
 * binary (COMPDIFF_FLEET_BIN, wired in tests/CMakeLists.txt), so the
 * argv protocol is under test too.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hh"
#include "minic/parser.hh"
#include "obs/events.hh"
#include "session/checkpoint.hh"
#include "session/heartbeat.hh"
#include "session/lease.hh"
#include "session/session.hh"
#include "targets/targets.hh"

namespace
{

using namespace compdiff;
using support::Bytes;

/** A pid far above any default pid_max namespace still in use —
 *  probes ESRCH, i.e. a dead lease holder. */
constexpr std::uint64_t kDeadPid = 4194303;

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

session::ShardLease
makeLease(std::size_t shard, std::uint64_t pid)
{
    session::ShardLease lease;
    lease.shard = shard;
    lease.pid = pid;
    return lease;
}

/** The final (shutdown) checkpoint payload of every shard. */
std::vector<Bytes>
finalCheckpoints(const std::string &dir, std::size_t shards)
{
    std::vector<Bytes> payloads;
    for (std::size_t s = 0; s < shards; s++) {
        auto payload = session::readLastRecord(
            dir + "/shard-" + std::to_string(s) + ".journal");
        EXPECT_TRUE(payload.has_value()) << "shard " << s;
        payloads.push_back(payload.value_or(Bytes{}));
    }
    return payloads;
}

std::string
readFileOr(const std::string &path, const std::string &fallback)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fallback;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
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

// --- the fleet binary under test ---------------------------------

std::string
fleetBinary()
{
#ifdef COMPDIFF_FLEET_BIN
    return COMPDIFF_FLEET_BIN;
#else
    return "";
#endif
}

/** Spawn the fleet binary with `args`; stdout/stderr silenced. */
pid_t
launchFleet(const std::vector<std::string> &args)
{
    std::vector<std::string> owned;
    owned.push_back(fleetBinary());
    owned.insert(owned.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (auto &arg : owned)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::freopen("/dev/null", "w", stdout);
        ::freopen("/dev/null", "w", stderr);
        ::execv(argv[0], argv.data());
        _exit(127);
    }
    return pid;
}

int
waitExit(pid_t pid)
{
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** The campaign every multi-process test runs: pktdump, a real
 *  divergence-rich target, split into 3 deterministic shards. */
constexpr std::uint64_t kFleetExecs = 6'000;
constexpr std::size_t kFleetShards = 3;
constexpr std::uint64_t kCheckpointEvery = 200;

std::vector<std::string>
fleetArgs(const std::string &dir, std::size_t workers)
{
    return {"--target=pktdump",
            "--fuzz=" + std::to_string(kFleetExecs),
            "--shards=" + std::to_string(kFleetShards),
            "--checkpoint-every=" + std::to_string(kCheckpointEvery),
            "--heartbeat-every=0.05",
            "--workers=" + std::to_string(workers),
            "--poll-every=0.02",
            "--quiet",
            "--session=" + dir};
}

/** Single-process reference run of the same campaign (the identity
 *  baseline), persisted so artifacts can be byte-compared. */
void
runReference(const std::string &dir)
{
    const targets::TargetProgram *target =
        targets::findTarget("pktdump");
    ASSERT_NE(target, nullptr);
    auto program = minic::parseAndCheck(target->source);
    session::SessionConfig config;
    config.dir = dir;
    config.shards = kFleetShards;
    config.checkpointEvery = kCheckpointEvery;
    config.fuzz.maxExecs = kFleetExecs;
    session::CampaignSession session(*program, target->seeds,
                                     config);
    session.run();
    ASSERT_TRUE(session.completed());
}

/** Kill -9 one live lease-holding worker. `late` first waits for
 *  saved progress (a cadence checkpoint) so the revival must resume
 *  mid-shard. Returns true when a kill landed. */
bool
killOneWorker(const std::string &dir, bool late)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        if (late) {
            bool progressed = false;
            for (std::size_t s = 0; s < kFleetShards && !progressed;
                 s++) {
                try {
                    const auto payload = session::readLastRecord(
                        dir + "/shard-" + std::to_string(s) +
                        ".journal");
                    progressed =
                        payload.has_value() && !payload->empty();
                } catch (const session::SessionError &) {
                }
            }
            if (!progressed) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                continue;
            }
        }
        for (std::size_t s = 0; s < kFleetShards; s++) {
            const auto lease = session::readShardLease(dir, s);
            if (!lease || lease->pid == 0)
                continue;
            if (::kill(static_cast<pid_t>(lease->pid), SIGKILL) ==
                0) {
                return true;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

std::uint64_t
countFleetEvents(const std::string &dir, const std::string &kind)
{
    std::uint64_t count = 0;
    for (const auto &event :
         obs::readEventLog(dir + "/fleet.jsonl").events) {
        if (event.kind == kind)
            count++;
    }
    return count;
}

/** Byte-compare every deterministic artifact of two finished
 *  sessions of the same campaign. */
void
expectIdenticalSessions(const std::string &got,
                        const std::string &want)
{
    EXPECT_EQ(finalCheckpoints(got, kFleetShards),
              finalCheckpoints(want, kFleetShards));
    for (std::size_t s = 0; s < kFleetShards; s++) {
        const std::string leaf =
            "/shard-" + std::to_string(s) + ".events.jsonl";
        EXPECT_EQ(readFileOr(got + leaf, "<missing got>"),
                  readFileOr(want + leaf, "<missing want>"))
            << "shard " << s << " event journal";
    }
    EXPECT_EQ(
        readFileOr(got + "/divergences.journal", "<missing got>"),
        readFileOr(want + "/divergences.journal",
                   "<missing want>"));
    EXPECT_EQ(
        stableStatsLines(readFileOr(got + "/fuzzer_stats", "")),
        stableStatsLines(readFileOr(want + "/fuzzer_stats", "")));
}

// --- leases -------------------------------------------------------

TEST(FleetLease, RoundTripAndPaths)
{
    session::ShardLease lease;
    lease.shard = 7;
    lease.worker = 2;
    lease.pid = 1234;
    lease.generation = 3;
    lease.acquiredUnix = 1700000000.5;
    const auto parsed =
        session::parseLease(session::renderLease(lease));
    EXPECT_EQ(parsed.shard, lease.shard);
    EXPECT_EQ(parsed.worker, lease.worker);
    EXPECT_EQ(parsed.pid, lease.pid);
    EXPECT_EQ(parsed.generation, lease.generation);
    EXPECT_NEAR(parsed.acquiredUnix, lease.acquiredUnix, 1.0);
    EXPECT_EQ(session::leasePath("/tmp/x", 7),
              "/tmp/x/shard-7.lease");
}

TEST(FleetLease, LiveHolderRefusesDeadHolderBreaks)
{
    const std::string dir = freshDir("leases");
    std::filesystem::create_directories(dir);

    // pid 1 is alive on any Linux (init/pid-namespace root): a
    // second acquirer must be refused with the holder reported.
    ASSERT_EQ(session::acquireShardLease(dir, makeLease(0, 1)),
              session::LeaseOutcome::Acquired);
    session::ShardLease holder;
    EXPECT_EQ(session::acquireShardLease(
                  dir, makeLease(0, static_cast<std::uint64_t>(
                                        ::getpid())),
                  &holder),
              session::LeaseOutcome::Held);
    EXPECT_EQ(holder.pid, 1u);

    // A dead holder's lease is broken and taken over.
    ASSERT_EQ(
        session::acquireShardLease(dir, makeLease(1, kDeadPid)),
        session::LeaseOutcome::Acquired);
    EXPECT_EQ(session::acquireShardLease(
                  dir, makeLease(1, static_cast<std::uint64_t>(
                                        ::getpid()))),
              session::LeaseOutcome::Acquired);
    const auto taken = session::readShardLease(dir, 1);
    ASSERT_TRUE(taken.has_value());
    EXPECT_EQ(taken->pid, static_cast<std::uint64_t>(::getpid()));

    // Release is pid-gated: a stranger's release is a no-op, the
    // holder's removes the file.
    EXPECT_FALSE(session::releaseShardLease(dir, 1, kDeadPid));
    EXPECT_TRUE(session::readShardLease(dir, 1).has_value());
    EXPECT_TRUE(session::releaseShardLease(
        dir, 1, static_cast<std::uint64_t>(::getpid())));
    EXPECT_FALSE(session::readShardLease(dir, 1).has_value());
}

TEST(FleetLease, ReacquireOwnShard)
{
    const std::string dir = freshDir("own");
    std::filesystem::create_directories(dir);
    const auto mine =
        makeLease(0, static_cast<std::uint64_t>(::getpid()));
    ASSERT_EQ(session::acquireShardLease(dir, mine),
              session::LeaseOutcome::Acquired);
    // A revived worker re-running its shard list re-acquires its own
    // lease instead of refusing itself.
    EXPECT_EQ(session::acquireShardLease(dir, mine),
              session::LeaseOutcome::Acquired);
}

// --- shard chunking ----------------------------------------------

TEST(FleetChunks, DisjointEvenAndOrdered)
{
    const std::vector<std::size_t> pending = {0, 1, 2, 3, 4, 5, 6};
    const auto chunks = fleet::chunkShards(pending, 3);
    ASSERT_EQ(chunks.size(), 3u);
    std::set<std::size_t> seen;
    std::size_t total = 0;
    for (const auto &chunk : chunks) {
        ASSERT_FALSE(chunk.empty());
        EXPECT_LE(chunk.size(), 3u);
        EXPECT_GE(chunk.size(), 2u);
        for (const std::size_t shard : chunk) {
            EXPECT_TRUE(seen.insert(shard).second)
                << "shard " << shard << " assigned twice";
            total++;
        }
    }
    EXPECT_EQ(total, pending.size());

    // More slots than shards: one shard per chunk, no empties.
    const auto wide = fleet::chunkShards({4, 9}, 5);
    ASSERT_EQ(wide.size(), 2u);
    EXPECT_EQ(wide[0], std::vector<std::size_t>{4});
    EXPECT_EQ(wide[1], std::vector<std::size_t>{9});

    EXPECT_TRUE(fleet::chunkShards({}, 3).empty());
}

TEST(FleetChunks, WorkerArgsRoundTrip)
{
    fleet::WorkerSpec spec;
    spec.shards = {1, 3, 5};
    spec.worker = 4;
    spec.generation = 17;
    fleet::WorkerSpec parsed;
    for (const auto &arg : fleet::workerArgs(spec))
        EXPECT_TRUE(fleet::parseWorkerArg(arg, &parsed)) << arg;
    EXPECT_EQ(parsed.shards, spec.shards);
    EXPECT_EQ(parsed.worker, spec.worker);
    EXPECT_EQ(parsed.generation, spec.generation);
    EXPECT_FALSE(fleet::parseWorkerArg("--unrelated=x", &parsed));
}

// --- worker entry point ------------------------------------------

TEST(FleetWorker, DoubleSpawnRefusedViaLease)
{
    const std::string dir = freshDir("dup");
    std::filesystem::create_directories(dir);
    // Shard 1 is owned by a live process (pid 1): a worker assigned
    // {0, 1} must release shard 0 again and yield — never run a
    // second fuzzer on a leased shard.
    ASSERT_EQ(session::acquireShardLease(dir, makeLease(1, 1)),
              session::LeaseOutcome::Acquired);

    const targets::TargetProgram *target =
        targets::findTarget("pktdump");
    ASSERT_NE(target, nullptr);
    auto program = minic::parseAndCheck(target->source);
    session::SessionConfig config;
    config.dir = dir;
    config.shards = kFleetShards;
    config.fuzz.maxExecs = kFleetExecs;
    fleet::WorkerSpec spec;
    spec.shards = {0, 1};
    EXPECT_EQ(fleet::runWorker(*program, target->seeds, config,
                               spec),
              fleet::kWorkerExitLeaseHeld);
    // Shard 0's lease was released on the way out; shard 1's holder
    // kept its token.
    EXPECT_FALSE(session::readShardLease(dir, 0).has_value());
    const auto kept = session::readShardLease(dir, 1);
    ASSERT_TRUE(kept.has_value());
    EXPECT_EQ(kept->pid, 1u);
}

// --- the multi-process matrix ------------------------------------

struct RevivalCase
{
    std::size_t workers;
    bool late;
};

class FleetRevival
    : public ::testing::TestWithParam<RevivalCase>
{};

/** kill -9 a worker mid-campaign; the finished fleet session must be
 *  byte-identical to an uninterrupted single-process run. */
TEST_P(FleetRevival, KilledWorkerRevivesBitExact)
{
    ASSERT_FALSE(fleetBinary().empty());
    const RevivalCase param = GetParam();
    const std::string fleetDir = freshDir("fleet");
    const std::string refDir = freshDir("ref");
    std::filesystem::create_directories(fleetDir);

    const pid_t coordinator =
        launchFleet(fleetArgs(fleetDir, param.workers));
    ASSERT_GT(coordinator, 0);
    const bool killed = killOneWorker(fleetDir, param.late);
    const int code = waitExit(coordinator);
    // 0 = no divergences, 1 = divergences found — both complete.
    EXPECT_TRUE(code == 0 || code == 1) << "exit code " << code;

    runReference(refDir);
    expectIdenticalSessions(fleetDir, refDir);

    // The kill must actually have landed and been revived (a miss
    // would silently downgrade this test to the no-kill smoke).
    EXPECT_TRUE(killed);
    EXPECT_GE(countFleetEvents(fleetDir, "fleet_revive"), 1u);
    EXPECT_GE(countFleetEvents(fleetDir, "fleet_dead"), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FleetRevival,
    ::testing::Values(RevivalCase{1, false}, RevivalCase{1, true},
                      RevivalCase{3, false}, RevivalCase{3, true}),
    [](const ::testing::TestParamInfo<RevivalCase> &info) {
        return "workers" + std::to_string(info.param.workers) +
               (info.param.late ? "_late" : "_early");
    });

/** Deadline → checkpointed partial state; rerunning the same command
 *  (with a different worker count — elasticity) finishes the
 *  campaign byte-identically. */
TEST(FleetDeadline, HaltsResumablyThenElasticRerunFinishes)
{
    ASSERT_FALSE(fleetBinary().empty());
    const std::string fleetDir = freshDir("fleet");
    const std::string refDir = freshDir("ref");
    std::filesystem::create_directories(fleetDir);

    auto first = fleetArgs(fleetDir, 2);
    first.push_back("--deadline=0.3");
    ASSERT_EQ(waitExit(launchFleet(first)), 4);

    // SIGTERM'd workers released their shard leases on exit.
    for (std::size_t s = 0; s < kFleetShards; s++)
        EXPECT_FALSE(session::readShardLease(fleetDir, s)
                         .has_value())
            << "shard " << s;
    EXPECT_GE(countFleetEvents(fleetDir, "fleet_deadline"), 1u);

    // Rerun with a different slot count: late joiners pick up the
    // unleased shards and the campaign completes.
    const int code = waitExit(launchFleet(fleetArgs(fleetDir, 3)));
    EXPECT_TRUE(code == 0 || code == 1) << "exit code " << code;

    runReference(refDir);
    expectIdenticalSessions(fleetDir, refDir);
}

} // namespace
