/**
 * @file
 * Pinned work counters of two fixed workloads.
 *
 * Wall time varies from host to host and run to run; the work behind
 * it does not. These tests count it exactly: guest instructions,
 * oracle executions, compiles and compile-cache traffic, parses,
 * normalizer calls, reduction candidates and the bytes a session
 * persists. A change that makes the pipeline do more (an extra
 * compile per reduction candidate, an extra oracle round per input, a
 * compile that goes around the cache) moves a count and fails here.
 *
 * The workloads run at jobs 1 from an empty compile cache: at higher
 * job counts, concurrent misses of one key race, and the cache counts
 * vary. Only a change meant to alter the work may update the
 * constants; on failure every measured value is printed ready to
 * paste.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "compdiff/implementation.hh"
#include "compiler/cache.hh"
#include "minic/parser.hh"
#include "obs/metrics.hh"
#include "reduce/pipeline.hh"
#include "session/checkpoint.hh"
#include "session/session.hh"
#include "targets/targets.hh"

namespace
{

using namespace compdiff;

using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/** The registry counters both workloads pin. */
const char *const kCounters[] = {
    "vm.execs",
    "vm.instructions",
    "vm.skipped_instructions",
    "vm.timeouts",
    "compdiff.impl_execs",
    "compdiff.timeout_retries",
    "compiler.compiles",
    "cache.hit",
    "cache.miss",
    "cache.evict",
    "minic.parses",
    "normalizer.calls",
    "reduce.candidates_tried",
    "reduce.candidates_accepted",
    "reduce.program.frontend_rejected",
};

/** Runs `work` with metrics on, from zeroed counters and an empty
 *  compile cache with its default bounds; returns every pinned
 *  counter. */
template <typename Work>
Counts
countWork(const Work &work)
{
    auto &cache = compiler::CompileCache::global();
    cache.setLimits(compiler::CompileCache::kDefaultMaxEntries,
                    compiler::CompileCache::kDefaultMaxBytes);
    cache.clear();
    const bool was_enabled = obs::metricsEnabled();
    obs::Registry::global().reset();
    obs::setMetricsEnabled(true);
    work();
    obs::setMetricsEnabled(was_enabled);
    const obs::MetricsSnapshot snapshot =
        obs::Registry::global().snapshot();
    Counts counts;
    for (const char *name : kCounters) {
        const auto *entry = snapshot.find(name);
        counts.emplace_back(name, entry ? entry->value : 0);
    }
    return counts;
}

/** Every measured value against the pinned one; on a mismatch, the
 *  differing values and then every measured one, ready to paste. */
void
expectPinned(const Counts &measured, const Counts &pinned)
{
    if (measured == pinned)
        return;
    std::string report;
    for (std::size_t i = 0; i < measured.size(); i++) {
        if (i >= pinned.size() || measured[i] != pinned[i])
            report += measured[i].first + ": measured " +
                      std::to_string(measured[i].second) + "\n";
    }
    report += "measured:\n";
    for (const auto &[name, value] : measured)
        report += "        {\"" + name + "\", " +
                  std::to_string(value) + "},\n";
    ADD_FAILURE() << report;
}

std::string
freshDir(const std::string &leaf)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("compdiff_WorkPins_" + leaf);
    std::filesystem::remove_all(dir);
    return dir.string();
}

std::uint64_t
fileSize(const std::string &path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

const targets::TargetProgram &
pktdump()
{
    return *targets::findTarget("pktdump");
}

/** A 2,000-exec pktdump campaign in a session directory: the fuzz
 *  loop, the k = 10 oracle, checkpoints and the event journal. */
TEST(WorkPins, PersistentCampaign)
{
    const auto program = minic::parseAndCheck(pktdump().source);
    session::SessionConfig config;
    config.dir = freshDir("campaign");
    config.fuzz.maxExecs = 2'000;
    config.heartbeatSecs = 1e9; // only the forced heartbeats
    Counts counts = countWork([&] {
        session::CampaignSession session(*program, pktdump().seeds,
                                         config);
        session.run();
    });
    const std::string journal = config.dir + "/shard-0.journal";
    counts.emplace_back("checkpoints",
                        session::readRecords(journal).size());
    counts.emplace_back("journal+events bytes",
                        fileSize(journal) +
                            fileSize(config.dir +
                                     "/shard-0.events.jsonl"));
    std::filesystem::remove_all(config.dir);

    const Counts pinned = {
        {"vm.execs", 22000},
        {"vm.instructions", 85819931},
        {"vm.skipped_instructions", 0},
        {"vm.timeouts", 0},
        {"compdiff.impl_execs", 20000},
        {"compdiff.timeout_retries", 0},
        {"compiler.compiles", 10},
        {"cache.hit", 1},
        {"cache.miss", 10},
        {"cache.evict", 0},
        {"minic.parses", 2},
        {"normalizer.calls", 20000},
        {"reduce.candidates_tried", 0},
        {"reduce.candidates_accepted", 0},
        {"reduce.program.frontend_rejected", 0},
        {"checkpoints", 18},
        {"journal+events bytes", 1301730},
    };
    expectPinned(counts, pinned);
}

/** Triage of one fixed campaign record: budget 100, sanitizer checks
 *  on, as e2ebench's `triage` workload reduces each witness. */
TEST(WorkPins, Reduction)
{
    const auto program = minic::parseAndCheck(pktdump().source);
    session::SessionConfig config;
    config.fuzz.maxExecs = 300;
    session::CampaignSession campaign(*program, pktdump().seeds,
                                      config);
    campaign.run();
    ASSERT_FALSE(campaign.divergenceRecords().empty());
    const session::DivergenceRecord record =
        campaign.divergenceRecords().front();

    reduce::ReduceOptions options;
    options.diffOptions = config.fuzz.diffOptions;
    options.diffOptions.limits = config.fuzz.limits;
    options.candidateBudget = 100;
    options.jobs = 1;
    options.checkSanitizers = true;
    const Counts counts = countWork([&] {
        const auto reports = reduce::reduceRecords(
            *program, core::paper10Implementations(), {record},
            options);
        EXPECT_EQ(reports.size(), 1u);
    });

    const Counts pinned = {
        {"vm.execs", 1035},
        {"vm.instructions", 20636238},
        {"vm.skipped_instructions", 19248866},
        {"vm.timeouts", 10},
        {"compdiff.impl_execs", 1030},
        {"compdiff.timeout_retries", 0},
        {"compiler.compiles", 557},
        {"cache.hit", 20},
        {"cache.miss", 550},
        {"cache.evict", 294},
        {"minic.parses", 164},
        {"normalizer.calls", 1030},
        {"reduce.candidates_tried", 100},
        {"reduce.candidates_accepted", 54},
        {"reduce.program.frontend_rejected", 24},
    };
    expectPinned(counts, pinned);
}

} // namespace
