/**
 * @file
 * Reproduces the paper's Section 5 overhead discussion: the cost of
 * CompDiff-AFL++ per fuzz-loop input against plain fuzzing, as a
 * function of the number of implementations in the oracle. The paper
 * reports about 2x for a two-implementation subset and about 10x for
 * the full set of ten.
 *
 * Every row runs the campaigns of e2ebench's `campaign` workload: a
 * fresh 500-exec session (ephemeral, one shard, default FuzzOptions)
 * on each of the 13 bundled targets. One sample is one sweep over the
 * targets, timed on the wall clock, session set-up and teardown
 * included. The rows take turns within each repetition, so a drifting
 * host slows every row alike, and every repetition repeats the same
 * campaigns. Next to the time, each row reports the guest
 * instructions per input from the `vm.instructions` counter (every
 * B_fuzz and oracle run): the work itself, the same on every host.
 *
 * Usage: sec5_overhead [repetitions]   (default 5, at least 1)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "compdiff/implementation.hh"
#include "frontend.hh"
#include "minic/parser.hh"
#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "session/session.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "targets/targets.hh"

namespace
{

using namespace compdiff;
using support::format;

constexpr std::uint64_t kExecsPerTarget = 500;

struct Row
{
    const char *label;
    const char *impls; ///< "" for plain fuzzing
    std::size_t jobs;
    std::vector<double> usPerInput;
    std::uint64_t inputs = 0;
    std::uint64_t instructions = 0;
};

using Programs = std::vector<std::unique_ptr<minic::Program>>;

/** One sweep of `row`'s campaigns over every target: one sample. */
void
sweep(Row &row, const Programs &programs)
{
    session::SessionConfig config;
    config.fuzz.maxExecs = kExecsPerTarget;
    config.fuzz.enableCompDiff = *row.impls != '\0';
    if (config.fuzz.enableCompDiff)
        config.fuzz.diffImpls = core::parseImplementations(row.impls);
    config.fuzz.jobs = row.jobs; // the one shard's oracle pool
    config.jobs = row.jobs;

    const obs::Counter &instructions = obs::counter("vm.instructions");
    const std::uint64_t instructions0 = instructions.value();
    std::uint64_t inputs = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < programs.size(); t++) {
        session::CampaignSession session(
            *programs[t], targets::allTargets()[t].seeds, config);
        inputs += session.run().total.execs;
    }
    const std::chrono::duration<double, std::micro> wall =
        std::chrono::steady_clock::now() - start;
    row.usPerInput.push_back(wall.count() /
                             static_cast<double>(inputs));
    row.inputs += inputs;
    row.instructions += instructions.value() - instructions0;
}

double
insnsPerInput(const Row &row)
{
    return static_cast<double>(row.instructions) /
           static_cast<double>(row.inputs);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t repetitions = std::max<std::uint64_t>(
        1, frontend::unsignedArgument(
               argc, argv, "sec5_overhead [repetitions]", 5));
    obs::BenchTelemetry telemetry("sec5_overhead");

    Programs programs;
    for (const auto &target : targets::allTargets())
        programs.push_back(minic::parseAndCheck(target.source));

    std::vector<Row> rows = {
        {"plain fuzzing", "", 1, {}},
        {"k=2 gcc:-O0,clang:-O3", "gcc:-O0,clang:-O3", 1, {}},
        {"k=10 paper10", "paper10", 1, {}},
        {"k=10 paper10", "paper10", 2, {}},
        {"k=10 paper10", "paper10", 4, {}},
    };
    // An untimed sweep fills the compile cache first, as e2ebench's
    // set-up does.
    Row warm = rows[2];
    sweep(warm, programs);
    for (std::uint64_t rep = 0; rep < repetitions; rep++) {
        for (Row &row : rows)
            sweep(row, programs);
    }

    std::printf("Section 5: cost per fuzz-loop input against plain "
                "fuzzing\n(%zu targets x %llu execs per sample, %llu "
                "repetitions; nproc %zu, %s build)\n\n",
                programs.size(),
                static_cast<unsigned long long>(kExecsPerTarget),
                static_cast<unsigned long long>(repetitions),
                support::ThreadPool::hardwareWorkers(),
                SEC5_BUILD_TYPE);

    support::TextTable table;
    table.setHeader({"oracle", "jobs", "us/input", "q1", "q3", "n",
                     "x plain", "insns/input", "x plain"});
    std::vector<support::Align> align(9, support::Align::Right);
    align[0] = support::Align::Left;
    table.setAlign(align);
    const double plain_us =
        support::boxStats(rows[0].usPerInput).median;
    const double plain_insns = insnsPerInput(rows[0]);
    for (const Row &row : rows) {
        const support::BoxStats box =
            support::boxStats(row.usPerInput);
        const double insns = insnsPerInput(row);
        table.addRow({row.label, std::to_string(row.jobs),
                      format("%.2f", box.median),
                      format("%.2f", box.q1), format("%.2f", box.q3),
                      std::to_string(row.usPerInput.size()),
                      format("%.2f", box.median / plain_us),
                      format("%.0f", insns),
                      format("%.2f", insns / plain_insns)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("Paper: about 2x per input with two implementations "
                "and about 10x with ten.\n");
    return 0;
}
