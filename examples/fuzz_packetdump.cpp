/**
 * @file
 * CompDiff-AFL++ on a real-world-style target: fuzz the pktdump
 * packet analyzer (tcpdump stand-in), then triage the saved
 * divergences back to their root causes and show a minimized
 * reproducer for each, like the bug reports the paper filed.
 *
 * Build & run:  ./build/examples/fuzz_packetdump [options] [execs]
 *
 * The campaign can write AFL++-style stats and a Chrome trace, run
 * as a crash-safe session that is halted and resumed (DESIGN.md
 * §10), and split into deterministic shards; `--help` lists the
 * flags.
 */

#include <cstdio>

#include "frontend.hh"
#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "support/bytes.hh"
#include "targets/campaign.hh"
#include "targets/targets.hh"

namespace
{

using namespace compdiff;

int
run(int argc, char **argv)
{
    const targets::TargetProgram *target =
        targets::findTarget("pktdump");
    if (!target) {
        std::fprintf(stderr, "pktdump target missing\n");
        return 1;
    }

    targets::CampaignOptions options;
    options.checkSanitizers = true;
    options.maxExecs = 12'000;
    std::string trace_out;
    support::FlagTable table("fuzz_packetdump [options] [execs]", 1,
                             "execs: the campaign budget (default "
                             "12000).");
    table.value("--stats-dir", "DIR", &options.statsDir,
                "fuzzer_stats and plot_data under DIR/pktdump/");
    table.value("--trace-out", "FILE", &trace_out, "Chrome-trace JSON");
    table.value("--session", "DIR", &options.sessionDir,
                "crash-safe session under DIR/pktdump/");
    table.flag("--resume", &options.resume, "continue the session");
    table.value("--halt-after", "N", &options.haltAfterExecs,
                "stop each shard at a safe point past N execs");
    table.value("--checkpoint-every", "N", &options.checkpointEvery,
                "checkpoint every N shard executions");
    table.value("--shards", "N", &options.shards,
                "deterministic campaign shards",
                frontend::kMaxParallelism);
    table.value("--jobs", "N", &options.jobs,
                "worker threads (never changes results)",
                frontend::kMaxParallelism);
    const std::vector<std::string> args =
        frontend::parseArgs(table, argc, argv);
    if (!args.empty()) {
        const auto execs = support::parseUnsigned(args[0]);
        if (!execs)
            throw support::UsageError(
                args[0] + ": expected an unsigned execution budget");
        options.maxExecs = *execs;
    }
    if (!options.statsDir.empty() || !trace_out.empty())
        obs::setEnabled(true);

    std::printf("fuzzing %s (%s, v%s, %zu LoC) for %llu execs...\n\n",
                target->name.c_str(), target->inputType.c_str(),
                target->version.c_str(), target->linesOfCode(),
                static_cast<unsigned long long>(options.maxExecs));

    auto result = targets::runCampaign(*target, options);

    if (result.halted) {
        std::printf("session halted at a checkpoint after %llu "
                    "execs; rerun with --resume to finish\n",
                    static_cast<unsigned long long>(
                        result.stats.execs));
        return 0;
    }

    std::printf("executions      : %llu\n",
                static_cast<unsigned long long>(result.stats.execs));
    std::printf("corpus seeds    : %zu\n", result.stats.seeds);
    std::printf("coverage edges  : %zu\n", result.stats.edges);
    std::printf("unique diffs    : %zu\n", result.stats.diffs);
    std::printf("bugs recovered  : %zu of %zu planted\n\n",
                result.found.size(), target->bugs.size());

    for (const auto &finding : result.found) {
        std::printf("--- bug %d [%s] %s\n", finding.probeId,
                    targets::categoryColumn(finding.bug->category),
                    finding.bug->description.c_str());
        std::printf("    sanitizers: ASan=%d UBSan=%d MSan=%d\n",
                    finding.asanFires, finding.ubsanFires,
                    finding.msanFires);
        std::printf("    minimized reproducer (%zu bytes):\n%s",
                    finding.witness.size(),
                    support::hexDump(finding.witness, 4).c_str());
    }
    if (!trace_out.empty()) {
        obs::writeTextFile(
            trace_out, obs::TraceRecorder::global().chromeTraceJson());
        std::printf("\ntrace written to %s\n", trace_out.c_str());
    }
    return result.found.empty() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (...) {
        return frontend::reportError();
    }
}
