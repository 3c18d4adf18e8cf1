#include "frontend.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sancheck/sancheck.hh"
#include "support/diagnostics.hh"
#include "support/logging.hh"
#include "targets/targets.hh"

namespace compdiff::frontend
{

void
CampaignFlags::addFlags(support::FlagTable &table)
{
    table.value("--target", "NAME", &target,
                "fuzz a built-in target (pktdump, ...) and its seeds");
    table.value("--impls", "SPECS", &impls,
                "the oracle: implementation specs (gcc:-O2, "
                "clang:-Os:ubsan, ref) or paper10 (default) or all; "
                "in sancheck mode the sanitized builds (default: the "
                "standard four)");
    table.optional("--fuzz", "N", &fuzz, &fuzzExecs,
                   "run a fuzz campaign of N execs (default 20000)");
    table.value("--shards", "N", &shards,
                "deterministic campaign shards (changes the campaign)",
                kMaxParallelism);
    table.value("--jobs", "N", &jobs,
                "worker threads, 0 = hardware (never changes results)",
                kMaxParallelism);
    table.value("--session", "DIR", &sessionDir,
                "persist the campaign as a crash-safe session");
    table.value("--checkpoint-every", "N", &checkpointEvery,
                "checkpoint every N shard executions");
    table.value("--heartbeat-every", "S", &heartbeatSecs,
                "shard heartbeat cadence in seconds (default 1)");
    table.optional("--reduce", "BUDGET", &reduce, &reduceBudget,
                   "minimize each unique finding (default budget "
                   "4096 candidates)");
    table.value("--reports-out", "DIR", &reportsOut,
                "bundle reduced findings under DIR/sig-<hex>/");
    table.flag("--quiet", &quiet, "silence warn()/inform() notices");
}

void
CampaignFlags::addProcessFlags(support::FlagTable &table)
{
    table.choice("--mode", {"diff", "sancheck"}, &mode,
                 "sancheck: certify UB with the reference interpreter "
                 "and classify sanitizer FN/FP findings (DESIGN.md "
                 "section 14)");
    table.value("--seeds", "DIR", &seedsDir,
                "add DIR's files to the seeds");
    table.flag("--resume", &resume,
               "continue the session in --session=DIR");
    table.value("--halt-after", "N", &haltAfter,
                "stop each shard at its first safe point at or beyond "
                "N executions");
    table.value("--cache-entries", "N", &cacheEntries,
                "bound the compile cache to N modules (0 = unbounded; "
                "default 256)");
    table.value("--stats-out", "FILE", &statsOut,
                "AFL++-style fuzzer_stats snapshot");
    table.value("--plot-out", "FILE", &plotOut,
                "AFL++-style plot_data time series");
    table.value("--trace-out", "FILE", &traceOut, "Chrome-trace JSON");
    table.value("--metrics-out", "FILE", &metricsOut,
                "metrics registry as JSONL");
    table.flag("--flame", &flame, "print the span flame summary");
}

core::ImplementationSet
CampaignFlags::implementations() const
{
    if (!sancheck()) {
        const std::string specs = impls.empty() ? "paper10" : impls;
        return core::parseImplementations(specs);
    }
    core::ImplementationSet set =
        impls.empty() ? sancheck::defaultImplementations()
                      : core::parseImplementations(impls);
    sancheck::validateImpls(set);
    return set;
}

Subject
CampaignFlags::load(const std::vector<std::string> &positional,
                    Subject fallback) const
{
    Subject subject;
    if (!target.empty()) {
        if (!positional.empty())
            throw support::UsageError(
                "--target=" + target +
                " and a program file exclude each other");
        const targets::TargetProgram *found =
            targets::findTarget(target);
        if (!found)
            support::fatal("unknown target " + target);
        subject.source = found->source;
        subject.seeds = found->seeds;
        if (!subject.seeds.empty())
            subject.input = subject.seeds.front();
    } else if (!positional.empty()) {
        subject.source = readFile(positional[0]);
        if (positional.size() > 1) {
            const std::string raw = readFile(positional[1]);
            subject.input.assign(raw.begin(), raw.end());
        }
    } else {
        subject = std::move(fallback);
    }
    if (subject.seeds.empty() && !subject.input.empty())
        subject.seeds.push_back(subject.input);
    if (!seedsDir.empty()) {
        std::vector<std::string> paths;
        for (const auto &entry :
             std::filesystem::directory_iterator(seedsDir)) {
            if (entry.is_regular_file())
                paths.push_back(entry.path().string());
        }
        std::sort(paths.begin(), paths.end());
        for (const auto &path : paths) {
            const std::string raw = readFile(path);
            subject.seeds.emplace_back(raw.begin(), raw.end());
        }
    }
    return subject;
}

session::SessionConfig
CampaignFlags::sessionConfig(
    const core::ImplementationSet &oracle) const
{
    session::SessionConfig config;
    config.dir = sessionDir;
    config.resume = resume;
    config.checkpointEvery = checkpointEvery;
    config.haltAfterExecs = haltAfter;
    config.heartbeatSecs = heartbeatSecs;
    // In sancheck mode diffImpls keeps its default, so the campaign
    // fingerprint and the MANIFEST's `impls :` line do not move.
    config.fuzz.sancheckMode = sancheck();
    if (sancheck())
        config.fuzz.sancheckImpls = oracle;
    else
        config.fuzz.diffImpls = oracle;
    config.fuzz.maxExecs = fuzzExecs;
    config.fuzz.jobs = jobs;
    config.shards = shards;
    config.jobs = jobs;
    config.triage.reduceFound = reduce;
    config.triage.candidateBudget = reduceBudget;
    config.triage.reportsDir = reportsOut;
    config.statsOutPath = statsOut;
    config.plotOutPath = plotOut;
    return config;
}

void
CampaignFlags::startTelemetry() const
{
    if (!statsOut.empty() || !plotOut.empty() || !traceOut.empty() ||
        !metricsOut.empty() || flame)
        obs::setEnabled(true);
}

void
CampaignFlags::exportTelemetry() const
{
    if (!traceOut.empty()) {
        obs::writeTextFile(
            traceOut, obs::TraceRecorder::global().chromeTraceJson());
    }
    if (!metricsOut.empty()) {
        obs::writeTextFile(
            metricsOut, obs::Registry::global().snapshot().toJsonl());
    }
    if (flame) {
        std::printf(
            "\nspan flame summary:\n%s",
            obs::TraceRecorder::global().flameSummary().c_str());
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        support::fatal("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::vector<std::string>
parseArgs(const support::FlagTable &table, int argc, char **argv)
{
    support::FlagTable::Parsed parsed = table.parse(argc, argv);
    if (parsed.help) {
        std::fputs(table.usage().c_str(), stdout);
        std::exit(0);
    }
    return std::move(parsed.positional);
}

namespace
{

/** argv's one optional argument through `parse`; see
 *  unsignedArgument. */
template <typename T, typename Parse>
T
soleArgument(int argc, char **argv, const std::string &synopsis,
             T fallback, const char *expected, const Parse &parse)
{
    try {
        const support::FlagTable table(synopsis, 1);
        const std::vector<std::string> args =
            parseArgs(table, argc, argv);
        if (args.empty())
            return fallback;
        if (const auto value = parse(args[0]))
            return *value;
        throw support::UsageError(args[0] + ": expected " + expected);
    } catch (...) {
        std::exit(reportError());
    }
}

} // namespace

std::uint64_t
unsignedArgument(int argc, char **argv, const std::string &synopsis,
                 std::uint64_t fallback, std::uint64_t max)
{
    return soleArgument(argc, argv, synopsis, fallback,
                        "an unsigned integer",
                        [max](const std::string &text) {
                            return support::parseUnsigned(text, max);
                        });
}

double
decimalArgument(int argc, char **argv, const std::string &synopsis,
                double fallback)
{
    return soleArgument(argc, argv, synopsis, fallback,
                        "a non-negative decimal",
                        [](const std::string &text) {
                            return support::parseSeconds(text);
                        });
}

int
reportError()
{
    try {
        throw;
    } catch (const support::UsageError &error) {
        std::fprintf(stderr, "%s\n", error.what());
    } catch (const support::FatalError &error) {
        std::fprintf(stderr, "%s\n", error.what());
    } catch (const support::CompileError &error) {
        std::fprintf(stderr, "%s\n", error.what());
    } catch (const session::SessionError &error) {
        std::fprintf(stderr, "session error: %s\n", error.what());
    } catch (const std::filesystem::filesystem_error &error) {
        std::fprintf(stderr, "%s\n", error.what());
    }
    return 2;
}

} // namespace compdiff::frontend
