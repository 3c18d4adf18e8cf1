#pragma once

/**
 * @file
 * What the command-line front ends share: the campaign flag group
 * that compdiff_cli and compdiff_fleet register, program and seed
 * loading, the SessionConfig the flags describe, and the one error
 * path every `main` ends in.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "compdiff/implementation.hh"
#include "compiler/cache.hh"
#include "session/session.hh"
#include "support/bytes.hh"
#include "support/flags.hh"

namespace compdiff::frontend
{

/** Ceiling of --jobs, --shards and --workers (threads, shard fuzzers
 *  and processes). */
constexpr std::uint64_t kMaxParallelism = 256;

/** What a campaign runs. */
struct Subject
{
    std::string source;
    std::vector<support::Bytes> seeds;
    support::Bytes input; ///< the input of a single run
};

struct CampaignFlags
{
    std::string target;
    std::string mode = "diff";
    std::string impls; ///< empty: the mode's default oracle
    std::string seedsDir;
    bool fuzz = false;
    std::uint64_t fuzzExecs = 20'000;
    std::uint64_t shards = 1;
    std::uint64_t jobs = 1;
    std::string sessionDir;
    bool resume = false;
    std::uint64_t checkpointEvery = 0;
    std::uint64_t haltAfter = 0;
    double heartbeatSecs = 1.0;
    std::uint64_t cacheEntries =
        compiler::CompileCache::kDefaultMaxEntries;
    bool reduce = false;
    std::uint64_t reduceBudget = 4096;
    std::string reportsOut;
    std::string statsOut;
    std::string plotOut;
    std::string traceOut;
    std::string metricsOut;
    bool flame = false;
    bool quiet = false;

    /** The flags every campaign front end takes. */
    void addFlags(support::FlagTable &table);
    /** The flags of a campaign one process runs start to finish:
     *  mode, seeds, resume, halt, cache and telemetry. */
    void addProcessFlags(support::FlagTable &table);

    bool sancheck() const { return mode == "sancheck"; }

    /** --impls, else paper10 or, in sancheck mode, the standard
     *  sanitized four (validated). @throws support::FatalError */
    core::ImplementationSet implementations() const;

    /**
     * --target's program and seeds, else the program file and input
     * file in `positional`, else `fallback`. An input is the one seed
     * of a seedless program; --seeds files follow in name order.
     */
    Subject load(const std::vector<std::string> &positional,
                 Subject fallback) const;

    /** The campaign these flags describe, run by `oracle`. */
    session::SessionConfig
    sessionConfig(const core::ImplementationSet &oracle) const;

    /** Enable the observability layer if an output asks for it. */
    void startTelemetry() const;
    /** Write the trace and metrics files and the flame summary. */
    void exportTelemetry() const;
};

/** @throws support::FatalError when `path` cannot be opened. */
std::string readFile(const std::string &path);

/** Parse argv with `table`; on --help print its usage and exit 0. */
std::vector<std::string> parseArgs(const support::FlagTable &table,
                                   int argc, char **argv);

/**
 * The one optional argument of a table or walkthrough binary whose
 * usage line is `synopsis`: an unsigned integer no larger than
 * `max`, `fallback` when absent. `--help` prints the usage and exits
 * 0; any other argument that is not such a value prints one line
 * and exits 2.
 */
std::uint64_t unsignedArgument(int argc, char **argv,
                               const std::string &synopsis,
                               std::uint64_t fallback,
                               std::uint64_t max = support::kNoCeiling);
/** The same for a non-negative decimal such as a suite scale. */
double decimalArgument(int argc, char **argv,
                       const std::string &synopsis, double fallback);

/**
 * The `catch (...)` body of every front end's main: an error in what
 * the user supplied (flags, files, programs, implementation specs,
 * session directories) prints one line and returns exit status 2.
 * Anything else is an internal fault and propagates.
 */
int reportError();

} // namespace compdiff::frontend
