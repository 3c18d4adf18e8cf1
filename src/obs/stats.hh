#pragma once

/**
 * @file
 * AFL++-style campaign stats export.
 *
 * AFL++ writes two files into every output directory: `fuzzer_stats`
 * (a `key : value` snapshot, rewritten periodically) and `plot_data`
 * (an append-only time series behind afl-plot). Long campaigns are
 * undebuggable without them, so the reproduction mirrors both:
 *
 *   - FuzzerStatsSnapshot: the snapshot structure filled by
 *     fuzz::Fuzzer and folded over shards by fuzz::ShardedResult,
 *     with a renderer and a parser (the parser keeps tests and
 *     external tooling honest about the format). Campaign files are
 *     written by session::CampaignSession alone.
 *   - PlotWriter: the time-series accumulator. The time axis is the
 *     execution count, not wall-clock — campaigns must stay
 *     deterministic, and the paper's own overhead discussion is
 *     per-execution. Wall-clock throughput (execs/sec) appears only
 *     as a derived, clearly-labeled snapshot field.
 */

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace compdiff::obs
{

/** One `fuzzer_stats`-style snapshot of a campaign. */
struct FuzzerStatsSnapshot
{
    std::string banner = "compdiff-afl";
    /** B_fuzz executions performed (Algorithm 1's budget axis). */
    std::uint64_t execsDone = 0;
    /** Total differential-binary executions (retries included). */
    std::uint64_t compdiffExecs = 0;
    /** Per-implementation execution counts, configuration order;
     *  their sum equals compdiffExecs. */
    std::vector<std::pair<std::string, std::uint64_t>> perConfigExecs;
    std::uint64_t corpusSize = 0;
    std::uint64_t crashes = 0;
    std::uint64_t diffs = 0;
    std::uint64_t edges = 0;
    /** Exec index of the last corpus/crash/diff discovery. */
    std::uint64_t lastFindExec = 0;
    /** Exec index of the last new divergence (0 = none found). */
    std::uint64_t lastDiffExec = 0;
    /** Wall-clock throughput; 0 when unavailable. Derived display
     *  value only — never fed back into the campaign. */
    double execsPerSec = 0;
    /**
     * Cumulative campaign wall-clock seconds. Persistent sessions
     * (src/session) accumulate this across restarts, AFL++-style:
     * a killed-and-resumed campaign reports the total time fuzzed,
     * not the last process's share. 0 when unavailable; display
     * value only.
     */
    double runTimeSecs = 0;
    /** Times the campaign was resumed from a session checkpoint. */
    std::uint64_t restarts = 0;
};

/** Render in AFL++'s `key : value` format. */
std::string renderFuzzerStats(const FuzzerStatsSnapshot &snapshot);

/** Parse renderFuzzerStats output back into a key/value map. */
std::map<std::string, std::string>
parseFuzzerStats(const std::string &text);

/** Parse + repack into the structured snapshot. */
FuzzerStatsSnapshot
snapshotFromFuzzerStats(const std::string &text);

/**
 * `plot_data`-style time series: one row per sample, exec-count time
 * axis.
 */
class PlotWriter
{
  public:
    struct Row
    {
        std::uint64_t execs = 0;
        std::uint64_t corpusSize = 0;
        std::uint64_t crashes = 0;
        std::uint64_t diffs = 0;
        std::uint64_t edges = 0;
        std::uint64_t compdiffExecs = 0;
    };

    void addRow(const Row &row);
    const std::vector<Row> &rows() const { return rows_; }

    /** Replace the series (session resume restores saved rows). */
    void setRows(std::vector<Row> rows) { rows_ = std::move(rows); }

    /** CSV rendering, AFL++-style `# ...` header line included. */
    std::string str() const;

  private:
    std::vector<Row> rows_;
};

/**
 * Write `content` to `path`, creating parent directories as needed.
 * Returns false (after a warn()) on I/O failure instead of throwing:
 * telemetry must never kill a campaign.
 */
bool writeTextFile(const std::string &path,
                   const std::string &content);

/**
 * RAII telemetry scope for the bench programs: enables metrics for
 * its lifetime and, on destruction, writes the registry snapshot to
 * `<name>.telemetry.jsonl` next to the bench's stdout results.
 */
class BenchTelemetry
{
  public:
    explicit BenchTelemetry(std::string name, bool enable = true);
    ~BenchTelemetry();

    BenchTelemetry(const BenchTelemetry &) = delete;
    BenchTelemetry &operator=(const BenchTelemetry &) = delete;

  private:
    std::string name_;
    bool prevMetrics_;
};

} // namespace compdiff::obs
