#pragma once

/**
 * @file
 * Tracing spans with a ring-buffer recorder.
 *
 * A Span is an RAII marker around one pipeline phase (parse, per-
 * config compile, per-implementation execute, normalize, compare,
 * mutate, triage, ...). Spans nest via a thread-local stack; on
 * destruction each span appends one complete event to a bounded
 * recorder: the head of the run (setup and per-config compiles) is
 * pinned, the rest is a ring buffer whose oldest events are
 * overwritten in place. Tracing a million-exec campaign therefore
 * costs a fixed amount of memory and the export always shows how
 * the run started plus how it was going at the end.
 *
 * The recorder exports two views:
 *   - Chrome-trace JSON ("traceEvents" with ph:"X" complete events),
 *     loadable in chrome://tracing / Perfetto;
 *   - a flame summary (per-name call count and total duration)
 *     rendered with support::TextTable.
 *
 * Span timestamps come from a steady monotonic clock. They never
 * feed back into fuzzing decisions or comparisons, so campaign
 * determinism is unaffected.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hh"

namespace compdiff::obs
{

/** One completed span. */
struct TraceEvent
{
    std::string name;
    std::uint64_t startUs = 0; ///< microseconds since recorder epoch
    std::uint64_t durUs = 0;
    std::uint32_t tid = 0;   ///< small per-thread ordinal
    std::uint32_t depth = 0; ///< nesting depth at entry (0 = root)
};

/** Bounded recorder of completed spans. */
class TraceRecorder
{
  public:
    static TraceRecorder &global();

    /** Drop all recorded events and restart the epoch. */
    void clear();

    /**
     * Resize the recorder (drops recorded events); 1/16 of the
     * capacity pins the head of the run. The default of 65536
     * events keeps the recorder near 4 MB worst-case.
     */
    void setCapacity(std::size_t capacity);

    /** Completed events, oldest first. */
    std::vector<TraceEvent> events() const;

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const;

    /** chrome://tracing JSON ({"traceEvents":[...]}). */
    std::string chromeTraceJson() const;

    /** Per-name aggregate (calls, total/avg duration), sorted by
     *  total duration descending. */
    std::string flameSummary() const;

    void append(TraceEvent event);

    /** Microseconds since the recorder epoch (monotonic). */
    std::uint64_t nowUs() const;

  private:
    TraceRecorder();
    struct Impl;
    Impl *impl_;
};

/**
 * RAII span. Construction is a no-op unless tracingEnabled(); a span
 * constructed while tracing is off stays inert even if tracing is
 * switched on before it dies.
 */
class Span
{
  public:
    explicit Span(std::string_view name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::string name_;
    std::uint64_t startUs_ = 0;
    std::uint32_t depth_ = 0;
    bool active_ = false;
};

} // namespace compdiff::obs
