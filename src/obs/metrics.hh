#pragma once

/**
 * @file
 * Metrics registry: named counters, gauges, and fixed-bucket
 * histograms for the fuzz/diff pipeline.
 *
 * Design constraints (in order):
 *   1. Hot-path bumps must be cheap: a handle bump is one relaxed
 *      atomic load (the global enabled switch) plus one relaxed
 *      atomic add. With metrics disabled the bump is a no-op, so a
 *      campaign without telemetry runs the same inner loop as a
 *      build without this layer.
 *   2. Zero dependencies beyond src/support.
 *   3. Deterministic: nothing here reads the wall clock; instruction
 *      counts are the pipeline's time axis.
 *
 * Thread safety: the whole registry is safe under real concurrency
 * (a parallel DiffEngine and sharded campaigns bump counters
 * from worker threads). Registration is serialized by a registry
 * mutex; handle bumps are relaxed atomics and never take a lock.
 * Handles returned by Registry::{counter,gauge,histogram} are stable
 * for the registry's lifetime and may be cached across calls.
 * Relaxed ordering means a snapshot taken while workers are mid-
 * flight is a consistent-per-metric (not cross-metric) view; all
 * exporters run after the pool has been joined.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace compdiff::obs
{

/** Is metric recording globally enabled? (default: off) */
bool metricsEnabled();

/** Is span recording globally enabled? (default: off) */
bool tracingEnabled();

/** Flip both the metrics and tracing switches at once. */
void setEnabled(bool enabled);

/** Flip only the metrics switch. */
void setMetricsEnabled(bool enabled);

/** Flip only the tracing switch. */
void setTracingEnabled(bool enabled);

/** Scoped enable/disable of the whole observability layer. */
class EnabledGuard
{
  public:
    explicit EnabledGuard(bool enabled);
    ~EnabledGuard();

    EnabledGuard(const EnabledGuard &) = delete;
    EnabledGuard &operator=(const EnabledGuard &) = delete;

  private:
    bool prevMetrics_;
    bool prevTracing_;
};

/** A monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        if (metricsEnabled())
            value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** A point-in-time value (corpus size, budget in force, ...). */
class Gauge
{
  public:
    void set(std::uint64_t v)
    {
        if (metricsEnabled())
            value_.store(v, std::memory_order_relaxed);
    }

    /** Keep the largest value seen (high-water mark). */
    void max(std::uint64_t v)
    {
        if (!metricsEnabled())
            return;
        std::uint64_t cur =
            value_.load(std::memory_order_relaxed);
        while (v > cur &&
               !value_.compare_exchange_weak(
                   cur, v, std::memory_order_relaxed)) {
        }
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * A fixed-bucket histogram. Bucket i counts observations with
 * value <= bounds[i]; one implicit overflow bucket counts the rest.
 * Cells are relaxed atomics, so concurrent observe() calls never
 * lose counts; count/sum/bucket reads are per-cell consistent.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<std::uint64_t> bounds);

    void observe(std::uint64_t v);

    const std::vector<std::uint64_t> &bounds() const
    {
        return bounds_;
    }
    /** bounds().size() + 1 cells; last is the overflow bucket. */
    std::vector<std::uint64_t> buckets() const;
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    std::uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }
    void reset();

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/** A copy of every registered metric's state at one point in time. */
struct MetricsSnapshot
{
    struct Entry
    {
        std::string name;
        std::string kind; ///< "counter", "gauge", or "histogram"
        std::uint64_t value = 0; ///< counter/gauge value; hist sum
        std::uint64_t count = 0; ///< histogram observation count
        std::vector<std::uint64_t> bounds;
        std::vector<std::uint64_t> buckets;

        /**
         * Estimated q-quantile (0 < q < 1) of a histogram entry,
         * linearly interpolated within the covering bucket
         * (Prometheus histogram_quantile semantics). Observations in
         * the overflow bucket are credited to the highest bound —
         * the estimate is clamped there. 0 when the entry is not a
         * histogram or holds no observations.
         */
        double quantile(double q) const;
    };

    std::vector<Entry> entries; ///< sorted by name

    /** One JSON object per line; histograms carry p50/p90/p99
     *  alongside their raw buckets; "" when there are no entries. */
    std::string toJsonl() const;

    /** Aligned ASCII rendering via support::TextTable. */
    std::string toTable() const;

    const Entry *find(std::string_view name) const;
};

/**
 * The process-wide metric registry. Metrics are registered on first
 * use and persist (values included) until reset(). Registration,
 * snapshot(), reset(), and size() are serialized by an internal
 * mutex; bumping previously obtained handles is lock-free.
 */
class Registry
{
  public:
    static Registry &global();

    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    /**
     * @param bounds Upper bucket bounds, strictly increasing; an
     *               empty vector selects the default power-of-4
     *               instruction-count scale.
     */
    Histogram &histogram(std::string_view name,
                         std::vector<std::uint64_t> bounds = {});

    MetricsSnapshot snapshot() const;

    /** Zero every value; registrations (and handles) survive. */
    void reset();

    std::size_t size() const;

    ~Registry();

  private:
    Registry() = default;
    struct Impl;
    /** Must be called with mu_ held. */
    Impl *impl();
    const Impl *impl() const;
    mutable std::mutex mu_;
    mutable Impl *impl_ = nullptr;
};

/** Shorthand for Registry::global().counter(name). */
Counter &counter(std::string_view name);
/** Shorthand for Registry::global().gauge(name). */
Gauge &gauge(std::string_view name);
/** Shorthand for Registry::global().histogram(name). */
Histogram &histogram(std::string_view name);

} // namespace compdiff::obs
