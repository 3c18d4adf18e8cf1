#pragma once

/**
 * @file
 * Benchmark-side layer tracing: wrappers around core::Implementation
 * and core::Executor that time the calls crossing into the compiler
 * and VM layers, plus a counting replacement operator new.
 *
 * The wrappers forward id() and simulatedConfig(), and hand the inner
 * implementation's artifacts through untouched, so compile-cache keys,
 * localization and every observation are the same as without them.
 * Each executor accumulates into plain members (one executor is driven
 * by one thread at a time) and folds into the process-wide totals when
 * it is destroyed, so the hot path takes no lock and no shared atomic.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "compdiff/implementation.hh"

namespace e2ebench
{

/** Process-wide layer totals (monotonic; take deltas around an op). */
struct LayerTotals
{
    std::uint64_t compiles = 0;
    std::uint64_t compileNs = 0;
    std::uint64_t executorsBuilt = 0;
    std::uint64_t executorBuildNs = 0;
    std::uint64_t rebinds = 0;
    std::uint64_t oracleExecs = 0;
    std::uint64_t oracleExecNs = 0;
    std::uint64_t guestInsns = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t timeoutExecNs = 0;
    /** Executions run with an escalated (RQ6 retry) budget. */
    std::uint64_t retryExecs = 0;
    /** Distinct threads that executed an oracle run since the last
     *  beginThreadCount(). */
    std::uint64_t threads = 0;
    /** operator new calls while allocation counting is on. */
    std::uint64_t allocs = 0;
};

LayerTotals layerTotals();

/** Start a new distinct-thread count (call at the start of an op). */
void beginThreadCount();

/** Turn the counting operator new on or off. */
void setAllocCounting(bool on);

/**
 * Take (and clear) the raw oracle outputs sampled by traced executors
 * since the last call — the inputs of the normalizer replay.
 */
std::vector<std::string> takeSampledOutputs();

/** Wrap every member of `impls` in a tracing implementation. */
compdiff::core::ImplementationSet
traced(const compdiff::core::ImplementationSet &impls);

} // namespace e2ebench
