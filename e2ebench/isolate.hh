#pragma once

/**
 * @file
 * Failure isolation for benchmark operations.
 *
 * Operations run in order in a forked worker process, which reports
 * one line per finished operation over a pipe. When the worker dies
 * (an abort, a signal, a non-zero exit), the operation it was running
 * is recorded as failed and a fresh worker, forked again from the
 * parent, continues with the next one. An operation that kills its
 * process is therefore counted, never fatal, and the operations after
 * it still run.
 *
 * Each worker starts from the parent's state at fork time (for
 * example a warm compile cache), and state then carries over from one
 * operation to the next inside a worker, as it would in one process.
 */

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace e2ebench
{

/** What became of one operation. */
struct OpOutcome
{
    std::size_t index = 0;
    /** The operation returned; `line` is what it returned. */
    bool returned = false;
    /** The returned line, or why the operation failed ("threw: ...",
     *  "signal 6 (Aborted)", "exit 3"). */
    std::string line;
};

/**
 * Run operations 0..count-1 in isolated worker processes.
 *
 * @param count        Upper bound on operations.
 * @param should_start Called in the worker before operation i; false
 *                     ends the run there (the time budget).
 * @param op           The operation; returns one line of output (no
 *                     newline). An exception counts as a failure.
 * @return One outcome per operation started, in index order.
 */
std::vector<OpOutcome>
runIsolated(std::size_t count,
            const std::function<bool(std::size_t)> &should_start,
            const std::function<std::string(std::size_t)> &op);

/** Largest resident set of this process or any waited-for child, KB. */
long peakRssKb();

} // namespace e2ebench
