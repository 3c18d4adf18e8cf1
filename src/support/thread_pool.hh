#pragma once

/**
 * @file
 * A fixed-size worker pool for the parallel execution layer.
 *
 * Design constraints (in order):
 *   1. Deterministic results: the pool schedules *where* tasks run,
 *      never *what* they compute. Batch helpers index every task, so
 *      callers write outputs to fixed slots and completion order is
 *      invisible.
 *   2. Simplicity over throughput tricks: one mutex-protected FIFO
 *      queue, no work stealing. Tasks here are whole VM executions
 *      (thousands of interpreted instructions each), so queue
 *      contention is noise.
 *   3. Graceful shutdown: the destructor drains every queued task
 *      before joining, so submitted work is never silently dropped.
 *
 * Exception discipline: a task that throws inside runAll() has its
 * exception captured and rethrown on the calling thread once the
 * whole batch has finished; when several tasks throw, the
 * lowest-indexed exception wins (deterministic). Tasks submitted via
 * submit() must not throw (enforced with a fatal diagnostic).
 */

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace compdiff::support
{

class ThreadPool
{
  public:
    /**
     * @param workers Number of worker threads; 0 selects
     *                hardwareWorkers(). A pool with `workers == 0`
     *                after resolution is impossible (minimum 1).
     */
    explicit ThreadPool(std::size_t workers = 0);

    /** Drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one fire-and-forget task (must not throw). */
    void submit(std::function<void()> task);

    /**
     * Run every task to completion, blocking the caller.
     *
     * The calling thread participates in execution, so a pool is
     * never idle-blocked on itself and `runAll` on a 1-worker pool
     * still makes progress even while workers are busy elsewhere.
     * Tasks are claimed in index order; outputs should be written to
     * per-index slots for deterministic results.
     */
    void runAll(std::vector<std::function<void()>> tasks);

    std::size_t workerCount() const;

    /** std::thread::hardware_concurrency() with a floor of 1. */
    static std::size_t hardwareWorkers();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Run task(0) .. task(count - 1) on up to `jobs` threads (0 = one
 * per hardware thread) and return when all have finished. The
 * calling thread drives tasks too, so this starts one pool worker
 * fewer than min(jobs, count); with none, the tasks run inline in
 * index order. Tasks should write per-index slots; exceptions follow
 * runAll().
 */
void runIndexed(std::size_t count, std::size_t jobs,
                const std::function<void(std::size_t)> &task);

} // namespace compdiff::support
