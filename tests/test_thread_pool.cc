/**
 * @file
 * Tests for support::ThreadPool: FIFO dispatch, the runAll batch
 * primitive (output slots, caller participation, exception
 * discipline), graceful drain-on-destruction, and the runIndexed
 * fan-out's thread bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.hh"

namespace
{

using compdiff::support::ThreadPool;

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder)
{
    // With exactly one worker the queue is strictly FIFO, so the
    // execution order must equal the submission order.
    std::vector<int> order;
    std::mutex mu;
    {
        ThreadPool pool(1);
        for (int i = 0; i < 64; i++) {
            pool.submit([&order, &mu, i] {
                std::lock_guard<std::mutex> lock(mu);
                order.push_back(i);
            });
        }
        // The destructor drains the queue before it returns.
    }
    std::vector<int> expected(64);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, RunAllFillsEverySlot)
{
    ThreadPool pool(4);
    std::vector<int> out(100, -1);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 100; i++)
        tasks.push_back([&out, i] { out[static_cast<std::size_t>(i)] = i * i; });
    pool.runAll(std::move(tasks));
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ThreadPool, RunAllEmptyBatchIsANoOp)
{
    ThreadPool pool(2);
    pool.runAll({});
    EXPECT_EQ(pool.workerCount(), 2u);
}

TEST(ThreadPool, RunAllRethrowsLowestIndexException)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; i++) {
        tasks.push_back([&completed, i] {
            if (i == 3 || i == 5)
                throw std::runtime_error("task " +
                                         std::to_string(i));
            completed.fetch_add(1);
        });
    }
    try {
        pool.runAll(std::move(tasks));
        FAIL() << "runAll should have rethrown";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "task 3");
    }
    // Every non-throwing task still ran (no early abort).
    EXPECT_EQ(completed.load(), 6);
    // The pool survives a throwing batch.
    std::atomic<bool> ran{false};
    pool.runAll({[&ran] { ran = true; }});
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; i++) {
            pool.submit([&done] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                done.fetch_add(1);
            });
        }
        // Destructor must finish the queue, not abandon it.
    }
    EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, HardwareWorkersIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareWorkers(), 1u);
    ThreadPool pool(0); // 0 = hardware default
    EXPECT_GE(pool.workerCount(), 1u);
}

TEST(RunIndexed, StartsMinOfJobsAndCountMinusOneThreads)
{
    // The calling thread drives tasks too, so the fan-out adds
    // min(jobs, count) - 1 threads (jobs 0 = one per hardware
    // thread) and none at all when the tasks run inline.
    const auto threads = [] {
        return static_cast<std::size_t>(std::distance(
            std::filesystem::directory_iterator("/proc/self/task"),
            std::filesystem::directory_iterator()));
    };
    const std::size_t base = threads();
    for (const std::size_t jobs : {0, 1, 2, 8}) {
        for (const std::size_t count : {1, 3}) {
            const std::size_t resolved =
                jobs == 0 ? ThreadPool::hardwareWorkers() : jobs;
            std::vector<std::size_t> added(count, 99);
            compdiff::support::runIndexed(
                count, jobs,
                [&](std::size_t i) { added[i] = threads() - base; });
            const std::vector<std::size_t> expected(
                count, std::min(resolved, count) - 1);
            EXPECT_EQ(added, expected)
                << "jobs " << jobs << ", " << count << " tasks";
            // A joined thread can linger in /proc for a moment.
            for (int i = 0; i < 1000 && threads() != base; i++)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
    }
}

} // namespace
