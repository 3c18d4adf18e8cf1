#include "support/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "support/logging.hh"

namespace compdiff::support
{

struct ThreadPool::Impl
{
    std::mutex mu;
    std::condition_variable wake; ///< workers wait here for tasks
    std::deque<std::function<void()>> queue;
    bool stopping = false;
    std::vector<std::thread> workers;

    void workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mu);
                wake.wait(lock, [&] {
                    return stopping || !queue.empty();
                });
                if (queue.empty())
                    return; // stopping and drained
                task = std::move(queue.front());
                queue.pop_front();
            }
            task();
        }
    }
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(new Impl())
{
    if (workers == 0)
        workers = hardwareWorkers();
    impl_->workers.reserve(workers);
    for (std::size_t i = 0; i < workers; i++)
        impl_->workers.emplace_back([this] { impl_->workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->stopping = true;
    }
    impl_->wake.notify_all();
    for (auto &worker : impl_->workers)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        if (impl_->stopping)
            support::panic("submit() on a stopping ThreadPool");
        impl_->queue.push_back(std::move(task));
    }
    impl_->wake.notify_one();
}

std::size_t
ThreadPool::workerCount() const
{
    return impl_->workers.size();
}

std::size_t
ThreadPool::hardwareWorkers()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

namespace
{

/**
 * Shared state of one runAll() batch. Heap-allocated and owned
 * jointly by the caller and every driver job: a driver may still be
 * exiting its claim loop after the last task completed and the
 * caller has already returned, so the state must outlive both.
 */
struct Batch
{
    std::vector<std::function<void()>> tasks;
    std::atomic<std::size_t> next{0}; ///< next task index to claim
    std::mutex mu;
    std::condition_variable done;
    std::size_t completed = 0;
    std::vector<std::exception_ptr> errors;

    explicit Batch(std::vector<std::function<void()>> t)
        : tasks(std::move(t)), errors(tasks.size())
    {}

    /** Claim-and-run until no task is left. */
    void drive()
    {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size())
                return;
            try {
                tasks[i]();
            } catch (...) {
                errors[i] = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mu);
            if (++completed == tasks.size())
                done.notify_all();
        }
    }
};

} // namespace

void
ThreadPool::runAll(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;
    auto batch = std::make_shared<Batch>(std::move(tasks));

    // One driver per worker (capped at the batch size); the caller
    // drives too, so a busy or 0-sized pool cannot deadlock a batch.
    const std::size_t drivers =
        std::min(workerCount(), batch->tasks.size());
    for (std::size_t i = 0; i < drivers; i++)
        submit([batch] { batch->drive(); });
    batch->drive();

    {
        std::unique_lock<std::mutex> lock(batch->mu);
        batch->done.wait(lock, [&] {
            return batch->completed == batch->tasks.size();
        });
    }
    for (auto &error : batch->errors)
        if (error)
            std::rethrow_exception(error);
}

void
runIndexed(std::size_t count, std::size_t jobs,
           const std::function<void(std::size_t)> &task)
{
    const std::size_t threads = std::min(
        jobs == 0 ? ThreadPool::hardwareWorkers() : jobs, count);
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; i++)
            task(i);
        return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (std::size_t i = 0; i < count; i++)
        tasks.push_back([&task, i] { task(i); });
    ThreadPool pool(threads - 1);
    pool.runAll(std::move(tasks));
}

} // namespace compdiff::support
