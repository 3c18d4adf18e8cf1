#include "layers.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <new>

namespace e2ebench
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nsSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

/** Totals of everything except executor-local counts, which fold in
 *  under the mutex when an executor dies. */
std::mutex totalsMu;
LayerTotals totals;

std::atomic<std::uint64_t> threadGeneration{1};
std::atomic<std::uint64_t> threadsSeen{0};
thread_local std::uint64_t threadSeenGeneration = 0;

std::atomic<bool> countAllocs{false};
std::atomic<std::uint64_t> allocCount{0};

std::mutex samplesMu;
std::vector<std::string> samples;

/** Every kSampleStride-th raw output is kept, at most kSampleCap per
 *  executor: enough for a stable per-call normalize time. */
constexpr std::uint64_t kSampleStride = 8;
constexpr std::size_t kSampleCap = 64;

class TracedExecutor : public compdiff::core::Executor
{
  public:
    TracedExecutor(std::unique_ptr<compdiff::core::Executor> inner,
                   std::uint64_t base_budget)
        : inner_(std::move(inner)), baseBudget_(base_budget)
    {
    }

    ~TracedExecutor() override
    {
        {
            std::lock_guard<std::mutex> lock(totalsMu);
            totals.rebinds += local_.rebinds;
            totals.oracleExecs += local_.oracleExecs;
            totals.oracleExecNs += local_.oracleExecNs;
            totals.guestInsns += local_.guestInsns;
            totals.timeouts += local_.timeouts;
            totals.timeoutExecNs += local_.timeoutExecNs;
            totals.retryExecs += local_.retryExecs;
        }
        if (!sampled_.empty()) {
            std::lock_guard<std::mutex> lock(samplesMu);
            for (auto &output : sampled_)
                samples.push_back(std::move(output));
        }
    }

    TracedExecutor(const TracedExecutor &) = delete;
    TracedExecutor &operator=(const TracedExecutor &) = delete;

    compdiff::core::RawObservation
    execute(const compdiff::support::Bytes &input, std::uint64_t nonce,
            std::uint64_t budget) override
    {
        const std::uint64_t generation =
            threadGeneration.load(std::memory_order_relaxed);
        if (threadSeenGeneration != generation) {
            threadSeenGeneration = generation;
            threadsSeen.fetch_add(1, std::memory_order_relaxed);
        }
        const Clock::time_point start = Clock::now();
        compdiff::core::RawObservation out =
            inner_->execute(input, nonce, budget);
        const std::uint64_t ns = nsSince(start);
        local_.oracleExecs++;
        local_.oracleExecNs += ns;
        local_.guestInsns += out.instructions;
        if (out.timedOut) {
            local_.timeouts++;
            local_.timeoutExecNs += ns;
        }
        if (budget > baseBudget_)
            local_.retryExecs++;
        if (local_.oracleExecs % kSampleStride == 1 &&
            sampled_.size() < kSampleCap)
            sampled_.push_back(out.output);
        return out;
    }

    bool
    rebind(std::shared_ptr<const compdiff::core::Artifact> artifact)
        override
    {
        const bool ok = inner_->rebind(std::move(artifact));
        if (ok)
            local_.rebinds++;
        return ok;
    }

  private:
    std::unique_ptr<compdiff::core::Executor> inner_;
    std::uint64_t baseBudget_;
    LayerTotals local_;
    std::vector<std::string> sampled_;
};

class TracedImplementation : public compdiff::core::Implementation
{
  public:
    explicit TracedImplementation(
        std::shared_ptr<const compdiff::core::Implementation> inner)
        : inner_(std::move(inner))
    {
    }

    const std::string &id() const override { return inner_->id(); }

    std::string describe() const override { return inner_->describe(); }

    std::shared_ptr<const compdiff::core::Artifact>
    compile(const compdiff::minic::Program &program,
            const compdiff::core::CompileContext &ctx) const override
    {
        const Clock::time_point start = Clock::now();
        auto artifact = inner_->compile(program, ctx);
        const std::uint64_t ns = nsSince(start);
        std::lock_guard<std::mutex> lock(totalsMu);
        totals.compiles++;
        totals.compileNs += ns;
        return artifact;
    }

    std::unique_ptr<compdiff::core::Executor>
    makeExecutor(std::shared_ptr<const compdiff::core::Artifact> artifact,
                 const compdiff::vm::VmLimits &limits) const override
    {
        const Clock::time_point start = Clock::now();
        auto inner = inner_->makeExecutor(std::move(artifact), limits);
        const std::uint64_t ns = nsSince(start);
        {
            std::lock_guard<std::mutex> lock(totalsMu);
            totals.executorsBuilt++;
            totals.executorBuildNs += ns;
        }
        return std::make_unique<TracedExecutor>(std::move(inner),
                                                limits.maxInstructions);
    }

    const compdiff::compiler::CompilerConfig *
    simulatedConfig() const override
    {
        return inner_->simulatedConfig();
    }

  private:
    std::shared_ptr<const compdiff::core::Implementation> inner_;
};

} // namespace

LayerTotals
layerTotals()
{
    LayerTotals out;
    {
        std::lock_guard<std::mutex> lock(totalsMu);
        out = totals;
    }
    out.threads = threadsSeen.load(std::memory_order_relaxed);
    out.allocs = allocCount.load(std::memory_order_relaxed);
    return out;
}

void
beginThreadCount()
{
    threadGeneration.fetch_add(1, std::memory_order_relaxed);
    threadsSeen.store(0, std::memory_order_relaxed);
}

void
setAllocCounting(bool on)
{
    countAllocs.store(on, std::memory_order_relaxed);
}

std::vector<std::string>
takeSampledOutputs()
{
    std::lock_guard<std::mutex> lock(samplesMu);
    std::vector<std::string> out;
    out.swap(samples);
    return out;
}

compdiff::core::ImplementationSet
traced(const compdiff::core::ImplementationSet &impls)
{
    compdiff::core::ImplementationSet out;
    for (const auto &impl : impls)
        out.push_back(std::make_shared<TracedImplementation>(impl));
    return out;
}

} // namespace e2ebench

// --- counting operator new ---------------------------------------------
//
// Whole-process allocation count for fuzz.allocs_per_exec. Counting is
// off (one relaxed load per allocation) outside traced runs.

namespace
{

void *
countedAlloc(std::size_t size)
{
    if (e2ebench::countAllocs.load(std::memory_order_relaxed))
        e2ebench::allocCount.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (e2ebench::countAllocs.load(std::memory_order_relaxed))
        e2ebench::allocCount.fetch_add(1, std::memory_order_relaxed);
    const std::size_t alignment = static_cast<std::size_t>(align);
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    void *p = std::aligned_alloc(alignment, rounded ? rounded : alignment);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
