#include "obs/trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/json.hh"
#include "support/table.hh"

namespace compdiff::obs
{

namespace
{

std::atomic<std::uint32_t> nextTid{0};

struct ThreadState
{
    std::uint32_t tid;
    std::uint32_t depth = 0;

    ThreadState() : tid(nextTid.fetch_add(1) + 1) {}
};

ThreadState &
threadState()
{
    thread_local ThreadState state;
    return state;
}

} // namespace

struct TraceRecorder::Impl
{
    /**
     * The head of the run (setup, per-config compiles) is pinned so
     * a long campaign cannot rotate it out; the tail lives in the
     * ring. Together: "how the run started and how it was going".
     *
     * Guards every field below: spans complete on worker threads
     * when a DiffEngine with jobs > 1 runs executions in parallel.
     */
    mutable std::mutex mu;
    std::vector<TraceEvent> pinned;
    std::size_t pinnedCapacity = 4096;
    std::vector<TraceEvent> ring;
    std::size_t capacity = 65536;
    std::size_t head = 0; ///< next write position once full
    std::uint64_t droppedCount = 0;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

TraceRecorder::TraceRecorder() : impl_(new Impl()) {}

TraceRecorder &
TraceRecorder::global()
{
    static TraceRecorder instance;
    return instance;
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->pinned.clear();
    impl_->ring.clear();
    impl_->head = 0;
    impl_->droppedCount = 0;
    impl_->epoch = std::chrono::steady_clock::now();
}

void
TraceRecorder::setCapacity(std::size_t capacity)
{
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->capacity = std::max<std::size_t>(capacity, 1);
        impl_->pinnedCapacity = impl_->capacity / 16;
    }
    clear();
}

std::uint64_t
TraceRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->droppedCount;
}

std::uint64_t
TraceRecorder::nowUs() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - impl_->epoch)
            .count());
}

void
TraceRecorder::append(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    Impl &state = *impl_;
    if (state.pinned.size() < state.pinnedCapacity) {
        state.pinned.push_back(std::move(event));
        return;
    }
    if (state.ring.size() < state.capacity) {
        state.ring.push_back(std::move(event));
        return;
    }
    state.ring[state.head] = std::move(event);
    state.head = (state.head + 1) % state.capacity;
    state.droppedCount++;
}

std::vector<TraceEvent>
TraceRecorder::events() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    const Impl &state = *impl_;
    std::vector<TraceEvent> out;
    out.reserve(state.pinned.size() + state.ring.size());
    out.insert(out.end(), state.pinned.begin(), state.pinned.end());
    for (std::size_t i = 0; i < state.ring.size(); i++) {
        out.push_back(
            state.ring[(state.head + i) % state.ring.size()]);
    }
    return out;
}

std::string
TraceRecorder::chromeTraceJson() const
{
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const auto &event : events()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"" << jsonEscape(event.name)
           << "\",\"cat\":\"compdiff\",\"ph\":\"X\",\"ts\":"
           << event.startUs << ",\"dur\":" << event.durUs
           << ",\"pid\":1,\"tid\":" << event.tid << "}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
       << "\"dropped\":" << dropped() << "}}\n";
    return os.str();
}

std::string
TraceRecorder::flameSummary() const
{
    struct Agg
    {
        std::uint64_t calls = 0;
        std::uint64_t totalUs = 0;
    };
    std::map<std::string, Agg> byName;
    for (const auto &event : events()) {
        Agg &agg = byName[event.name];
        agg.calls++;
        agg.totalUs += event.durUs;
    }
    std::vector<std::pair<std::string, Agg>> rows(byName.begin(),
                                                  byName.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second.totalUs > b.second.totalUs;
              });

    support::TextTable table;
    table.setHeader({"span", "calls", "total_us", "avg_us"});
    table.setAlign({support::Align::Left, support::Align::Right,
                    support::Align::Right, support::Align::Right});
    for (const auto &[name, agg] : rows) {
        table.addRow({name, std::to_string(agg.calls),
                      std::to_string(agg.totalUs),
                      std::to_string(agg.calls
                                         ? agg.totalUs / agg.calls
                                         : 0)});
    }
    return table.str();
}

Span::Span(std::string_view name)
{
    if (!tracingEnabled())
        return;
    active_ = true;
    name_ = name;
    startUs_ = TraceRecorder::global().nowUs();
    ThreadState &thread = threadState();
    depth_ = thread.depth++;
}

Span::~Span()
{
    if (!active_)
        return;
    ThreadState &thread = threadState();
    thread.depth--;
    const std::uint64_t end = TraceRecorder::global().nowUs();
    TraceRecorder::global().append(
        {name_, startUs_, end - startUs_, thread.tid, depth_});
}

} // namespace compdiff::obs
