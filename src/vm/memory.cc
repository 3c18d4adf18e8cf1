#include "vm/memory.hh"

#include <algorithm>
#include <cstring>

namespace compdiff::vm
{

using compiler::Traits;

AddressSpace::AddressSpace(const Traits &traits, bool asan, bool msan,
                           std::uint64_t stack_size,
                           std::uint64_t heap_size)
    : asan_(asan), msan_(msan), stackFill_(traits.stackFill),
      heapFill_(traits.heapFill)
{
    rodata_.kind = SegmentKind::Rodata;
    rodata_.base = traits.rodataBase;
    rodata_.readOnly = true;

    globals_.kind = SegmentKind::Globals;
    globals_.base = traits.globalsBase;

    stack_.kind = SegmentKind::Stack;
    stack_.base = traits.stackBase - stack_size;
    stack_.data.assign(stack_size, traits.stackFill);

    heap_.kind = SegmentKind::Heap;
    heap_.base = traits.heapBase;
    heap_.data.assign(heap_size, traits.heapFill);

    if (asan_) {
        // Stack and heap become valid piecewise (frames / chunks).
        stack_.valid.assign(stack_.data.size(), 0);
        heap_.valid.assign(heap_.data.size(), 0);
    }
    if (msan_) {
        // Stack is poisoned per frame slot; heap per allocation.
        stack_.poison.assign(stack_.data.size(), 0);
        heap_.poison.assign(heap_.data.size(), 0);
    }
}

void
AddressSpace::setRodata(const std::vector<std::uint8_t> &image)
{
    rodata_.data = image;
    if (rodata_.data.empty())
        rodata_.data.push_back(0); // keep the segment mapped
}

void
AddressSpace::setGlobalsSize(std::uint64_t size)
{
    globals_.data.assign(std::max<std::uint64_t>(size, 16), 0);
    if (asan_)
        globals_.valid.assign(globals_.data.size(), 0);
    if (msan_)
        globals_.poison.assign(globals_.data.size(), 0);
    globals_.dirtyLo = ~std::uint64_t{0};
    globals_.dirtyHi = 0;
}

void
AddressSpace::initGlobals(const std::vector<std::uint8_t> &image)
{
    if (image.empty())
        return;
    std::memcpy(globals_.data.data(), image.data(), image.size());
    globals_.markDirty(0, image.size());
}

void
AddressSpace::resetSegment(Segment &seg, std::uint8_t fill)
{
    if (seg.dirtyLo >= seg.dirtyHi)
        return;
    const std::uint64_t lo = seg.dirtyLo;
    const std::uint64_t hi =
        std::min<std::uint64_t>(seg.dirtyHi, seg.data.size());
    if (lo < hi) {
        const auto span = static_cast<std::ptrdiff_t>(hi - lo);
        const auto off = static_cast<std::ptrdiff_t>(lo);
        std::fill_n(seg.data.begin() + off, span, fill);
        if (!seg.valid.empty())
            std::fill_n(seg.valid.begin() + off, span, 0);
        if (!seg.poison.empty())
            std::fill_n(seg.poison.begin() + off, span, 0);
    }
    seg.dirtyLo = ~std::uint64_t{0};
    seg.dirtyHi = 0;
}

void
AddressSpace::resetForRun()
{
    resetSegment(globals_, 0);
    resetSegment(stack_, stackFill_);
    resetSegment(heap_, heapFill_);
}

bool
AddressSpace::readByteRaw(std::uint64_t addr, std::uint8_t &byte)
{
    Segment *seg = find(addr, 1);
    if (!seg)
        return false;
    byte = seg->data[addr - seg->base];
    return true;
}

void
AddressSpace::setValid(std::uint64_t addr, std::uint64_t size,
                       bool valid)
{
    if (!asan_)
        return;
    Segment *seg = find(addr, size);
    if (!seg || seg->valid.empty())
        return;
    const std::uint64_t off = addr - seg->base;
    std::fill_n(seg->valid.begin() +
                    static_cast<std::ptrdiff_t>(off),
                size, valid ? 1 : 0);
    seg->markDirty(off, size);
}

void
AddressSpace::setPoison(std::uint64_t addr, std::uint64_t size,
                        bool poisoned)
{
    if (!msan_)
        return;
    Segment *seg = find(addr, size);
    if (!seg || seg->poison.empty())
        return;
    const std::uint64_t off = addr - seg->base;
    std::fill_n(seg->poison.begin() +
                    static_cast<std::ptrdiff_t>(off),
                size, poisoned ? 1 : 0);
    seg->markDirty(off, size);
}

// ===================================================================
// Heap
// ===================================================================

Heap::Heap(AddressSpace &space, const Traits &traits, bool asan)
    : space_(space), traits_(traits), asan_(asan)
{}

std::uint64_t
Heap::allocate(std::uint64_t size)
{
    calls_++;
    if (size == 0)
        size = 1;
    const std::uint64_t rounded = (size + 15) / 16 * 16;
    Segment &seg = space_.heap();

    // Reuse a freed chunk when the policy allows. First fit; reuse
    // order (LIFO vs FIFO) is a configuration trait — it decides which
    // stale object a use-after-free reads.
    for (std::size_t i = 0; i < freelist_.size(); i++) {
        const std::size_t idx =
            traits_.freelistLifo ? freelist_.size() - 1 - i : i;
        const std::uint64_t addr = freelist_[idx];
        auto it = chunks_.find(addr);
        if (it == chunks_.end() || it->second.size < rounded)
            continue;
        freelist_.erase(freelist_.begin() +
                        static_cast<std::ptrdiff_t>(idx));
        it->second.live = true;
        // Contents are whatever the previous owner (or the free
        // poisoner) left behind — malloc does not clear memory.
        space_.setValid(addr, size, true);
        space_.setPoison(addr, it->second.size, true);
        return addr;
    }

    const std::uint64_t redzone = asan_ ? 16 : 0;
    std::uint64_t addr = seg.base + brk_ + redzone;
    if (addr + rounded + redzone > seg.base + seg.data.size())
        return 0; // OOM: malloc returns NULL
    brk_ += rounded + 2 * redzone;
    chunks_[addr] = {rounded, true};
    space_.setValid(addr, size, true);
    space_.setPoison(addr, rounded, true);
    return addr;
}

FreeOutcome
Heap::release(std::uint64_t addr)
{
    calls_++;
    if (addr == 0)
        return FreeOutcome::NullNoop;

    auto it = chunks_.find(addr);
    if (it == chunks_.end()) {
        // Not a chunk start: stack/global pointer, interior pointer...
        if (asan_)
            return FreeOutcome::AsanInvalidFree;
        return traits_.detectInvalidFree
                   ? FreeOutcome::InvalidFreeAbort
                   : FreeOutcome::InvalidFreeIgnored;
    }

    Chunk &chunk = it->second;
    if (!chunk.live) {
        // Double free.
        if (asan_)
            return FreeOutcome::AsanDoubleFree;
        if (traits_.detectDoubleFreeTop && !freelist_.empty() &&
            freelist_.back() == addr) {
            // glibc-tcache-style detection: only the most recently
            // freed chunk is recognized.
            return FreeOutcome::DoubleFreeAbort;
        }
        // Silent corruption: the chunk is listed twice and will be
        // handed out to two owners.
        freelist_.push_back(addr);
        return FreeOutcome::DoubleFreeSilent;
    }

    chunk.live = false;
    if (traits_.freePoison) {
        Segment &seg = space_.heap();
        std::fill_n(seg.data.begin() +
                        static_cast<std::ptrdiff_t>(addr - seg.base),
                    chunk.size, traits_.freePoisonByte);
        seg.markDirty(addr - seg.base, chunk.size);
    }
    if (asan_) {
        space_.setValid(addr, chunk.size, false);
        quarantine_.push_back(addr);
        if (quarantine_.size() > kQuarantineDepth) {
            freelist_.push_back(quarantine_.front());
            quarantine_.pop_front();
        }
    } else {
        freelist_.push_back(addr);
    }
    return FreeOutcome::Ok;
}

bool
Heap::isLiveChunk(std::uint64_t addr) const
{
    auto it = chunks_.find(addr);
    return it != chunks_.end() && it->second.live;
}

std::uint64_t
Heap::chunkSize(std::uint64_t addr) const
{
    auto it = chunks_.find(addr);
    return it == chunks_.end() ? 0 : it->second.size;
}

void
Heap::reset()
{
    brk_ = 0;
    calls_ = 0;
    chunks_.clear();
    freelist_.clear();
    quarantine_.clear();
}

} // namespace compdiff::vm
