#pragma once

/**
 * @file
 * The VM's address space and heap.
 *
 * Memory is modeled as four flat segments — rodata, globals, stack,
 * heap — whose *bases are configuration traits*. That single design
 * decision is what makes several UB classes observable: an
 * out-of-bounds access lands on a different victim per binary, a
 * cross-object pointer comparison orders differently, a pointer
 * subtraction between objects yields a different distance.
 *
 * When the binary was built with ASan, every segment carries a
 * validity shadow (redzones, quarantined chunks); with MSan, a poison
 * shadow tracking uninitialized bytes.
 */

#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <vector>

#include "compiler/config.hh"

namespace compdiff::vm
{

/** Identifies which segment an address belongs to. */
enum class SegmentKind
{
    Rodata,
    Globals,
    Stack,
    Heap,
};

/** One mapped memory segment. */
struct Segment
{
    SegmentKind kind = SegmentKind::Rodata;
    std::uint64_t base = 0;
    bool readOnly = false;
    std::vector<std::uint8_t> data;
    /** ASan addressability shadow (1 = valid); empty when disabled. */
    std::vector<std::uint8_t> valid;
    /** MSan poison shadow (1 = uninitialized); empty when disabled. */
    std::vector<std::uint8_t> poison;

    /**
     * Dirty byte range [dirtyLo, dirtyHi) touched since the last
     * AddressSpace::resetForRun(). Every mutation point (write, shadow
     * updates, free-poisoning) records itself here, so a reset refills
     * only what one run actually touched instead of re-allocating the
     * whole segment — the arena that kills per-run malloc/memset churn.
     */
    std::uint64_t dirtyLo = ~std::uint64_t{0};
    std::uint64_t dirtyHi = 0;

    void
    markDirty(std::uint64_t off, std::uint64_t size)
    {
        if (size == 0)
            return;
        if (off < dirtyLo)
            dirtyLo = off;
        if (off + size > dirtyHi)
            dirtyHi = off + size;
    }

    bool
    contains(std::uint64_t addr, std::uint64_t size) const
    {
        return addr >= base && addr + size <= base + data.size() &&
               addr + size >= addr;
    }
};

/** Outcome of a checked memory access. */
enum class Access
{
    Ok,
    Unmapped,     ///< SIGSEGV analog
    ReadOnlyWrite,///< store to rodata; SIGSEGV analog
    AsanInvalid,  ///< ASan shadow violation (redzone / freed / OOB)
};

/** Outcome of Heap::release(). */
enum class FreeOutcome
{
    Ok,
    NullNoop,
    DoubleFreeAbort,   ///< "free(): double free detected"
    DoubleFreeSilent,  ///< freelist corrupted silently
    InvalidFreeAbort,  ///< "free(): invalid pointer"
    InvalidFreeIgnored,
    AsanDoubleFree,
    AsanInvalidFree,
};

/**
 * The flat address space of one execution.
 */
class AddressSpace
{
  public:
    /**
     * @param traits   Segment bases and fill patterns.
     * @param asan     Allocate validity shadows.
     * @param msan     Allocate poison shadows.
     * @param stack_size / heap_size  Segment sizes in bytes.
     */
    AddressSpace(const compiler::Traits &traits, bool asan, bool msan,
                 std::uint64_t stack_size, std::uint64_t heap_size);

    /** Map the rodata segment from the module image. */
    void setRodata(const std::vector<std::uint8_t> &image);

    /** Map the globals segment (zero-filled; caller writes inits). */
    void setGlobalsSize(std::uint64_t size);

    /**
     * Copy the module's globals image into the (reset) globals
     * segment. `image.size()` must be <= the mapped segment size.
     */
    void initGlobals(const std::vector<std::uint8_t> &image);

    /**
     * Restore every writable segment to its freshly-constructed state
     * by refilling only the dirty ranges: data gets the segment's fill
     * pattern back, shadows are zeroed. With this, one AddressSpace
     * services many runs (see vm::Vm's arena) with per-run cost
     * proportional to bytes touched, not bytes mapped.
     */
    void resetForRun();

    Segment &rodata() { return rodata_; }
    Segment &globals() { return globals_; }
    Segment &stack() { return stack_; }
    Segment &heap() { return heap_; }

    /**
     * Find the segment containing [addr, addr+size); or nullptr.
     * Segments are tried in the order rodata, globals, stack, heap:
     * bases are traits and VmLimits size the stack and heap, so two
     * segments can overlap, and then the first in that order wins.
     */
    Segment *find(std::uint64_t addr, std::uint64_t size);

    /**
     * Checked read of a little-endian value (size 1/4/8; any other
     * size up to 8 takes a generic copy).
     *
     * @param poisoned Set when MSan shadows any byte as uninit.
     */
    Access read(std::uint64_t addr, std::uint64_t size,
                std::uint64_t &value, bool &poisoned);

    /** Checked write; when msan, sets/clears poison shadow. */
    Access write(std::uint64_t addr, std::uint64_t size,
                 std::uint64_t value, bool poisoned);

    /** Raw byte read without ASan checks (for diagnostics). */
    bool readByteRaw(std::uint64_t addr, std::uint8_t &byte);

    bool asanEnabled() const { return asan_; }
    bool msanEnabled() const { return msan_; }

    /** Mark an address range ASan-valid / ASan-invalid. */
    void setValid(std::uint64_t addr, std::uint64_t size, bool valid);

    /** Mark an address range MSan-poisoned / unpoisoned. */
    void setPoison(std::uint64_t addr, std::uint64_t size,
                   bool poisoned);

  private:
    static void resetSegment(Segment &seg, std::uint8_t fill);

    Segment rodata_;
    Segment globals_;
    Segment stack_;
    Segment heap_;
    bool asan_;
    bool msan_;
    std::uint8_t stackFill_;
    std::uint8_t heapFill_;
};

// find/read/write run on every guest load and store, so they are
// inline, and the copy is specialized for the three access sizes the
// interpreter issues.

inline Segment *
AddressSpace::find(std::uint64_t addr, std::uint64_t size)
{
    if (rodata_.contains(addr, size))
        return &rodata_;
    if (globals_.contains(addr, size))
        return &globals_;
    if (stack_.contains(addr, size))
        return &stack_;
    if (heap_.contains(addr, size))
        return &heap_;
    return nullptr;
}

inline Access
AddressSpace::read(std::uint64_t addr, std::uint64_t size,
                   std::uint64_t &value, bool &poisoned)
{
    Segment *seg = find(addr, size);
    if (!seg)
        return Access::Unmapped;
    const std::uint64_t off = addr - seg->base;

    if (asan_ && !seg->valid.empty()) {
        for (std::uint64_t i = 0; i < size; i++)
            if (!seg->valid[off + i])
                return Access::AsanInvalid;
    }

    poisoned = false;
    if (msan_ && !seg->poison.empty()) {
        for (std::uint64_t i = 0; i < size; i++)
            if (seg->poison[off + i])
                poisoned = true;
    }

    const std::uint8_t *src = seg->data.data() + off;
    switch (size) {
      case 1:
        value = *src;
        break;
      case 4: {
        std::uint32_t v;
        std::memcpy(&v, src, 4);
        value = v;
        break;
      }
      case 8:
        std::memcpy(&value, src, 8);
        break;
      default: {
        std::uint64_t v = 0;
        std::memcpy(&v, src, static_cast<std::size_t>(size));
        value = v;
        break;
      }
    }
    return Access::Ok;
}

inline Access
AddressSpace::write(std::uint64_t addr, std::uint64_t size,
                    std::uint64_t value, bool poisoned)
{
    Segment *seg = find(addr, size);
    if (!seg)
        return Access::Unmapped;
    if (seg->readOnly)
        return Access::ReadOnlyWrite;
    const std::uint64_t off = addr - seg->base;

    if (asan_ && !seg->valid.empty()) {
        for (std::uint64_t i = 0; i < size; i++)
            if (!seg->valid[off + i])
                return Access::AsanInvalid;
    }

    std::uint8_t *dst = seg->data.data() + off;
    switch (size) {
      case 1:
        *dst = static_cast<std::uint8_t>(value);
        break;
      case 4: {
        const auto v = static_cast<std::uint32_t>(value);
        std::memcpy(dst, &v, 4);
        break;
      }
      case 8:
        std::memcpy(dst, &value, 8);
        break;
      default:
        std::memcpy(dst, &value, static_cast<std::size_t>(size));
        break;
    }
    seg->markDirty(off, size);
    if (msan_ && !seg->poison.empty()) {
        for (std::uint64_t i = 0; i < size; i++)
            seg->poison[off + i] = poisoned ? 1 : 0;
    }
    return Access::Ok;
}

/**
 * The heap allocator, with per-configuration policy: fill pattern of
 * fresh memory, free-poisoning, free-list order (LIFO vs FIFO),
 * glibc-style double-/invalid-free detection, and — under ASan —
 * redzones plus a quarantine that delays reuse.
 */
class Heap
{
  public:
    Heap(AddressSpace &space, const compiler::Traits &traits,
         bool asan);

    /**
     * Allocate `size` bytes (16-byte aligned).
     * @return address, or 0 when the heap is exhausted (like a failed
     *         malloc).
     */
    std::uint64_t allocate(std::uint64_t size);

    /** Free a pointer, applying the configuration's policy. */
    FreeOutcome release(std::uint64_t addr);

    /** Is `addr` the start of a live chunk? */
    bool isLiveChunk(std::uint64_t addr) const;

    /** Size of the chunk starting at addr (0 when unknown). */
    std::uint64_t chunkSize(std::uint64_t addr) const;

    /** allocate() plus release() calls since the last reset(). */
    std::uint64_t calls() const { return calls_; }

    /**
     * Forget all allocator bookkeeping (chunks, freelist, quarantine,
     * brk). Pairs with AddressSpace::resetForRun() to recycle one
     * Heap across runs.
     */
    void reset();

  private:
    struct Chunk
    {
        std::uint64_t size = 0;
        bool live = false;
    };

    AddressSpace &space_;
    const compiler::Traits &traits_;
    bool asan_;
    std::uint64_t brk_ = 0;
    std::uint64_t calls_ = 0;
    std::map<std::uint64_t, Chunk> chunks_;
    std::deque<std::uint64_t> freelist_;
    std::deque<std::uint64_t> quarantine_;

    static constexpr std::size_t kQuarantineDepth = 64;
};

} // namespace compdiff::vm
