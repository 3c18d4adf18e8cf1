/**
 * @file
 * Unit tests for the VM memory subsystem: address space mapping,
 * checked accesses, shadow bookkeeping, heap allocator policies,
 * and the coverage map.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "compiler/config.hh"
#include "vm/coverage.hh"
#include "vm/memory.hh"

namespace
{

using namespace compdiff;
using compiler::CompilerConfig;
using compiler::OptLevel;
using compiler::Traits;
using compiler::traitsFor;
using compiler::Vendor;
using vm::Access;
using vm::AddressSpace;
using vm::FreeOutcome;
using vm::Heap;

Traits
gccTraits()
{
    return traitsFor({Vendor::Gcc, OptLevel::O2});
}

Traits
clangTraits()
{
    return traitsFor({Vendor::Clang, OptLevel::O2});
}

TEST(AddressSpaceTest, SegmentsMappedAtTraitBases)
{
    const Traits traits = gccTraits();
    AddressSpace space(traits, false, false, 1 << 14, 1 << 14);
    space.setRodata({1, 2, 3});
    space.setGlobalsSize(64);

    EXPECT_NE(space.find(traits.rodataBase, 1), nullptr);
    EXPECT_NE(space.find(traits.globalsBase, 1), nullptr);
    EXPECT_NE(space.find(traits.heapBase, 1), nullptr);
    EXPECT_NE(space.find(traits.stackBase - 8, 8), nullptr);
    EXPECT_EQ(space.find(0, 1), nullptr);         // null page
    EXPECT_EQ(space.find(0x500, 4), nullptr);     // still unmapped
    EXPECT_EQ(space.find(0x7fffffffull, 1), nullptr);
}

TEST(AddressSpaceTest, ReadWriteRoundTrip)
{
    const Traits traits = gccTraits();
    AddressSpace space(traits, false, false, 1 << 14, 1 << 14);
    space.setGlobalsSize(64);

    const std::uint64_t addr = traits.globalsBase + 8;
    EXPECT_EQ(space.write(addr, 8, 0x1122334455667788ull, false),
              Access::Ok);
    std::uint64_t value = 0;
    bool poisoned = true;
    EXPECT_EQ(space.read(addr, 8, value, poisoned), Access::Ok);
    EXPECT_EQ(value, 0x1122334455667788ull);
    EXPECT_FALSE(poisoned);

    // Partial-width reads are little-endian.
    EXPECT_EQ(space.read(addr, 1, value, poisoned), Access::Ok);
    EXPECT_EQ(value, 0x88u);
    EXPECT_EQ(space.read(addr, 4, value, poisoned), Access::Ok);
    EXPECT_EQ(value, 0x55667788u);
}

TEST(AddressSpaceTest, RodataIsReadOnly)
{
    const Traits traits = gccTraits();
    AddressSpace space(traits, false, false, 1 << 12, 1 << 12);
    space.setRodata({'h', 'i', 0});
    std::uint64_t value;
    bool poisoned;
    EXPECT_EQ(space.read(traits.rodataBase, 1, value, poisoned),
              Access::Ok);
    EXPECT_EQ(value, 'h');
    EXPECT_EQ(space.write(traits.rodataBase, 1, 'X', false),
              Access::ReadOnlyWrite);
}

TEST(AddressSpaceTest, StackFillPatternApplied)
{
    const Traits gcc = gccTraits();
    AddressSpace space(gcc, false, false, 1 << 12, 1 << 12);
    std::uint64_t value;
    bool poisoned;
    ASSERT_EQ(space.read(gcc.stackBase - 16, 1, value, poisoned),
              Access::Ok);
    EXPECT_EQ(value, gcc.stackFill);

    const Traits clang = clangTraits();
    AddressSpace other(clang, false, false, 1 << 12, 1 << 12);
    ASSERT_EQ(other.read(clang.stackBase - 16, 1, value, poisoned),
              Access::Ok);
    EXPECT_EQ(value, clang.stackFill);
    EXPECT_NE(gcc.stackFill, clang.stackFill);
}

TEST(AddressSpaceTest, AsanShadowGatesAccess)
{
    const Traits traits = gccTraits();
    AddressSpace space(traits, true, false, 1 << 12, 1 << 12);
    const std::uint64_t addr = traits.stackBase - 64;
    // Stack starts fully invalid under ASan.
    EXPECT_EQ(space.write(addr, 4, 1, false), Access::AsanInvalid);
    space.setValid(addr, 4, true);
    EXPECT_EQ(space.write(addr, 4, 1, false), Access::Ok);
    space.setValid(addr, 4, false);
    std::uint64_t value;
    bool poisoned;
    EXPECT_EQ(space.read(addr, 4, value, poisoned),
              Access::AsanInvalid);
}

TEST(AddressSpaceTest, MsanPoisonTracksWrites)
{
    const Traits traits = gccTraits();
    AddressSpace space(traits, false, true, 1 << 12, 1 << 12);
    const std::uint64_t addr = traits.stackBase - 32;
    space.setPoison(addr, 8, true);
    std::uint64_t value;
    bool poisoned = false;
    ASSERT_EQ(space.read(addr, 8, value, poisoned), Access::Ok);
    EXPECT_TRUE(poisoned);
    // A clean write unpoisons; a poisoned write re-poisons.
    ASSERT_EQ(space.write(addr, 8, 5, false), Access::Ok);
    ASSERT_EQ(space.read(addr, 8, value, poisoned), Access::Ok);
    EXPECT_FALSE(poisoned);
    ASSERT_EQ(space.write(addr, 8, 5, true), Access::Ok);
    ASSERT_EQ(space.read(addr, 8, value, poisoned), Access::Ok);
    EXPECT_TRUE(poisoned);
}

// --------- inline access path vs. the out-of-line original ---------

/**
 * The access path as it was before find/read/write moved inline:
 * a loop over the four segments and a copy of run-time size. It runs
 * on copies of a real AddressSpace's segments and is the oracle for
 * the size-specialized inline path.
 */
struct ReferenceSpace
{
    vm::Segment rodata, globals, stack, heap;
    bool asan = false;
    bool msan = false;

    vm::Segment *
    find(std::uint64_t addr, std::uint64_t size)
    {
        for (vm::Segment *seg : {&rodata, &globals, &stack, &heap})
            if (seg->contains(addr, size))
                return seg;
        return nullptr;
    }

    Access
    read(std::uint64_t addr, std::uint64_t size, std::uint64_t &value,
         bool &poisoned)
    {
        vm::Segment *seg = find(addr, size);
        if (!seg)
            return Access::Unmapped;
        const std::uint64_t off = addr - seg->base;
        if (asan && !seg->valid.empty()) {
            for (std::uint64_t i = 0; i < size; i++)
                if (!seg->valid[off + i])
                    return Access::AsanInvalid;
        }
        poisoned = false;
        if (msan && !seg->poison.empty()) {
            for (std::uint64_t i = 0; i < size; i++)
                if (seg->poison[off + i])
                    poisoned = true;
        }
        std::uint64_t v = 0;
        std::memcpy(&v, seg->data.data() + off,
                    static_cast<std::size_t>(size));
        value = v;
        return Access::Ok;
    }

    Access
    write(std::uint64_t addr, std::uint64_t size, std::uint64_t value,
          bool poisoned)
    {
        vm::Segment *seg = find(addr, size);
        if (!seg)
            return Access::Unmapped;
        if (seg->readOnly)
            return Access::ReadOnlyWrite;
        const std::uint64_t off = addr - seg->base;
        if (asan && !seg->valid.empty()) {
            for (std::uint64_t i = 0; i < size; i++)
                if (!seg->valid[off + i])
                    return Access::AsanInvalid;
        }
        std::memcpy(seg->data.data() + off, &value,
                    static_cast<std::size_t>(size));
        seg->markDirty(off, size);
        if (msan && !seg->poison.empty()) {
            for (std::uint64_t i = 0; i < size; i++)
                seg->poison[off + i] = poisoned ? 1 : 0;
        }
        return Access::Ok;
    }
};

void
expectSameSegment(const vm::Segment &got, const vm::Segment &want)
{
    EXPECT_EQ(got.data, want.data);
    EXPECT_EQ(got.valid, want.valid);
    EXPECT_EQ(got.poison, want.poison);
    EXPECT_EQ(got.dirtyLo, want.dirtyLo);
    EXPECT_EQ(got.dirtyHi, want.dirtyHi);
}

/** An address aimed at a segment edge, a gap or a wrap-around. */
std::uint64_t
pickAddress(std::mt19937_64 &rng, const std::vector<vm::Segment *> &segs)
{
    const vm::Segment &seg = *segs[rng() % segs.size()];
    const std::uint64_t size = seg.data.size();
    switch (rng() % 6) {
      case 0: // inside
        return seg.base + rng() % size;
      case 1: // at or straddling the end
        return seg.base + size - 1 - rng() % 8;
      case 2: // straddling or just below the start
        return seg.base - 1 - rng() % 8;
      case 3: // just past the end, in the gap above
        return seg.base + size + rng() % 64;
      case 4: // near the top of the address space (addr + size wraps)
        return ~std::uint64_t{0} - rng() % 8;
      default: // anywhere
        return rng() & 0x0fffffffull;
    }
}

/**
 * Drive the same random reads and writes through `space` and through
 * the reference on a copy of its segments; every result, value,
 * poison flag, segment byte and dirty range must agree.
 */
void
checkAgainstReference(AddressSpace &space, bool asan, bool msan,
                      std::uint64_t seed, int ops)
{
    std::mt19937_64 rng(seed);
    // Random shadows, so ASan and MSan verdicts vary per byte.
    for (vm::Segment *seg :
         {&space.globals(), &space.stack(), &space.heap()}) {
        for (int i = 0; i < 64; i++) {
            const std::uint64_t len = 1 + rng() % 32;
            const std::uint64_t addr =
                seg->base + rng() % (seg->data.size() - len);
            space.setValid(addr, len, rng() % 4 != 0);
            space.setPoison(addr, len, rng() % 2 == 0);
        }
    }
    ReferenceSpace ref{space.rodata(), space.globals(), space.stack(),
                       space.heap(), asan, msan};
    const std::vector<vm::Segment *> segs = {
        &space.rodata(), &space.globals(), &space.stack(),
        &space.heap()};
    const std::uint64_t sizes[] = {1, 4, 8, 1, 4, 8, 2, 3};

    for (int op = 0; op < ops; op++) {
        const std::uint64_t addr = pickAddress(rng, segs);
        const std::uint64_t size = sizes[rng() % 8];
        SCOPED_TRACE(testing::Message()
                     << "op " << op << " addr 0x" << std::hex << addr
                     << std::dec << " size " << size);
        if (rng() % 2) {
            std::uint64_t got = 0xfeedull, want = 0xfeedull;
            bool got_poison = true, want_poison = true;
            ASSERT_EQ(space.read(addr, size, got, got_poison),
                      ref.read(addr, size, want, want_poison));
            ASSERT_EQ(got, want);
            ASSERT_EQ(got_poison, want_poison);
        } else {
            const std::uint64_t value = rng();
            const bool poison = rng() % 2;
            ASSERT_EQ(space.write(addr, size, value, poison),
                      ref.write(addr, size, value, poison));
        }
        if (op % 64 == 0 || op + 1 == ops) {
            expectSameSegment(space.rodata(), ref.rodata);
            expectSameSegment(space.globals(), ref.globals);
            expectSameSegment(space.stack(), ref.stack);
            expectSameSegment(space.heap(), ref.heap);
            if (testing::Test::HasFailure())
                return;
        }
    }
}

AddressSpace
smallSpace(const Traits &traits, bool asan, bool msan)
{
    AddressSpace space(traits, asan, msan, 1 << 10, 1 << 10);
    std::vector<std::uint8_t> image(48);
    for (std::size_t i = 0; i < image.size(); i++)
        image[i] = static_cast<std::uint8_t>(i * 37 + 1);
    space.setRodata(image);
    space.setGlobalsSize(200);
    return space;
}

TEST(AddressSpaceTest, InlineAccessMatchesReference)
{
    std::uint64_t seed = 1;
    for (const Traits &traits : {gccTraits(), clangTraits()}) {
        for (const bool asan : {false, true}) {
            for (const bool msan : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "asan " << asan << " msan " << msan);
                AddressSpace space = smallSpace(traits, asan, msan);
                checkAgainstReference(space, asan, msan, seed++,
                                      15000);
            }
        }
    }
}

/** A heap placed inside the stack (a traits tweak): addresses in the
 *  overlap resolve to the stack, which is scanned first. */
TEST(AddressSpaceTest, OverlappingSegmentsResolveInScanOrder)
{
    Traits traits = gccTraits();
    traits.heapBase = traits.stackBase - 512;
    for (const bool asan : {false, true}) {
        for (const bool msan : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "asan " << asan << " msan " << msan);
            AddressSpace space = smallSpace(traits, asan, msan);
            const std::uint64_t addr = traits.heapBase + 8;
            EXPECT_EQ(space.find(addr, 8), &space.stack());
            // Straddling the stack's top: only the heap holds it.
            EXPECT_EQ(space.find(traits.stackBase - 4, 8),
                      &space.heap());
            if (!asan) {
                ASSERT_EQ(space.write(addr, 8, 0x0102030405060708ull,
                                      false),
                          Access::Ok);
                EXPECT_EQ(space.stack().data[addr -
                                             space.stack().base],
                          0x08);
                EXPECT_EQ(space.heap().data[8], traits.heapFill);
            }
            checkAgainstReference(space, asan, msan, 100 + asan * 2 +
                                                          msan,
                                  15000);
        }
    }
}

// ---------------- heap ----------------

TEST(HeapTest, AllocationsAreAlignedAndFilled)
{
    const Traits traits = gccTraits();
    AddressSpace space(traits, false, false, 1 << 12, 1 << 14);
    Heap heap(space, traits, false);
    const std::uint64_t a = heap.allocate(10);
    const std::uint64_t b = heap.allocate(20);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_GE(b, a + 16);

    std::uint64_t value;
    bool poisoned;
    ASSERT_EQ(space.read(a, 1, value, poisoned), Access::Ok);
    EXPECT_EQ(value, traits.heapFill);
}

TEST(HeapTest, OomReturnsNull)
{
    const Traits traits = gccTraits();
    AddressSpace space(traits, false, false, 1 << 12, 256);
    Heap heap(space, traits, false);
    EXPECT_NE(heap.allocate(128), 0u);
    EXPECT_EQ(heap.allocate(512), 0u); // larger than the segment
}

TEST(HeapTest, ReuseOrderFollowsPolicy)
{
    // gcc-sim: LIFO free list; clang-sim: FIFO.
    const Traits gcc = gccTraits();
    AddressSpace s1(gcc, false, false, 1 << 12, 1 << 14);
    Heap lifo(s1, gcc, false);
    const auto a1 = lifo.allocate(16);
    const auto b1 = lifo.allocate(16);
    lifo.release(a1);
    lifo.release(b1);
    EXPECT_EQ(lifo.allocate(16), b1); // last freed first

    const Traits clang = clangTraits();
    AddressSpace s2(clang, false, false, 1 << 12, 1 << 14);
    Heap fifo(s2, clang, false);
    const auto a2 = fifo.allocate(16);
    const auto b2 = fifo.allocate(16);
    fifo.release(a2);
    fifo.release(b2);
    EXPECT_EQ(fifo.allocate(16), a2); // first freed first
}

TEST(HeapTest, DoubleFreeDetectionIsPolicyDependent)
{
    const Traits gcc = gccTraits(); // tcache-style top check
    AddressSpace s1(gcc, false, false, 1 << 12, 1 << 14);
    Heap detecting(s1, gcc, false);
    const auto p = detecting.allocate(16);
    EXPECT_EQ(detecting.release(p), FreeOutcome::Ok);
    EXPECT_EQ(detecting.release(p), FreeOutcome::DoubleFreeAbort);

    // Not at the top of the free list: the check misses.
    const auto q = detecting.allocate(16); // reuses p
    const auto r = detecting.allocate(16);
    EXPECT_EQ(detecting.release(q), FreeOutcome::Ok);
    EXPECT_EQ(detecting.release(r), FreeOutcome::Ok);
    EXPECT_EQ(detecting.release(q), FreeOutcome::DoubleFreeSilent);

    const Traits clang = clangTraits(); // no detection at all
    AddressSpace s2(clang, false, false, 1 << 12, 1 << 14);
    Heap silent(s2, clang, false);
    const auto p2 = silent.allocate(16);
    EXPECT_EQ(silent.release(p2), FreeOutcome::Ok);
    EXPECT_EQ(silent.release(p2), FreeOutcome::DoubleFreeSilent);
}

TEST(HeapTest, InvalidFreePolicies)
{
    const Traits gcc = gccTraits();
    AddressSpace s1(gcc, false, false, 1 << 12, 1 << 14);
    Heap detecting(s1, gcc, false);
    EXPECT_EQ(detecting.release(gcc.stackBase - 64),
              FreeOutcome::InvalidFreeAbort);
    EXPECT_EQ(detecting.release(0), FreeOutcome::NullNoop);

    const Traits clang = clangTraits();
    AddressSpace s2(clang, false, false, 1 << 12, 1 << 14);
    Heap ignoring(s2, clang, false);
    EXPECT_EQ(ignoring.release(clang.stackBase - 64),
              FreeOutcome::InvalidFreeIgnored);
}

TEST(HeapTest, FreePoisonScrubsOnClangOnly)
{
    const Traits clang = clangTraits();
    AddressSpace s1(clang, false, false, 1 << 12, 1 << 14);
    Heap poisoning(s1, clang, false);
    const auto p = poisoning.allocate(16);
    s1.write(p, 1, 'X', false);
    poisoning.release(p);
    std::uint64_t value;
    bool poisoned;
    ASSERT_EQ(s1.read(p, 1, value, poisoned), Access::Ok);
    EXPECT_EQ(value, clang.freePoisonByte);

    const Traits gcc = gccTraits();
    AddressSpace s2(gcc, false, false, 1 << 12, 1 << 14);
    Heap keeping(s2, gcc, false);
    const auto q = keeping.allocate(16);
    s2.write(q, 1, 'X', false);
    keeping.release(q);
    ASSERT_EQ(s2.read(q, 1, value, poisoned), Access::Ok);
    EXPECT_EQ(value, 'X'); // stale data survives
}

TEST(HeapTest, AsanQuarantineDelaysReuse)
{
    const Traits traits = gccTraits();
    AddressSpace space(traits, true, false, 1 << 12, 1 << 16);
    Heap heap(space, traits, true);
    const auto p = heap.allocate(16);
    heap.release(p);
    // A fresh allocation must NOT reuse the quarantined chunk.
    const auto q = heap.allocate(16);
    EXPECT_NE(q, p);
    // And the freed chunk stays inaccessible.
    std::uint64_t value;
    bool poisoned;
    EXPECT_EQ(space.read(p, 1, value, poisoned),
              Access::AsanInvalid);
}

// ---------------- coverage ----------------

TEST(CoverageTest, EdgesNotJustBlocks)
{
    vm::CoverageMap map;
    map.reset();
    map.hitBlock(10);
    map.hitBlock(20);
    const auto ab = map.countBits();

    vm::CoverageMap reversed;
    reversed.reset();
    reversed.hitBlock(20);
    reversed.hitBlock(10);
    EXPECT_EQ(ab, reversed.countBits());
    EXPECT_NE(map.pathHash(), reversed.pathHash()); // different edges
}

TEST(CoverageTest, VirginMapDetectsNovelty)
{
    vm::VirginMap virgin;
    vm::CoverageMap map;
    map.reset();
    map.hitBlock(1);
    map.hitBlock(2);
    EXPECT_TRUE(virgin.mergeAndCheckNew(map));
    EXPECT_FALSE(virgin.mergeAndCheckNew(map)); // same path
    // Same edges but a higher hit-count bucket is new again.
    for (int i = 0; i < 10; i++) {
        map.hitBlock(1);
        map.hitBlock(2);
    }
    EXPECT_TRUE(virgin.mergeAndCheckNew(map));
    EXPECT_GE(virgin.edgesSeen(), 2u);
}

/** The merge as it was before zero words were skipped: every byte
 *  of the trace map is classified. */
struct ReferenceVirgin
{
    std::vector<std::uint8_t> virgin =
        std::vector<std::uint8_t>(vm::kCoverageMapSize, 0);
    std::size_t edges = 0;

    bool
    mergeAndCheckNew(const vm::CoverageMap &map)
    {
        bool is_new = false;
        for (std::size_t i = 0; i < vm::kCoverageMapSize; i++) {
            const std::uint8_t bucket = vm::coverageBucket(map.data()[i]);
            if (bucket & ~virgin[i]) {
                if (virgin[i] == 0)
                    edges++;
                virgin[i] |= bucket;
                is_new = true;
            }
        }
        return is_new;
    }
};

/** Sets trace-map cells through hitBlock: the block id that, after
 *  the previous block, lands on the wanted cell. */
struct CellWriter
{
    vm::CoverageMap &map;
    std::uint16_t prev = 0;

    void
    hit(std::size_t cell, int times)
    {
        for (int t = 0; t < times; t++) {
            const auto block =
                static_cast<std::uint16_t>(cell ^ prev);
            map.hitBlock(block);
            prev = static_cast<std::uint16_t>(block >> 1);
        }
    }
};

TEST(CoverageTest, WordSkippingMergeMatchesReference)
{
    std::mt19937_64 rng(7);
    vm::VirginMap virgin;
    ReferenceVirgin ref;
    vm::CoverageMap map;
    for (int round = 0; round < 300; round++) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        map.reset();
        CellWriter writer{map};
        // Sparse maps mostly; every tenth is dense. The first and
        // last byte and the last word get hits of their own.
        const int cells = round % 10 == 9 ? 20000 : 1 + rng() % 40;
        for (int c = 0; c < cells; c++) {
            const int times = 1 + static_cast<int>(rng() % 5 == 0
                                                       ? rng() % 200
                                                       : rng() % 3);
            writer.hit(rng() % vm::kCoverageMapSize, times);
        }
        if (round % 7 == 0)
            writer.hit(0, 1 + static_cast<int>(rng() % 130));
        if (round % 11 == 0)
            writer.hit(vm::kCoverageMapSize - 1,
                       1 + static_cast<int>(rng() % 130));
        if (round % 13 == 0)
            writer.hit(vm::kCoverageMapSize - 8 + rng() % 8, 1);
        // The hits that reached each cell are what both merges see.
        ASSERT_EQ(virgin.mergeAndCheckNew(map),
                  ref.mergeAndCheckNew(map));
        ASSERT_EQ(virgin.edgesSeen(), ref.edges);
        ASSERT_EQ(virgin.snapshotBytes(), ref.virgin);
    }
    EXPECT_GT(virgin.edgesSeen(), 0u);
}

TEST(CoverageTest, BucketBoundaries)
{
    using vm::coverageBucket;
    EXPECT_EQ(coverageBucket(0), 0);
    EXPECT_EQ(coverageBucket(1), 1);
    EXPECT_EQ(coverageBucket(2), 2);
    EXPECT_EQ(coverageBucket(3), 4);
    EXPECT_EQ(coverageBucket(7), 8);
    EXPECT_EQ(coverageBucket(8), 16);
    EXPECT_EQ(coverageBucket(127), 64);
    EXPECT_EQ(coverageBucket(128), 128);
    EXPECT_EQ(coverageBucket(255), 128);
}

} // namespace
