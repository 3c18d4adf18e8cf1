#include "vm/coverage.hh"

#include <cstring>

#include "support/hash.hh"

namespace compdiff::vm
{

void
CoverageMap::reset()
{
    map_.fill(0);
    prevLoc_ = 0;
}

std::size_t
CoverageMap::countBits() const
{
    std::size_t count = 0;
    for (const auto cell : map_)
        count += cell != 0;
    return count;
}

std::uint8_t
coverageBucket(std::uint8_t hits)
{
    if (hits == 0)
        return 0;
    if (hits == 1)
        return 1;
    if (hits == 2)
        return 2;
    if (hits == 3)
        return 4;
    if (hits <= 7)
        return 8;
    if (hits <= 15)
        return 16;
    if (hits <= 31)
        return 32;
    if (hits <= 127)
        return 64;
    return 128;
}

std::uint64_t
CoverageMap::pathHash() const
{
    std::array<std::uint8_t, kCoverageMapSize> buckets;
    for (std::size_t i = 0; i < kCoverageMapSize; i++)
        buckets[i] = coverageBucket(map_[i]);
    return support::murmurHash64(buckets.data(), buckets.size());
}

VirginMap::VirginMap()
{
    virgin_.fill(0);
}

void
VirginMap::merge(const VirginMap &other)
{
    edges_ = 0;
    for (std::size_t i = 0; i < kCoverageMapSize; i++) {
        virgin_[i] |= other.virgin_[i];
        edges_ += virgin_[i] != 0;
    }
}

support::Bytes
VirginMap::snapshotBytes() const
{
    return support::Bytes(virgin_.begin(), virgin_.end());
}

bool
VirginMap::restoreBytes(const support::Bytes &bytes)
{
    if (bytes.size() != kCoverageMapSize)
        return false;
    edges_ = 0;
    for (std::size_t i = 0; i < kCoverageMapSize; i++) {
        virgin_[i] = bytes[i];
        edges_ += virgin_[i] != 0;
    }
    return true;
}

bool
VirginMap::mergeAndCheckNew(const CoverageMap &map)
{
    // One execution touches a few hundred of the 65,536 cells, so
    // zero 8-byte words are skipped whole, as AFL++'s has_new_bits
    // does. A zero cell's bucket is 0 and never new, so skipping
    // changes nothing.
    static_assert(kCoverageMapSize % 8 == 0);
    bool is_new = false;
    const std::uint8_t *trace = map.map_.data();
    for (std::size_t word = 0; word < kCoverageMapSize; word += 8) {
        std::uint64_t bits;
        std::memcpy(&bits, trace + word, sizeof(bits));
        if (bits == 0)
            continue;
        for (std::size_t i = word; i < word + 8; i++) {
            const std::uint8_t bucket = coverageBucket(trace[i]);
            if (bucket & ~virgin_[i]) {
                if (virgin_[i] == 0)
                    edges_++;
                virgin_[i] |= bucket;
                is_new = true;
            }
        }
    }
    return is_new;
}

} // namespace compdiff::vm
