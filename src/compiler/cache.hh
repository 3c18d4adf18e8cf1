#pragma once

/**
 * @file
 * Content-addressed compile cache with LRU bounds.
 *
 * Every campaign, bench, and triage pass in this repo recompiles the
 * same (program, configuration) pairs: the fuzzer compiles B_fuzz
 * plus the k differential binaries, the campaign driver then builds
 * a second DiffEngine and a probe binary for witness minimization,
 * and the sanitizer checks add three more. The compile step is pure
 * (an analyzed Program plus Traits deterministically yields one
 * Module), so we memoize it.
 *
 * The cache key is MurmurHash3 over the *content* of the inputs:
 *   - the pretty-printed program source (minic::printProgram) plus
 *     the source lines lowering reads, which printing renumbers
 *     (sourceLineFingerprint),
 *   - the implementation id string ("gcc-O2", ...), and
 *   - a Traits fingerprint covering every field that can influence
 *     compilation (traitsTweak ablations hash differently from the
 *     stock traits).
 * Content addressing means two Program objects parsed from the same
 * source share cache entries, and nothing dangles when a Program
 * dies: entries hold Modules by shared_ptr, independent of any
 * Program lifetime (interned types referenced by the Module must
 * still outlive its use, as before).
 *
 * The cache is process-wide, and long multi-target campaign runs
 * would otherwise grow it without bound (every target × k
 * implementations × every reduction candidate program). It is
 * therefore bounded: least-recently-used entries are evicted when
 * either the entry count or the estimated byte footprint exceeds its
 * cap (setLimits; 0 disables a cap). Eviction is safe at any time —
 * modules are handed out by shared_ptr, so in-flight users keep
 * theirs alive. Telemetry: the `cache.hit` / `cache.miss` /
 * `cache.evict` counters (obs::metricsEnabled gated, as usual).
 *
 * Thread safety: fully synchronized; shards compiling concurrently
 * either find the entry or compile redundantly and race benignly to
 * insert (first insert wins, both results are identical).
 */

#include <cstdint>
#include <memory>
#include <string>

#include "bytecode/module.hh"
#include "compiler/config.hh"
#include "minic/ast.hh"

namespace compdiff::compiler
{

/** MurmurHash3 content fingerprint of a whole analyzed program: its
 *  printed text and the source lines lowering reads. */
std::uint64_t programFingerprint(const minic::Program &program);

/** Fingerprint of every compile-relevant field of a Traits value. */
std::uint64_t traitsFingerprint(const Traits &traits);

/** The process-wide module cache. */
class CompileCache
{
  public:
    /** Default entry cap (generous: a 10-implementation campaign
     *  over every bundled target fits with room to spare). */
    static constexpr std::size_t kDefaultMaxEntries = 256;
    /** Default estimated-footprint cap. */
    static constexpr std::size_t kDefaultMaxBytes = 128u << 20;

    static CompileCache &global();

    /**
     * Return the cached module for (program, impl_id, traits) or
     * compile and insert it. `program_hash` must be
     * programFingerprint(program); callers pass it in so one
     * pretty-print covers a whole k-implementation batch. `impl_id`
     * is the owning Implementation's stable identifier (for the
     * simulated family, CompilerConfig::name()); keying on the open
     * id string instead of the Vendor/OptLevel enums lets any future
     * backend share the cache without widening an enum.
     */
    std::shared_ptr<const bytecode::Module>
    compile(const minic::Program &program,
            std::uint64_t program_hash, const std::string &impl_id,
            const CompilerConfig &config, const Traits &traits);

    /**
     * Bound the cache to `max_entries` entries and `max_bytes`
     * estimated bytes (0 = that cap disabled). Evicts immediately
     * when the current contents exceed the new caps. The newest
     * entry is never evicted, so a single oversized module still
     * caches (the byte cap is a budget, not a hard admission test).
     */
    void setLimits(std::size_t max_entries, std::size_t max_bytes);

    /** Entries currently cached. */
    std::size_t size() const;
    /** Estimated byte footprint of the cached modules. */
    std::size_t bytesUsed() const;
    std::size_t maxEntries() const;
    std::size_t maxBytes() const;

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    /** Entries evicted by the LRU bound since the last clear(). */
    std::uint64_t evictions() const;

    /** Drop every entry (tests; campaigns never need this). */
    void clear();

  private:
    CompileCache() = default;
    struct Impl;
    Impl *impl() const;
    mutable Impl *impl_ = nullptr;
};

/**
 * Convenience: fingerprint + traitsFor + cache lookup in one call.
 */
std::shared_ptr<const bytecode::Module>
compileCached(const minic::Program &program,
              const CompilerConfig &config);

/** Cached analog of Compiler::compileWithTraits. */
std::shared_ptr<const bytecode::Module>
compileCached(const minic::Program &program,
              const CompilerConfig &config, const Traits &traits);

} // namespace compdiff::compiler
