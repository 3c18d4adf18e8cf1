#include "compiler/cache.hh"

#include <list>
#include <map>
#include <mutex>

#include "compiler/compiler.hh"
#include "compiler/lowering.hh"
#include "minic/printer.hh"
#include "obs/metrics.hh"
#include "support/hash.hh"

namespace compdiff::compiler
{

std::uint64_t
programFingerprint(const minic::Program &program)
{
    // Printing renumbers source lines and lowering reads them, so the
    // text alone would give a program and its printed-and-reparsed
    // form one module.
    support::HashCombiner combiner(0x0C0FFEEu);
    combiner.addString(minic::printProgram(program));
    combiner.add(sourceLineFingerprint(program));
    return combiner.digest();
}

std::uint64_t
traitsFingerprint(const Traits &traits)
{
    // Hash every field explicitly (never the raw bytes: padding
    // would make the fingerprint build-dependent). Any new Traits
    // field must be added here; the unit test pins the count.
    support::HashCombiner combiner(0x7241175u);
    combiner.add(traits.argsRightToLeft)
        .add(static_cast<std::uint64_t>(traits.localOrder))
        .add(static_cast<std::uint64_t>(traits.globalOrder))
        .add(traits.localPad)
        .add(static_cast<std::uint64_t>(traits.shift32))
        .add(static_cast<std::uint64_t>(traits.shift64))
        .add(traits.lineIsStatementStart);
    combiner.add(traits.constFold)
        .add(traits.foldUbGuards)
        .add(traits.alwaysTrueIncCmp)
        .add(traits.widenMulToLong)
        .add(traits.deadStoreElim)
        .add(traits.nullDerefExploit);
    combiner.add(traits.bugRemPow2)
        .add(traits.bugDiv32Shift)
        .add(traits.bugEmptyRange)
        .add(traits.bugChkOv32Unsigned);
    combiner.add(traits.stackFill)
        .add(traits.heapFill)
        .add(traits.undefWord)
        .add(traits.freePoison)
        .add(traits.freePoisonByte)
        .add(traits.freelistLifo)
        .add(traits.detectDoubleFreeTop)
        .add(traits.detectInvalidFree)
        .add(traits.powViaExp2)
        .add(traits.memcpyBackward);
    combiner.add(traits.rodataBase)
        .add(traits.globalsBase)
        .add(traits.heapBase)
        .add(traits.stackBase);
    return combiner.digest();
}

namespace
{

std::uint64_t
cacheKey(std::uint64_t program_hash, const std::string &impl_id,
         const Traits &traits)
{
    support::HashCombiner combiner(0xCAC4Eu);
    combiner.add(program_hash)
        .add(support::murmurHash64(impl_id))
        .add(traitsFingerprint(traits));
    return combiner.digest();
}

/**
 * Estimated resident footprint of one cached module. An estimate is
 * enough — the byte cap exists to stop unbounded growth across a
 * long multi-target run, not to account bytes exactly.
 */
std::size_t
moduleFootprint(const bytecode::Module &module)
{
    std::size_t bytes = sizeof(bytecode::Module);
    bytes += module.codeSize() * 16; // packed instruction estimate
    bytes += module.rodata.size();
    bytes += module.globals.size() * sizeof(bytecode::GlobalLayout);
    return bytes;
}

} // namespace

struct CompileCache::Impl
{
    struct Entry
    {
        std::uint64_t key = 0;
        std::shared_ptr<const bytecode::Module> module;
        std::size_t bytes = 0;
    };

    mutable std::mutex mu;
    /** Front = most recently used. */
    std::list<Entry> lru;
    std::map<std::uint64_t, std::list<Entry>::iterator> index;
    std::size_t bytesUsed = 0;
    std::size_t maxEntries = kDefaultMaxEntries;
    std::size_t maxBytes = kDefaultMaxBytes;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    /** Evict LRU entries until both caps hold (lock held). Spares
     *  the most recent entry so one oversized module still caches. */
    void
    enforceCaps()
    {
        std::uint64_t evicted = 0;
        while (lru.size() > 1 &&
               ((maxEntries && lru.size() > maxEntries) ||
                (maxBytes && bytesUsed > maxBytes))) {
            const Entry &victim = lru.back();
            bytesUsed -= victim.bytes;
            index.erase(victim.key);
            lru.pop_back();
            evicted++;
        }
        if (evicted) {
            evictions += evicted;
            obs::counter("cache.evict").add(evicted);
        }
    }
};

CompileCache::Impl *
CompileCache::impl() const
{
    static std::mutex create_mu;
    std::lock_guard<std::mutex> lock(create_mu);
    if (!impl_)
        impl_ = new Impl();
    return impl_;
}

CompileCache &
CompileCache::global()
{
    static CompileCache instance;
    return instance;
}

std::shared_ptr<const bytecode::Module>
CompileCache::compile(const minic::Program &program,
                      std::uint64_t program_hash,
                      const std::string &impl_id,
                      const CompilerConfig &config,
                      const Traits &traits)
{
    Impl &state = *impl();
    const std::uint64_t key =
        cacheKey(program_hash, impl_id, traits);
    {
        std::lock_guard<std::mutex> lock(state.mu);
        auto it = state.index.find(key);
        if (it != state.index.end()) {
            // Touch: move to the recent end.
            state.lru.splice(state.lru.begin(), state.lru,
                             it->second);
            state.hits++;
            obs::counter("cache.hit").add();
            return it->second->module;
        }
        state.misses++;
    }
    obs::counter("cache.miss").add();

    // Compile outside the lock: concurrent shards may compile the
    // same key redundantly, but never block each other on a compile.
    auto module = std::make_shared<const bytecode::Module>(
        Compiler(program).compileWithTraits(config, traits));

    std::lock_guard<std::mutex> lock(state.mu);
    if (auto it = state.index.find(key); it != state.index.end()) {
        // A concurrent compile won the race; keep its entry.
        state.lru.splice(state.lru.begin(), state.lru, it->second);
        return it->second->module;
    }
    const std::size_t bytes = moduleFootprint(*module);
    state.lru.push_front({key, module, bytes});
    state.index[key] = state.lru.begin();
    state.bytesUsed += bytes;
    state.enforceCaps();
    return module;
}

void
CompileCache::setLimits(std::size_t max_entries,
                        std::size_t max_bytes)
{
    Impl &state = *impl();
    std::lock_guard<std::mutex> lock(state.mu);
    state.maxEntries = max_entries;
    state.maxBytes = max_bytes;
    state.enforceCaps();
}

std::size_t
CompileCache::size() const
{
    Impl &state = *impl();
    std::lock_guard<std::mutex> lock(state.mu);
    return state.lru.size();
}

std::size_t
CompileCache::bytesUsed() const
{
    Impl &state = *impl();
    std::lock_guard<std::mutex> lock(state.mu);
    return state.bytesUsed;
}

std::size_t
CompileCache::maxEntries() const
{
    Impl &state = *impl();
    std::lock_guard<std::mutex> lock(state.mu);
    return state.maxEntries;
}

std::size_t
CompileCache::maxBytes() const
{
    Impl &state = *impl();
    std::lock_guard<std::mutex> lock(state.mu);
    return state.maxBytes;
}

std::uint64_t
CompileCache::hits() const
{
    Impl &state = *impl();
    std::lock_guard<std::mutex> lock(state.mu);
    return state.hits;
}

std::uint64_t
CompileCache::misses() const
{
    Impl &state = *impl();
    std::lock_guard<std::mutex> lock(state.mu);
    return state.misses;
}

std::uint64_t
CompileCache::evictions() const
{
    Impl &state = *impl();
    std::lock_guard<std::mutex> lock(state.mu);
    return state.evictions;
}

void
CompileCache::clear()
{
    Impl &state = *impl();
    std::lock_guard<std::mutex> lock(state.mu);
    state.lru.clear();
    state.index.clear();
    state.bytesUsed = 0;
    state.hits = 0;
    state.misses = 0;
    state.evictions = 0;
}

std::shared_ptr<const bytecode::Module>
compileCached(const minic::Program &program,
              const CompilerConfig &config)
{
    return compileCached(program, config, traitsFor(config));
}

std::shared_ptr<const bytecode::Module>
compileCached(const minic::Program &program,
              const CompilerConfig &config, const Traits &traits)
{
    return CompileCache::global().compile(
        program, programFingerprint(program), config.name(), config,
        traits);
}

} // namespace compdiff::compiler
