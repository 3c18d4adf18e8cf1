#pragma once

/**
 * @file
 * The open implementation abstraction behind the k-way oracle.
 *
 * The paper's oracle is "compile P with k compiler implementations
 * and diff the outputs" (§3.1, Alg. 1). Until this layer existed the
 * reproduction hardwired "implementation" to Vendor × OptLevel — an
 * enum product threaded through every consumer, and a shared-fate
 * blind spot: every member of the oracle ran on the same
 * lowering + bytecode-VM pipeline, so a defect in that pipeline was
 * invisible to the diff. `core::Implementation` turns "an
 * implementation" into an interface — compile a program once into an
 * opaque Artifact, then execute it many times — so the oracle can mix
 * backends that share no code:
 *
 *   - SimulatedCompilerImpl: the existing Vendor×OptLevel+Traits
 *     pipeline (one instance per CompilerConfig; ids like "gcc-O2",
 *     "clang-O1+asan" are unchanged, so paper10 outputs stay
 *     byte-identical).
 *   - RefInterpImpl ("ref"): a direct AST tree-walking reference
 *     interpreter with no lowering, no bytecode, and no
 *     Traits-derived codegen choices (src/refinterp/).
 *
 * parseImplementations() builds ImplementationSets from spec
 * strings:
 *
 *   spec      := family [ ":" arg ]*   | legacy-name
 *   specs     := spec ("," spec)*      aliases: "paper10", "all"
 *
 *   "gcc:-O2"           simulated gcc at -O2
 *   "clang:-Os:ubsan"   simulated clang at -Os with simulated UBSan
 *   "ref"               the reference interpreter
 *   "gcc-O2"            legacy CompilerConfig::name() form
 *   "paper10"           the paper's 10-implementation set
 *   "all"               paper10 plus the reference interpreter
 *
 * Adding a backend is one more family in makeImplementation() — no
 * enum widening, no DiffEngine changes.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/config.hh"
#include "minic/ast.hh"
#include "support/bytes.hh"
#include "vm/vm.hh"

namespace compdiff::core
{

/**
 * What one implementation observed for one (input, budget) run —
 * the raw currency the diff engine normalizes, hashes, and compares.
 */
struct RawObservation
{
    /** Raw program output (pre-normalization). */
    std::string output;
    /** Coarse exit classification ("exit:0", "crash:segv", ...). */
    std::string exitClass;
    /** True when the step budget ran out (the timeout analog). */
    bool timedOut = false;
    /** Steps consumed (telemetry; never compared). */
    std::uint64_t instructions = 0;
};

/**
 * An implementation's compiled form of one program. Opaque to
 * callers; each Implementation downcasts its own artifacts.
 */
class Artifact
{
  public:
    virtual ~Artifact() = default;
};

/**
 * A reusable execution worker for one artifact — the forkserver
 * analog. Executors hold per-worker mutable state (a Vm, an
 * interpreter), so one executor must not be driven from two threads
 * at once; DiffEngine keeps one per implementation.
 */
class Executor
{
  public:
    virtual ~Executor() = default;

    /**
     * Run the artifact on one input.
     *
     * @param nonce  Per-execution time_stamp() value.
     * @param budget Step budget for this run (RQ6 retries raise it).
     */
    virtual RawObservation execute(const support::Bytes &input,
                                   std::uint64_t nonce,
                                   std::uint64_t budget) = 0;

    /**
     * Retarget this executor at a new artifact from the same
     * implementation, keeping warm per-worker state (a Vm's arena, a
     * tree-walker's layout caches). Returns false when the backend
     * does not support in-place rebinding; the caller then falls back
     * to Implementation::makeExecutor. The resident-executor campaign
     * path: reduction and fuzzing retarget one executor set across
     * thousands of candidate programs.
     */
    virtual bool rebind(std::shared_ptr<const Artifact> /*artifact*/)
    {
        return false;
    }
};

/** Options threaded into Implementation::compile. */
struct CompileContext
{
    /**
     * compiler::programFingerprint(program), if the caller already
     * computed it (one pretty-print covers a k-implementation
     * batch); 0 means "compute it yourself if you need it".
     */
    std::uint64_t programHash = 0;
    /**
     * Ablation hook: mutates the expanded Traits before compilation
     * (simulated family only; backends without Traits ignore it).
     */
    std::function<void(compiler::Traits &)> traitsTweak;
    /**
     * Compile benches set this false to measure real compiles
     * instead of CompileCache hits.
     */
    bool useCache = true;
};

/**
 * One member of the k-way oracle: a way to compile and execute a
 * MiniC program. Implementations are immutable and shareable; all
 * per-run state lives in Executors and Artifacts.
 */
class Implementation
{
  public:
    virtual ~Implementation() = default;

    /**
     * Stable identifier used in summaries, subset names, telemetry
     * metric names, and the compile-cache key ("gcc-O2", "ref").
     */
    virtual const std::string &id() const = 0;

    /** One-line human description ("simulated gcc at -O2"). */
    virtual std::string describe() const = 0;

    /**
     * Compile `program` (which must outlive the artifact) into this
     * implementation's executable form.
     */
    virtual std::shared_ptr<const Artifact>
    compile(const minic::Program &program,
            const CompileContext &ctx = {}) const = 0;

    /** Build a reusable executor for a compiled artifact. */
    virtual std::unique_ptr<Executor>
    makeExecutor(std::shared_ptr<const Artifact> artifact,
                 const vm::VmLimits &limits) const = 0;

    /**
     * The CompilerConfig behind this implementation, when it is a
     * member of the simulated family — nullptr for independent
     * backends. Consumers that genuinely need config-level detail
     * (UB localization replays traits-specific pipelines) use this
     * and degrade gracefully on nullptr.
     */
    virtual const compiler::CompilerConfig *simulatedConfig() const
    {
        return nullptr;
    }
};

/** An ordered oracle: the k implementations to diff. */
using ImplementationSet =
    std::vector<std::shared_ptr<const Implementation>>;

/**
 * Build one implementation from a single spec ("gcc:-O2", "ref",
 * legacy "clang-O1+asan"; see the file comment for the grammar).
 * Fatal on unknown specs.
 */
std::shared_ptr<const Implementation>
makeImplementation(const std::string &spec);

/**
 * Build an ordered set from a comma-separated spec list, expanding
 * the "paper10" and "all" aliases in place. Fatal on an empty or
 * unknown spec.
 */
ImplementationSet parseImplementations(const std::string &specs);

/** The simulated implementation for one CompilerConfig. */
std::shared_ptr<const Implementation>
simulatedImplementation(const compiler::CompilerConfig &config);

/** Simulated implementations for an explicit config list. */
ImplementationSet implementationsFor(
    const std::vector<compiler::CompilerConfig> &configs);

/**
 * The paper's 10-implementation oracle ({gcc,clang} × {O0..O3,Os}),
 * in the canonical order every table and figure uses.
 */
ImplementationSet paper10Implementations();

} // namespace compdiff::core
