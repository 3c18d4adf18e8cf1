#pragma once

/**
 * @file
 * The bytecode interpreter.
 *
 * A Vm instance binds a compiled Module to the runtime half of its
 * CompilerConfig's traits (memory layout, fill patterns, heap policy,
 * libm strategy) — together they are "the binary". The engine is
 * organized for campaign-scale reuse (the cost profile the paper gets
 * from forkserver instrumentation, Section 3.2):
 *
 *  - the module's Insn stream is pre-decoded once into a threaded-code
 *    image (bytecode/decode.hh) with fused superinstructions;
 *  - per-run state (address space, heap, frames, evaluation stack) is
 *    arena-allocated: built on first run, then *reset* — dirty memory
 *    ranges refilled, allocator bookkeeping cleared — instead of
 *    re-allocated for every input;
 *  - rebind() retargets a Vm at a new module (same config), keeping
 *    the arena, so a resident executor can serve a whole campaign.
 *
 * Dispatch comes in two flavors selected at runtime (DispatchMode):
 * GNU computed-goto direct threading (default where the compiler
 * supports it) and a portable switch loop. Both are generated from
 * the same handler source (vm/interp.inc) and are byte-identical in
 * observable behavior; Vm::setDispatchMode is the one override of
 * the default.
 *
 * Thread safety: run() mutates the per-run arena, so one Vm serves
 * one in-flight run at a time. Distinct Vm instances may run
 * concurrently — a parallel DiffEngine dedicates one executor (one
 * Vm) per implementation, never sharing an instance across tasks.
 */

#include <cstdint>
#include <memory>

#include "bytecode/module.hh"
#include "compiler/config.hh"
#include "support/bytes.hh"
#include "vm/coverage.hh"
#include "vm/memory.hh"
#include "vm/result.hh"

/** Does this build support computed-goto direct threading? */
#if defined(__GNUC__) || defined(__clang__)
#define COMPDIFF_VM_HAS_THREADED 1
#else
#define COMPDIFF_VM_HAS_THREADED 0
#endif

namespace compdiff::vm
{

/** One control-flow trace entry: a basic block the execution entered,
 *  identified by function index and source line. */
struct TraceEntry
{
    int func = 0;
    std::uint32_t line = 0;

    bool operator==(const TraceEntry &) const = default;
};

/** Per-execution resource limits. */
struct VmLimits
{
    /** Instruction budget; exceeding it is the "timeout" analog. */
    std::uint64_t maxInstructions = 2'000'000;
    std::uint64_t stackSize = 1 << 16;
    std::uint64_t heapSize = 1 << 18;
    std::size_t maxOutput = 1 << 20;
    std::uint32_t maxCallDepth = 200;
};

/** Interpreter dispatch strategy. */
enum class DispatchMode
{
    Switch,  ///< portable while/switch loop
    Threaded,///< GNU computed-goto direct threading
};

/** Every Vm's initial dispatch mode: Threaded where the compiler
 *  supports it (COMPDIFF_VM_HAS_THREADED), Switch otherwise. */
DispatchMode defaultDispatchMode();

const char *dispatchModeName(DispatchMode mode);

/**
 * Executes a compiled module under its configuration's runtime
 * traits.
 */
class Vm
{
  public:
    /**
     * @param module Compiled program (must outlive the Vm).
     * @param config The configuration the module was compiled with.
     * @param limits Per-execution resource limits.
     */
    Vm(const bytecode::Module &module,
       const compiler::CompilerConfig &config, VmLimits limits = {});
    ~Vm();
    Vm(Vm &&) noexcept;
    Vm &operator=(Vm &&) noexcept;

    /**
     * Run `main` on one input.
     *
     * @param input    The fuzz input visible through the input_*
     *                 builtins.
     * @param coverage Optional coverage map to instrument into (the
     *                 B_fuzz role); pass nullptr for plain runs.
     * @param nonce    Per-execution value returned by time_stamp();
     *                 callers model wall-clock nondeterminism with it.
     * @param trace    Optional control-flow trace sink (used by the
     *                 fault-localization support, paper Section 5);
     *                 capped at 65536 entries.
     */
    ExecutionResult run(const support::Bytes &input,
                        CoverageMap *coverage = nullptr,
                        std::uint64_t nonce = 0,
                        std::vector<TraceEntry> *trace = nullptr);

    /**
     * Retarget this Vm at a new module (compiled under the same
     * configuration), keeping the per-run arena warm. The resident-
     * module campaign path: one executor per implementation survives
     * across programs.
     */
    void rebind(const bytecode::Module &module);

    const compiler::CompilerConfig &config() const { return config_; }
    const VmLimits &limits() const { return limits_; }

    /** Raise the instruction budget (RQ6 timeout re-examination). */
    void setMaxInstructions(std::uint64_t budget)
    {
        limits_.maxInstructions = budget;
    }

    void setDispatchMode(DispatchMode mode) { dispatch_ = mode; }

    /**
     * Test hook: substitute a decoded image for the bound module
     * (e.g. one built with fusion disabled) to compare pipelines.
     * The image must have been decoded from the bound module.
     */
    void setDecodedProgram(
        std::shared_ptr<const bytecode::DecodedProgram> decoded);

  private:
    struct RunState;

    void bindModule(const bytecode::Module &module);

    ExecutionResult runSwitch(const support::Bytes &input,
                              CoverageMap *coverage,
                              std::uint64_t nonce,
                              std::vector<TraceEntry> *trace);
#if COMPDIFF_VM_HAS_THREADED
    ExecutionResult runThreaded(const support::Bytes &input,
                                CoverageMap *coverage,
                                std::uint64_t nonce,
                                std::vector<TraceEntry> *trace);
#endif

    const bytecode::Module *module_;
    std::shared_ptr<const bytecode::DecodedProgram> decoded_;
    compiler::CompilerConfig config_;
    compiler::Traits traits_;
    VmLimits limits_;
    DispatchMode dispatch_ = defaultDispatchMode();

    /** globalId -> absolute address. */
    std::vector<std::uint64_t> globalAddr_;
    /** Pristine globals image, copied at the start of each run. */
    std::vector<std::uint8_t> globalsImage_;

    /** Arena-allocated per-run state, recycled across runs. */
    std::unique_ptr<RunState> state_;
};

} // namespace compdiff::vm
