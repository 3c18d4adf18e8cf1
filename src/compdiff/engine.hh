#pragma once

/**
 * @file
 * The CompDiff differential engine (paper Section 3.1).
 *
 * Workflow, exactly as the paper states it:
 *   1) fix a set of compiler implementations C_i,
 *   2) compile the program with each C_i into binaries B_i,
 *   3) run every B_i on the same input,
 *   4) compare the (normalized) output checksums; any mismatch makes
 *      the input bug-triggering.
 *
 * The engine also implements the RQ6 timeout discipline: when only
 * *some* binaries exceed the execution budget, the budget is raised
 * and the run repeated, so that truncated outputs are never reported
 * as divergence.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compdiff/implementation.hh"
#include "compdiff/normalizer.hh"
#include "compiler/config.hh"
#include "support/bytes.hh"
#include "vm/vm.hh"

namespace compdiff::support
{
class ThreadPool;
}

namespace compdiff::core
{

/** Engine knobs. */
struct DiffOptions
{
    vm::VmLimits limits;
    OutputNormalizer normalizer = OutputNormalizer::withDefaultFilters();
    /** RQ6: re-run partial timeouts with a larger budget (up to
     *  three times, each at four times the previous budget). */
    bool retryTimeouts = true;
    /**
     * Worker threads for the k-way execution fan-out: 1 = serial
     * (the seed behavior), 0 = one per hardware thread. Results are
     * bit-identical for every value — every observation lands in its
     * implementation's slot and nonces depend only on (nonce_base,
     * implementation index), never on scheduling. The engine starts
     * at most k - 1 threads whatever the value: the calling thread
     * runs tasks too.
     */
    std::size_t jobs = 1;
    /**
     * Ablation hook: mutate each simulated configuration's derived
     * traits before compilation (e.g. disable one UB-exploiting pass
     * across the whole implementation set). Compile-time knobs only;
     * backends without Traits (the reference interpreter) ignore it.
     */
    std::function<void(compiler::Traits &)> traitsTweak;
};

/** One implementation's observation for an input. */
struct Observation
{
    /** Implementation::id() of the implementation that ran. */
    std::string impl;
    std::string normalizedOutput;
    std::string exitClass;
    std::uint64_t hash = 0;
    bool timedOut = false;
    /** Instructions executed in the final (kept) attempt — the
     *  deterministic per-implementation "timing" axis. */
    std::uint64_t instructions = 0;
};

/** Outcome of one differential run. */
struct DiffResult
{
    bool divergent = false;
    /**
     * Set when the run still contained partial timeouts after all
     * retries; such inputs are never reported as divergent (they are
     * the only would-be false-positive source, RQ6).
     */
    bool unresolvedTimeout = false;
    /** Budget rounds executed (1 = no timeout retry was needed);
     *  every implementation ran this many times (RQ6 accounting). */
    int attempts = 0;
    std::vector<Observation> observations;
    /** Distinct behavior classes; classOf[i] indexes them. */
    std::vector<std::size_t> classOf;
    std::size_t classCount = 0;

    /** Per-implementation output hashes, in implementation order. */
    std::vector<std::uint64_t> hashVector() const;

    /**
     * Human-readable report: classes, members, and their outputs.
     * When metrics are enabled (obs::metricsEnabled()), each class
     * line additionally carries per-observation instruction-count
     * telemetry and the report ends with the retry accounting.
     */
    std::string summary(std::size_t max_output_bytes = 160) const;
};

/**
 * Compiles a program under a set of implementations and runs the
 * output-comparison oracle on inputs.
 *
 * Compilation happens once, in the constructor, into one Artifact
 * per implementation (the simulated family memoizes modules in the
 * process-wide compiler::CompileCache, so rebuilding an engine for
 * the same (program, impl, traits) skips recompilation entirely).
 * The engine keeps one resident Executor per implementation — a warm
 * Vm for the simulated family, a warm tree-walker for the reference
 * interpreter — so runInput() and runBatch() only execute (the
 * forkserver-style reuse from Section 3.2). With options.jobs > 1
 * the k executors run on the engine's own support::ThreadPool, one
 * task per implementation.
 *
 * Concurrency: a DiffEngine may be driven by one thread at a time
 * (its executors keep per-worker state between rounds). Sharded
 * campaigns construct one engine per shard; the compile cache makes
 * those k-way compilations nearly free.
 */
class DiffEngine
{
  public:
    /**
     * Diff against the paper's ten-implementation oracle.
     *
     * @param program  Analyzed program (must outlive the engine).
     * @param options  Engine knobs.
     */
    explicit DiffEngine(const minic::Program &program,
                        DiffOptions options = {});

    /**
     * Diff against an explicit implementation set (e.g. from
     * parseImplementations).
     */
    DiffEngine(const minic::Program &program, ImplementationSet impls,
               DiffOptions options = {});

    /**
     * Convenience: an all-simulated oracle from a config list
     * (wraps each CompilerConfig in its simulated implementation).
     */
    DiffEngine(const minic::Program &program,
               std::vector<compiler::CompilerConfig> configs,
               DiffOptions options = {});

    ~DiffEngine();

    /**
     * Run every binary on one input and compare normalized outputs.
     *
     * @param input      The test input.
     * @param nonce_base Seed for per-execution nonces (timestamps);
     *                   every binary execution gets a distinct nonce,
     *                   as wall-clock time would.
     */
    DiffResult runInput(const support::Bytes &input,
                        std::uint64_t nonce_base = 0) const;

    /**
     * Run a batch of inputs against the resident binaries — one
     * DiffResult per input, each bit-identical to
     * runInput(inputs[b], nonce_bases[b]). The first execution round
     * of the whole batch runs implementation-major (each resident
     * executor runs every input back to back); the rare RQ6
     * timeout-retry rounds then complete per input. `nonce_bases`
     * must have one entry per input.
     */
    std::vector<DiffResult>
    runBatch(const std::vector<support::Bytes> &inputs,
             const std::vector<std::uint64_t> &nonce_bases) const;

    /**
     * Recompile the oracle for a new program and retarget the
     * resident executors at the fresh artifacts in place (falling
     * back to executor rebuilds for backends that cannot rebind).
     * Equivalent to constructing a new engine with the same
     * implementations and options, minus the per-program setup cost —
     * the reduction oracle retargets one engine across thousands of
     * candidate programs.
     */
    void retarget(const minic::Program &program);

    /** The oracle members, in observation order. */
    const ImplementationSet &implementations() const
    {
        return impls_;
    }

    /** Number of implementations (k in the paper). */
    std::size_t size() const { return impls_.size(); }

    const DiffOptions &options() const { return options_; }

  private:
    /**
     * The one execution loop: run every implementation on each of
     * `inputs` at `budget`, storing input b's observation of
     * implementation i in results[b].observations[i] and counting
     * the round in results[b].attempts. Implementation-major: each
     * resident executor (decoded module, warm arena) runs the whole
     * batch back to back — inline at jobs == 1, as one pool task per
     * implementation at jobs > 1. Every observation is a pure
     * function of (implementation, input, nonce base, budget), so
     * neither the order nor the fan-out can change a result.
     */
    void runRound(std::span<const support::Bytes> inputs,
                  std::span<const std::uint64_t> nonce_bases,
                  std::span<DiffResult> results,
                  std::uint64_t budget) const;

    /**
     * Complete a result whose observations hold the first round:
     * run the RQ6 timeout-retry loop, assign behavior classes, and
     * record metrics. Shared by runInput and runBatch.
     */
    void finishInput(DiffResult &result, const support::Bytes &input,
                     std::uint64_t nonce_base) const;

    std::vector<std::shared_ptr<const Artifact>>
    compileAll(const minic::Program &program) const;

    ImplementationSet impls_;
    DiffOptions options_;
    /** Resident per-implementation workers, observation order. */
    std::vector<std::unique_ptr<Executor>> executors_;
    /** Present only when jobs > 1 and k > 1; min(jobs, k - 1)
     *  workers. */
    std::unique_ptr<support::ThreadPool> pool_;
};

} // namespace compdiff::core
