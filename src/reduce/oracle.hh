#pragma once

/**
 * @file
 * The reduction oracle: "is this smaller candidate still the same
 * bug?"
 *
 * Every reducer in src/reduce (the byte-level ddmin over the witness
 * input and the AST-level program shrinker) is driven by the same
 * question, and answering it wrong silently turns a Table 5 filing
 * into a report about a *different* bug. The contract is therefore
 * strict:
 *
 *   - The interesting property is the *divergence signature*: the
 *     partition of the implementation set into behavior classes
 *     (which implementations agree with which, derived from the
 *     per-implementation output-hash classes of core::DiffResult).
 *     Outputs may change value during reduction — a shrunken input
 *     usually prints different numbers — but the partition must not:
 *     the same implementations must still disagree in the same
 *     grouping.
 *   - The oracle re-runs the full ImplementationSet through a
 *     core::DiffEngine, with a fixed nonce so acceptance is
 *     deterministic and independent of scheduling. The process-wide compiler::CompileCache absorbs
 *     the many candidate recompiles of program reduction.
 *   - A candidate budget bounds the total number of oracle
 *     evaluations per reduction (the CI smoke relies on this to keep
 *     wall time bounded); once exhausted, every further candidate is
 *     rejected and the reducers stop where they are. Reduction is
 *     anytime: the current best is always a valid witness.
 */

#include <cstdint>
#include <memory>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "minic/ast.hh"
#include "support/bytes.hh"

namespace compdiff::reduce
{

/**
 * Canonical divergence signature of a diff result: a hash of the
 * behavior-class partition (DiffResult::classOf, which the engine
 * canonicalizes in first-seen order) plus the per-implementation
 * exit classes. Two runs have equal signatures exactly when the same
 * implementations split into the same groups with the same coarse
 * exits — the identity of a bug report, independent of the concrete
 * output bytes.
 */
std::uint64_t divergenceSignature(const core::DiffResult &result);

/** Oracle evaluation counters (per reduction). */
struct OracleStats
{
    std::uint64_t tried = 0;    ///< candidates evaluated
    std::uint64_t accepted = 0; ///< candidates that preserved the bug
};

/**
 * Abstract acceptance test for reduction candidates. Reducers only
 * see this interface; tests substitute instrumented oracles.
 */
class Oracle
{
  public:
    virtual ~Oracle() = default;

    /** The signature every accepted candidate must reproduce. */
    virtual std::uint64_t targetSignature() const = 0;

    /**
     * Evaluate one candidate (program, input) pair. True iff the
     * candidate still diverges with exactly the target signature.
     * Counts against the candidate budget; always false once the
     * budget is exhausted.
     */
    virtual bool preserves(const minic::Program &program,
                           const support::Bytes &input) = 0;

    /** True when no further candidates will be evaluated. */
    virtual bool budgetExhausted() const = 0;

    virtual const OracleStats &stats() const = 0;
};

/**
 * The standard oracle: re-runs the implementation set on every
 * candidate and compares divergence signatures.
 *
 * Construction establishes the target signature by re-running the
 * original witness under the oracle's own deterministic nonce
 * discipline (nonce_base 0, exactly what DiffEngine::runInput uses
 * for single-input diffs). A witness whose divergence does not
 * reproduce deterministically — e.g. one that only diverged under a
 * specific campaign nonce — yields reproduced() == false, and the
 * caller skips reduction instead of minimizing toward a moving
 * target.
 *
 * Not thread-safe: one SignatureOracle drives one reduction. The
 * reduction pipeline runs concurrent reductions with one oracle
 * each.
 */
class SignatureOracle : public Oracle
{
  public:
    /**
     * @param program  The witness program (must outlive the oracle's
     *                 use of it within preserves() calls against this
     *                 same program; candidate programs are
     *                 caller-owned and only borrowed per call).
     * @param impls    The oracle members the divergence partitions.
     * @param witness  The divergence-triggering input.
     * @param options  Diff knobs (limits, normalizer, traitsTweak);
     *                 options.jobs is forced to 1 — parallelism
     *                 belongs to the per-signature fan-out above.
     * @param candidate_budget Max preserves() evaluations (the
     *                 original-witness run does not count).
     */
    SignatureOracle(const minic::Program &program,
                    core::ImplementationSet impls,
                    const support::Bytes &witness,
                    core::DiffOptions options,
                    std::uint64_t candidate_budget);
    ~SignatureOracle() override;

    /** Did the witness reproduce its divergence deterministically? */
    bool reproduced() const { return reproduced_; }

    /** The witness's diff result under the oracle's nonce. */
    const core::DiffResult &witnessResult() const
    {
        return witnessResult_;
    }

    std::uint64_t targetSignature() const override
    {
        return target_;
    }

    bool preserves(const minic::Program &program,
                   const support::Bytes &input) override;

    bool budgetExhausted() const override
    {
        return stats_.tried >= budget_;
    }

    const OracleStats &stats() const override { return stats_; }

  private:
    /**
     * Engine for `program`: the witness program's engine is kept for
     * the oracle's lifetime; any other program is a per-call
     * candidate whose engine is rebuilt every time (candidates are
     * destroyed after the call, and a pointer-keyed cache would be
     * fooled by heap-address reuse into touching a freed AST).
     */
    const core::DiffEngine &engineFor(const minic::Program &program);

    core::ImplementationSet impls_;
    core::DiffOptions options_;
    std::uint64_t budget_;
    std::uint64_t target_ = 0;
    bool reproduced_ = false;
    core::DiffResult witnessResult_;
    OracleStats stats_;

    const minic::Program *witnessProgram_ = nullptr;
    std::unique_ptr<core::DiffEngine> witnessEngine_;
    std::unique_ptr<core::DiffEngine> candidateEngine_;
};

} // namespace compdiff::reduce
