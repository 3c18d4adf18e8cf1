#pragma once

/**
 * @file
 * Sancheck finding reduction + bundling.
 *
 * Rides on the divergence pipeline (src/reduce): each distinct-
 * signature finding witness gets its own budgeted oracle, which
 * reduce::shrinkWitness drives unchanged (it only sees
 * reduce::Oracle), and the result is bundled under
 * `<outDir>/sig-<hex>/` — program.mc, input.bin, witness.bin,
 * report.md — where the hex is the finding's signature hash. The
 * report names the certified UB site and the silent or mis-firing
 * sanitizer.
 *
 * Determinism: witnesses reduce into fixed result slots through
 * support::runIndexed, every oracle runs its sancheck engine
 * serially under nonce 0, and bundles are written serially
 * afterwards — bit-identical for any `jobs`.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "minic/ast.hh"
#include "reduce/input_reducer.hh"
#include "reduce/oracle.hh"
#include "reduce/program_reducer.hh"
#include "sancheck/sancheck.hh"
#include "support/bytes.hh"

namespace compdiff::sancheck
{

/** One campaign finding to reduce. */
struct FindingWitness
{
    /** The finding-triggering input. */
    support::Bytes input;
    /** The campaign's classification for it. */
    SanFinding finding;
};

/** Pipeline knobs (the sancheck analog of reduce::ReduceOptions). */
struct FindingReduceOptions
{
    /** Per-execution limits for the oracle re-runs. */
    vm::VmLimits limits;
    /** Max oracle evaluations per witness. */
    std::uint64_t candidateBudget = 4096;
    /** Concurrent reductions: 1 = serial, 0 = one per hardware
     *  thread. Never changes results. */
    std::size_t jobs = 1;
    /** When non-empty, write bundles under this directory. */
    std::string reportsDir;
};

/** Everything the bundler writes about one finding. */
struct FindingReport
{
    SanFinding finding;
    /** Did the finding reproduce under the reduction nonce? When
     *  false the original pair is carried through un-reduced. */
    bool reproduced = false;

    /** Minimized program source (== original when not reproduced). */
    std::string program;
    /** Minimized triggering input. */
    support::Bytes input;
    /** The original un-reduced witness input. */
    support::Bytes witnessInput;

    /** The certified reference run on the minimized pair. */
    refinterp::CertifiedRun certified;

    reduce::InputReduction inputStats;
    reduce::ProgramReduction programStats;
};

/**
 * reduce::Oracle adapter: a candidate preserves the bug when the
 * sancheck classification of the candidate pair still yields a
 * finding with the target signature hash. Construction re-runs the
 * original witness; reproduced() == false means the campaign
 * observation does not recur under nonce 0 and reduction is skipped.
 */
class SanFindingOracle : public reduce::Oracle
{
  public:
    SanFindingOracle(const minic::Program &program,
                     core::ImplementationSet impls,
                     const support::Bytes &witness,
                     const SanFinding &finding, vm::VmLimits limits,
                     std::uint64_t candidate_budget);
    ~SanFindingOracle() override;

    bool reproduced() const { return reproduced_; }

    /** The witness's certified run under the oracle's nonce. */
    const refinterp::CertifiedRun &witnessCertified() const
    {
        return witnessCertified_;
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

    const reduce::OracleStats &stats() const override
    {
        return stats_;
    }

  private:
    core::ImplementationSet impls_;
    vm::VmLimits limits_;
    std::uint64_t budget_;
    std::uint64_t target_ = 0;
    bool reproduced_ = false;
    refinterp::CertifiedRun witnessCertified_;
    reduce::OracleStats stats_;

    const minic::Program *witnessProgram_ = nullptr;
    std::unique_ptr<SanCheckOracle> witnessEngine_;
};

/** Render the report.md body. */
std::string renderFindingMarkdown(const FindingReport &report);

/**
 * Write the bundle under `<out_dir>/sig-<hex>/` (hex =
 * finding.signatureHash()). @return the bundle directory path.
 */
std::string writeFindingReport(const std::string &out_dir,
                               const FindingReport &report);

/**
 * Reduce every finding witness and (optionally) write bundles.
 * One report per witness, in witness order.
 */
std::vector<FindingReport>
reduceFindings(const minic::Program &program,
               const core::ImplementationSet &impls,
               const std::vector<FindingWitness> &witnesses,
               const FindingReduceOptions &options);

} // namespace compdiff::sancheck
