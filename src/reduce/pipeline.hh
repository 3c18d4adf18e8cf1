#pragma once

/**
 * @file
 * The post-campaign reduction pipeline: witnesses in, report
 * bundles out.
 *
 * For each distinct-signature witness a campaign surfaced, the
 * pipeline builds one SignatureOracle, shrinks the witness with
 * shrinkWitness (input ddmin, then AST shrinking against the
 * minimized input, then one more input pass), re-localizes the
 * minimized divergence with localizeAcross, slices the aligned pair
 * down to the first divergent instruction (semdiff), checks the
 * three sanitizers on the minimized pair, and bundles everything
 * via writeMergedReport. The sanitizer-checking pipeline
 * (sancheck::reduceFindings) shrinks its findings with the same
 * shrinkWitness and spreads them over threads the same way.
 *
 * Bundling is two-tier: the campaign deduplicated witnesses by fuzz
 * signature (tier 1); the write phase here groups the reduced
 * reports by semantic key (canonical form of the minimized program
 * x behavior signature — tier 2) and files each group as ONE
 * merged bundle carrying every witness (`variants/` subdirs).
 *
 * Determinism: witnesses are reduced into indexed result slots by
 * support::runIndexed, each reduction owns its own
 * oracle with a fixed nonce, and report writing happens serially
 * afterwards with groups ordered by key and variants sorted by
 * minimized content — so the produced bundles are bit-identical for
 * every `jobs` value, same as the execution fan-out's contract. The
 * process-wide compiler::CompileCache makes the per-candidate
 * engine rebuilds cheap.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "minic/ast.hh"
#include "reduce/input_reducer.hh"
#include "reduce/oracle.hh"
#include "reduce/program_reducer.hh"
#include "reduce/report.hh"
#include "session/records.hh"
#include "support/bytes.hh"

namespace compdiff::reduce
{

/** One campaign divergence to reduce. */
struct Witness
{
    /** The divergence-triggering input. */
    support::Bytes input;
    /** The campaign's diff result for it (used as-is when the
     *  divergence does not reproduce under the reduction nonce). */
    core::DiffResult diff;
};

/** Pipeline knobs. */
struct ReduceOptions
{
    /** Diff knobs for the oracle re-runs (limits, normalizer,
     *  traitsTweak). `jobs` inside is ignored — oracles always run
     *  their engine serially. */
    core::DiffOptions diffOptions;
    /** Max oracle evaluations per witness (input + program reduction
     *  combined); bounds CI wall time. */
    std::uint64_t candidateBudget = 4096;
    /** Concurrent reductions (over witnesses): 1 = serial, 0 = one
     *  per hardware thread. Never changes results. */
    std::size_t jobs = 1;
    /** Run ASan/UBSan/MSan on each minimized pair. */
    bool checkSanitizers = true;
    /** When non-empty, write report bundles under this directory. */
    std::string reportsDir;
};

/** What shrinkWitness made of one witness. */
struct ShrunkWitness
{
    /** Both input passes summed; `reduced` is the final input. */
    InputReduction inputStats;
    ProgramReduction programStats;
    /** programStats.source parsed again; null when it does not
     *  parse, and the original AST then stands for it. */
    std::unique_ptr<minic::Program> reparsed;
};

/**
 * The one shrink sequence of both triage pipelines: ddmin `input`,
 * reduce `program` against the result, reparse it, and run a second
 * input pass against it (a shrunken program usually reads less
 * input). `oracle`'s budget bounds the whole sequence.
 */
ShrunkWitness shrinkWitness(Oracle &oracle,
                            const minic::Program &program,
                            const support::Bytes &input);

/**
 * Reduce every witness and (optionally) write report bundles.
 *
 * @param program   The witness program (shared by all witnesses of
 *                  one campaign target).
 * @param impls     The oracle that observed the divergences.
 * @param witnesses Distinct-signature divergences to reduce.
 * @return One report per witness, in witness order.
 */
std::vector<DivergenceReport>
reduceAndReport(const minic::Program &program,
                const core::ImplementationSet &impls,
                const std::vector<Witness> &witnesses,
                const ReduceOptions &options);

/**
 * Reduce a session's divergence records (the portable form
 * session::CampaignSession persists and folds). The campaign-time
 * DiffResult each witness needs is re-derived by re-running the
 * record's input under its recorded execution index — deterministic,
 * so the fallback diff for unreproduced witnesses matches what the
 * campaign observed.
 */
std::vector<DivergenceReport>
reduceRecords(const minic::Program &program,
              const core::ImplementationSet &impls,
              const std::vector<session::DivergenceRecord> &records,
              const ReduceOptions &options);

} // namespace compdiff::reduce
