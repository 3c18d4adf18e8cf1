#include "reduce/pipeline.hh"

#include "compdiff/localize.hh"
#include "compiler/config.hh"
#include "minic/parser.hh"
#include "minic/printer.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sanitizers/sanitizers.hh"
#include "semdiff/canon.hh"
#include "semdiff/slice.hh"
#include "support/diagnostics.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

#include <algorithm>
#include <map>

namespace compdiff::reduce
{

ShrunkWitness
shrinkWitness(Oracle &oracle, const minic::Program &program,
              const support::Bytes &input)
{
    ShrunkWitness shrunk;
    shrunk.inputStats = reduceInput(oracle, program, input);
    shrunk.programStats =
        reduceProgram(oracle, minic::printProgram(program),
                      shrunk.inputStats.reduced);
    // reduceProgram keeps a program whose printed form does not parse
    // unreduced; the original AST then stands in for it.
    try {
        shrunk.reparsed =
            minic::parseAndCheck(shrunk.programStats.source);
    } catch (const support::CompileError &) {
    }
    const InputReduction second = reduceInput(
        oracle, shrunk.reparsed ? *shrunk.reparsed : program,
        shrunk.inputStats.reduced);
    InputReduction &stats = shrunk.inputStats;
    stats.reduced = second.reduced;
    stats.candidatesTried += second.candidatesTried;
    stats.candidatesAccepted += second.candidatesAccepted;
    stats.bytesRemoved += second.bytesRemoved;
    stats.bytesNormalized += second.bytesNormalized;
    return shrunk;
}

namespace
{

/** Reduce one witness end to end (runs on a pool worker). */
DivergenceReport
reduceOne(const minic::Program &program,
          const core::ImplementationSet &impls,
          const Witness &witness, const ReduceOptions &options)
{
    obs::Span span("reduce.witness");
    DivergenceReport report;
    report.witnessInput = witness.input;

    SignatureOracle oracle(program, impls, witness.input,
                           options.diffOptions,
                           options.candidateBudget);
    report.reproduced = oracle.reproduced();

    if (!oracle.reproduced()) {
        // Campaign-nonce-dependent divergence: don't minimize toward
        // a moving target; file the original witness as-is.
        report.signature = divergenceSignature(witness.diff);
        report.program = minic::printProgram(program);
        report.input = witness.input;
        report.diff = witness.diff;
        report.inputStats.reduced = witness.input;
        report.localization = core::localizeAcross(
            program, impls, report.diff, report.input,
            options.diffOptions.limits);
        report.slice = semdiff::sliceDivergence(
            program, impls, report.localization,
            options.diffOptions);
        report.canonicalFingerprint =
            semdiff::canonicalizeSource(report.program).fingerprint;
        report.semanticKey = semdiff::semanticKeyOf(
            report.canonicalFingerprint, report.signature);
        obs::counter("reduce.witnesses_unreproduced").add();
        return report;
    }

    report.signature = oracle.targetSignature();
    ShrunkWitness shrunk =
        shrinkWitness(oracle, program, witness.input);
    report.inputStats = std::move(shrunk.inputStats);
    report.programStats = std::move(shrunk.programStats);
    report.input = report.inputStats.reduced;
    report.program = report.programStats.source;
    const minic::Program &minimized =
        shrunk.reparsed ? *shrunk.reparsed : program;

    // Re-derive the final artifacts from the minimized pair: the
    // diff (for the report's class listing), the localization, and
    // the sanitizer verdicts all describe what is filed, not what
    // was found.
    core::DiffOptions diff_options = options.diffOptions;
    diff_options.jobs = 1;
    core::DiffEngine engine(minimized, impls, diff_options);
    report.diff = engine.runInput(report.input, 0);
    report.localization = core::localizeAcross(
        minimized, impls, report.diff, report.input,
        options.diffOptions.limits);
    report.slice = semdiff::sliceDivergence(
        minimized, impls, report.localization,
        options.diffOptions);

    // Second-tier key: the canonical form of the minimized program
    // crossed with the behavior signature of the minimized diff.
    // Both are pure functions of filed content, so the key (and any
    // merge decision built on it) is identical for any --jobs/
    // --shards split and across resume.
    report.canonicalFingerprint =
        semdiff::canonicalizeSource(report.program).fingerprint;
    report.semanticKey = semdiff::semanticKeyOf(
        report.canonicalFingerprint,
        divergenceSignature(report.diff));

    if (options.checkSanitizers) {
        sanitizers::SanitizerRunner runner(minimized,
                                           options.diffOptions.limits);
        report.sanitizers.checked = true;
        report.sanitizers.asanFires =
            runner.check(compiler::Sanitizer::ASan, report.input)
                .fired;
        report.sanitizers.ubsanFires =
            runner.check(compiler::Sanitizer::UBSan, report.input)
                .fired;
        report.sanitizers.msanFires =
            runner.check(compiler::Sanitizer::MSan, report.input)
                .fired;
    }
    return report;
}

} // namespace

std::vector<DivergenceReport>
reduceAndReport(const minic::Program &program,
                const core::ImplementationSet &impls,
                const std::vector<Witness> &witnesses,
                const ReduceOptions &options)
{
    obs::Span span("reduce.pipeline");
    std::vector<DivergenceReport> reports(witnesses.size());
    if (witnesses.empty())
        return reports;

    // One oracle per witness, fixed result slots: jobs affects only
    // scheduling, never what any slot contains.
    support::runIndexed(
        witnesses.size(), options.jobs, [&](std::size_t i) {
            reports[i] =
                reduceOne(program, impls, witnesses[i], options);
        });

    obs::counter("reduce.witnesses")
        .add(static_cast<std::uint64_t>(witnesses.size()));
    if (!options.reportsDir.empty()) {
        // Second-tier dedup: reports whose minimized programs
        // canonicalize to the same semantic key file as ONE bundle
        // carrying every witness. std::map orders groups by key and
        // the variant sort below orders members by content, so the
        // bundle tree never depends on discovery or slot order.
        std::map<std::uint64_t,
                 std::vector<const DivergenceReport *>>
            groups;
        for (const auto &report : reports)
            groups[report.semanticKey].push_back(&report);
        for (auto &[key, variants] : groups) {
            std::sort(variants.begin(), variants.end(),
                      [](const DivergenceReport *a,
                         const DivergenceReport *b) {
                          if (a->program != b->program)
                              return a->program < b->program;
                          if (a->input != b->input)
                              return a->input < b->input;
                          if (a->witnessInput != b->witnessInput)
                              return a->witnessInput <
                                     b->witnessInput;
                          return a->signature < b->signature;
                      });
            const std::string dir =
                writeMergedReport(options.reportsDir, variants);
            if (variants.size() > 1)
                support::inform(
                    "reduce: merged " +
                    std::to_string(variants.size()) +
                    " semantically equal witnesses into " + dir);
            support::inform("reduce: wrote " + dir + "/report.md");
            obs::counter("reduce.reports_written").add();
        }
    }
    return reports;
}

std::vector<DivergenceReport>
reduceRecords(const minic::Program &program,
              const core::ImplementationSet &impls,
              const std::vector<session::DivergenceRecord> &records,
              const ReduceOptions &options)
{
    std::vector<Witness> witnesses;
    witnesses.reserve(records.size());
    if (!records.empty()) {
        // One serial engine re-derives every record's campaign-time
        // diff (pure function of input and exec index); the per-
        // witness oracles below then own their reductions.
        core::DiffOptions diff_options = options.diffOptions;
        diff_options.jobs = 1;
        core::DiffEngine engine(program, impls, diff_options);
        for (const auto &record : records) {
            witnesses.push_back(
                {record.input,
                 engine.runInput(record.input, record.execIndex)});
        }
    }
    return reduceAndReport(program, impls, witnesses, options);
}

} // namespace compdiff::reduce
