#include "sancheck/report.hh"

#include <sstream>

#include "minic/printer.hh"
#include "obs/events.hh"
#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "reduce/pipeline.hh"
#include "reduce/report.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/thread_pool.hh"

namespace compdiff::sancheck
{

SanFindingOracle::SanFindingOracle(const minic::Program &program,
                                   core::ImplementationSet impls,
                                   const support::Bytes &witness,
                                   const SanFinding &finding,
                                   vm::VmLimits limits,
                                   std::uint64_t candidate_budget)
    : impls_(std::move(impls)), limits_(limits),
      budget_(candidate_budget), target_(finding.signatureHash()),
      witnessProgram_(&program)
{
    witnessEngine_ =
        std::make_unique<SanCheckOracle>(program, impls_, limits_);
    Outcome outcome = witnessEngine_->runInput(witness, 0);
    witnessCertified_ = std::move(outcome.certified);
    for (const SanFinding &found : outcome.findings) {
        if (found.signatureHash() == target_) {
            reproduced_ = true;
            break;
        }
    }
}

SanFindingOracle::~SanFindingOracle() = default;

bool
SanFindingOracle::preserves(const minic::Program &program,
                            const support::Bytes &input)
{
    if (budgetExhausted())
        return false;
    stats_.tried++;

    // The witness program keeps its resident engine; candidate
    // programs are caller-owned temporaries and get a fresh engine
    // per call (CompileCache absorbs the recompiles, and a pointer-
    // keyed cache would be fooled by heap-address reuse).
    Outcome outcome;
    if (&program == witnessProgram_) {
        outcome = witnessEngine_->runInput(input, 0);
    } else {
        SanCheckOracle candidate(program, impls_, limits_);
        outcome = candidate.runInput(input, 0);
    }
    for (const SanFinding &found : outcome.findings) {
        if (found.signatureHash() == target_) {
            stats_.accepted++;
            return true;
        }
    }
    return false;
}

namespace
{

/** Reduce one finding witness end to end (pool worker). */
FindingReport
reduceOneFinding(const minic::Program &program,
                 const core::ImplementationSet &impls,
                 const FindingWitness &witness,
                 const FindingReduceOptions &options)
{
    obs::Span span("sancheck.reduce.witness");
    FindingReport report;
    report.finding = witness.finding;
    report.witnessInput = witness.input;

    SanFindingOracle oracle(program, impls, witness.input,
                            witness.finding, options.limits,
                            options.candidateBudget);
    report.reproduced = oracle.reproduced();

    if (!oracle.reproduced()) {
        report.program = minic::printProgram(program);
        report.input = witness.input;
        report.inputStats.reduced = witness.input;
        report.certified = oracle.witnessCertified();
        obs::counter("sancheck.witnesses_unreproduced").add();
        return report;
    }

    reduce::ShrunkWitness shrunk =
        reduce::shrinkWitness(oracle, program, witness.input);
    report.inputStats = std::move(shrunk.inputStats);
    report.programStats = std::move(shrunk.programStats);
    report.input = report.inputStats.reduced;
    report.program = report.programStats.source;
    const minic::Program &minimized =
        shrunk.reparsed ? *shrunk.reparsed : program;

    // Re-derive the certified run and the finding details from the
    // minimized pair: the report describes what is filed.
    SanCheckOracle engine(minimized, impls, options.limits);
    Outcome outcome = engine.runInput(report.input, 0);
    report.certified = std::move(outcome.certified);
    for (const SanFinding &found : outcome.findings) {
        if (found.signatureHash() ==
            witness.finding.signatureHash()) {
            report.finding = found;
            break;
        }
    }
    return report;
}

} // namespace

std::string
renderFindingMarkdown(const FindingReport &report)
{
    const SanFinding &f = report.finding;
    std::ostringstream os;
    os << "# Sanitizer finding "
       << reduce::signatureDirName(f.signatureHash()) << "\n\n";

    os << "## Summary\n\n";
    if (!report.reproduced) {
        os << "The campaign witness did not reproduce its finding "
              "under the deterministic reduction nonce; the bundle "
              "carries the original un-reduced witness and the "
              "campaign classification below.\n\n";
    }
    os << "- signature: `" << f.signature() << "` (`"
       << obs::hex16(f.signatureHash()) << "`)\n";
    os << "- verdict: **"
       << (f.kind == FindingKind::FalseNegative ? "false negative"
                                                : "false positive")
       << "** for `" << f.implId << "`\n";
    os << "- UB class: `" << refinterp::ubKindName(f.ubKind)
       << "`\n\n";

    if (f.kind == FindingKind::FalseNegative) {
        os << "The reference interpreter certifies undefined "
              "behavior that `"
           << f.implId << "` fails to report:\n\n";
        os << "- certified UB site: `" << f.certFunction << ":"
           << f.certLine << "`\n";
        os << "- operands: `" << f.certDetail << "`\n";
        os << "- sanitizer: **silent** (run completed without a `"
           << refinterp::ubKindName(f.ubKind) << "` report)\n\n";
    } else {
        os << "The reference interpreter certifies this execution "
              "UB-free (clean exit, zero certificates), yet `"
           << f.implId << "` reports:\n\n";
        os << "- report: `" << f.reportKind << "` at line "
           << f.reportLine << "\n\n";
    }

    os << "## Certified reference run\n\n";
    os << "- exit class: `" << report.certified.result.exitClass()
       << "`\n";
    os << "- certificates: " << report.certified.certificates.size()
       << "\n";
    for (const auto &cert : report.certified.certificates)
        os << "  - `" << cert.str() << "`\n";
    os << "\n";

    os << "## Reduction\n\n";
    os << "- input bytes: " << report.witnessInput.size() << " -> "
       << report.input.size() << "\n";
    os << "- program statements: " << report.programStats.stmtsBefore
       << " -> " << report.programStats.stmtsAfter << "\n";
    os << "- input reduction: " << report.inputStats.candidatesTried
       << " candidates tried, "
       << report.inputStats.candidatesAccepted << " accepted\n";
    os << "- program reduction: "
       << report.programStats.candidatesTried
       << " candidates tried, "
       << report.programStats.candidatesAccepted << " accepted\n\n";

    os << "## Minimized input\n\n```\n"
       << support::hexDump(report.input) << "```\n\n";

    os << "## Minimized program\n\n```c\n" << report.program;
    if (!report.program.empty() && report.program.back() != '\n')
        os << "\n";
    os << "```\n\n";

    os << "## Reproduce\n\n```\ncompdiff_cli --mode=sancheck --impls="
       << f.implId << " program.mc input.bin\n```\n\n";
    os << "The CLI exits 1 when the finding still reproduces.\n";
    return os.str();
}

std::string
writeFindingReport(const std::string &out_dir,
                   const FindingReport &report)
{
    const std::string dir =
        out_dir + "/" +
        reduce::signatureDirName(report.finding.signatureHash());
    obs::writeTextFile(dir + "/program.mc", report.program);
    obs::writeTextFile(
        dir + "/input.bin",
        std::string(report.input.begin(), report.input.end()));
    obs::writeTextFile(dir + "/witness.bin",
                       std::string(report.witnessInput.begin(),
                                   report.witnessInput.end()));
    obs::writeTextFile(dir + "/report.md",
                       renderFindingMarkdown(report));
    return dir;
}

std::vector<FindingReport>
reduceFindings(const minic::Program &program,
               const core::ImplementationSet &impls,
               const std::vector<FindingWitness> &witnesses,
               const FindingReduceOptions &options)
{
    obs::Span span("sancheck.reduce.pipeline");
    std::vector<FindingReport> reports(witnesses.size());
    if (witnesses.empty())
        return reports;

    support::runIndexed(
        witnesses.size(), options.jobs, [&](std::size_t i) {
            reports[i] = reduceOneFinding(program, impls,
                                          witnesses[i], options);
        });

    obs::counter("sancheck.reduce.witnesses")
        .add(static_cast<std::uint64_t>(witnesses.size()));
    if (!options.reportsDir.empty()) {
        for (const auto &report : reports) {
            const std::string dir =
                writeFindingReport(options.reportsDir, report);
            support::inform("sancheck: wrote " + dir + "/report.md");
            obs::counter("sancheck.reports_written").add();
        }
    }
    return reports;
}

} // namespace compdiff::sancheck
