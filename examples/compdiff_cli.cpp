/**
 * @file
 * A command-line front end: run CompDiff on your own MiniC program or
 * a built-in target, for one input or as a fuzz campaign, and
 * localize, reduce and bundle what diverges. `--mode=sancheck` flips
 * the oracle onto the sanitizers themselves (DESIGN.md §14): the
 * reference interpreter certifies each input's UB and each sanitized
 * implementation's silence or report becomes a false negative or a
 * false positive, swept over the seeds or found by a campaign and
 * summed up in an FN/FP matrix.
 *
 *   ./build/examples/compdiff_cli --help
 *
 * The report mirrors the paper's bug reports (Section 5): the
 * triggering input, two configurations that reproduce the issue, the
 * divergent outputs, plus the trace-alignment root-cause candidate.
 */

#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compdiff/engine.hh"
#include "compdiff/localize.hh"
#include "frontend.hh"
#include "minic/parser.hh"
#include "obs/json.hh"
#include "obs/stats.hh"
#include "reduce/report.hh"
#include "sancheck/report.hh"
#include "sancheck/sancheck.hh"
#include "support/logging.hh"
#include "support/table.hh"

namespace
{

using namespace compdiff;

const char *kDemoProgram = R"(// demo: unstable overflow guard
int check_range(int offset, int len) {
    if (offset < 0 || len < 0) { return -1; }
    if (offset + len < offset) { return -1; }
    return 0;
}
int main() {
    int offset = 2147483647 - input_byte(0);
    int len = input_byte(1);
    if (check_range(offset, len) < 0) {
        print_str("rejected");
    } else {
        print_str("accepted");
    }
    newline();
    return 0;
}
)";

int
validateJson(const std::string &path)
{
    const std::string text = frontend::readFile(path);
    std::string error;
    if (!obs::jsonWellFormed(text, &error)) {
        std::fprintf(stderr, "%s: invalid JSON (%s)\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("%s: well-formed JSON (%zu bytes)\n", path.c_str(),
                text.size());
    return 0;
}

/**
 * Table-6-style overlap matrix: one row per sanitized
 * implementation, one column per UB class, each cell the unique
 * FN/FP signature counts observed for that pair.
 */
std::string
renderMatrix(const core::ImplementationSet &impls,
             const std::vector<sancheck::SanFinding> &findings)
{
    static const refinterp::UbKind kKinds[] = {
        refinterp::UbKind::SignedOverflow,
        refinterp::UbKind::DivideByZero,
        refinterp::UbKind::OversizedShift,
        refinterp::UbKind::NullDeref,
        refinterp::UbKind::OutOfBounds,
        refinterp::UbKind::UninitRead,
    };
    // One unique signature is one cell entry: the campaign already
    // dedups, the fixed sweep dedups here.
    std::set<std::string> seen;
    std::map<std::pair<std::string, refinterp::UbKind>,
             std::pair<std::uint64_t, std::uint64_t>>
        cells;
    std::uint64_t total_fn = 0, total_fp = 0;
    for (const auto &finding : findings) {
        if (!seen.insert(finding.signature()).second)
            continue;
        auto &cell = cells[{finding.implId, finding.ubKind}];
        if (finding.kind == sancheck::FindingKind::FalseNegative) {
            cell.first++;
            total_fn++;
        } else {
            cell.second++;
            total_fp++;
        }
    }

    support::TextTable table;
    std::vector<std::string> header = {"impl"};
    std::vector<support::Align> align = {support::Align::Left};
    for (const auto kind : kKinds) {
        header.push_back(refinterp::ubKindName(kind));
        align.push_back(support::Align::Left);
    }
    table.setHeader(std::move(header));
    table.setAlign(std::move(align));
    for (const auto &impl : impls) {
        std::vector<std::string> row = {impl->id()};
        for (const auto kind : kKinds) {
            const auto it = cells.find({impl->id(), kind});
            if (it == cells.end()) {
                row.push_back(".");
                continue;
            }
            std::string cell;
            if (it->second.first)
                cell += "FN x" + std::to_string(it->second.first);
            if (it->second.second) {
                if (!cell.empty())
                    cell += " ";
                cell += "FP x" + std::to_string(it->second.second);
            }
            row.push_back(cell);
        }
        table.addRow(std::move(row));
    }
    std::ostringstream os;
    os << "sanitizer FN/FP matrix (unique signatures):\n"
       << table.str() << "\n"
       << "findings : " << total_fn << " FN, " << total_fp << " FP\n";
    return os.str();
}

void
printReduced(const std::vector<sancheck::FindingReport> &reports)
{
    for (const auto &report : reports) {
        std::printf(
            "\nreduced %s: input %zu -> %zu bytes, program %zu -> %zu "
            "statements%s\n",
            reduce::signatureDirName(report.finding.signatureHash())
                .c_str(),
            report.witnessInput.size(), report.input.size(),
            report.programStats.stmtsBefore,
            report.programStats.stmtsAfter,
            report.reproduced
                ? ""
                : " (witness did not reproduce; kept as-is)");
    }
}

int
runCampaign(const minic::Program &program,
            const core::ImplementationSet &impls,
            const frontend::Subject &subject,
            const frontend::CampaignFlags &flags)
{
    // The session owns the whole lifecycle; with --session=DIR it
    // persists checkpoints there, otherwise it runs ephemerally.
    const session::SessionConfig config = flags.sessionConfig(impls);
    session::CampaignSession session(program, subject.seeds, config);
    const fuzz::ShardedResult &sharded = session.run();

    std::printf(
        "%s",
        obs::renderFuzzerStats(session.statsSnapshot()).c_str());
    if (session.halted()) {
        std::printf("\nsession halted at a checkpoint after %llu "
                    "execs; rerun with --session=%s --resume to "
                    "finish the campaign\n",
                    static_cast<unsigned long long>(
                        sharded.total.execs),
                    flags.sessionDir.c_str());
        return 0;
    }
    if (flags.sancheck()) {
        std::vector<sancheck::SanFinding> findings;
        for (const auto &diff : sharded.diffs) {
            std::printf("\nfinding at exec %llu "
                        "(%zu-byte input):\n  %s\n",
                        static_cast<unsigned long long>(
                            diff.execIndex),
                        diff.input.size(),
                        diff.sanFinding.str().c_str());
            findings.push_back(diff.sanFinding);
        }
        printReduced(session.triageSancheck());
        std::printf("\n%s",
                    renderMatrix(impls, findings).c_str());
        return sharded.total.diffs > 0 ? 1 : 0;
    }
    for (const auto &diff : sharded.diffs) {
        std::printf("\ndivergence at exec %llu "
                    "(%zu-byte input):\n%s",
                    static_cast<unsigned long long>(diff.execIndex),
                    diff.input.size(),
                    diff.result.summary().c_str());
    }
    for (const auto &report : session.triage()) {
        std::printf("\nreduced %s: input %zu -> %zu bytes, "
                    "program %zu -> %zu statements%s\n",
                    reduce::signatureDirName(report.semanticKey)
                        .c_str(),
                    report.witnessInput.size(), report.input.size(),
                    report.programStats.stmtsBefore,
                    report.programStats.stmtsAfter,
                    report.reproduced
                        ? ""
                        : " (witness did not reproduce; kept as-is)");
        std::printf("  semantic key: %016llx (canonical form "
                    "%016llx, behavior signature %016llx)\n",
                    static_cast<unsigned long long>(
                        report.semanticKey),
                    static_cast<unsigned long long>(
                        report.canonicalFingerprint),
                    static_cast<unsigned long long>(
                        report.signature));
        std::printf("  slice: %s\n", report.slice.str().c_str());
        if (report.localization.attempted) {
            std::printf("  localization (%s vs %s): %s\n",
                        report.localization.implA.c_str(),
                        report.localization.implB.c_str(),
                        report.localization.localization.str()
                            .c_str());
            if (report.localization.bridged)
                std::printf("  note: %s\n",
                            report.localization.note.c_str());
        } else if (!report.localization.note.empty()) {
            std::printf("  localization: %s\n",
                        report.localization.note.c_str());
        }
    }
    return sharded.total.diffs > 0 ? 1 : 0;
}

/** Sancheck mode without --fuzz: classify every input against every
 *  implementation (nonce 0, input order, fully deterministic) and
 *  print the matrix. Exits 1 when a finding fires, so it is also the
 *  reproduce command every sancheck bundle's report.md names. */
int
sweep(const minic::Program &program,
      const core::ImplementationSet &impls,
      const std::vector<support::Bytes> &inputs,
      const frontend::CampaignFlags &flags)
{
    sancheck::SanCheckOracle oracle(program, impls);
    std::vector<sancheck::SanFinding> findings;
    std::vector<sancheck::FindingWitness> witnesses;
    std::set<std::string> seen;
    for (const auto &input : inputs) {
        for (const auto &finding : oracle.runInput(input).findings) {
            findings.push_back(finding);
            if (seen.insert(finding.signature()).second) {
                std::printf("finding: %s\n", finding.str().c_str());
                witnesses.push_back({input, finding});
            }
        }
    }
    if (flags.reduce && !witnesses.empty()) {
        sancheck::FindingReduceOptions options;
        options.candidateBudget = flags.reduceBudget;
        options.jobs = flags.jobs;
        options.reportsDir = flags.reportsOut;
        printReduced(sancheck::reduceFindings(program, impls,
                                              witnesses, options));
    }
    std::printf("\n%s", renderMatrix(impls, findings).c_str());
    return findings.empty() ? 0 : 1;
}

int
diffInput(const minic::Program &program,
          const core::ImplementationSet &impls,
          const support::Bytes &input,
          const frontend::CampaignFlags &flags)
{
    core::DiffOptions diff_options;
    diff_options.jobs = flags.jobs;
    core::DiffEngine engine(program, impls, diff_options);
    auto diff = engine.runInput(input);
    std::printf("%s", diff.summary().c_str());
    if (!diff.divergent) {
        std::printf("\nThis input shows no instability. Try other "
                    "inputs, or fuzz the program with --fuzz.\n");
        return 0;
    }

    // Localize between two behavior-class representatives. With
    // cross-backend pairs (e.g. against "ref"), localizeAcross
    // bridges to a same-class simulated member when one exists and
    // reports exactly which pair it aligned.
    auto pair = core::localizeAcross(
        program, engine.implementations(), diff, input);
    if (pair.attempted) {
        std::printf("\nroot-cause candidate (%s vs %s):\n  %s\n",
                    pair.implA.c_str(), pair.implB.c_str(),
                    pair.localization.str().c_str());
        if (pair.bridged)
            std::printf("  note: %s\n", pair.note.c_str());
    } else {
        std::printf("\n(no root-cause candidate: %s)\n",
                    pair.note.c_str());
    }
    return 1;
}

int
run(int argc, char **argv)
{
    frontend::CampaignFlags flags;
    std::string validate_json;
    support::FlagTable table(
        "compdiff_cli [options] [prog.mc [input-file]]", 2,
        "With no program argument, analyzes a built-in demo program, "
        "or the built-in sanlab target under --mode=sancheck. "
        "Without --fuzz, sancheck mode classifies the input file, or "
        "every seed when none is given, and prints the FN/FP matrix.");
    flags.addFlags(table);
    flags.addProcessFlags(table);
    table.value("--validate-json", "F", &validate_json,
                "check that F parses as JSON and exit");
    const std::vector<std::string> args =
        frontend::parseArgs(table, argc, argv);
    if (!validate_json.empty())
        return validateJson(validate_json);

    support::QuietGuard quiet(flags.quiet);
    flags.startTelemetry();
    compiler::CompileCache::global().setLimits(
        flags.cacheEntries, compiler::CompileCache::kDefaultMaxBytes);

    const core::ImplementationSet impls = flags.implementations();
    frontend::Subject fallback;
    const char *note = "";
    if (flags.target.empty() && args.empty() && flags.sancheck()) {
        fallback.source = sancheck::sanlabSource();
        fallback.seeds = sancheck::sanlabSeeds();
        fallback.input = fallback.seeds.front();
        note = "no program given; running the built-in sanlab target "
               "(see DESIGN.md section 14)\n\n";
    } else if (flags.target.empty() && args.empty()) {
        fallback.source = kDemoProgram;
        fallback.input = {10, 50}; // INT_MAX-10 + 50 overflows
        note = "no program given; analyzing the built-in demo (see "
               "--help)\n\n";
    }
    const frontend::Subject subject = flags.load(args, fallback);
    std::fputs(note, stdout);
    const auto program = minic::parseAndCheck(subject.source);

    int status = 0;
    if (flags.fuzz)
        status = runCampaign(*program, impls, subject, flags);
    else if (flags.sancheck() && args.size() > 1)
        status = sweep(*program, impls, {subject.input}, flags);
    else if (flags.sancheck())
        status = sweep(*program, impls, subject.seeds, flags);
    else
        status = diffInput(*program, impls, subject.input, flags);
    flags.exportTelemetry();
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (...) {
        return frontend::reportError();
    }
}
