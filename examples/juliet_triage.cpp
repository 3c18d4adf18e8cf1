/**
 * @file
 * Tool triage on one CWE family: synthesize the CWE-457
 * (uninitialized variable) slice of the Juliet-style suite and show,
 * case by case, which tools catch the bad variant and whether any
 * tool false-positives on the good variant — the per-case view
 * behind one Table 3 row.
 *
 * Build & run:  ./build/examples/juliet_triage [cwe]
 */

#include <cstdio>
#include <limits>

#include "analysis/static_analyzer.hh"
#include "compdiff/engine.hh"
#include "frontend.hh"
#include "juliet/evaluate.hh"
#include "juliet/suite.hh"
#include "minic/parser.hh"
#include "obs/metrics.hh"
#include "sanitizers/sanitizers.hh"
#include "support/table.hh"

int
main(int argc, char **argv)
{
    using namespace compdiff;

    const int cwe = static_cast<int>(frontend::unsignedArgument(
        argc, argv, "juliet_triage [cwe]", 457,
        std::numeric_limits<int>::max()));
    juliet::SuiteBuilder builder(0.01);
    const auto cases = builder.buildCwe(cwe);
    if (cases.empty()) {
        std::fprintf(stderr, "unknown CWE %d\n", cwe);
        return 1;
    }
    std::printf("CWE-%d: %zu synthesized cases\n\n", cwe,
                cases.size());

    const auto analyzers = analysis::allStaticAnalyzers();
    const auto kinds = juliet::expectedFindingKinds(cwe);

    support::TextTable table;
    table.setHeader({"case", "deepscan", "lintcheck", "inferlite",
                     "ASan", "UBSan", "MSan", "CompDiff",
                     "good-variant FPs"});

    auto mark = [](bool detected) {
        return std::string(detected ? "hit" : "-");
    };

    // With metrics on, DiffResult::summary() carries per-
    // implementation instruction counts; show one full report below.
    obs::EnabledGuard metrics(true);
    std::string sample_report;

    for (const auto &test : cases) {
        auto bad = minic::parseAndCheck(test.badSource);
        auto good = minic::parseAndCheck(test.goodSource);

        std::vector<std::string> row = {test.id};
        std::string fps;

        for (const auto &tool : analyzers) {
            bool hit = false;
            for (const auto &finding : tool->analyze(*bad))
                for (int k : kinds)
                    hit |= static_cast<int>(finding.kind) == k;
            row.push_back(mark(hit));
            bool fp = false;
            for (const auto &finding : tool->analyze(*good))
                for (int k : kinds)
                    fp |= static_cast<int>(finding.kind) == k;
            if (fp)
                fps += std::string(tool->name()) + " ";
        }

        sanitizers::SanitizerRunner runner(*bad);
        row.push_back(mark(
            runner.check(compiler::Sanitizer::ASan, test.input)
                .fired));
        row.push_back(mark(
            runner.check(compiler::Sanitizer::UBSan, test.input)
                .fired));
        row.push_back(mark(
            runner.check(compiler::Sanitizer::MSan, test.input)
                .fired));

        core::DiffEngine engine(*bad);
        auto diff = engine.runInput(test.input);
        row.push_back(mark(diff.divergent));
        if (diff.divergent && sample_report.empty()) {
            sample_report = "telemetry for " + test.id + ":\n" +
                            diff.summary();
        }

        core::DiffEngine good_engine(*good);
        if (good_engine.runInput(test.input).divergent)
            fps += "compdiff ";
        row.push_back(fps.empty() ? "none" : fps);
        table.addRow(row);
    }
    std::printf("%s\n", table.str().c_str());
    if (!sample_report.empty())
        std::printf("%s\n", sample_report.c_str());

    std::printf("Try other rows: ./juliet_triage 369 (div-by-zero), "
                "476 (null deref), 469 (pointer subtraction)...\n");
    return 0;
}
