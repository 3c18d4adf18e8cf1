/**
 * @file
 * Reproduces Table 3: bug-detection and false-positive rates of the
 * three static analyzers, the three sanitizers, and CompDiff on the
 * Juliet-style suite, plus the number of bugs only CompDiff finds.
 *
 * Usage: table3_juliet_detection [scale]
 * The default scale (1/24) keeps the run at laptop timescales; raise
 * it toward 1.0 for the full-size suite.
 */

#include <cstdio>

#include "frontend.hh"
#include "juliet/evaluate.hh"
#include "juliet/suite.hh"
#include "obs/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"

int
main(int argc, char **argv)
{
    using namespace compdiff;
    obs::BenchTelemetry telemetry("table3_juliet_detection");
    using support::format;

    const double scale = frontend::decimalArgument(
        argc, argv, "table3_juliet_detection [scale]", 1.0 / 24);

    juliet::SuiteBuilder builder(scale);
    const auto cases = builder.buildAll();
    std::printf("Table 3: detection rates (%%) and false-positive "
                "rates (%%) on %zu synthesized Juliet tests "
                "(scale %.4f)\n\n",
                cases.size(), scale);

    const auto result = juliet::evaluateSuite(cases);

    support::TextTable table;
    table.setHeader({"Group", "deepscan", "FP", "lintcheck", "FP",
                     "inferlite", "FP", "ASan", "UBSan", "MSan",
                     "SanTotal", "CompDiff", "#Unique"});
    std::vector<support::Align> align(13, support::Align::Right);
    align[0] = support::Align::Left;
    table.setAlign(align);

    auto pct = [](const juliet::ToolOutcome &outcome) {
        return format("%.0f%%", outcome.detectionRate());
    };
    auto fp = [](const juliet::ToolOutcome &outcome) {
        return format("%.0f%%", outcome.falsePositiveRate());
    };

    std::size_t unique_total = 0;
    for (const auto &group : result.groups) {
        const auto &tools = group.tools;
        table.addRow({
            group.group,
            pct(tools.at("deepscan")), fp(tools.at("deepscan")),
            pct(tools.at("lintcheck")), fp(tools.at("lintcheck")),
            pct(tools.at("inferlite")), fp(tools.at("inferlite")),
            pct(tools.at("asan")),
            pct(tools.at("ubsan")),
            pct(tools.at("msan")),
            pct(tools.at("sanitizers-any")),
            pct(tools.at("compdiff")),
            std::to_string(group.compdiffUnique),
        });
        unique_total += group.compdiffUnique;
    }
    table.addSeparator();
    table.addRow({"Total detected", "", "", "", "", "", "",
                  std::to_string(result.totalDetected("asan")),
                  std::to_string(result.totalDetected("ubsan")),
                  std::to_string(result.totalDetected("msan")),
                  std::to_string(
                      result.totalDetected("sanitizers-any")),
                  std::to_string(result.totalDetected("compdiff")),
                  std::to_string(unique_total)});

    std::printf("%s\n", table.str().c_str());
    std::printf(
        "Sanitizers and CompDiff reported zero false positives "
        "(Finding 5); static FP%% is false alarms / all reports.\n"
        "#Unique = bugs detected by CompDiff that no sanitizer "
        "caught (paper: 1,409 at full scale).\n");
    return 0;
}
