/**
 * @file
 * Reproduces Figure 1: the number of bugs each subset of compiler
 * implementations detects on the Juliet-style suite, as a function
 * of subset size (box-and-whisker per size, with the best and worst
 * size-2 subsets called out like the paper's annotations).
 *
 * Usage: fig1_subset_juliet [scale]
 */

#include <cstdio>

#include "compdiff/subset.hh"
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
    obs::BenchTelemetry telemetry("fig1_subset_juliet");
    using support::format;

    const double scale = frontend::decimalArgument(
        argc, argv, "fig1_subset_juliet [scale]", 1.0 / 24);

    juliet::SuiteBuilder builder(scale);
    const auto cases = builder.buildAll();

    juliet::EvaluationOptions options;
    options.runStatic = false;
    options.runSanitizers = false;
    const auto result = juliet::evaluateSuite(cases, options);

    const auto impls = core::paper10Implementations();
    core::SubsetAnalysis analysis(impls.size());
    for (const auto &hashes : result.badHashVectors)
        analysis.addCase(hashes);

    std::printf("Figure 1: bugs detected by each subset of compiler "
                "implementations (%zu Juliet tests, scale %.4f)\n\n",
                cases.size(), scale);

    const auto all = analysis.enumerateAll();
    double max_detected = 0;
    for (const auto &size_results : all)
        max_detected = std::max(
            max_detected,
            static_cast<double>(
                core::SubsetAnalysis::best(size_results).detected));

    support::TextTable table;
    table.setHeader({"#Impls", "#Subsets", "min", "q1", "median",
                     "q3", "max", "distribution"});
    table.setAlign({support::Align::Right, support::Align::Right,
                    support::Align::Right, support::Align::Right,
                    support::Align::Right, support::Align::Right,
                    support::Align::Right, support::Align::Left});

    for (std::size_t i = 0; i < all.size(); i++) {
        const auto &size_results = all[i];
        const auto stats = core::SubsetAnalysis::stats(size_results);
        table.addRow({
            std::to_string(i + 2),
            std::to_string(size_results.size()),
            format("%.0f", stats.min),
            format("%.0f", stats.q1),
            format("%.0f", stats.median),
            format("%.0f", stats.q3),
            format("%.0f", stats.max),
            support::asciiBox(stats, 0, max_detected, 40),
        });
    }
    std::printf("%s\n", table.str().c_str());

    const auto &pairs = all[0];
    const auto &best = core::SubsetAnalysis::best(pairs);
    const auto &worst = core::SubsetAnalysis::worst(pairs);
    std::printf("best  size-2 subset: %s detects %zu\n",
                best.name(impls).c_str(), best.detected);
    std::printf("worst size-2 subset: %s detects %zu\n",
                worst.name(impls).c_str(), worst.detected);

    const auto &full = all.back()[0];
    std::printf("full set (10 implementations) detects %zu of %zu\n",
                full.detected, analysis.caseCount());
    std::printf("best pair reaches %.0f%% of the full set at ~20%% "
                "of the run-time cost\n",
                100.0 * static_cast<double>(best.detected) /
                    static_cast<double>(
                        std::max<std::size_t>(full.detected, 1)));
    return 0;
}
