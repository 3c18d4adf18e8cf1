/**
 * @file
 * Reproduces Figure 2: the number of real-world bugs each subset of
 * compiler implementations detects, computed over the witness hash
 * vectors of the bugs the campaigns recovered.
 *
 * Usage: fig2_subset_realworld [execs_per_target]
 */

#include <cstdio>

#include "compdiff/subset.hh"
#include "frontend.hh"
#include "obs/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "targets/campaign.hh"

int
main(int argc, char **argv)
{
    using namespace compdiff;
    obs::BenchTelemetry telemetry("fig2_subset_realworld");
    using support::format;

    session::SessionConfig config = targets::campaignConfig();
    config.fuzz.maxExecs = frontend::unsignedArgument(
        argc, argv, "fig2_subset_realworld [execs_per_target]", 10'000);

    const auto results =
        targets::runAllCampaigns(config, /*check_sanitizers=*/false);
    const auto impls = core::paper10Implementations();

    core::SubsetAnalysis analysis(impls.size());
    for (const auto &result : results)
        for (const auto &finding : result.found)
            analysis.addCase(finding.hashVector);

    std::printf("Figure 2: bugs detected by each subset of compiler "
                "implementations on the %zu recovered real-world "
                "bugs\n\n",
                analysis.caseCount());

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
        const auto stats = core::SubsetAnalysis::stats(all[i]);
        table.addRow({
            std::to_string(i + 2),
            std::to_string(all[i].size()),
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
    std::printf("paper: best pairs {gcc-O0, clang-Os} / "
                "{gcc-Os, clang-O0}; worst {clang-O0, clang-O1}.\n");
    return 0;
}
