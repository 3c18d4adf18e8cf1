/**
 * @file
 * Reproduces Table 5: bugs detected by CompDiff-AFL++ on the target
 * programs, by root-cause category, with the simulated developer
 * response (confirmed / fixed).
 *
 * Usage: table5_fuzz_bugs [execs_per_target]
 */

#include <cstdio>

#include "frontend.hh"
#include "obs/stats.hh"
#include "support/table.hh"
#include "targets/campaign.hh"

int
main(int argc, char **argv)
{
    using namespace compdiff;
    obs::BenchTelemetry telemetry("table5_fuzz_bugs");

    session::SessionConfig config = targets::campaignConfig();
    config.fuzz.maxExecs = frontend::unsignedArgument(
        argc, argv, "table5_fuzz_bugs [execs_per_target]", 10'000);

    std::printf("Table 5: bugs detected by CompDiff-AFL++ on %zu "
                "targets (%llu execs per target)\n\n",
                targets::allTargets().size(),
                static_cast<unsigned long long>(config.fuzz.maxExecs));

    std::uint64_t total_execs = 0;
    std::vector<targets::CampaignResult> results;
    for (const auto &target : targets::allTargets()) {
        results.push_back(targets::runCampaign(
            target, config, /*check_sanitizers=*/false));
        total_execs += results.back().stats.execs;
        std::fprintf(stderr, "  %-10s diffs %3zu  found %zu/%zu\n",
                     target.name.c_str(),
                     results.back().stats.diffs,
                     results.back().found.size(),
                     target.bugs.size());
    }

    const auto columns = targets::aggregateByColumn(results);
    const char *order[] = {"EvalOrder",  "UninitMem", "IntError",
                           "MemError",   "PointerCmp", "LINE",
                           "Misc."};

    support::TextTable table;
    std::vector<std::string> header = {""};
    for (const char *col : order)
        header.push_back(col);
    header.push_back("Total");
    table.setHeader(header);
    std::vector<support::Align> align(header.size(),
                                      support::Align::Right);
    align[0] = support::Align::Left;
    table.setAlign(align);

    auto add_row = [&](const char *name, auto getter) {
        std::vector<std::string> row = {name};
        std::size_t total = 0;
        for (const char *col : order) {
            const std::size_t value = getter(columns.at(col));
            row.push_back(std::to_string(value));
            total += value;
        }
        row.push_back(std::to_string(total));
        table.addRow(row);
    };

    add_row("Planted", [](const targets::ColumnCounts &c) {
        return c.planted;
    });
    table.addSeparator();
    add_row("Reported", [](const targets::ColumnCounts &c) {
        return c.found;
    });
    add_row("Confirmed", [](const targets::ColumnCounts &c) {
        return c.confirmed;
    });
    add_row("Fixed", [](const targets::ColumnCounts &c) {
        return c.fixed;
    });

    std::printf("%s\n", table.str().c_str());
    std::printf("Paper (24h x 10 campaigns): Reported 2/27/8/13/1/"
                "6/21 = 78, Confirmed 65, Fixed 52.\n"
                "Total executions: %llu (x11 binaries each).\n",
                static_cast<unsigned long long>(total_execs));
    return 0;
}
