/**
 * @file
 * Reproduces Table 6: of all bugs detected by CompDiff-AFL++, how
 * many could also be discovered by each sanitizer (each found bug's
 * witness input is replayed on the ASan/UBSan/MSan builds).
 *
 * Usage: table6_sanitizer_overlap [execs_per_target]
 */

#include <cstdio>
#include <map>

#include "frontend.hh"
#include "obs/stats.hh"
#include "support/table.hh"
#include "targets/campaign.hh"

int
main(int argc, char **argv)
{
    using namespace compdiff;
    obs::BenchTelemetry telemetry("table6_sanitizer_overlap");
    using targets::BugCategory;

    session::SessionConfig config = targets::campaignConfig();
    config.fuzz.maxExecs = frontend::unsignedArgument(
        argc, argv, "table6_sanitizer_overlap [execs_per_target]",
        10'000);

    const auto results =
        targets::runAllCampaigns(config, /*check_sanitizers=*/true);

    struct Row
    {
        std::size_t total = 0;
        std::size_t asan = 0;
        std::size_t ubsan = 0;
        std::size_t msan = 0;
        std::size_t any = 0;
    };
    std::map<std::string, Row> rows;
    Row grand;

    auto row_name = [](BugCategory category) -> std::string {
        switch (category) {
          case BugCategory::MemError: return "MemError";
          case BugCategory::IntError: return "IntError";
          case BugCategory::UninitMem: return "UninitMem";
          default: return "Remaining bugs";
        }
    };

    for (const auto &result : results) {
        for (const auto &finding : result.found) {
            Row &row = rows[row_name(finding.bug->category)];
            row.total++;
            row.asan += finding.asanFires;
            row.ubsan += finding.ubsanFires;
            row.msan += finding.msanFires;
            const bool any = finding.asanFires ||
                             finding.ubsanFires || finding.msanFires;
            row.any += any;
            grand.total++;
            grand.asan += finding.asanFires;
            grand.ubsan += finding.ubsanFires;
            grand.msan += finding.msanFires;
            grand.any += any;
        }
    }

    std::printf("Table 6: of the bugs detected by CompDiff, the "
                "number also discovered by sanitizers\n"
                "(%llu execs per target)\n\n",
                static_cast<unsigned long long>(config.fuzz.maxExecs));

    support::TextTable table;
    table.setHeader({"CompDiff", "ASan", "UBSan", "MSan",
                     "Sanitizer total", "CompDiff total"});
    table.setAlign({support::Align::Left, support::Align::Right,
                    support::Align::Right, support::Align::Right,
                    support::Align::Right, support::Align::Right});

    const char *order[] = {"MemError", "IntError", "UninitMem",
                           "Remaining bugs"};
    for (const char *name : order) {
        const Row &row = rows[name];
        table.addRow({name, std::to_string(row.asan),
                      std::to_string(row.ubsan),
                      std::to_string(row.msan),
                      std::to_string(row.any),
                      std::to_string(row.total)});
    }
    table.addSeparator();
    table.addRow({"Total", std::to_string(grand.asan),
                  std::to_string(grand.ubsan),
                  std::to_string(grand.msan),
                  std::to_string(grand.any),
                  std::to_string(grand.total)});

    std::printf("%s\n", table.str().c_str());
    std::printf("Paper: MemError 13/13, IntError 8/8, UninitMem "
                "21/27, remaining 0/30; 42 of 78 total.\n");
    return 0;
}
