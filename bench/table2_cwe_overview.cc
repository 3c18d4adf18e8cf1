/**
 * @file
 * Reproduces Table 2: overview of the selected CWEs.
 *
 * Prints the paper's catalog (CWE id, description, paper test count)
 * next to the number of cases this repository synthesizes at the
 * default scale.
 */

#include <cstdio>
#include <string>

#include "frontend.hh"
#include "juliet/suite.hh"
#include "obs/stats.hh"
#include "support/table.hh"

int
main(int argc, char **argv)
{
    using namespace compdiff;
    obs::BenchTelemetry telemetry("table2_cwe_overview");

    const double scale = frontend::decimalArgument(
        argc, argv, "table2_cwe_overview [scale]", 1.0 / 16);

    juliet::SuiteBuilder builder(scale);
    support::TextTable table;
    table.setHeader({"CWE-ID", "Description", "#Tests (paper)",
                     "#Tests (ours)"});
    table.setAlign({support::Align::Left, support::Align::Left,
                    support::Align::Right, support::Align::Right});

    int paper_total = 0;
    std::size_t our_total = 0;
    for (const auto &info : juliet::cweCatalog()) {
        const std::size_t ours = builder.countFor(info.cwe);
        table.addRow({"CWE-" + std::to_string(info.cwe),
                      info.description,
                      std::to_string(info.paperCount),
                      std::to_string(ours)});
        paper_total += info.paperCount;
        our_total += ours;
    }
    table.addSeparator();
    table.addRow({"Total", "", std::to_string(paper_total),
                  std::to_string(our_total)});

    std::printf("Table 2: Overview of selected CWEs "
                "(scale %.4f)\n\n%s\n",
                scale, table.str().c_str());
    return 0;
}
