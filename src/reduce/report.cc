#include "reduce/report.hh"

#include <filesystem>
#include <iomanip>
#include <sstream>

#include "obs/events.hh"
#include "obs/stats.hh"
#include "support/logging.hh"

namespace compdiff::reduce
{

namespace
{

using obs::hex16;

std::string
percent(std::size_t before, std::size_t after)
{
    if (before == 0)
        return "0%";
    const double shrink =
        100.0 * static_cast<double>(before - after) /
        static_cast<double>(before);
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << shrink << "%";
    return os.str();
}

} // namespace

std::string
signatureDirName(std::uint64_t signature)
{
    return "sig-" + hex16(signature);
}

namespace
{

std::string
renderMarkdownBody(const DivergenceReport &report,
                   const std::vector<const DivergenceReport *>
                       &variants);

} // namespace

std::string
renderReportMarkdown(const DivergenceReport &report)
{
    return renderMarkdownBody(report, {});
}

namespace
{

std::string
renderMarkdownBody(const DivergenceReport &report,
                   const std::vector<const DivergenceReport *>
                       &variants)
{
    std::ostringstream os;
    os << "# Divergence report "
       << signatureDirName(report.semanticKey) << "\n\n";

    os << "## Summary\n\n";
    if (!report.reproduced) {
        os << "The campaign witness did not reproduce its divergence "
              "under the deterministic reduction nonce; the bundle "
              "carries the original un-reduced witness. The "
              "divergence below is the campaign observation.\n\n";
    }
    os << "- semantic key: `" << hex16(report.semanticKey)
       << "` (canonical form `"
       << hex16(report.canonicalFingerprint)
       << "` x behavior signature)\n";
    os << "- divergence signature: `" << hex16(report.signature)
       << "`\n";
    os << "- behavior classes: " << report.diff.classCount << " across "
       << report.diff.observations.size() << " implementations\n";
    for (std::size_t cls = 0; cls < report.diff.classCount; cls++) {
        os << "- class " << cls << ":";
        for (std::size_t i = 0; i < report.diff.classOf.size(); i++) {
            if (report.diff.classOf[i] == cls)
                os << " `" << report.diff.observations[i].impl << "`";
        }
        os << "\n";
    }
    os << "\n";

    os << "## Divergent pair\n\n";
    if (!report.localization.requestedA.empty()) {
        os << "`" << report.localization.requestedA << "` vs `"
           << report.localization.requestedB
           << "` (first representatives of the first two behavior "
              "classes)\n\n";
    } else {
        os << "(no divergent pair identified)\n\n";
    }
    for (const auto &obs : report.diff.observations) {
        os << "- `" << obs.impl << "`: exit `" << obs.exitClass
           << "`, output hash `" << hex16(obs.hash) << "`\n";
    }
    os << "\n";

    os << "## Localization\n\n";
    if (report.localization.attempted) {
        os << report.localization.localization.str() << "\n\n";
        if (report.localization.bridged)
            os << "> Note: " << report.localization.note << "\n\n";
    } else {
        os << "not available: " << report.localization.note << "\n\n";
    }

    os << "## Instruction slice\n\n";
    os << report.slice.str() << "\n\n";

    os << "## Sanitizer verdicts\n\n";
    if (report.sanitizers.checked) {
        os << "On the minimized (program, input) pair:\n\n";
        os << "- ASan: "
           << (report.sanitizers.asanFires ? "fires" : "silent")
           << "\n";
        os << "- UBSan: "
           << (report.sanitizers.ubsanFires ? "fires" : "silent")
           << "\n";
        os << "- MSan: "
           << (report.sanitizers.msanFires ? "fires" : "silent")
           << "\n\n";
        if (!report.sanitizers.asanFires &&
            !report.sanitizers.ubsanFires &&
            !report.sanitizers.msanFires) {
            os << "No sanitizer reports on this divergence — the "
                  "differential oracle is the only detector (the "
                  "paper's Table 6 gap).\n\n";
        }
    } else {
        os << "not run\n\n";
    }

    os << "## Reduction\n\n";
    os << "| metric | before | after | shrink |\n";
    os << "|---|---|---|---|\n";
    os << "| input bytes | " << report.witnessInput.size() << " | "
       << report.input.size() << " | "
       << percent(report.witnessInput.size(), report.input.size())
       << " |\n";
    os << "| program statements | " << report.programStats.stmtsBefore
       << " | " << report.programStats.stmtsAfter << " | "
       << percent(report.programStats.stmtsBefore,
                  report.programStats.stmtsAfter)
       << " |\n";
    os << "| program AST nodes | " << report.programStats.nodesBefore
       << " | " << report.programStats.nodesAfter << " | "
       << percent(report.programStats.nodesBefore,
                  report.programStats.nodesAfter)
       << " |\n\n";
    os << "- input reduction: " << report.inputStats.candidatesTried
       << " candidates tried, " << report.inputStats.candidatesAccepted
       << " accepted (" << report.inputStats.bytesRemoved
       << " bytes removed, " << report.inputStats.bytesNormalized
       << " normalized to zero)\n";
    os << "- program reduction: "
       << report.programStats.candidatesTried << " candidates tried, "
       << report.programStats.candidatesAccepted << " accepted, "
       << report.programStats.frontendRejected
       << " rejected by the frontend before reaching the oracle\n\n";

    os << "## Minimized input\n\n```\n"
       << support::hexDump(report.input) << "```\n\n";

    os << "## Minimized program\n\n```c\n" << report.program;
    if (!report.program.empty() && report.program.back() != '\n')
        os << "\n";
    os << "```\n\n";

    if (variants.size() > 1) {
        os << "## Merged variants\n\n";
        os << "This bundle carries " << variants.size()
           << " witness programs whose minimized forms canonicalize "
              "to the same semantic key. Each variant keeps its own "
              "artifacts under `variants/v<k>/`; `v0` is duplicated "
              "at the bundle root.\n\n";
        os << "| variant | divergence signature | program bytes | "
              "input bytes |\n";
        os << "|---|---|---|---|\n";
        for (std::size_t k = 0; k < variants.size(); k++) {
            os << "| v" << k << " | `" << hex16(variants[k]->signature)
               << "` | " << variants[k]->program.size() << " | "
               << variants[k]->input.size() << " |\n";
        }
        os << "\n";
    }

    os << "## Reproduce\n\n```\ncompdiff_cli";
    if (!report.diff.observations.empty()) {
        os << " --impls=";
        for (std::size_t i = 0; i < report.diff.observations.size();
             i++) {
            if (i > 0)
                os << ",";
            os << report.diff.observations[i].impl;
        }
    }
    os << " program.mc input.bin\n```\n\n";
    os << "The CLI exits 1 when the oracle still observes the "
          "divergence.\n";
    return os.str();
}

void
writeVariantArtifacts(const std::string &dir,
                      const DivergenceReport &report)
{
    obs::writeTextFile(dir + "/program.mc", report.program);
    obs::writeTextFile(
        dir + "/input.bin",
        std::string(report.input.begin(), report.input.end()));
    obs::writeTextFile(dir + "/witness.bin",
                       std::string(report.witnessInput.begin(),
                                   report.witnessInput.end()));
}

} // namespace

std::string
writeReport(const std::string &out_dir,
            const DivergenceReport &report)
{
    return writeMergedReport(out_dir, {&report});
}

std::string
writeMergedReport(const std::string &out_dir,
                  const std::vector<const DivergenceReport *>
                      &variants)
{
    const DivergenceReport &primary = *variants.front();
    const std::string dir =
        out_dir + "/" + signatureDirName(primary.semanticKey);

    // A previous (possibly interrupted) run may have filed a
    // different variant set here; clear it so the bundle tree is a
    // pure function of the current merge decision.
    std::error_code ec;
    std::filesystem::remove_all(dir + "/variants", ec);

    writeVariantArtifacts(dir, primary);
    if (variants.size() > 1) {
        for (std::size_t k = 0; k < variants.size(); k++)
            writeVariantArtifacts(dir + "/variants/v" +
                                      std::to_string(k),
                                  *variants[k]);
    }
    obs::writeTextFile(dir + "/report.md",
                       renderMarkdownBody(primary, variants));
    return dir;
}

} // namespace compdiff::reduce
