/**
 * @file
 * Ablation study for the design decisions DESIGN.md Section 5 calls
 * out. Three experiments:
 *
 *  1. PASS ABLATION — disable one UB-exploiting optimization across
 *     all ten implementations and measure how many Juliet bugs
 *     CompDiff loses: quantifies which compiler behavior each
 *     detection class rides on.
 *  2. RQ5 ABLATION — run the timestamping target with and without
 *     output normalization: without it, every input is a (false)
 *     divergence.
 *  3. RQ6 ABLATION — run a partial-timeout workload with and without
 *     the timeout re-examination: without it, truncated outputs
 *     would surface as divergence.
 *
 * Usage: ablation_design [juliet_scale]
 */

#include <cstdio>
#include <functional>

#include "compdiff/engine.hh"
#include "frontend.hh"
#include "juliet/suite.hh"
#include "minic/parser.hh"
#include "obs/stats.hh"
#include "support/table.hh"
#include "targets/targets.hh"

namespace
{

using namespace compdiff;

std::size_t
detectedOnSuite(const std::vector<juliet::JulietCase> &cases,
                const std::function<void(compiler::Traits &)> &tweak)
{
    std::size_t detected = 0;
    for (const auto &test : cases) {
        auto program = minic::parseAndCheck(test.badSource);
        core::DiffOptions options;
        options.traitsTweak = tweak;
        core::DiffEngine engine(*program, options);
        detected += engine.runInput(test.input).divergent;
    }
    return detected;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace compdiff;
    obs::BenchTelemetry telemetry("ablation_design");

    const double scale = frontend::decimalArgument(
        argc, argv, "ablation_design [juliet_scale]", 1.0 / 96);

    juliet::SuiteBuilder builder(scale);
    const auto cases = builder.buildAll();
    std::printf("Ablation study (%zu Juliet cases, scale %.4f)\n\n",
                cases.size(), scale);

    // ---- 1. pass ablation --------------------------------------
    struct Knob
    {
        const char *name;
        std::function<void(compiler::Traits &)> tweak;
    };
    const Knob knobs[] = {
        {"full pipeline", {}},
        {"- ubguardfold",
         [](compiler::Traits &t) { t.foldUbGuards = false; }},
        {"- alwaystruecmp",
         [](compiler::Traits &t) { t.alwaysTrueIncCmp = false; }},
        {"- widenmul",
         [](compiler::Traits &t) { t.widenMulToLong = false; }},
        {"- deadstore",
         [](compiler::Traits &t) { t.deadStoreElim = false; }},
        {"- nullexploit",
         [](compiler::Traits &t) { t.nullDerefExploit = false; }},
        {"- all UB-exploiting passes",
         [](compiler::Traits &t) {
             t.foldUbGuards = false;
             t.alwaysTrueIncCmp = false;
             t.widenMulToLong = false;
             t.deadStoreElim = false;
             t.nullDerefExploit = false;
         }},
    };

    support::TextTable table;
    table.setHeader({"pipeline", "bugs detected", "delta"});
    table.setAlign({support::Align::Left, support::Align::Right,
                    support::Align::Right});
    std::size_t baseline = 0;
    for (const auto &knob : knobs) {
        const std::size_t detected =
            detectedOnSuite(cases, knob.tweak);
        if (!knob.tweak)
            baseline = detected;
        table.addRow({knob.name, std::to_string(detected),
                      knob.tweak ? std::to_string(
                                       static_cast<long>(detected) -
                                       static_cast<long>(baseline))
                                 : "-"});
    }
    std::printf("1. optimization-pass ablation (CompDiff "
                "detections on the bad variants)\n\n%s\n",
                table.str().c_str());
    std::printf("Even with every UB-exploiting pass off, layout/"
                "fill/order divergence keeps most detections alive "
                "— the oracle does not depend on one transform.\n\n");

    // ---- 2. RQ5: output normalization ---------------------------
    {
        const auto *netshark = targets::findTarget("netshark");
        auto program = minic::parseAndCheck(netshark->source);

        core::DiffOptions with;
        core::DiffOptions without;
        without.normalizer = core::OutputNormalizer();
        core::DiffEngine normalized(*program, with);
        core::DiffEngine raw(*program, without);

        // Timestamp-only frames: benign inputs.
        std::size_t false_raw = 0;
        std::size_t false_normalized = 0;
        for (int seq = 0; seq < 16; seq++) {
            const support::Bytes input = {
                87, 1, static_cast<std::uint8_t>(seq)};
            false_raw += raw.runInput(input).divergent;
            false_normalized +=
                normalized.runInput(input).divergent;
        }
        std::printf("2. RQ5 output normalization on netshark "
                    "(16 benign timestamped inputs)\n"
                    "   raw comparison:        %zu/16 false "
                    "divergences\n"
                    "   normalized comparison: %zu/16 false "
                    "divergences\n\n",
                    false_raw, false_normalized);
    }

    // ---- 3. RQ6: timeout re-examination --------------------------
    {
        auto program = minic::parseAndCheck(R"(
            int main() {
                char n;
                int bound = (n & 255) * 40;
                int acc = 0;
                for (int i = 0; i < bound; i += 1) { acc += 3; }
                print_int(acc);
                return 0;
            }
        )");
        core::DiffOptions with;
        with.limits.maxInstructions = 20'000;
        core::DiffOptions without = with;
        without.retryTimeouts = false;

        core::DiffEngine retrying(*program, with);
        core::DiffEngine strict(*program, without);
        auto resolved = retrying.runInput({});
        auto unresolved = strict.runInput({});
        std::printf(
            "3. RQ6 timeout re-examination (uninitialized loop "
            "bound, tight budget)\n"
            "   with retries:    divergent=%d unresolvedTimeout=%d "
            "(real bug surfaced)\n"
            "   without retries: divergent=%d unresolvedTimeout=%d "
            "(suppressed, would otherwise be a truncated-output "
            "false positive)\n",
            resolved.divergent, resolved.unresolvedTimeout,
            unresolved.divergent, unresolved.unresolvedTimeout);
    }
    return 0;
}
