/**
 * @file
 * Tests for the divergence-preserving reduction subsystem
 * (src/reduce): the oracle contract, ddmin idempotence, signature
 * preservation on every accepted candidate, jobs-neutrality of the
 * pipeline and of the sancheck pipeline that shares it, the seeded
 * bugRemPow2 regression, report bundling, and the campaign's
 * untriaged-divergence surfacing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "minic/parser.hh"
#include "minic/printer.hh"
#include "reduce/input_reducer.hh"
#include "reduce/oracle.hh"
#include "reduce/pipeline.hh"
#include "reduce/program_reducer.hh"
#include "reduce/report.hh"
#include "sancheck/report.hh"
#include "sancheck/sancheck.hh"
#include "targets/campaign.hh"

namespace
{

using namespace compdiff;

/**
 * The paper's rem-power-of-2 miscompile, seeded via the ablation
 * hook: the strength-reduced `x % 8` is wrong for negative x under
 * the buggy trait, while the reference interpreter (which ignores
 * Traits entirely) computes the C semantics. Decoy functions and
 * statements give the program reducer something to earn.
 */
const char *kRemPow2Source = R"(
    int decoy_sum(int n) {
        int total = 0;
        int i = 0;
        while (i < n) {
            total = total + i;
            i = i + 1;
        }
        return total;
    }
    void decoy_banner() {
        print_str("banner");
        newline();
    }
    int main() {
        int unused = decoy_sum(10);
        if (input_byte(1) == 255) {
            decoy_banner();
        }
        int x = 0 - input_byte(0);
        print_int(x % 8);
        newline();
        return 0;
    }
)";

core::DiffOptions
remPow2Options()
{
    core::DiffOptions options;
    options.traitsTweak = [](compiler::Traits &traits) {
        traits.bugRemPow2 = true;
    };
    return options;
}

core::ImplementationSet
gccVsRef()
{
    return core::parseImplementations("gcc:-O2,ref");
}

/** Every file under `dir`, keyed by its path relative to `dir`. */
std::map<std::string, std::string>
readTree(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream content;
        content << in.rdbuf();
        files[std::filesystem::relative(entry.path(), dir)
                  .string()] = content.str();
    }
    return files;
}

/** Delegating oracle that records every accepted candidate input. */
class RecordingOracle : public reduce::Oracle
{
  public:
    explicit RecordingOracle(reduce::Oracle &inner) : inner_(inner) {}

    std::uint64_t targetSignature() const override
    {
        return inner_.targetSignature();
    }
    bool preserves(const minic::Program &program,
                   const support::Bytes &input) override
    {
        const bool ok = inner_.preserves(program, input);
        if (ok)
            accepted.push_back(input);
        return ok;
    }
    bool budgetExhausted() const override
    {
        return inner_.budgetExhausted();
    }
    const reduce::OracleStats &stats() const override
    {
        return inner_.stats();
    }

    std::vector<support::Bytes> accepted;

  private:
    reduce::Oracle &inner_;
};

TEST(ReduceOracle, ReproducesAndRejectsNonDivergent)
{
    auto program = minic::parseAndCheck(kRemPow2Source);
    reduce::SignatureOracle oracle(*program, gccVsRef(), {9, 0},
                                   remPow2Options(), 100);
    ASSERT_TRUE(oracle.reproduced());
    EXPECT_TRUE(oracle.witnessResult().divergent);

    // Input {0}: -0 % 8 == 0 everywhere — no divergence, rejected.
    EXPECT_FALSE(oracle.preserves(*program, {0, 0}));
    // The witness itself preserves its own signature.
    EXPECT_TRUE(oracle.preserves(*program, {9, 0}));
    EXPECT_EQ(oracle.stats().tried, 2u);
    EXPECT_EQ(oracle.stats().accepted, 1u);
}

TEST(ReduceOracle, BudgetBoundsEvaluations)
{
    auto program = minic::parseAndCheck(kRemPow2Source);
    reduce::SignatureOracle oracle(*program, gccVsRef(), {9, 0},
                                   remPow2Options(), 2);
    EXPECT_TRUE(oracle.preserves(*program, {9, 0}));
    EXPECT_TRUE(oracle.preserves(*program, {9, 0}));
    EXPECT_TRUE(oracle.budgetExhausted());
    // Budget exhausted: even the witness itself is now rejected.
    EXPECT_FALSE(oracle.preserves(*program, {9, 0}));
    EXPECT_EQ(oracle.stats().tried, 2u);
}

TEST(ReduceInput, DdminIsIdempotent)
{
    auto program = minic::parseAndCheck(kRemPow2Source);
    // A padded witness: only byte 0 matters (byte 1 must not be
    // 255, and zero bytes normalize freely).
    const support::Bytes witness = {9, 3, 77, 12, 255, 9};

    reduce::SignatureOracle first(*program, gccVsRef(), witness,
                                  remPow2Options(), 4096);
    ASSERT_TRUE(first.reproduced());
    auto reduction = reduce::reduceInput(first, *program, witness);
    EXPECT_LT(reduction.reduced.size(), witness.size());
    EXPECT_GE(reduction.candidatesAccepted, 1u);

    // Reducing the reduced witness must accept nothing.
    reduce::SignatureOracle second(*program, gccVsRef(),
                                   reduction.reduced,
                                   remPow2Options(), 4096);
    ASSERT_TRUE(second.reproduced());
    EXPECT_EQ(second.targetSignature(), first.targetSignature());
    auto again =
        reduce::reduceInput(second, *program, reduction.reduced);
    EXPECT_EQ(again.candidatesAccepted, 0u);
    EXPECT_EQ(again.reduced, reduction.reduced);
}

TEST(ReduceInput, EveryAcceptedCandidatePreservesSignature)
{
    auto program = minic::parseAndCheck(kRemPow2Source);
    const support::Bytes witness = {9, 3, 77, 12, 255, 9};
    reduce::SignatureOracle oracle(*program, gccVsRef(), witness,
                                   remPow2Options(), 4096);
    ASSERT_TRUE(oracle.reproduced());
    const std::uint64_t target = oracle.targetSignature();

    RecordingOracle spy(oracle);
    auto reduction = reduce::reduceInput(spy, *program, witness);
    ASSERT_FALSE(spy.accepted.empty());
    EXPECT_EQ(spy.accepted.back(), reduction.reduced);

    // Independently re-verify every accepted candidate against a
    // fresh engine: each must reproduce the exact target signature.
    core::DiffOptions options = remPow2Options();
    options.jobs = 1;
    core::DiffEngine engine(*program, gccVsRef(), options);
    for (const auto &candidate : spy.accepted) {
        const auto diff = engine.runInput(candidate, 0);
        EXPECT_TRUE(diff.divergent);
        EXPECT_EQ(reduce::divergenceSignature(diff), target);
    }
}

TEST(ReduceProgram, ShrinksRemPow2RegressionToThreeStatements)
{
    auto program = minic::parseAndCheck(kRemPow2Source);
    reduce::SignatureOracle oracle(*program, gccVsRef(), {9},
                                   remPow2Options(), 4096);
    ASSERT_TRUE(oracle.reproduced());

    auto reduction =
        reduce::reduceProgram(oracle, kRemPow2Source, {9});
    auto minimized = minic::parseAndCheck(reduction.source);
    EXPECT_LE(reduce::countStatements(*minimized), 3u)
        << reduction.source;
    EXPECT_EQ(reduce::countStatements(*minimized),
              reduction.stmtsAfter);
    EXPECT_LT(reduction.stmtsAfter, reduction.stmtsBefore);

    // The minimized program still diverges with the same signature.
    core::DiffOptions options = remPow2Options();
    core::DiffEngine engine(*minimized, gccVsRef(), options);
    EXPECT_EQ(reduce::divergenceSignature(engine.runInput({9}, 0)),
              oracle.targetSignature());

    // And program reduction is idempotent too: a second pass over
    // the minimized source accepts nothing.
    reduce::SignatureOracle second(*minimized, gccVsRef(), {9},
                                   remPow2Options(), 4096);
    ASSERT_TRUE(second.reproduced());
    auto again =
        reduce::reduceProgram(second, reduction.source, {9});
    EXPECT_EQ(again.candidatesAccepted, 0u);
    EXPECT_EQ(again.stmtsAfter, reduction.stmtsAfter);
}

/** Candidates are printed programs, so a source the frontend rejects
 *  is filed unreduced rather than ending the process. */
TEST(ReduceProgram, KeepsUnparsableSourceUnreduced)
{
    auto program = minic::parseAndCheck(kRemPow2Source);
    reduce::SignatureOracle oracle(*program, gccVsRef(), {9},
                                   remPow2Options(), 4096);
    const std::string broken = "int main() { return 1e+06; }";
    reduce::ProgramReduction reduction;
    ASSERT_NO_THROW(reduction =
                        reduce::reduceProgram(oracle, broken, {9}));
    EXPECT_EQ(reduction.source, broken);
    EXPECT_EQ(reduction.candidatesTried, 0u);
}

TEST(ReducePipeline, JobsNeverChangeResults)
{
    auto program = minic::parseAndCheck(kRemPow2Source);
    core::DiffOptions diff_options = remPow2Options();
    core::DiffEngine engine(*program, gccVsRef(), diff_options);

    std::vector<reduce::Witness> witnesses;
    for (const support::Bytes &input :
         {support::Bytes{9, 3, 77}, support::Bytes{17, 1},
          support::Bytes{201, 8, 8, 8}}) {
        auto diff = engine.runInput(input, 0);
        ASSERT_TRUE(diff.divergent);
        witnesses.push_back({input, std::move(diff)});
    }

    const std::string dir = (std::filesystem::temp_directory_path() /
                             "compdiff_reduce_jobs")
                                .string();
    std::filesystem::remove_all(dir);
    reduce::ReduceOptions options;
    options.diffOptions = diff_options;
    options.candidateBudget = 1024;
    options.checkSanitizers = false;
    options.jobs = 1;
    options.reportsDir = dir + "/diff-1";
    auto serial =
        reduce::reduceAndReport(*program, gccVsRef(), witnesses,
                                options);
    options.jobs = 4;
    options.reportsDir = dir + "/diff-4";
    auto parallel =
        reduce::reduceAndReport(*program, gccVsRef(), witnesses,
                                options);
    EXPECT_EQ(readTree(dir + "/diff-1"), readTree(dir + "/diff-4"));

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); i++) {
        EXPECT_TRUE(serial[i].reproduced);
        EXPECT_EQ(serial[i].signature, parallel[i].signature);
        EXPECT_EQ(serial[i].input, parallel[i].input);
        EXPECT_EQ(serial[i].program, parallel[i].program);
        EXPECT_EQ(serial[i].inputStats.candidatesTried,
                  parallel[i].inputStats.candidatesTried);
        EXPECT_EQ(serial[i].programStats.candidatesTried,
                  parallel[i].programStats.candidatesTried);
        EXPECT_EQ(renderReportMarkdown(serial[i]),
                  renderReportMarkdown(parallel[i]));
    }

    // The sanitizer-checking pipeline shrinks and fans out through
    // the same path: one witness per sanlab finding signature.
    auto sanlab = minic::parseAndCheck(sancheck::sanlabSource());
    const core::ImplementationSet san_impls =
        sancheck::defaultImplementations();
    sancheck::SanCheckOracle san_oracle(*sanlab, san_impls);
    std::vector<sancheck::FindingWitness> findings;
    std::set<std::uint64_t> signatures;
    for (const support::Bytes &seed : sancheck::sanlabSeeds()) {
        for (const auto &finding : san_oracle.runInput(seed).findings)
            if (signatures.insert(finding.signatureHash()).second)
                findings.push_back({seed, finding});
    }
    ASSERT_GE(findings.size(), 2u);
    sancheck::FindingReduceOptions san_options;
    san_options.candidateBudget = 1024;
    for (const std::size_t jobs : {1u, 4u}) {
        san_options.jobs = jobs;
        san_options.reportsDir = dir + "/san-" + std::to_string(jobs);
        const auto reports = sancheck::reduceFindings(
            *sanlab, san_impls, findings, san_options);
        ASSERT_EQ(reports.size(), findings.size());
        for (const auto &report : reports)
            EXPECT_TRUE(report.reproduced);
    }
    const auto san_tree = readTree(dir + "/san-1");
    EXPECT_EQ(san_tree.size(), 4 * findings.size());
    EXPECT_EQ(san_tree, readTree(dir + "/san-4"));
    std::filesystem::remove_all(dir);
}

TEST(ReduceReport, BundleCarriesTheFiling)
{
    auto program = minic::parseAndCheck(kRemPow2Source);
    core::DiffOptions diff_options = remPow2Options();
    core::DiffEngine engine(*program, gccVsRef(), diff_options);
    auto diff = engine.runInput({9, 3, 77}, 0);
    ASSERT_TRUE(diff.divergent);

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "compdiff_reduce_test")
            .string();
    std::filesystem::remove_all(dir);

    reduce::ReduceOptions options;
    options.diffOptions = diff_options;
    options.candidateBudget = 1024;
    options.reportsDir = dir;
    auto reports = reduce::reduceAndReport(
        *program, gccVsRef(), {{{9, 3, 77}, diff}}, options);
    ASSERT_EQ(reports.size(), 1u);
    const auto &report = reports[0];
    EXPECT_TRUE(report.reproduced);
    // Minimized artifacts strictly shrink the witness.
    EXPECT_LT(report.input.size(), report.witnessInput.size());
    EXPECT_TRUE(report.sanitizers.checked);

    // Bundles are filed under the *semantic* key (tier-2 dedup),
    // not the raw divergence signature.
    const std::string bundle =
        dir + "/" + reduce::signatureDirName(report.semanticKey);
    EXPECT_TRUE(std::filesystem::exists(bundle + "/program.mc"));
    EXPECT_TRUE(std::filesystem::exists(bundle + "/input.bin"));
    EXPECT_TRUE(std::filesystem::exists(bundle + "/witness.bin"));
    ASSERT_TRUE(std::filesystem::exists(bundle + "/report.md"));

    std::ifstream in(bundle + "/report.md");
    std::string markdown((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(markdown.find("## Localization"), std::string::npos);
    EXPECT_NE(markdown.find("## Sanitizer verdicts"),
              std::string::npos);
    EXPECT_NE(markdown.find("## Reproduce"), std::string::npos);
    // gcc-O2 vs ref crosses backends in a two-class split where the
    // ref class has no simulated member: the report must say why no
    // root cause is named rather than hiding the gap.
    EXPECT_NE(markdown.find("no simulated compiler implementation"),
              std::string::npos)
        << markdown;
    std::filesystem::remove_all(dir);
}

TEST(ReduceCampaign, SurfacesUntriagedWitnesses)
{
    // A probe-free target with a guaranteed divergence: every diff
    // the campaign finds is untriaged, and the campaign must keep
    // the witness evidence, not just count it.
    targets::TargetProgram target;
    target.name = "untriaged_demo";
    target.source = R"(
        int main() {
            if (input_byte(0) == 'U') {
                int l;
                print_int(l);
                newline();
            }
            print_str("ok");
            newline();
            return 0;
        }
    )";
    target.seeds = {support::toBytes("U")};

    session::SessionConfig config = targets::campaignConfig();
    config.fuzz.maxExecs = 400;
    auto result = targets::runCampaign(target, config,
                                       /*check_sanitizers=*/false);

    ASSERT_GE(result.untriaged.size(), 1u);
    for (const auto &untriaged : result.untriaged) {
        EXPECT_NE(untriaged.signature, 0u);
        EXPECT_FALSE(untriaged.witness.empty());
        EXPECT_FALSE(untriaged.hashVector.empty());
    }
}

TEST(ReduceCampaign, ReduceFoundProducesReports)
{
    const targets::TargetProgram *target =
        targets::findTarget("pktdump");
    ASSERT_NE(target, nullptr);

    session::SessionConfig config = targets::campaignConfig();
    config.fuzz.maxExecs = 2000;
    config.triage.reduceFound = true;
    config.triage.candidateBudget = 200;
    auto result = targets::runCampaign(*target, config,
                                       /*check_sanitizers=*/false);

    ASSERT_GE(result.stats.diffs, 1u);
    ASSERT_EQ(result.reports.size(), result.stats.diffs);
    for (const auto &report : result.reports) {
        // Minimized input never exceeds the witness.
        EXPECT_LE(report.input.size(), report.witnessInput.size());
        EXPECT_FALSE(report.program.empty());
        // Every minimized program still parses.
        EXPECT_NO_THROW(minic::parseAndCheck(report.program));
    }
}

} // namespace
