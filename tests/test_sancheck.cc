/**
 * @file
 * Tests for the sanitizer-checking subsystem (DESIGN.md §14): the
 * UB-certifying reference interpreter, the flipped FN/FP oracle, the
 * finding reduction bundles, and the sancheck campaign mode's
 * determinism contract (jobs-invariance, halt+resume bit-identity).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>

#include "minic/parser.hh"
#include "refinterp/refinterp.hh"
#include "sancheck/report.hh"
#include "sancheck/sancheck.hh"
#include "sanitizers/sanitizers.hh"
#include "session/checkpoint.hh"
#include "support/logging.hh"
#include "session/serial.hh"
#include "session/session.hh"

namespace
{

using namespace compdiff;
using compiler::Sanitizer;
using refinterp::UbKind;
using sancheck::FindingKind;
using sancheck::SanFinding;
using support::Bytes;

/** Certify one input against an inline program. */
refinterp::CertifiedRun
certify(std::string_view source, const Bytes &input = {})
{
    auto program = minic::parseAndCheck(source);
    refinterp::RefInterpreter interp(*program);
    return interp.certify(input);
}

/** Fresh scratch directory under the system temp dir. */
std::string
freshDir(const std::string &leaf)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("compdiff_" + std::string(info->test_suite_name()) + "_" +
         info->name() + "_" + leaf);
    std::filesystem::remove_all(dir);
    return dir.string();
}

// ---------------- certification edge cases ----------------

TEST(Certify, OversizedShiftCount)
{
    const auto run = certify(R"(
        int main() {
            int n = 30 + input_size();
            return 1 << (n + 10);
        }
    )");
    ASSERT_FALSE(run.certificates.empty());
    EXPECT_EQ(run.certificates.front().kind,
              UbKind::OversizedShift);
    EXPECT_EQ(run.certificates.front().function, "main");
}

TEST(Certify, NegativeShiftCount)
{
    // read_byte() at EOF yields -1: a negative shift count is the
    // same UB class as an oversized one.
    const auto run = certify(R"(
        int main() {
            int n = read_byte();
            return 1 << n;
        }
    )");
    ASSERT_FALSE(run.certificates.empty());
    EXPECT_EQ(run.certificates.front().kind,
              UbKind::OversizedShift);
}

TEST(Certify, InBoundsShiftIsClean)
{
    const auto run = certify(R"(
        int main() {
            int n = 20 + input_size();
            return 1 << n;
        }
    )");
    EXPECT_TRUE(run.certificates.empty());
    EXPECT_EQ(run.result.termination, vm::Termination::Exit);
}

TEST(Certify, UninitStackRead)
{
    const auto run = certify(R"(
        int main() {
            int l;
            print_int(l);
            return 0;
        }
    )");
    ASSERT_FALSE(run.certificates.empty());
    EXPECT_EQ(run.certificates.front().kind, UbKind::UninitRead);
}

TEST(Certify, PartiallyInitStructPadding)
{
    // Storing to one member leaves the neighbor's bytes never
    // written; a branch on them must certify, exactly the byte-
    // granular shadow the classifier relies on.
    const auto run = certify(R"(
        struct pair { int a; int b; };
        int main() {
            struct pair p;
            p.a = 1;
            if (p.b > 0) { print_str("pos"); }
            return p.a;
        }
    )");
    ASSERT_FALSE(run.certificates.empty());
    EXPECT_EQ(run.certificates.front().kind, UbKind::UninitRead);
}

TEST(Certify, OutOfBoundsPastAsanRedzone)
{
    // The sanlab station_heap_far shape: 48 bytes past a 16-byte
    // chunk lands beyond ASan's redzone on the neighboring live
    // object, but object-granular bounds still certify it.
    const auto run = certify(R"(
        int main() {
            char *p = malloc(16L);
            char *q = malloc(16L);
            q[0] = (char)77;
            int v = p[48 + input_size()];
            free(q);
            free(p);
            return v;
        }
    )");
    ASSERT_FALSE(run.certificates.empty());
    EXPECT_EQ(run.certificates.front().kind, UbKind::OutOfBounds);
}

TEST(Certify, SignedOverflowCertificateNamesSite)
{
    const auto run = certify(R"(
        int main() {
            int big = 2147483647 - input_size();
            return big + 1;
        }
    )");
    ASSERT_FALSE(run.certificates.empty());
    const refinterp::UbCertificate &cert = run.certificates.front();
    EXPECT_EQ(cert.kind, UbKind::SignedOverflow);
    EXPECT_EQ(cert.function, "main");
    EXPECT_GT(cert.line, 0u);
    EXPECT_NE(cert.detail.find("2147483647"), std::string::npos);
    EXPECT_NE(cert.str().find("signed-overflow"),
              std::string::npos);
}

TEST(Certify, CertificatesCappedNotUnbounded)
{
    const auto run = certify(R"(
        int main() {
            int big = 2147483647;
            int acc = 0;
            for (int i = 1; i < 100; i += 1) { acc += big + i; }
            return acc;
        }
    )");
    EXPECT_EQ(run.certificates.size(),
              refinterp::CertifiedRun::kMaxCertificates);
}

TEST(Certify, ResultBitIdenticalToPlainRun)
{
    // Certification is out-of-band evidence: the observable result
    // must match a plain run() byte for byte, for a UB-free and a
    // UB-bearing program alike.
    for (const char *source : {
             "int main() { print_str(\"ok\"); return input_size(); }",
             "int main() { int l; print_int(l); return 0; }",
         }) {
        auto program = minic::parseAndCheck(source);
        refinterp::RefInterpreter interp(*program);
        const Bytes input = {'x', 'y'};
        const vm::ExecutionResult plain = interp.run(input);
        const refinterp::CertifiedRun certified =
            interp.certify(input);
        EXPECT_EQ(certified.result.output, plain.output);
        EXPECT_EQ(certified.result.exitCode, plain.exitCode);
        EXPECT_EQ(certified.result.termination, plain.termination);
        EXPECT_EQ(certified.result.outputHash(),
                  plain.outputHash());
    }
}

// ---------------- classification ----------------

TEST(SancheckClassify, CoverageScopesPerSanitizer)
{
    EXPECT_TRUE(sancheck::sanitizerCovers(Sanitizer::ASan,
                                          UbKind::OutOfBounds));
    EXPECT_FALSE(sancheck::sanitizerCovers(Sanitizer::ASan,
                                           UbKind::SignedOverflow));
    EXPECT_TRUE(sancheck::sanitizerCovers(Sanitizer::UBSan,
                                          UbKind::OversizedShift));
    EXPECT_FALSE(sancheck::sanitizerCovers(Sanitizer::UBSan,
                                           UbKind::UninitRead));
    EXPECT_TRUE(sancheck::sanitizerCovers(Sanitizer::MSan,
                                          UbKind::UninitRead));
    EXPECT_FALSE(sancheck::sanitizerCovers(Sanitizer::MSan,
                                           UbKind::OutOfBounds));
    EXPECT_FALSE(sancheck::sanitizerCovers(Sanitizer::None,
                                           UbKind::OutOfBounds));
}

refinterp::CertifiedRun
certifiedOverflow()
{
    refinterp::CertifiedRun run;
    run.result.termination = vm::Termination::Exit;
    refinterp::UbCertificate cert;
    cert.kind = UbKind::SignedOverflow;
    cert.function = "main";
    cert.line = 7;
    cert.detail = "2147483647 + 1";
    run.certificates.push_back(cert);
    return run;
}

TEST(SancheckClassify, SilentSanitizerIsFalseNegative)
{
    vm::ExecutionResult sanitized; // clean exit, no reports
    SanFinding finding;
    ASSERT_TRUE(sancheck::classifyOne(certifiedOverflow(),
                                      "clang-O2+ubsan",
                                      Sanitizer::UBSan, sanitized,
                                      &finding));
    EXPECT_EQ(finding.kind, FindingKind::FalseNegative);
    EXPECT_EQ(finding.ubKind, UbKind::SignedOverflow);
    EXPECT_EQ(finding.signature(),
              "san:clang-O2+ubsan:signed-overflow:FN");
    EXPECT_NE(finding.str().find("main:7"), std::string::npos);
}

TEST(SancheckClassify, MatchingReportIsDetection)
{
    vm::ExecutionResult sanitized;
    sanitized.termination = vm::Termination::SanitizerAbort;
    sanitized.sanReports.push_back(
        {vm::SanReport::Tool::UBSan, "signed-integer-overflow", 7});
    SanFinding finding;
    EXPECT_FALSE(sancheck::classifyOne(certifiedOverflow(),
                                       "clang-O2+ubsan",
                                       Sanitizer::UBSan, sanitized,
                                       &finding));
}

TEST(SancheckClassify, OutOfScopeCertIsNotCharged)
{
    // MSan staying silent about a signed overflow is by design.
    vm::ExecutionResult sanitized;
    SanFinding finding;
    EXPECT_FALSE(sancheck::classifyOne(certifiedOverflow(),
                                       "clang-O1+msan",
                                       Sanitizer::MSan, sanitized,
                                       &finding));
}

TEST(SancheckClassify, AbortOnUnrelatedReportIsNotSilence)
{
    // The sanitizer stopped at an earlier, different report: the
    // run never reached the certified site, so charging an FN for
    // it would be bogus.
    vm::ExecutionResult sanitized;
    sanitized.termination = vm::Termination::SanitizerAbort;
    sanitized.sanReports.push_back(
        {vm::SanReport::Tool::UBSan, "shift-out-of-bounds", 3});
    SanFinding finding;
    EXPECT_FALSE(sancheck::classifyOne(certifiedOverflow(),
                                       "clang-O2+ubsan",
                                       Sanitizer::UBSan, sanitized,
                                       &finding));
}

TEST(SancheckClassify, CrashBeforeVerdictIsNotSilence)
{
    vm::ExecutionResult sanitized;
    sanitized.termination = vm::Termination::Trap;
    sanitized.trap = vm::TrapKind::Segv;
    SanFinding finding;
    EXPECT_FALSE(sancheck::classifyOne(certifiedOverflow(),
                                       "clang-O2+ubsan",
                                       Sanitizer::UBSan, sanitized,
                                       &finding));
}

TEST(SancheckClassify, TimeoutEitherSideYieldsNothing)
{
    SanFinding finding;
    vm::ExecutionResult slow;
    slow.termination = vm::Termination::BudgetExhausted;
    EXPECT_FALSE(sancheck::classifyOne(certifiedOverflow(),
                                       "clang-O2+ubsan",
                                       Sanitizer::UBSan, slow,
                                       &finding));
    refinterp::CertifiedRun ref_slow = certifiedOverflow();
    ref_slow.result.termination = vm::Termination::BudgetExhausted;
    vm::ExecutionResult sanitized;
    EXPECT_FALSE(sancheck::classifyOne(ref_slow, "clang-O2+ubsan",
                                       Sanitizer::UBSan, sanitized,
                                       &finding));
}

TEST(SancheckClassify, CertifiedCleanReportIsFalsePositive)
{
    refinterp::CertifiedRun clean;
    clean.result.termination = vm::Termination::Exit;
    vm::ExecutionResult sanitized;
    sanitized.termination = vm::Termination::SanitizerAbort;
    sanitized.sanReports.push_back(
        {vm::SanReport::Tool::UBSan, "signed-integer-overflow", 9});
    SanFinding finding;
    ASSERT_TRUE(sancheck::classifyOne(clean, "clang-O2+ubsan",
                                      Sanitizer::UBSan, sanitized,
                                      &finding));
    EXPECT_EQ(finding.kind, FindingKind::FalsePositive);
    EXPECT_EQ(finding.signature(),
              "san:clang-O2+ubsan:signed-overflow:FP");
    EXPECT_EQ(finding.reportLine, 9u);
}

TEST(SancheckClassify, AllocatorReportOutsideTaxonomySkipped)
{
    refinterp::CertifiedRun clean;
    clean.result.termination = vm::Termination::Exit;
    vm::ExecutionResult sanitized;
    sanitized.sanReports.push_back(
        {vm::SanReport::Tool::ASan, "double-free", 4});
    SanFinding finding;
    EXPECT_FALSE(sancheck::classifyOne(clean, "clang-O1+asan",
                                       Sanitizer::ASan, sanitized,
                                       &finding));
}

TEST(SancheckClassify, TrappingReferenceRunProvesNoFp)
{
    refinterp::CertifiedRun trapped;
    trapped.result.termination = vm::Termination::Trap;
    vm::ExecutionResult sanitized;
    sanitized.sanReports.push_back(
        {vm::SanReport::Tool::ASan, "heap-buffer-overflow", 2});
    SanFinding finding;
    EXPECT_FALSE(sancheck::classifyOne(trapped, "clang-O1+asan",
                                       Sanitizer::ASan, sanitized,
                                       &finding));
}

TEST(SancheckClassify, SignatureHashMatchesSignature)
{
    SanFinding a;
    a.implId = "clang-O1+msan";
    a.ubKind = UbKind::UninitRead;
    a.kind = FindingKind::FalseNegative;
    SanFinding b = a;
    EXPECT_EQ(a.signatureHash(), b.signatureHash());
    b.kind = FindingKind::FalsePositive;
    EXPECT_NE(a.signatureHash(), b.signatureHash());
    EXPECT_EQ(a.signature(), "san:clang-O1+msan:uninit-read:FN");
}

// ---------------- oracle + sanlab sweep ----------------

/** The four seeded defects the subsystem exists to catch. */
const std::set<std::string> kSeededSignatures = {
    "san:clang-O1+asan:out-of-bounds:FN",
    "san:clang-O2+ubsan:signed-overflow:FN",
    "san:clang-O2+ubsan:signed-overflow:FP",
    "san:clang-O1+msan:uninit-read:FN",
};

std::set<std::string>
sweepSignatures()
{
    auto program = minic::parseAndCheck(sancheck::sanlabSource());
    sancheck::SanCheckOracle oracle(
        *program, sancheck::defaultImplementations());
    std::set<std::string> signatures;
    for (const Bytes &seed : sancheck::sanlabSeeds()) {
        for (const SanFinding &finding :
             oracle.runInput(seed).findings)
            signatures.insert(finding.signature());
    }
    return signatures;
}

TEST(Sancheck, SanlabSweepFindsExactlySeededDefects)
{
    EXPECT_EQ(sweepSignatures(), kSeededSignatures);
}

TEST(Sancheck, OracleConfigIdsLeadWithRef)
{
    auto program = minic::parseAndCheck(sancheck::sanlabSource());
    sancheck::SanCheckOracle oracle(
        *program, sancheck::defaultImplementations());
    const auto ids = oracle.configIds();
    ASSERT_EQ(ids.size(), 5u);
    EXPECT_EQ(ids.front(), "ref");
    EXPECT_EQ(ids[1], "clang-O1+asan");
}

TEST(Sancheck, ValidateRejectsUnsanitizedImpls)
{
    EXPECT_THROW(sancheck::validateImpls(
                     core::parseImplementations("clang:-O1,clang:-O2")),
                 support::FatalError);
}

TEST(Sancheck, ReduceBundlesNameSiteAndSanitizer)
{
    auto program = minic::parseAndCheck(sancheck::sanlabSource());
    auto impls = sancheck::defaultImplementations();
    sancheck::SanCheckOracle oracle(*program, impls);

    // The MSan print-blind-spot seed.
    const Bytes witness = {1, 0};
    const auto outcome = oracle.runInput(witness);
    ASSERT_FALSE(outcome.findings.empty());
    const SanFinding &finding = outcome.findings.front();
    ASSERT_EQ(finding.signature(),
              "san:clang-O1+msan:uninit-read:FN");

    const std::string out_dir = freshDir("bundles");
    sancheck::FindingReduceOptions options;
    options.candidateBudget = 1024;
    options.reportsDir = out_dir;
    const auto reports = sancheck::reduceFindings(
        *program, impls, {{witness, finding}}, options);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports.front().reproduced);
    EXPECT_LE(reports.front().program.size(),
              std::string(sancheck::sanlabSource()).size());

    // The bundle's report.md names the certified UB site and the
    // silent sanitizer — the acceptance-criteria shape.
    char hex[32];
    std::snprintf(hex, sizeof hex, "sig-%016llx",
                  static_cast<unsigned long long>(
                      finding.signatureHash()));
    const auto report_md = session::readTextFile(
        out_dir + "/" + hex + "/report.md");
    ASSERT_TRUE(report_md.has_value());
    EXPECT_NE(report_md->find("uninit-read"), std::string::npos);
    EXPECT_NE(report_md->find("clang-O1+msan"), std::string::npos);
    EXPECT_NE(report_md->find("FN"), std::string::npos);
    for (const char *leaf :
         {"program.mc", "input.bin", "witness.bin"}) {
        EXPECT_TRUE(std::filesystem::exists(
            out_dir + "/" + hex + "/" + leaf))
            << leaf;
    }
    std::filesystem::remove_all(out_dir);
}

// ---------------- campaign mode ----------------

session::SessionConfig
sancheckConfig(const std::string &dir, std::size_t shards,
               std::size_t jobs, std::uint64_t max_execs)
{
    session::SessionConfig config;
    config.dir = dir;
    config.shards = shards;
    config.jobs = jobs;
    config.fuzz.sancheckMode = true;
    config.fuzz.maxExecs = max_execs;
    return config;
}

std::set<std::string>
campaignSignatures(const fuzz::ShardedResult &result)
{
    std::set<std::string> signatures;
    for (const auto &diff : result.diffs)
        signatures.insert(diff.sanFinding.signature());
    return signatures;
}

TEST(SancheckCampaign, DiscoversSeededDefects)
{
    auto program = minic::parseAndCheck(sancheck::sanlabSource());
    session::SessionConfig config =
        sancheckConfig(/*dir=*/"", /*shards=*/2, /*jobs=*/2,
                       /*max_execs=*/3'000);
    session::CampaignSession session(*program,
                                     sancheck::sanlabSeeds(),
                                     config);
    const fuzz::ShardedResult &result = session.run();
    ASSERT_TRUE(session.completed());
    EXPECT_EQ(campaignSignatures(result), kSeededSignatures);
}

TEST(SancheckCampaign, JobsNeverChangeResults)
{
    auto program = minic::parseAndCheck(sancheck::sanlabSource());
    std::set<std::string> baseline;
    std::uint64_t baseline_execs = 0;
    for (const std::size_t jobs : {1u, 3u}) {
        session::SessionConfig config =
            sancheckConfig("", /*shards=*/2, jobs,
                           /*max_execs=*/2'000);
        session::CampaignSession session(
            *program, sancheck::sanlabSeeds(), config);
        const fuzz::ShardedResult &result = session.run();
        ASSERT_TRUE(session.completed());
        if (jobs == 1) {
            baseline = campaignSignatures(result);
            baseline_execs = result.total.execs;
            continue;
        }
        EXPECT_EQ(campaignSignatures(result), baseline);
        EXPECT_EQ(result.total.execs, baseline_execs);
    }
}

TEST(SancheckCampaign, HaltResumeBitIdentical)
{
    auto program = minic::parseAndCheck(sancheck::sanlabSource());
    const auto seeds = sancheck::sanlabSeeds();
    const std::string dir_full = freshDir("full");
    const std::string dir_cut = freshDir("cut");
    const std::size_t shards = 2;
    const std::uint64_t max_execs = 2'000;

    session::CampaignSession full(
        *program, seeds,
        sancheckConfig(dir_full, shards, /*jobs=*/2, max_execs));
    full.run();
    ASSERT_TRUE(full.completed());

    // Kill at the half-budget safe point, then resume with a
    // different thread count — results may not change.
    session::SessionConfig cut_config =
        sancheckConfig(dir_cut, shards, /*jobs=*/2, max_execs);
    cut_config.haltAfterExecs = max_execs / (2 * shards);
    {
        session::CampaignSession cut(*program, seeds, cut_config);
        cut.run();
        ASSERT_TRUE(cut.halted());
    }
    session::SessionConfig resume_config =
        sancheckConfig(dir_cut, shards, /*jobs=*/1, max_execs);
    resume_config.resume = true;
    session::CampaignSession resumed(*program, seeds,
                                     resume_config);
    resumed.run();
    ASSERT_TRUE(resumed.completed());
    EXPECT_EQ(resumed.restarts(), 1u);

    EXPECT_EQ(campaignSignatures(full.result()),
              campaignSignatures(resumed.result()));
    EXPECT_EQ(full.result().total.execs,
              resumed.result().total.execs);

    // Per-shard checkpoints and event journals (which carry the
    // san_finding events) are byte-identical to the uninterrupted
    // run's.
    for (std::size_t s = 0; s < shards; s++) {
        const std::string journal =
            "/shard-" + std::to_string(s) + ".journal";
        EXPECT_EQ(session::readLastRecord(dir_full + journal),
                  session::readLastRecord(dir_cut + journal))
            << journal;
        const std::string leaf =
            "/shard-" + std::to_string(s) + ".events.jsonl";
        const auto events_full =
            session::readTextFile(dir_full + leaf);
        const auto events_cut =
            session::readTextFile(dir_cut + leaf);
        ASSERT_TRUE(events_full && events_cut) << leaf;
        EXPECT_EQ(*events_full, *events_cut) << leaf;
        EXPECT_NE(events_full->find("\"kind\":\"san_finding\""),
                  std::string::npos)
            << leaf;
    }

    // The MANIFEST records the mode, so the monitor and a resuming
    // process can tell a sancheck session from a diff session.
    const auto manifest =
        session::readTextFile(dir_cut + "/MANIFEST");
    ASSERT_TRUE(manifest.has_value());
    EXPECT_NE(manifest->find("mode : sancheck"),
              std::string::npos);

    std::filesystem::remove_all(dir_full);
    std::filesystem::remove_all(dir_cut);
}

} // namespace
