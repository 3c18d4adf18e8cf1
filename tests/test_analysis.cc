/**
 * @file
 * Tests for the three static analyzers: per-tool strengths, shared
 * blind spots, and the imprecision that produces false positives.
 */

#include <gtest/gtest.h>

#include "analysis/static_analyzer.hh"
#include "minic/parser.hh"

namespace
{

using namespace compdiff;
using analysis::Finding;
using analysis::FindingKind;
using analysis::StaticAnalyzer;

bool
reports(const StaticAnalyzer &tool, std::string_view source,
        FindingKind kind)
{
    auto program = minic::parseAndCheck(source);
    for (const auto &finding : tool.analyze(*program))
        if (finding.kind == kind)
            return true;
    return false;
}

std::size_t
countFindings(const StaticAnalyzer &tool, std::string_view source)
{
    auto program = minic::parseAndCheck(source);
    return tool.analyze(*program).size();
}

TEST(LintCheck, ConstantOutOfBounds)
{
    auto tool = analysis::makeLintCheck();
    EXPECT_TRUE(reports(*tool, R"(
        int main() {
            char buf[8];
            buf[9] = 1;
            return 0;
        }
    )",
                        FindingKind::BufferOverflow));
}

TEST(LintCheck, ConstantDivZeroAndShift)
{
    auto tool = analysis::makeLintCheck();
    EXPECT_TRUE(reports(*tool, R"(
        int main() { int z = 0; return 7 / z; }
    )",
                        FindingKind::DivByZero));
    EXPECT_TRUE(reports(*tool, R"(
        int main() { int s = 40; int x = 1; return x << s; }
    )",
                        FindingKind::BadShift));
}

TEST(LintCheck, StraightLineUninit)
{
    auto tool = analysis::makeLintCheck();
    EXPECT_TRUE(reports(*tool, R"(
        int main() { int l; return l + 1; }
    )",
                        FindingKind::UninitRead));
    // Initialized through a helper call: must NOT be flagged.
    EXPECT_FALSE(reports(*tool, R"(
        void init(int *p) { *p = 3; }
        int main() { int l; init(&l); return l; }
    )",
                         FindingKind::UninitRead));
}

TEST(LintCheck, FreePairing)
{
    auto tool = analysis::makeLintCheck();
    EXPECT_TRUE(reports(*tool, R"(
        int main() {
            char *p = malloc(8L);
            free(p); free(p);
            return 0;
        }
    )",
                        FindingKind::DoubleFree));
    EXPECT_TRUE(reports(*tool, R"(
        int main() { char buf[8]; free(buf); return 0; }
    )",
                        FindingKind::InvalidFree));
}

TEST(LintCheck, ArgumentMismatch)
{
    auto tool = analysis::makeLintCheck();
    EXPECT_TRUE(reports(*tool, R"(
        int two(int a, int b) { return a + b; }
        int main() { return two(1); }
    )",
                        FindingKind::ArgMismatch));
}

TEST(LintCheck, MissesInputDependentBug)
{
    auto tool = analysis::makeLintCheck();
    // Without taint tracking, input-driven OOB is invisible.
    EXPECT_FALSE(reports(*tool, R"(
        int main() {
            char buf[8];
            buf[input_byte(0)] = 1;
            return 0;
        }
    )",
                         FindingKind::BufferOverflow));
}

TEST(InferLite, LoopIntervalOverflow)
{
    auto tool = analysis::makeInferLite();
    EXPECT_TRUE(reports(*tool, R"(
        int main() {
            char buf[8];
            for (int i = 0; i < 12; i += 1) { buf[i] = 1; }
            return 0;
        }
    )",
                        FindingKind::BufferOverflow));
    // In-bounds loop: silent.
    EXPECT_FALSE(reports(*tool, R"(
        int main() {
            char buf[8];
            for (int i = 0; i < 8; i += 1) { buf[i] = 1; }
            return 0;
        }
    )",
                         FindingKind::BufferOverflow));
}

TEST(InferLite, TaintedIndexReported)
{
    auto tool = analysis::makeInferLite();
    EXPECT_TRUE(reports(*tool, R"(
        int main() {
            char buf[8];
            buf[input_byte(0)] = 1;
            return 0;
        }
    )",
                        FindingKind::BufferOverflow));
}

TEST(InferLite, FalsePositiveOnGuardedIndex)
{
    auto tool = analysis::makeInferLite();
    // The guard makes this safe, but without branch refinement the
    // tool still reports — the Infer-style imprecision of Table 3.
    EXPECT_TRUE(reports(*tool, R"(
        int main() {
            char buf[8];
            int i = input_byte(0);
            if (i >= 0 && i < 8) { buf[i] = 1; }
            return 0;
        }
    )",
                        FindingKind::BufferOverflow));
}

TEST(InferLite, PossibleOverflowOnTaintedArith)
{
    auto tool = analysis::makeInferLite();
    EXPECT_TRUE(reports(*tool, R"(
        int main() {
            int n = input_byte(0) * input_byte(1);
            int m = n * n;
            return m;
        }
    )",
                        FindingKind::IntOverflow));
}

TEST(DeepScan, GuardedIndexIsClean)
{
    auto tool = analysis::makeDeepScan();
    // Branch-guard refinement removes the inferlite false positive.
    EXPECT_FALSE(reports(*tool, R"(
        int main() {
            char buf[8];
            int i = input_byte(0);
            if (i >= 0 && i < 8) { buf[i] = 1; }
            return 0;
        }
    )",
                         FindingKind::BufferOverflow));
    // But an off-by-one guard is caught.
    EXPECT_TRUE(reports(*tool, R"(
        int main() {
            char buf[8];
            int i = input_byte(0);
            if (i >= 0 && i <= 8) { buf[i] = 1; }
            return 0;
        }
    )",
                        FindingKind::BufferOverflow));
}

TEST(DeepScan, InterproceduralConstants)
{
    auto tool = analysis::makeDeepScan();
    EXPECT_TRUE(reports(*tool, R"(
        void store(int idx) {
            char buf[8];
            buf[idx] = 1;
        }
        int main() { store(12); return 0; }
    )",
                        FindingKind::BufferOverflow));
    // lintcheck cannot follow the constant into the callee.
    auto lint = analysis::makeLintCheck();
    EXPECT_FALSE(reports(*lint, R"(
        void store(int idx) {
            char buf[8];
            buf[idx] = 1;
        }
        int main() { store(12); return 0; }
    )",
                         FindingKind::BufferOverflow));
}

TEST(DeepScan, NullDerefThroughGuard)
{
    auto tool = analysis::makeDeepScan();
    EXPECT_TRUE(reports(*tool, R"(
        int main() {
            char *p = malloc(8L);
            if (p == 0) { return *p; }
            return 0;
        }
    )",
                        FindingKind::NullDeref));
}

TEST(AllTools, BlindToPointerComparisonAndEvalOrder)
{
    // Like Coverity/Cppcheck/Infer in the paper (CWE-469 row: all
    // 0%), none of the tools model cross-object pointer relations or
    // evaluation-order conflicts.
    const char *ptr_sub = R"(
        char a[64];
        char b[16];
        int main() {
            long size = &b[0] - &a[0];
            print_long(size);
            return 0;
        }
    )";
    const char *eval_order = R"(
        char buffer[8];
        char *get(int v) { buffer[0] = (char)v; return buffer; }
        void show(char *x, char *y) { print_str(x); print_str(y); }
        int main() { show(get(1), get(2)); return 0; }
    )";
    for (const auto &tool : analysis::allStaticAnalyzers()) {
        EXPECT_EQ(countFindings(*tool, ptr_sub), 0u) << tool->name();
        EXPECT_EQ(countFindings(*tool, eval_order), 0u)
            << tool->name();
    }
}

TEST(AllTools, CleanProgramHasNoFindings)
{
    const char *clean = R"(
        int sum(int *arr, int n) {
            int total = 0;
            for (int i = 0; i < n; i += 1) { total += arr[i]; }
            return total;
        }
        int main() {
            int data[10];
            for (int i = 0; i < 10; i += 1) { data[i] = i; }
            print_int(sum(data, 10));
            return 0;
        }
    )";
    for (const auto &tool : analysis::allStaticAnalyzers())
        EXPECT_EQ(countFindings(*tool, clean), 0u) << tool->name();
}

TEST(AllTools, OverflowingBoundsHaveNoRange)
{
    // big + 1L overflows int64_t, so w and z have no range and no
    // tool may call 7L / z a division by constant zero. A bound
    // computed with wrapping arithmetic would make z the constant 0.
    const char *source = R"(
        int main() {
            long big = 9223372036854775807L;
            long w = big + 1L;
            long z = w - (-9223372036854775807L - 1L);
            return (int)(7L / z);
        }
    )";
    for (const auto &tool : analysis::allStaticAnalyzers()) {
        EXPECT_FALSE(reports(*tool, source, FindingKind::DivByZero))
            << tool->name();
    }
}

TEST(AllTools, FindingRendering)
{
    auto tool = analysis::makeLintCheck();
    auto program = minic::parseAndCheck(
        "int main() { int l; return l; }");
    auto findings = tool->analyze(*program);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].str().find("lintcheck"), std::string::npos);
    EXPECT_NE(findings[0].str().find("uninitialized-read"),
              std::string::npos);
}

} // namespace
