/**
 * @file
 * Tests for the CompDiff core: the differential engine, output
 * normalization, timeout handling, and subset analysis.
 */

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <regex>

#include "compdiff/engine.hh"
#include "compdiff/normalizer.hh"
#include "compdiff/subset.hh"
#include "minic/parser.hh"

namespace
{

using namespace compdiff;
using core::DiffEngine;
using core::DiffOptions;
using core::OutputNormalizer;
using core::SubsetAnalysis;

TEST(Normalizer, StripsTimestamps)
{
    auto normalizer = OutputNormalizer::withDefaultFilters();
    EXPECT_EQ(normalizer.normalize("a [ts:12345] b [ts:6] c"),
              "a  b  c");
    EXPECT_EQ(normalizer.normalize("no stamps"), "no stamps");
}

TEST(Normalizer, CustomPatterns)
{
    OutputNormalizer normalizer;
    normalizer.addPattern("[0-9]{2}:[0-9]{2}:[0-9]{2}\\.[0-9]+",
                          "<time>");
    EXPECT_EQ(normalizer.normalize("10:44:23.405830 [Epan WARNING]"),
              "<time> [Epan WARNING]");
}

TEST(Normalizer, EmptyOutput)
{
    auto normalizer = OutputNormalizer::withDefaultFilters();
    EXPECT_EQ(normalizer.normalize(""), "");
    // No filters at all must also be the identity on empty input.
    EXPECT_EQ(OutputNormalizer().normalize(""), "");
}

TEST(Normalizer, TrailingNulBytesSurvive)
{
    auto normalizer = OutputNormalizer::withDefaultFilters();
    // Program output is binary-safe: embedded and trailing NULs are
    // compared bytes, not C-string terminators.
    const std::string with_nuls("ab\0[ts:1]\0\0", 11);
    const std::string expect("ab\0\0\0", 5);
    EXPECT_EQ(normalizer.normalize(with_nuls), expect);
    EXPECT_EQ(normalizer.normalize(std::string("\0", 1)),
              std::string("\0", 1));
}

TEST(Normalizer, MixedCrLfLineEndings)
{
    auto normalizer = OutputNormalizer::withDefaultFilters();
    // Filters strip the stamp on every line but never touch the
    // line-ending bytes themselves — a CR/LF mix stays a CR/LF mix.
    EXPECT_EQ(
        normalizer.normalize("a [ts:1]\r\nb [ts:22]\nc [ts:3]\r"),
        "a \r\nb \nc \r");
    // A digit run must not match across a CRLF boundary.
    EXPECT_EQ(normalizer.normalize("[ts:12\r\n34]"), "[ts:12\r\n34]");
}

TEST(Normalizer, PointerTokensAtLineBoundaries)
{
    OutputNormalizer normalizer;
    normalizer.addPattern("0x[0-9a-f]+", "<ptr>");
    // Token at line start, line end, and as the entire line.
    EXPECT_EQ(normalizer.normalize("0xdeadbeef leaked\n"),
              "<ptr> leaked\n");
    EXPECT_EQ(normalizer.normalize("at 0x7ffe01\nnext"),
              "at <ptr>\nnext");
    EXPECT_EQ(normalizer.normalize("0xabc"), "<ptr>");
    EXPECT_EQ(normalizer.normalize("0x1 0x2\n0x3"),
              "<ptr> <ptr>\n<ptr>");
    // Not a pointer: no hex digits after the prefix.
    EXPECT_EQ(normalizer.normalize("0x"), "0x");
}

/** The built-in timestamp filter leaves exactly the text that
 *  std::regex_replace with its pattern leaves, on strings dense in
 *  near-miss stamps. */
TEST(Normalizer, DefaultFilterMatchesRegex)
{
    const std::regex stamp(R"(\[ts:[0-9]+\])");
    const auto normalizer = OutputNormalizer::withDefaultFilters();
    const std::string alphabet("[ts:]0123456789\0\r\nx", 19);
    const char *const chunks[] = {"[ts:", "[ts", "]", "[", "12", "7"};
    std::mt19937_64 rng(11);
    for (int i = 0; i < 20000; i++) {
        std::string text;
        const std::size_t pieces = rng() % 24;
        for (std::size_t p = 0; p < pieces; p++) {
            if (rng() % 2)
                text += alphabet[rng() % alphabet.size()];
            else
                text += chunks[rng() % std::size(chunks)];
        }
        ASSERT_EQ(normalizer.normalize(text),
                  std::regex_replace(text, stamp, ""))
            << "input #" << i;
    }
}

/** Timestamps are stripped before any added pattern runs. */
TEST(Normalizer, TimestampFilterRunsBeforeAddedPatterns)
{
    auto normalizer = OutputNormalizer::withDefaultFilters();
    // Run after the strip, this pattern finds no stamp left to cut.
    normalizer.addPattern(R"(\[ts:[0-9]+)", "<partial>");
    EXPECT_EQ(normalizer.normalize("a [ts:12] b"), "a  b");
    // A stamp that an added pattern completes is not stripped.
    auto completing = OutputNormalizer::withDefaultFilters();
    completing.addPattern("x");
    EXPECT_EQ(completing.normalize("[ts:1x2]"), "[ts:12]");
}

TEST(DiffEngine, DetectsListing1)
{
    auto program = minic::parseAndCheck(R"(
        int dump_data(int offset, int len) {
            if (offset < 0 || len < 0) { return -1; }
            if (offset + len < offset) { return -1; }
            print_str("dump"); newline();
            return 0;
        }
        int main() {
            print_int(dump_data(2147483547, 101));
            return 0;
        }
    )");
    DiffEngine engine(*program);
    EXPECT_EQ(engine.size(), 10u);
    auto result = engine.runInput({});
    EXPECT_TRUE(result.divergent);
    EXPECT_GE(result.classCount, 2u);
    EXPECT_FALSE(result.summary().empty());
}

TEST(DiffEngine, StableProgramIsConsistent)
{
    auto program = minic::parseAndCheck(R"(
        int main() {
            print_str("deterministic");
            print_int(input_size());
            return 0;
        }
    )");
    DiffEngine engine(*program);
    auto result = engine.runInput({1, 2, 3});
    EXPECT_FALSE(result.divergent);
    EXPECT_EQ(result.classCount, 1u);
}

TEST(DiffEngine, TimestampNormalizationPreventsFalsePositive)
{
    const char *source = R"(
        int main() {
            print_str("[ts:"); print_long(time_stamp());
            print_str("] payload");
            return 0;
        }
    )";
    auto program = minic::parseAndCheck(source);

    // With the default filters: stable.
    DiffEngine engine(*program);
    EXPECT_FALSE(engine.runInput({}).divergent);

    // Without filters: every binary saw a different timestamp.
    DiffOptions raw;
    raw.normalizer = OutputNormalizer();
    DiffEngine raw_engine(*program,
                          compiler::standardImplementations(), raw);
    EXPECT_TRUE(raw_engine.runInput({}).divergent);
}

TEST(DiffEngine, PartialTimeoutIsNotDivergence)
{
    // gcc-O0 keeps a dead infinite-ish loop that O2 removes... build
    // instead a program whose runtime exceeds the budget only for
    // unoptimized configurations via a dead expensive loop.
    auto program = minic::parseAndCheck(R"(
        int main() {
            int acc = 0;
            for (int i = 0; i < 100000000; i += 1) { acc = acc + 1; }
            int unused = acc;
            print_str("done");
            return 0;
        }
    )");
    DiffOptions options;
    options.limits.maxInstructions = 10'000; // everything times out
    options.retryTimeouts = false;
    DiffEngine engine(*program,
                      compiler::standardImplementations(), options);
    auto result = engine.runInput({});
    // All time out -> identical "timeout" class, not divergent.
    EXPECT_FALSE(result.divergent);
}

TEST(DiffEngine, TimeoutRetryResolvesPartialTimeout)
{
    // The loop bound comes from an uninitialized local: 0 under the
    // O0 fill pattern (fast) and 0xBE-derived under optimized fills
    // (slow). With a small budget the first attempt partially times
    // out; the RQ6 retry raises the budget until all runs finish,
    // and only then is the (real) divergence reported.
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
    DiffOptions options;
    options.limits.maxInstructions = 20'000;
    DiffEngine engine(*program,
                      compiler::standardImplementations(), options);
    auto result = engine.runInput({});
    EXPECT_TRUE(result.divergent);
    EXPECT_FALSE(result.unresolvedTimeout);
    for (const auto &obs : result.observations)
        EXPECT_EQ(obs.exitClass, "exit:0") << obs.impl;

    // Without the retry discipline, the same input would surface as
    // a (spurious, truncated-output) partial timeout.
    DiffOptions no_retry = options;
    no_retry.retryTimeouts = false;
    DiffEngine strict(*program, compiler::standardImplementations(),
                      no_retry);
    auto raw = strict.runInput({});
    EXPECT_TRUE(raw.unresolvedTimeout);
    EXPECT_FALSE(raw.divergent);
}

TEST(DiffEngine, FindDivergenceScansInputs)
{
    auto program = minic::parseAndCheck(R"(
        int main() {
            if (input_byte(0) == 7) {
                int l;
                print_int(l);  // uninitialized only on this path
            } else {
                print_str("clean");
            }
            return 0;
        }
    )");
    DiffEngine engine(*program);
    std::vector<support::Bytes> inputs = {{1}, {2}, {7}, {9}};
    std::optional<core::DiffResult> hit;
    std::uint64_t nonce = 0;
    for (const auto &input : inputs) {
        auto result = engine.runInput(input, nonce++);
        if (result.divergent) {
            hit = std::move(result);
            break;
        }
    }
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->divergent);
}

TEST(DiffEngine, SubsetQueries)
{
    auto program = minic::parseAndCheck(R"(
        int main() {
            int l;
            print_int(l);
            return 0;
        }
    )");
    DiffEngine engine(*program);
    auto result = engine.runInput({});
    ASSERT_TRUE(result.divergent);
    ASSERT_GE(result.observations.size(), 4u);
    const auto hash = [&](std::size_t i) {
        return result.observations[i].hash;
    };
    // gcc-O0 (index 0) vs gcc-O2 (index 2) differ in stack fill.
    EXPECT_NE(hash(0), hash(2));
    // gcc-O2 vs gcc-O3 (indices 2, 3) share the fill pattern.
    EXPECT_EQ(hash(2), hash(3));
}

TEST(SubsetAnalysis, CountsDetections)
{
    SubsetAnalysis analysis(4);
    // Case A: impls {0,1} see X, {2,3} see Y.
    analysis.addCase({10, 10, 20, 20});
    // Case B: only impl 3 differs.
    analysis.addCase({5, 5, 5, 6});
    // Case C: stable (never detected).
    analysis.addCase({9, 9, 9, 9});

    auto pairs = analysis.enumerateSize(2);
    ASSERT_EQ(pairs.size(), 6u);
    std::size_t best = 0;
    for (const auto &r : pairs)
        best = std::max(best, r.detected);
    EXPECT_EQ(best, 2u); // e.g. {0,3} catches A and B

    // {0,1} catches nothing; {2,3} catches only B.
    for (const auto &r : pairs) {
        if (r.members == std::vector<std::size_t>{0, 1}) {
            EXPECT_EQ(r.detected, 0u);
        }
        if (r.members == std::vector<std::size_t>{2, 3}) {
            EXPECT_EQ(r.detected, 1u);
        }
    }

    auto full = analysis.enumerateSize(4);
    ASSERT_EQ(full.size(), 1u);
    EXPECT_EQ(full[0].detected, 2u);

    auto all = analysis.enumerateAll();
    EXPECT_EQ(all.size(), 3u); // sizes 2, 3, 4
    const auto stats = SubsetAnalysis::stats(pairs);
    EXPECT_LE(stats.min, stats.max);
}

TEST(SubsetAnalysis, MonotoneInSubsetSize)
{
    // Detection counts of the best subset can only grow with size.
    SubsetAnalysis analysis(5);
    analysis.addCase({1, 1, 2, 2, 3});
    analysis.addCase({7, 8, 7, 7, 7});
    analysis.addCase({4, 4, 4, 4, 4});
    std::size_t prev_best = 0;
    for (std::size_t size = 2; size <= 5; size++) {
        const auto results = analysis.enumerateSize(size);
        const auto &best = SubsetAnalysis::best(results);
        EXPECT_GE(best.detected, prev_best);
        prev_best = best.detected;
    }
    EXPECT_EQ(prev_best, 2u);
}

TEST(SubsetAnalysis, NamesSubsets)
{
    SubsetAnalysis analysis(3);
    analysis.addCase({1, 2, 3});
    auto results = analysis.enumerateSize(2);
    const auto impls = core::paper10Implementations();
    EXPECT_EQ(results[0].name(impls), "{gcc-O0, gcc-O1}");
}

} // namespace
