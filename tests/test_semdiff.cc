/**
 * @file
 * Tests for the semantic-dedup layer (src/semdiff) and its wiring
 * into the reduction pipeline's merged bundles.
 *
 * The canonicalizer's contract is checked two ways: structurally
 * (alpha-variants, commutative operand order, dead code, and
 * function order all canonicalize to one text, while literal operand
 * order — which the seeded miscompiles pattern-match — is preserved)
 * and behaviorally (a randomized sweep asserts idempotence and that
 * canonicalization never changes what the DiffEngine observes). The
 * slicer tests pin the bugRemPow2 story: the first divergent
 * instruction is named when both sides share the bytecode pipeline,
 * and the slice degrades gracefully against the reference
 * interpreter.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "compdiff/localize.hh"
#include "minic/parser.hh"
#include "reduce/pipeline.hh"
#include "reduce/report.hh"
#include "semdiff/canon.hh"
#include "semdiff/slice.hh"
#include "support/hash.hh"
#include "support/rng.hh"
#include "support/strings.hh"

namespace
{

using namespace compdiff;
using support::format;
using support::Rng;

/**
 * Random *well-defined* MiniC programs shaped to exercise every
 * canonicalizer pass: globals and a helper function (renaming and
 * call-graph ordering), an occasionally-unreachable decoy function
 * (pruning), guarded integer arithmetic (operand sorting), and runs
 * of plain assignments (statement sorting). cur_line/time_stamp/
 * bad_rand stay out: they would make behavior layout- or
 * environment-sensitive.
 */
class CanonProgramGenerator
{
  public:
    explicit CanonProgramGenerator(std::uint64_t seed) : rng_(seed)
    {}

    std::string
    generate()
    {
        vars_ = 0;
        std::string src;
        const int globals = static_cast<int>(rng_.range(1, 3));
        // Global initializers must be plain literals in MiniC, and a
        // leading minus would parse as a unary expression.
        for (int g = 0; g < globals; g++)
            src += format("int glob%d = %ld;\n", g,
                          rng_.range(0, 20));
        globals_ = globals;

        src += "int helper(int p0, int p1) {\n";
        src += format("return ((p0 + p1) & 255) + glob0;\n");
        src += "}\n";
        if (rng_.chance(1, 2)) {
            src += "int decoy_unused(int q) {\n";
            src += "return q + 41;\n";
            src += "}\n";
        }

        std::string body;
        const int decls = static_cast<int>(rng_.range(2, 5));
        for (int i = 0; i < decls; i++)
            body += declare();
        const int stmts = static_cast<int>(rng_.range(3, 9));
        for (int i = 0; i < stmts; i++)
            body += statement();
        body += format("%s = helper(%s, %s);\n", var().c_str(),
                       var().c_str(), var().c_str());
        if (rng_.chance(1, 3)) {
            // An unreachable tail for the dead-code pass to strip.
            body += format("if (0 == 1) { return 9; %s = 1; }\n",
                           var().c_str());
        }
        for (int i = 0; i < vars_; i++)
            body += format("print_int(v%d); newline();\n", i);
        return src + "int main() {\n" + body + "return 0;\n}\n";
    }

  private:
    std::string
    declare()
    {
        const int id = vars_++;
        return format("int v%d = %ld;\n", id, rng_.range(-50, 50));
    }

    std::string
    var()
    {
        return format("v%d",
                      static_cast<int>(rng_.range(0, vars_ - 1)));
    }

    std::string
    expr(int depth = 0)
    {
        if (depth > 2 || rng_.chance(1, 3)) {
            if (rng_.chance(1, 4))
                return format("glob%d",
                              static_cast<int>(
                                  rng_.range(0, globals_ - 1)));
            return rng_.chance(1, 2)
                       ? var()
                       : format("%ld", rng_.range(-30, 30));
        }
        const std::string a = expr(depth + 1);
        const std::string b = expr(depth + 1);
        switch (rng_.below(6)) {
          case 0:
            return "(" + a + " + " + b + ")";
          case 1:
            return "(" + a + " - " + b + ")";
          case 2:
            return "((" + a + " % 100) * (" + b + " % 100))";
          case 3:
            return "(" + b + " == 0 ? 0 : " + a + " / " + b + ")";
          case 4:
            return "(" + a + " ^ " + b + ")";
          default:
            return "((" + a + ") & 255)";
        }
    }

    std::string
    statement()
    {
        switch (rng_.below(3)) {
          case 0: {
            // A run of plain assignments for the statement sorter.
            std::string run;
            const int len = static_cast<int>(rng_.range(2, 4));
            for (int i = 0; i < len; i++)
                run += format("v%d = %ld;\n",
                              static_cast<int>(
                                  rng_.range(0, vars_ - 1)),
                              rng_.range(-9, 9));
            return run;
          }
          case 1:
            return "if (" + expr() + " > " + expr() + ") { " +
                   var() + " = " + expr() + "; } else { " + var() +
                   " = " + expr() + "; }\n";
          default:
            return var() + " = " + expr() + ";\n";
        }
    }

    Rng rng_;
    int vars_ = 0;
    int globals_ = 1;
};

/**
 * canon(canon(p)) == canon(p), and the canonical program produces
 * bit-identical DiffEngine observations — same exit classes, same
 * output hashes — for every implementation in `impls`.
 */
void
expectIdempotentAndSound(const std::string &source,
                         const core::ImplementationSet &impls)
{
    std::unique_ptr<minic::Program> program;
    ASSERT_NO_THROW(program = minic::parseAndCheck(source))
        << source;

    const semdiff::CanonicalForm canon =
        semdiff::canonicalizeSource(source);
    ASSERT_FALSE(canon.source.empty());

    const semdiff::CanonicalForm again =
        semdiff::canonicalizeSource(canon.source);
    EXPECT_EQ(again.source, canon.source) << source;
    EXPECT_EQ(again.fingerprint, canon.fingerprint);

    std::unique_ptr<minic::Program> canonical;
    ASSERT_NO_THROW(canonical = minic::parseAndCheck(canon.source))
        << canon.source;
    core::DiffEngine original_engine(*program, impls);
    core::DiffEngine canonical_engine(*canonical, impls);
    for (const support::Bytes &input :
         {support::Bytes{}, support::Bytes{7, 200, 3}}) {
        const auto a = original_engine.runInput(input);
        const auto b = canonical_engine.runInput(input);
        EXPECT_EQ(a.divergent, b.divergent) << source;
        ASSERT_EQ(a.observations.size(), b.observations.size());
        for (std::size_t i = 0; i < a.observations.size(); i++) {
            EXPECT_EQ(a.observations[i].impl,
                      b.observations[i].impl);
            EXPECT_EQ(a.observations[i].exitClass,
                      b.observations[i].exitClass)
                << a.observations[i].impl << "\n"
                << source << "\n---\n"
                << canon.source;
            EXPECT_EQ(a.observations[i].hash,
                      b.observations[i].hash)
                << a.observations[i].impl << "\n"
                << source << "\n---\n"
                << canon.source;
        }
    }
}

class CanonicalizerProperties : public testing::TestWithParam<int>
{};

TEST_P(CanonicalizerProperties, IdempotentAndObservationSound)
{
    CanonProgramGenerator generator(
        0x5EED0000ull + static_cast<std::uint64_t>(GetParam()));
    expectIdempotentAndSound(generator.generate(),
                             core::paper10Implementations());
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, CanonicalizerProperties,
                         testing::Range(0, 45));

TEST(Canonicalizer, AlphaVariantsShareOneForm)
{
    // Same program, different identifier spellings, different
    // function order, an extra unreachable function, and swapped
    // commutative (non-literal) operands.
    const std::string a = R"(
        int total = 0;
        int accumulate(int left, int right) {
            return left + right;
        }
        int main() {
            int first = input_byte(0);
            int second = input_byte(1);
            total = accumulate(first, second);
            print_int(total);
            return 0;
        }
    )";
    const std::string b = R"(
        int sum_box = 0;
        int main() {
            int x = input_byte(0);
            int y = input_byte(1);
            sum_box = combine(x, y);
            print_int(sum_box);
            return 0;
        }
        int dead_helper(int z) { return z * 2; }
        int combine(int p, int q) {
            return q + p;
        }
    )";
    const auto ca = semdiff::canonicalizeSource(a);
    const auto cb = semdiff::canonicalizeSource(b);
    EXPECT_EQ(ca.source, cb.source);
    EXPECT_EQ(ca.fingerprint, cb.fingerprint);
}

TEST(Canonicalizer, LiteralOperandsNeverMove)
{
    // The seeded miscompiles pattern-match literals on specific
    // sides (`x % 8`, `x & 7`): canonicalization must not rewrite a
    // program into or out of the bug-triggering shape.
    const std::string lhs_literal = R"(
        int main() { print_int(7 & input_byte(0)); return 0; }
    )";
    const std::string rhs_literal = R"(
        int main() { print_int(input_byte(0) & 7); return 0; }
    )";
    const auto cl = semdiff::canonicalizeSource(lhs_literal);
    const auto cr = semdiff::canonicalizeSource(rhs_literal);
    EXPECT_NE(cl.fingerprint, cr.fingerprint);
    EXPECT_NE(cl.source.find("7 &"), std::string::npos);
    EXPECT_NE(cr.source.find("& 7"), std::string::npos);
}

TEST(Canonicalizer, DeadTailStrippedButDeclarationsKept)
{
    const std::string with_tail = R"(
        int main() {
            print_int(input_byte(0));
            return 0;
            print_int(99);
        }
    )";
    const std::string without_tail = R"(
        int main() {
            print_int(input_byte(0));
            return 0;
        }
    )";
    EXPECT_EQ(semdiff::canonicalizeSource(with_tail).fingerprint,
              semdiff::canonicalizeSource(without_tail).fingerprint);

    // A declaration after the terminator stays: under the layout
    // traits, removing it would shift frame slots and could change
    // what an out-of-bounds access observes.
    const std::string with_dead_decl = R"(
        int main() {
            print_int(input_byte(0));
            return 0;
            int shadow_slot = 3;
        }
    )";
    EXPECT_NE(
        semdiff::canonicalizeSource(with_dead_decl).fingerprint,
        semdiff::canonicalizeSource(without_tail).fingerprint);

    // A dead block keeps its own declaration and nothing else: the
    // assignment, the return and the print inside it go.
    const std::string dead_block = R"(
        int main() {
            print_int(1);
            return 0;
            { int x; x = 1; return x; print_int(2); }
        }
    )";
    const std::string declaration_only = R"(
        int main() {
            print_int(1);
            return 0;
            { int x; }
        }
    )";
    const auto full = semdiff::canonicalizeSource(dead_block);
    const auto bare = semdiff::canonicalizeSource(declaration_only);
    EXPECT_EQ(full.source, bare.source);
    EXPECT_EQ(full.fingerprint, bare.fingerprint);
}

/** Dead `if`/`while`/`for` statements that declare locals keep those
 *  declarations, in their scopes, and nothing else: observations
 *  over paper10 and the reference interpreter must not move. */
TEST(Canonicalizer, DeadDeclarationBearingStatementsAreSound)
{
    const struct
    {
        const char *dead;
        const char *declarations;
    } cases[] = {
        {"if (v0 > 2) { int a = v0 + 1; print_int(a); } "
         "else { long b; b = 4; print_long(b); }",
         "{ int a = v0 + 1; } { long b; }"},
        {"if (v0) int c = 7;", "int c = 7;"},
        {"while (v0 < 9) { char d[12]; d[0] = 1; v0 += 1; }",
         "{ char d[12]; }"},
        {"for (int i = 0; i < 3; i += 1) { int e[4]; e[i] = i; "
         "print_int(e[i]); }",
         "{ int i = 0; { int e[4]; } }"},
        {"{ int f; f = v0; if (f) { return f; } for (;;) { long g; "
         "break; } }",
         "{ int f; { { long g; } } }"},
    };
    // An out-of-bounds read after a live local makes the frame
    // layout observable, so a lost declaration would show.
    const auto program = [](const std::string &tail) {
        return "int main() {\n"
               "int v0 = input_byte(0);\n"
               "int live[2];\n"
               "live[0] = v0;\n"
               "print_int(live[0] + live[3]);\n"
               "return 0;\n" +
               tail + "\n}\n";
    };
    const core::ImplementationSet impls =
        core::parseImplementations("all");
    for (const auto &c : cases) {
        SCOPED_TRACE(c.dead);
        expectIdempotentAndSound(program(c.dead), impls);
        EXPECT_EQ(
            semdiff::canonicalizeSource(program(c.dead)).fingerprint,
            semdiff::canonicalizeSource(program(c.declarations))
                .fingerprint);
    }
}

/** The printer's float spellings survive canonicalization: they
 *  reparse to the same values and print back the same way. */
TEST(Canonicalizer, FloatSpellingsAreIdempotentAndSound)
{
    const std::string source = R"(
        double scale = 1.0e+06;
        int main() {
            double x = (double)input_byte(0) / 7.0;
            double big = 1.0e999;
            double nan = (0.0 / 0.0);
            print_f(x * scale + (-2.5)); newline();
            print_f(big); newline();
            print_int(nan == nan); newline();
            print_int(x < big); newline();
            return 0;
        }
    )";
    const auto canon = semdiff::canonicalizeSource(source);
    for (const char *spelling :
         {"1.0e+06", "-2.5", "1.0e999", "(0.0 / 0.0)"}) {
        EXPECT_NE(canon.source.find(spelling), std::string::npos)
            << spelling << "\n"
            << canon.source;
    }
    expectIdempotentAndSound(source, core::parseImplementations("all"));
}

/** Lowering interns every string literal, dead ones included, into
 *  one rodata image in function and code order, and a live
 *  out-of-bounds read sees its bytes. A canonical form that drops or
 *  moves a literal would change what such a program prints, so it
 *  degrades to the exact text instead. */
TEST(Canonicalizer, StringLiteralsThatMoveKeepTheExactText)
{
    const char *cases[] = {
        // A dead literal: the read past "ab" finds "xyz".
        "int main() {\n"
        "    char *s = \"ab\";\n"
        "    print_int(s[4]);\n"
        "    newline();\n"
        "    return 0;\n"
        "    print_str(\"xyz\");\n"
        "}\n",
        // Callees go first in canonical order, and their literals with
        // them.
        "int main() {\n"
        "    char *s = \"ab\";\n"
        "    print_int(s[4]);\n"
        "    return helper();\n"
        "}\n"
        "int helper() {\n"
        "    print_str(\"cd\");\n"
        "    return 0;\n"
        "}\n",
    };
    for (const char *source : cases) {
        SCOPED_TRACE(source);
        expectIdempotentAndSound(source, core::parseImplementations("all"));
        EXPECT_EQ(semdiff::canonicalizeSource(source).source, source);
    }
}

TEST(Canonicalizer, FallsBackToExactTextOnUnparsableSource)
{
    // Syntax errors, sema errors and an empty buffer all degrade to
    // exact-text identity, from both entry points' shared path.
    for (const std::string bad :
         {"int main( { this is not MiniC", "", "int main() { return x; }",
          "int main() { int a; a = \"str\" * 2; return a; }",
          "int f() { return 0; } int f() { return 1; }"}) {
        SCOPED_TRACE(bad);
        semdiff::CanonicalForm form;
        EXPECT_NO_THROW(form = semdiff::canonicalizeSource(bad));
        EXPECT_EQ(form.source, bad);
        EXPECT_EQ(form.fingerprint, support::murmurHash64(bad));
    }
}

TEST(SemanticKey, StableAndOrderSensitive)
{
    const std::uint64_t key =
        semdiff::semanticKeyOf(0x1111, 0x2222);
    EXPECT_EQ(key, semdiff::semanticKeyOf(0x1111, 0x2222));
    EXPECT_NE(key, semdiff::semanticKeyOf(0x2222, 0x1111));
    EXPECT_NE(key, semdiff::semanticKeyOf(0x1111, 0x2223));

    semdiff::SemanticKey structured{0x1111, 0x2222};
    EXPECT_EQ(structured.combined(), key);
}

/** The minimal rem-power-of-2 miscompile witness. */
const char *kRemPow2Slice = R"(
    int main() {
        int x = 0 - input_byte(0);
        print_int(x % 8);
        newline();
        return 0;
    }
)";

TEST(Slicer, NamesFirstDivergentInstruction)
{
    // clang:-O2 carries the seeded bugRemPow2 trait, clang:-O0 does
    // not; both share the bytecode pipeline, so the slicer must name
    // the instruction where the strength-reduced remainder departs.
    auto program = minic::parseAndCheck(kRemPow2Slice);
    const auto impls =
        core::parseImplementations("clang:-O2,clang:-O0");
    core::DiffOptions options;
    core::DiffEngine engine(*program, impls, options);
    const auto diff = engine.runInput({9}, 0);
    ASSERT_TRUE(diff.divergent) << diff.summary();

    const auto pair = core::localizeAcross(*program, impls, diff,
                                           {9}, options.limits);
    const auto slice =
        semdiff::sliceDivergence(*program, impls, pair, options);
    ASSERT_TRUE(slice.attempted) << slice.note;
    ASSERT_TRUE(slice.found) << slice.str();
    EXPECT_EQ(slice.function, "main");
    EXPECT_NE(slice.insnA, slice.insnB);
    bool names_bug_trait = false;
    for (const auto &entry : slice.traitsDelta)
        names_bug_trait =
            names_bug_trait ||
            entry.find("bugRemPow2") != std::string::npos;
    EXPECT_TRUE(names_bug_trait) << slice.str();
    EXPECT_NE(slice.str().find("first divergent instruction"),
              std::string::npos);
}

TEST(Slicer, DegradesGracefullyAcrossBackends)
{
    // Against the reference interpreter there is no second bytecode
    // stream to align: the slice reports why instead of guessing.
    auto program = minic::parseAndCheck(kRemPow2Slice);
    const auto impls = core::parseImplementations("clang:-O2,ref");
    core::DiffOptions options;
    core::DiffEngine engine(*program, impls, options);
    const auto diff = engine.runInput({9}, 0);
    ASSERT_TRUE(diff.divergent) << diff.summary();

    const auto pair = core::localizeAcross(*program, impls, diff,
                                           {9}, options.limits);
    const auto slice =
        semdiff::sliceDivergence(*program, impls, pair, options);
    EXPECT_FALSE(slice.attempted);
    EXPECT_FALSE(slice.found);
    EXPECT_NE(slice.str().find("not attempted"), std::string::npos);
}

TEST(SemDedup, WriteMergedReportLaysOutVariants)
{
    reduce::DivergenceReport a;
    a.semanticKey = 0xfeedbeef;
    a.signature = 0x1;
    a.program = "int main() { return 0; }\n";
    a.input = {1};
    a.witnessInput = {1, 2};
    reduce::DivergenceReport b = a;
    b.signature = 0x2;
    b.input = {3};
    b.witnessInput = {3, 4};

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "compdiff_semdiff_merge_test")
            .string();
    std::filesystem::remove_all(dir);

    const std::string bundle =
        reduce::writeMergedReport(dir, {&a, &b});
    EXPECT_EQ(bundle,
              dir + "/" + reduce::signatureDirName(a.semanticKey));
    EXPECT_TRUE(std::filesystem::exists(bundle + "/program.mc"));
    EXPECT_TRUE(std::filesystem::exists(bundle +
                                        "/variants/v0/program.mc"));
    EXPECT_TRUE(std::filesystem::exists(bundle +
                                        "/variants/v1/input.bin"));
    std::ifstream in(bundle + "/report.md");
    std::string markdown((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(markdown.find("## Merged variants"),
              std::string::npos);
    EXPECT_NE(markdown.find("| v1 |"), std::string::npos);

    // Re-filing the bundle with a single variant (e.g. a resumed
    // campaign whose merge decision shrank) clears stale variants/.
    reduce::writeMergedReport(dir, {&a});
    EXPECT_FALSE(std::filesystem::exists(bundle + "/variants"));
    std::filesystem::remove_all(dir);
}

TEST(SemDedup, PipelineMergesEqualWitnessesIntoOneBundle)
{
    // Two campaign witnesses of the same divergence (same input —
    // the degenerate case of semantic equality) must file as ONE
    // bundle carrying both variants.
    auto program = minic::parseAndCheck(kRemPow2Slice);
    const auto impls =
        core::parseImplementations("clang:-O2,clang:-O0");
    core::DiffOptions diff_options;
    core::DiffEngine engine(*program, impls, diff_options);
    const auto diff = engine.runInput({9}, 0);
    ASSERT_TRUE(diff.divergent);

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "compdiff_semdiff_pipeline_test")
            .string();
    std::filesystem::remove_all(dir);

    reduce::ReduceOptions options;
    options.diffOptions = diff_options;
    options.candidateBudget = 512;
    options.reportsDir = dir;
    const auto reports = reduce::reduceAndReport(
        *program, impls, {{{9}, diff}, {{9}, diff}}, options);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].semanticKey, reports[1].semanticKey);
    EXPECT_NE(reports[0].semanticKey, 0u);

    std::size_t bundles = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.is_directory())
            bundles++;
    }
    EXPECT_EQ(bundles, 1u);
    const std::string bundle =
        dir + "/" +
        reduce::signatureDirName(reports[0].semanticKey);
    EXPECT_TRUE(std::filesystem::exists(bundle +
                                        "/variants/v1/program.mc"));
    std::filesystem::remove_all(dir);
}

} // namespace
