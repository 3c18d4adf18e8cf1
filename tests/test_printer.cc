/**
 * @file
 * Tests for the AST pretty-printer, including the reparse property:
 * printing an analyzed program and parsing the result again must
 * produce a program with identical observable behavior.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>

#include "compdiff/engine.hh"
#include "compiler/cache.hh"
#include "compiler/compiler.hh"
#include "compiler/passes.hh"
#include "minic/parser.hh"
#include "minic/printer.hh"
#include "reduce/oracle.hh"
#include "targets/targets.hh"
#include "vm/vm.hh"

namespace
{

using namespace compdiff;
using minic::parseAndCheck;
using minic::printProgram;

TEST(Printer, RendersConstructs)
{
    auto program = parseAndCheck(R"(
        struct pair { int a; int b; };
        int g = 3;
        int sum(int *arr, int n) {
            int total = 0;
            for (int i = 0; i < n; i += 1) {
                total += arr[i];
            }
            return total;
        }
        int main() {
            struct pair p;
            p.a = 1;
            p.b = g > 2 ? 10 : 20;
            int data[4];
            while (p.a < 4) { p.a += 1; }
            if (!(p.a == 4)) { return 1; }
            char *s = "hi\n";
            print_str(s);
            return sum(data, 0) + p.b + (int)sizeof(long);
        }
    )");
    const std::string text = printProgram(*program);
    EXPECT_NE(text.find("int g = 3;"), std::string::npos);
    EXPECT_NE(text.find("int sum(int * arr, int n)"),
              std::string::npos);
    EXPECT_NE(text.find("for (int i = 0; (i < n); i += 1)"),
              std::string::npos);
    EXPECT_NE(text.find("p.a"), std::string::npos);
    EXPECT_NE(text.find("\"hi\\n\""), std::string::npos);
    EXPECT_NE(text.find("sizeof(long)"), std::string::npos);
}

/** Print -> reparse -> behavior must be identical. */
TEST(Printer, ReparseRoundTripPreservesBehavior)
{
    const char *source = R"(
        struct cell { int key; long val; char tag[4]; };
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        long stash(struct cell *c, int k) {
            c->key = k;
            c->val = (long)k * 7L;
            c->tag[0] = 'c';
            return c->val;
        }
        int main() {
            int acc = 0;
            for (int i = 0; i < 12; i += 1) {
                acc = (acc + fib(i)) % 1000;
            }
            print_int(acc);
            newline();
            char buf[8];
            strcpy(buf, "ok");
            print_str(buf);
            struct cell c;
            print_long(stash(&c, 6));
            return 0;
        }
    )";
    auto original = parseAndCheck(source);
    auto reparsed = parseAndCheck(printProgram(*original));

    const compiler::CompilerConfig config{compiler::Vendor::Gcc,
                                          compiler::OptLevel::O2};
    compiler::Compiler c1(*original);
    compiler::Compiler c2(*reparsed);
    auto m1 = c1.compile(config);
    auto m2 = c2.compile(config);
    vm::Vm v1(m1, config);
    vm::Vm v2(m2, config);
    auto r1 = v1.run({});
    auto r2 = v2.run({});
    EXPECT_EQ(r1.output, r2.output);
    EXPECT_EQ(r1.exitClass(), r2.exitClass());
}

/** Bundled bugs that a lossy printer hid, and an input that reaches
 *  each: the LINE bugs (a cur_line() call on a later line than its
 *  statement) and floatpack's float bugs (literals such as
 *  1000000.0 must print back to the same bits). */
struct RoundTripSite
{
    const char *target;
    support::Bytes input;
};

const RoundTripSite kRoundTripSites[] = {
    {"elfread", {69, 2, 7}},          // BUG(301)
    {"pixmagick", {77, 1, 7}},        // BUG(800)
    {"pixmagick", {77, 2, 7}},        // BUG(801)
    {"netshark", {87, 5, 7}},         // BUG(203)
    {"phplite", {60, 1, 7}},          // BUG(1200)
    {"phplite", {60, 2, 7}},          // BUG(1201)
    {"floatpack", {70, 1, 9, 2, 33}}, // BUG(1000), BUG(1001)
};

std::uint64_t
signatureOn(const minic::Program &program, const support::Bytes &input)
{
    // Start from an empty cache so the engine compiles this very
    // program instead of reusing another one's modules.
    compiler::CompileCache::global().clear();
    const core::DiffEngine engine(program);
    const core::DiffResult result = engine.runInput(input, 1);
    EXPECT_TRUE(result.divergent) << result.summary();
    return reduce::divergenceSignature(result);
}

/** A printed program diverges as its original does: gcc reads
 *  cur_line() as its statement's line and clang as its own line, so
 *  the printer must keep the two apart, and float literals must keep
 *  their bits. */
TEST(Printer, RoundTripKeepsLineDivergence)
{
    for (const auto &site : kRoundTripSites) {
        SCOPED_TRACE(site.target);
        auto original =
            parseAndCheck(targets::findTarget(site.target)->source);
        const std::string text = printProgram(*original);
        auto reparsed = parseAndCheck(text);
        EXPECT_EQ(printProgram(*reparsed), text);
        EXPECT_EQ(signatureOn(*reparsed, site.input),
                  signatureOn(*original, site.input));
    }
}

/** An assignment used as an operand keeps its parentheses: the
 *  parser reads `=` last, so `(c = x) != -1` printed bare would
 *  reparse as `c = (x != -1)`. */
TEST(Printer, AssignmentOperandsKeepTheirGrouping)
{
    auto original = parseAndCheck(R"(
        int main() {
            int c = 0;
            int n = 0;
            int a = 0;
            long l = 0L;
            char *p = "xyz";
            while ((c = input_byte(n)) != -1)
                n = n + 1;
            print_int(c * 100 + n);
            print_int(-(a = 2));
            print_int((a = 1) ? (l = 5L) > 4L : (c = 2));
            print_int((int)(l = 7L) + a);
            print_int((p = "abc")[1]);
            return a = 3;
        }
    )");
    const std::string text = printProgram(*original);
    for (const char *grouped :
         {"((c = input_byte(n)) != -1)", "-(a = 2)",
          "((a = 1) ? ((l = 5L) > 4L) : (c = 2))", "(int)(l = 7L)",
          "(p = \"abc\")[1]", "return a = 3;"}) {
        EXPECT_NE(text.find(grouped), std::string::npos)
            << grouped << "\n"
            << text;
    }
    auto reparsed = parseAndCheck(text);
    EXPECT_EQ(printProgram(*reparsed), text);
    const compiler::CompilerConfig config{compiler::Vendor::Gcc,
                                          compiler::OptLevel::O0};
    const auto run = [&](const minic::Program &program) {
        const auto module = compiler::Compiler(program).compile(config);
        return vm::Vm(module, config).run({4, 5}).output;
    };
    EXPECT_EQ(run(*original), "-98-21898");
    EXPECT_EQ(run(*reparsed), run(*original));
}

/** Lowering reads source lines, so a program and its printed form
 *  are different compile inputs even where their text agrees. */
TEST(Printer, ReparsedFormGetsItsOwnCompileCacheEntry)
{
    const compiler::CompilerConfig config{compiler::Vendor::Gcc,
                                          compiler::OptLevel::O2};
    for (const char *name :
         {"elfread", "pixmagick", "netshark", "phplite"}) {
        SCOPED_TRACE(name);
        auto original = parseAndCheck(targets::findTarget(name)->source);
        auto reparsed = parseAndCheck(printProgram(*original));
        const auto first = compiler::compileCached(*original, config);
        const auto second = compiler::compileCached(*reparsed, config);
        EXPECT_NE(first, second);
    }
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** The value of a program's first global initializer, which must be
 *  a float literal; NaN (and a failure) otherwise. */
double
globalFloat(const minic::Program &program)
{
    const minic::Expr &init = *program.globals.at(0)->init;
    if (init.kind() != minic::ExprKind::FloatLit) {
        ADD_FAILURE() << "initializer is not a float literal";
        return std::nan("");
    }
    return static_cast<const minic::FloatLitExpr &>(init).value;
}

/** print∘parse is a fixpoint on float literals and keeps their bits:
 *  no 6-digit rounding, no int spelling, no `1e+06` that lexes as `1`
 *  then `e`. */
TEST(Printer, FloatLiteralsRoundTripBitExact)
{
    const struct
    {
        const char *spelling;
        double value;
    } cases[] = {
        {"0.1", 0.1},
        {"1.0", 1.0},
        {"1000000.0", 1e6},
        {"0.0000001", 1e-7},
        {"1.0000001", 1.0000001},
        {"17.995395601019521", 17.995395601019521},
        {"1.7976931348623157e308", DBL_MAX},
        {"4.9406564584124654e-324", 5e-324},
        {"1.0e999", std::numeric_limits<double>::infinity()},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.spelling);
        auto original = parseAndCheck(std::string("double g = ") +
                                      c.spelling +
                                      ";\nint main() { return 0; }\n");
        ASSERT_EQ(bitsOf(globalFloat(*original)), bitsOf(c.value));
        const std::string text = printProgram(*original);
        auto reparsed = parseAndCheck(text);
        EXPECT_EQ(printProgram(*reparsed), text);
        EXPECT_EQ(bitsOf(globalFloat(*reparsed)), bitsOf(c.value));
    }
}

/** Literals only passes create (negative, non-finite) print as
 *  expressions that parse and evaluate to the same value. */
TEST(Printer, FoldedFloatLiteralsPrintAsExpressions)
{
    const double inf = std::numeric_limits<double>::infinity();
    const struct
    {
        double value;
        const char *text;
        const char *output; ///< print_f's rendering; null for NaN
    } cases[] = {
        {-2.5, "(-2.5)", "-2.5"},
        {-0.0, "(-0.0)", "-0"},
        {-inf, "(-1.0e999)", "-inf"},
        {1e6, "1.0e+06", "1000000"},
        {std::nan(""), "(0.0 / 0.0)", nullptr},
    };
    const compiler::CompilerConfig config{compiler::Vendor::Gcc,
                                          compiler::OptLevel::O0};
    for (const auto &c : cases) {
        SCOPED_TRACE(c.text);
        const minic::FloatLitExpr lit({}, c.value);
        EXPECT_EQ(minic::printExpr(lit), c.text);
        auto program = parseAndCheck(std::string("int main() { print_f(") +
                                     c.text + "); return 0; }");
        if (!c.output)
            continue;
        compiler::Compiler compiler(*program);
        const auto module = compiler.compile(config);
        vm::Vm machine(module, config);
        EXPECT_EQ(machine.run({}).output, c.output);
    }
}

/** The compile cache keys on the printed text, so literals that agree
 *  to 6 digits must still print apart. */
TEST(Printer, NearbyFloatLiteralsGetTheirOwnCompileCacheEntries)
{
    const compiler::CompilerConfig config{compiler::Vendor::Gcc,
                                          compiler::OptLevel::O2};
    auto first =
        parseAndCheck("int main() { print_f(1.0000001); return 0; }");
    auto second =
        parseAndCheck("int main() { print_f(1.0000002); return 0; }");
    EXPECT_NE(compiler::compileCached(*first, config),
              compiler::compileCached(*second, config));
}

/** The printer is the debugging lens for passes: the widened-mul
 *  marker must be visible after WidenMulPass. */
TEST(Printer, ShowsPassAnnotations)
{
    auto program = parseAndCheck(R"(
        int main() {
            int a = input_byte(0);
            long x = 1L + a * a;
            print_long(x);
            return 0;
        }
    )");
    auto clone = program->functions[0]->clone();
    compiler::normalizeBodies(*clone);
    const compiler::Traits traits =
        compiler::traitsFor({compiler::Vendor::Clang,
                             compiler::OptLevel::O2});
    for (const auto &pass : compiler::standardPasses())
        if (std::string(pass->name()) == "widenmul")
            pass->run(*clone, traits);
    const std::string text = minic::printFunction(*clone);
    EXPECT_NE(text.find("/*widened*/"), std::string::npos);
}

} // namespace
