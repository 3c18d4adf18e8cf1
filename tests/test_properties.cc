/**
 * @file
 * Property-based tests.
 *
 * The central soundness property of the whole stack is the paper's
 * zero-false-positive guarantee: a program whose execution is free
 * of undefined behavior MUST behave identically under every
 * compiler implementation. We check it two ways:
 *
 *  1. UB-free programs from the test generator (tests/program_gen.hh)
 *     form one behavior class under the ten implementations and the
 *     reference interpreter, so the threaded VM and the tree-walking
 *     interpreter cross-check each other; the certifying interpreter
 *     finds no UB in them and no sanitizer fires;
 *  2. parameterized sweeps assert per-implementation semantics that
 *     the C standard pins down (two's-complement unsigned wrap,
 *     short-circuit evaluation, ...) hold under every configuration.
 *
 * The frontend half: every generated program survives a print/parse
 * round trip, nesting stops exactly at the parser's bound, and
 * mutated program text is parsed or rejected, never crashes.
 */

#include <gtest/gtest.h>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "compiler/compiler.hh"
#include "minic/parser.hh"
#include "minic/printer.hh"
#include "program_gen.hh"
#include "refinterp/refinterp.hh"
#include "sanitizers/sanitizers.hh"
#include "support/rng.hh"
#include "vm/vm.hh"

namespace
{

using namespace compdiff;

const compiler::CompilerConfig kGccO0{compiler::Vendor::Gcc,
                                      compiler::OptLevel::O0,
                                      compiler::Sanitizer::None};

class WellDefinedPrograms : public testing::TestWithParam<int>
{};

TEST_P(WellDefinedPrograms, StableAcrossAllImplementations)
{
    const std::string source = testgen::generateProgram(
        0xC0DE0000ull + static_cast<std::uint64_t>(GetParam()),
        testgen::Mode::UbFree);
    SCOPED_TRACE(source);
    std::unique_ptr<minic::Program> program;
    ASSERT_NO_THROW(program = minic::parseAndCheck(source));

    const support::Bytes input = {3, 1, 4, 1, 5};
    core::DiffEngine engine(*program, core::parseImplementations("all"));
    const auto diff = engine.runInput(input);
    EXPECT_EQ(diff.classCount, 1u) << diff.summary();
    EXPECT_EQ(diff.observations.front().exitClass, "exit:0");

    const auto certified =
        refinterp::RefInterpreter(*program).certify(input);
    for (const auto &certificate : certified.certificates)
        ADD_FAILURE() << certificate.str();

    sanitizers::SanitizerRunner runner(*program);
    EXPECT_FALSE(runner.anyFires(input));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, WellDefinedPrograms,
                         testing::Range(0, 200));

/** Every generated program parses, and printing it is a fixpoint of
 *  parsing: print(parse(print(p))) == print(p). */
TEST(GeneratedPrograms, PrintParsePrintIsAFixpoint)
{
    for (std::uint64_t seed = 0; seed < 400; seed++) {
        const std::string source = testgen::generateProgram(
            seed, seed % 2 ? testgen::Mode::MayFault
                           : testgen::Mode::UbFree,
            static_cast<testgen::Shape>(seed / 2 % 4),
            minic::kMaxNestingDepth);
        SCOPED_TRACE(source);
        std::unique_ptr<minic::Program> program;
        ASSERT_NO_THROW(program = minic::parseAndCheck(source));
        const std::string printed = minic::printProgram(*program);
        std::unique_ptr<minic::Program> reparsed;
        ASSERT_NO_THROW(reparsed = minic::parseAndCheck(printed))
            << printed;
        EXPECT_EQ(minic::printProgram(*reparsed), printed);
    }
}

/** A program nesting as deep as the parser allows round-trips and
 *  runs; one level deeper is a CompileError. */
TEST(GeneratedPrograms, NestingStopsAtTheBound)
{
    for (std::uint64_t seed = 0; seed < 20; seed++) {
        const auto deep = [seed](int depth) {
            return testgen::generateProgram(seed, testgen::Mode::UbFree,
                                            testgen::Shape::Deep, depth);
        };
        const std::string source = deep(minic::kMaxNestingDepth);
        SCOPED_TRACE(source);
        std::unique_ptr<minic::Program> program;
        ASSERT_NO_THROW(program = minic::parseAndCheck(source));
        const std::string printed = minic::printProgram(*program);
        std::unique_ptr<minic::Program> reparsed;
        ASSERT_NO_THROW(reparsed = minic::parseAndCheck(printed));
        EXPECT_EQ(minic::printProgram(*reparsed), printed);
        const auto module = compiler::Compiler(*program).compile(kGccO0);
        EXPECT_EQ(vm::Vm(module, kGccO0).run({}).exitClass(), "exit:0");

        EXPECT_THROW(minic::parseAndCheck(deep(minic::kMaxNestingDepth + 1)),
                     support::CompileError);
    }
}

/**
 * Mutated program text (flipped bytes, truncations, inserted
 * brackets, repeated spans) either parses or is rejected with a
 * CompileError; it never crashes, aborts or hangs the frontend. What
 * parses prints to a fixpoint, compiles, and runs once within the
 * default limits.
 */
TEST(FrontendFuzz, MutatedSourceParsesOrIsRejected)
{
    support::Rng rng(0xF022ull);
    int accepted = 0;
    for (std::uint64_t i = 0; i < 3000; i++) {
        std::string text = testgen::generateProgram(
            i / 8, i % 2 ? testgen::Mode::MayFault
                         : testgen::Mode::UbFree);
        for (auto edits = rng.range(1, 3); edits > 0; edits--) {
            const std::size_t at = rng.below(text.size());
            switch (rng.below(4)) {
              case 0:
                text[at] = static_cast<char>(text[at] ^
                                             (1 << rng.below(8)));
                break;
              case 1:
                text.resize(at);
                break;
              case 2:
                text.insert(at, 1, "(){}[]"[rng.below(6)]);
                break;
              default: {
                const std::string span = text.substr(at, rng.range(1, 12));
                for (auto n = rng.range(1, 4); n > 0; n--)
                    text.insert(at, span);
              }
            }
            if (text.empty())
                break;
        }
        std::unique_ptr<minic::Program> program;
        try {
            program = minic::parseAndCheck(text);
        } catch (const support::CompileError &) {
            continue;
        }
        accepted++;
        const std::string printed = minic::printProgram(*program);
        EXPECT_EQ(minic::printProgram(*minic::parseAndCheck(printed)),
                  printed)
            << text;
        const auto module = compiler::Compiler(*program).compile(kGccO0);
        (void)vm::Vm(module, kGccO0).run({1, 2, 3});
    }
    EXPECT_GT(accepted, 0);
}

// ------------------------------------------------------------------
// Per-implementation semantic pins: C-defined behavior must be
// identical under every configuration.
// ------------------------------------------------------------------

class PerConfig
    : public testing::TestWithParam<compiler::CompilerConfig>
{
  protected:
    std::string
    runOutput(std::string_view source)
    {
        auto program = minic::parseAndCheck(source);
        compiler::Compiler comp(*program);
        auto module = comp.compile(GetParam());
        vm::Vm machine(module, GetParam());
        auto result = machine.run({});
        EXPECT_EQ(result.termination, vm::Termination::Exit)
            << GetParam().name();
        return result.output;
    }
};

TEST_P(PerConfig, UnsignedWrapIsDefined)
{
    EXPECT_EQ(runOutput(R"(
        int main() {
            uint u = 4294967295U;
            print_uint(u + 1U); newline();
            print_uint(0U - 1U);
            return 0;
        }
    )"),
              "0\n4294967295");
}

TEST_P(PerConfig, ShortCircuitOrder)
{
    EXPECT_EQ(runOutput(R"(
        int hits = 0;
        int bump() { hits += 1; return 1; }
        int main() {
            int a = 0 && bump();
            int b = 1 || bump();
            print_int(hits);
            print_int(a + b);
            return 0;
        }
    )"),
              "01");
}

TEST_P(PerConfig, SignedDivisionTruncatesTowardZero)
{
    EXPECT_EQ(runOutput(R"(
        int main() {
            print_int(-7 / 2); print_str(" ");
            print_int(-7 % 2); print_str(" ");
            print_int(7 / -2); print_str(" ");
            print_int(7 % -2);
            return 0;
        }
    )"),
              "-3 -1 -3 1");
}

TEST_P(PerConfig, InBoundsShiftsAreStable)
{
    EXPECT_EQ(runOutput(R"(
        int main() {
            print_int(1 << 10); print_str(" ");
            print_int(-64 >> 3); print_str(" ");
            print_uint(2147483648U >> 31);
            return 0;
        }
    )"),
              "1024 -8 1");
}

TEST_P(PerConfig, SequencedSideEffectsAreOrdered)
{
    // Statement boundaries are sequence points; only *unsequenced*
    // conflicts may diverge.
    EXPECT_EQ(runOutput(R"(
        char buffer[8];
        char *fmt(int v) {
            buffer[0] = (char)(48 + v);
            buffer[1] = 0;
            return buffer;
        }
        int main() {
            char first[4];
            strcpy(first, fmt(1));
            char *second = fmt(2);
            print_str(first);
            print_str(second);
            return 0;
        }
    )"),
              "12");
}

TEST_P(PerConfig, StructLayoutIsAbiStable)
{
    // Struct field offsets follow the ABI, not the optimizer: the
    // same field must read back identically everywhere.
    EXPECT_EQ(runOutput(R"(
        struct mix { char tag; int count; long total; };
        int main() {
            struct mix m;
            m.tag = 'x';
            m.count = 7;
            m.total = 99L;
            print_int((int)sizeof(struct mix)); print_str(" ");
            print_int(m.count); print_str(" ");
            print_long(m.total);
            return 0;
        }
    )"),
              "16 7 99");
}

INSTANTIATE_TEST_SUITE_P(
    AllImplementations, PerConfig,
    testing::ValuesIn(compiler::standardImplementations()),
    [](const testing::TestParamInfo<compiler::CompilerConfig> &info) {
        std::string name = info.param.name();
        for (auto &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name;
    });

} // namespace
