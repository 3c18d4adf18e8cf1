/**
 * @file
 * Tests for the pluggable implementation layer: the spec grammar,
 * the simulated-compiler backend's id stability, the
 * reference-interpreter backend's agreement with the simulated
 * pipeline on UB-free programs, and the cross-backend oracle power
 * that motivates it (a shared-fate miscompile all ten simulated
 * configurations agree on is invisible to paper10 but flagged the
 * moment the reference interpreter joins the set).
 */

#include <gtest/gtest.h>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "compiler/config.hh"
#include "minic/parser.hh"
#include "support/logging.hh"

namespace
{

using namespace compdiff;
using core::DiffEngine;
using core::DiffOptions;
using core::makeImplementation;
using core::parseImplementations;

std::vector<std::string>
idsOf(const core::ImplementationSet &impls)
{
    std::vector<std::string> ids;
    for (const auto &impl : impls)
        ids.push_back(impl->id());
    return ids;
}

TEST(Registry, Paper10MatchesStandardImplementations)
{
    const auto impls = parseImplementations("paper10");
    const auto configs = compiler::standardImplementations();
    ASSERT_EQ(impls.size(), configs.size());
    ASSERT_EQ(impls.size(), 10u);
    for (std::size_t i = 0; i < impls.size(); i++) {
        EXPECT_EQ(impls[i]->id(), configs[i].name());
        ASSERT_NE(impls[i]->simulatedConfig(), nullptr);
        EXPECT_EQ(impls[i]->simulatedConfig()->name(),
                  configs[i].name());
    }
}

TEST(Registry, ParsesFamilyArgSpecs)
{
    EXPECT_EQ(makeImplementation("gcc:-O2")->id(), "gcc-O2");
    EXPECT_EQ(makeImplementation("clang:-Os:ubsan")->id(),
              "clang-Os+ubsan");
    EXPECT_EQ(makeImplementation("ref")->id(), "ref");
    // Legacy single-token names (as printed in diff summaries)
    // resolve through compiler::configFromName.
    EXPECT_EQ(makeImplementation("gcc-O2")->id(), "gcc-O2");
    EXPECT_EQ(makeImplementation("clang-O1+asan")->id(),
              "clang-O1+asan");
}

TEST(Registry, ParsesListsAndAliases)
{
    EXPECT_EQ(idsOf(parseImplementations("gcc:-O0,ref")),
              (std::vector<std::string>{"gcc-O0", "ref"}));
    EXPECT_EQ(parseImplementations("all").size(), 11u);
    EXPECT_EQ(parseImplementations("all").back()->id(), "ref");
    EXPECT_EQ(parseImplementations(" gcc:-O1 , clang:-O3 ").size(),
              2u);
    EXPECT_FALSE(makeImplementation("ref")->describe().empty());
    EXPECT_FALSE(makeImplementation("gcc:-O2")->describe().empty());
}

TEST(Registry, KnownFamiliesAreListed)
{
    // An unknown family is a user error that names every family
    // there is.
    try {
        makeImplementation("bogus:-O2");
        FAIL() << "an unknown family must not build";
    } catch (const support::FatalError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("unknown implementation family 'bogus'"),
                  std::string::npos)
            << error.what();
        EXPECT_NE(std::string(error.what())
                      .find("(known: clang, gcc, ref)"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_THROW(parseImplementations("gcc:-O2,bogus"),
                 support::FatalError);
}

// UB-free programs must agree across the full 11-implementation set
// (ten simulated configurations plus the reference interpreter):
// the tree-walking backend mirrors the lowering conversion rules and
// the VM runtime byte for byte.
TEST(RefBackend, UbFreeProgramsShowZeroDivergence)
{
    const char *programs[] = {
        // Integer arithmetic, conversions, shifts, comparisons.
        R"(int main() {
            int a = 1000; int b = 0 - 37;
            long p = (long)a * b;
            uint u = 4000000000;
            print_long(p); newline();
            print_uint(u + 295u); newline();
            print_int((a << 3) / (b >> 1)); newline();
            print_hex((ulong)u * 3ul); newline();
            char c = 200;
            print_int(c); newline();
            return a > b;
        })",
        // Control flow, arrays, structs, pointers.
        R"(struct Pt { int x; int y; };
        int sum(int *v, int n) {
            int s = 0;
            for (int i = 0; i < n; i += 1) { s += v[i]; }
            return s;
        }
        int main() {
            int vals[5];
            for (int i = 0; i < 5; i += 1) { vals[i] = i * i; }
            struct Pt p; p.x = sum(vals, 5); p.y = 0 - p.x;
            print_int(p.x); print_int(p.y); newline();
            int *q = &vals[2];
            print_int(*q + q[1]);
            return 0;
        })",
        // Heap, memset/memcpy, strings.
        R"(int main() {
            char *buf = malloc(32);
            memset(buf, 65, 8);
            buf[8] = 0;
            print_str(buf); newline();
            char *copy = malloc(32);
            memcpy(copy, buf, 9);
            print_int(strlen(copy)); newline();
            free(copy); free(buf);
            return 0;
        })",
        // Doubles (IEEE-exact operations only).
        R"(int main() {
            double d = 2.25;
            double r = sqrt_f(d * 4.0) + floor_f(1.75);
            print_f(r); newline();
            print_int((int)(r * 2.0));
            return 0;
        })",
        // Input-dependent branching and recursion.
        R"(int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() {
            int n = input_byte(0) % 10;
            if (n < 0) { n = 0; }
            print_int(fib(n));
            return 0;
        })",
    };
    const auto impls = parseImplementations("all");
    ASSERT_EQ(impls.size(), 11u);
    for (const char *source : programs) {
        auto program = minic::parseAndCheck(source);
        DiffEngine engine(*program, impls);
        auto result = engine.runInput({7, 3});
        EXPECT_FALSE(result.divergent)
            << source << "\n"
            << result.summary();
        EXPECT_EQ(result.classCount, 1u) << source;
    }
}

// The new oracle power: seed a *shared-fate* miscompile (every
// simulated configuration strength-reduces signed x % 8 to x & 7
// without the negative fixup). All ten agree on the wrong answer, so
// paper10 is blind — only a backend with independent semantics (the
// reference interpreter) exposes it.
TEST(RefBackend, CrossBackendDefectDetection)
{
    auto program = minic::parseAndCheck(R"(
        int main() {
            int x = 0 - input_byte(0);
            print_int(x % 8);
            return 0;
        }
    )");
    DiffOptions seeded;
    seeded.traitsTweak = [](compiler::Traits &t) {
        t.bugRemPow2 = true;
    };
    const support::Bytes input = {9}; // -9 % 8 == -1; (-9)&7 == 7

    // All ten simulated configurations share the defect: consistent,
    // but consistently wrong.
    DiffEngine blind(*program, seeded);
    auto agree = blind.runInput(input);
    EXPECT_FALSE(agree.divergent);
    EXPECT_EQ(agree.observations[0].normalizedOutput, "7");

    // Adding the reference interpreter (which has no Traits and
    // ignores the tweak) breaks the shared fate.
    DiffEngine cross(*program, parseImplementations("gcc:-O0,ref"),
                     seeded);
    auto caught = cross.runInput(input);
    EXPECT_TRUE(caught.divergent);
    ASSERT_EQ(caught.observations.size(), 2u);
    EXPECT_EQ(caught.observations[0].impl, "gcc-O0");
    EXPECT_EQ(caught.observations[0].normalizedOutput, "7");
    EXPECT_EQ(caught.observations[1].impl, "ref");
    EXPECT_EQ(caught.observations[1].normalizedOutput, "-1");

    // Without the seeded defect the same pair agrees.
    DiffEngine clean(*program, parseImplementations("gcc:-O0,ref"));
    EXPECT_FALSE(clean.runInput(input).divergent);
}

// Regression (compile-cache keying): a traitsTweak-mutated pipeline
// must never reuse a module cached for the stock traits of the same
// (program, implementation) pair, and vice versa.
TEST(CompileCache, TraitsTweakIsPartOfTheKey)
{
    auto program = minic::parseAndCheck(R"(
        int main() {
            int x = 0 - input_byte(0);
            print_int(x % 8);
            return 0;
        }
    )");
    const auto impls = parseImplementations("gcc:-O2");
    const support::Bytes input = {9};

    // Warm the cache with the stock pipeline first.
    DiffEngine stock(*program, impls);
    auto before = stock.runInput(input);
    EXPECT_EQ(before.observations[0].normalizedOutput, "-1");

    // The tweaked engine must compile fresh, not hit the stock entry.
    DiffOptions seeded;
    seeded.traitsTweak = [](compiler::Traits &t) {
        t.bugRemPow2 = true;
    };
    DiffEngine tweaked(*program, impls, seeded);
    auto after = tweaked.runInput(input);
    EXPECT_EQ(after.observations[0].normalizedOutput, "7");

    // And a fresh stock engine must not pick up the tweaked module.
    DiffEngine stock2(*program, impls);
    EXPECT_EQ(stock2.runInput(input).observations[0].normalizedOutput,
              "-1");
}

} // namespace
