/**
 * @file
 * Tests for trace-based fault localization (paper Section 5): the
 * aligner must name the folded guard for control divergence and
 * classify value-only instability as data divergence.
 */

#include <gtest/gtest.h>

#include "compdiff/localize.hh"
#include "fuzz/fuzzer.hh"
#include "minic/parser.hh"

namespace
{

using namespace compdiff;
using compiler::CompilerConfig;
using compiler::OptLevel;
using compiler::Vendor;
using core::localizeDivergence;

const CompilerConfig kGccO0{Vendor::Gcc, OptLevel::O0};
const CompilerConfig kClangO2{Vendor::Clang, OptLevel::O2};

TEST(Localize, NamesTheFoldedGuard)
{
    // Listing 1: the guard is on source line 5; -O0 takes the early
    // return while -O2 falls through to the dump.
    auto program = minic::parseAndCheck(
        "int dump_data(int offset, int len) {\n"     // line 1
        "    if (offset < 0 || len < 0) { return -1; }\n"
        "    if (offset + len < offset) {\n"          // line 3
        "        return -1;\n"                        // line 4
        "    }\n"
        "    print_str(\"dump\");\n"                  // line 6
        "    return 0;\n"
        "}\n"
        "int main() {\n"
        "    print_int(dump_data(2147483547, 101));\n"
        "    return 0;\n"
        "}\n");

    auto loc = localizeDivergence(*program, kGccO0, kClangO2, {});
    EXPECT_TRUE(loc.divergent);
    EXPECT_TRUE(loc.controlDivergence);
    EXPECT_FALSE(loc.dataDivergence);
    // The executions part ways at the guard: one first differing
    // block is the `return -1` body (line 3/4 region), the other the
    // fall-through (line 6 region).
    const auto lo = std::min(loc.lineA, loc.lineB);
    const auto hi = std::max(loc.lineA, loc.lineB);
    EXPECT_GE(lo, 3u);
    EXPECT_LE(hi, 7u);
    EXPECT_NE(loc.str().find("control divergence"),
              std::string::npos);
}

TEST(Localize, ClassifiesValueInstabilityAsDataDivergence)
{
    // Uninitialized value printed: both executions take the same
    // path; only the printed value differs.
    auto program = minic::parseAndCheck(R"(
        int main() {
            int l;
            print_int(l);
            newline();
            return 0;
        }
    )");
    auto loc = localizeDivergence(*program, kGccO0, kClangO2, {});
    EXPECT_TRUE(loc.divergent);
    EXPECT_FALSE(loc.controlDivergence);
    EXPECT_TRUE(loc.dataDivergence);
    EXPECT_NE(loc.str().find("data divergence"), std::string::npos);
}

TEST(Localize, StableProgramReportsNothing)
{
    auto program = minic::parseAndCheck(R"(
        int main() {
            print_str("same everywhere");
            return 0;
        }
    )");
    auto loc = localizeDivergence(*program, kGccO0, kClangO2, {});
    EXPECT_FALSE(loc.divergent);
    EXPECT_FALSE(loc.controlDivergence);
    EXPECT_FALSE(loc.dataDivergence);
}

TEST(Localize, SameConfigNeverDiverges)
{
    auto program = minic::parseAndCheck(R"(
        int main() {
            int l;
            print_int(l);
            return 0;
        }
    )");
    auto loc = localizeDivergence(*program, kGccO0, kGccO0, {});
    EXPECT_FALSE(loc.divergent);
}

// Listing 1's folded overflow guard: the reference interpreter and
// unoptimized builds reject, UB-exploiting optimized builds accept.
const char *kGuardSource = R"(
    int main() {
        int offset = 2147483547;
        int len = 101;
        if (offset + len < offset) {
            print_str("rejected");
        } else {
            print_str("accepted");
        }
        newline();
        return 0;
    }
)";

TEST(LocalizeAcross, BridgesCrossBackendRepresentatives)
{
    // "ref" leads the set, so the natural class-0 representative has
    // no CompilerConfig; localizeAcross must substitute the
    // same-class simulated member (gcc-O0) and say so.
    auto program = minic::parseAndCheck(kGuardSource);
    auto impls = core::parseImplementations("ref,gcc:-O0,gcc:-O2");
    core::DiffEngine engine(*program, impls, {});
    auto diff = engine.runInput({}, 0);
    ASSERT_TRUE(diff.divergent);
    ASSERT_EQ(diff.classOf[0], diff.classOf[1]); // ref == gcc-O0

    auto pair = core::localizeAcross(*program, impls, diff, {});
    EXPECT_TRUE(pair.attempted);
    EXPECT_TRUE(pair.bridged);
    EXPECT_EQ(pair.requestedA, "ref");
    EXPECT_EQ(pair.implA, "gcc-O0");
    EXPECT_EQ(pair.implB, "gcc-O2");
    // The note names exactly which pair was bridged and why.
    EXPECT_NE(pair.note.find("ref -> gcc-O0"), std::string::npos)
        << pair.note;
    EXPECT_NE(pair.note.find("same"), std::string::npos);
    EXPECT_TRUE(pair.localization.divergent);
    EXPECT_TRUE(pair.localization.controlDivergence);
}

TEST(LocalizeAcross, ReportsWhichClassBlocksAlignment)
{
    // With only "ref" in its behavior class there is nothing to
    // bridge to: no localization, and the note names the blocked
    // class instead of failing silently.
    auto program = minic::parseAndCheck(kGuardSource);
    auto impls = core::parseImplementations("ref,clang:-O2");
    core::DiffEngine engine(*program, impls, {});
    auto diff = engine.runInput({}, 0);
    ASSERT_TRUE(diff.divergent);

    auto pair = core::localizeAcross(*program, impls, diff, {});
    EXPECT_FALSE(pair.attempted);
    EXPECT_FALSE(pair.bridged);
    EXPECT_EQ(pair.requestedA, "ref");
    EXPECT_EQ(pair.requestedB, "clang-O2");
    EXPECT_NE(pair.note.find("ref"), std::string::npos);
    EXPECT_NE(
        pair.note.find("no simulated compiler implementation"),
        std::string::npos)
        << pair.note;
}

TEST(LocalizeAcross, AllSimulatedPairNeedsNoBridge)
{
    auto program = minic::parseAndCheck(kGuardSource);
    auto impls = core::parseImplementations("gcc:-O0,gcc:-O2");
    core::DiffEngine engine(*program, impls, {});
    auto diff = engine.runInput({}, 0);
    ASSERT_TRUE(diff.divergent);

    auto pair = core::localizeAcross(*program, impls, diff, {});
    EXPECT_TRUE(pair.attempted);
    EXPECT_FALSE(pair.bridged);
    EXPECT_EQ(pair.implA, "gcc-O0");
    EXPECT_EQ(pair.implB, "gcc-O2");
    EXPECT_NE(pair.note.find("direct"), std::string::npos);
}

TEST(DivergenceFeedback, GrowsCorpusOnNewPartitions)
{
    // The uninit path is behind a rare two-byte gate; divergence
    // feedback keeps partition-novel inputs as seeds.
    const char *source = R"(
        int main() {
            if (input_byte(0) == 'K') {
                if (input_byte(1) == 'Z') {
                    int l;
                    print_int(l);
                    probe(9);
                }
            }
            print_str(".");
            return 0;
        }
    )";
    auto p1 = minic::parseAndCheck(source);
    fuzz::FuzzOptions with;
    with.maxExecs = 3000;
    with.divergenceFeedback = true;
    fuzz::Fuzzer guided(*p1, {{'K', 'A'}}, with);
    auto stats = guided.run();

    auto p2 = minic::parseAndCheck(source);
    fuzz::FuzzOptions without = with;
    without.divergenceFeedback = false;
    fuzz::Fuzzer plain(*p2, {{'K', 'A'}}, without);
    auto base = plain.run();

    // Both modes must find the bug here; the guided corpus retains
    // the partition-novel seeds.
    EXPECT_GE(stats.diffs, 1u);
    EXPECT_GE(base.diffs, 1u);
    EXPECT_GE(stats.seeds, base.seeds);
}

} // namespace
