/**
 * @file
 * Tests for the target programs: they compile, run cleanly on their
 * seeds, plant the documented bug mix, and each bug's trigger input
 * actually produces divergence.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "compdiff/engine.hh"
#include "compiler/compiler.hh"
#include "minic/parser.hh"
#include "targets/campaign.hh"
#include "targets/targets.hh"
#include "vm/vm.hh"

namespace
{

using namespace compdiff;
using targets::allTargets;
using targets::BugCategory;
using targets::TargetProgram;

TEST(Targets, RegistryShape)
{
    const auto &list = allTargets();
    EXPECT_EQ(list.size(), 13u);
    EXPECT_EQ(targets::totalPlantedBugs(), 78u); // Table 5 total

    std::map<std::string, int> columns;
    std::set<int> probes;
    for (const auto &target : list) {
        EXPECT_FALSE(target.seeds.empty()) << target.name;
        EXPECT_GT(target.linesOfCode(), 40u) << target.name;
        for (const auto &bug : target.bugs) {
            columns[targets::categoryColumn(bug.category)]++;
            EXPECT_TRUE(probes.insert(bug.probeId).second)
                << "duplicate probe " << bug.probeId;
        }
    }
    // Table 5 "Reported" row.
    EXPECT_EQ(columns["EvalOrder"], 2);
    EXPECT_EQ(columns["UninitMem"], 27);
    EXPECT_EQ(columns["IntError"], 8);
    EXPECT_EQ(columns["MemError"], 13);
    EXPECT_EQ(columns["PointerCmp"], 1);
    EXPECT_EQ(columns["LINE"], 6);
    EXPECT_EQ(columns["Misc."], 21);
}

TEST(Targets, DeveloperResponseMatchesTable5)
{
    std::map<std::string, int> confirmed;
    std::map<std::string, int> fixed;
    for (const auto &target : allTargets()) {
        for (const auto &bug : target.bugs) {
            const std::string col =
                targets::categoryColumn(bug.category);
            confirmed[col] += bug.confirmed;
            fixed[col] += bug.fixed;
        }
    }
    EXPECT_EQ(confirmed["EvalOrder"], 2);
    EXPECT_EQ(confirmed["UninitMem"], 19);
    EXPECT_EQ(confirmed["IntError"], 8);
    EXPECT_EQ(confirmed["MemError"], 13);
    EXPECT_EQ(confirmed["PointerCmp"], 1);
    EXPECT_EQ(confirmed["LINE"], 5);
    EXPECT_EQ(confirmed["Misc."], 17);
    EXPECT_EQ(fixed["EvalOrder"], 2);
    EXPECT_EQ(fixed["UninitMem"], 15);
    EXPECT_EQ(fixed["IntError"], 6);
    EXPECT_EQ(fixed["MemError"], 12);
    EXPECT_EQ(fixed["PointerCmp"], 1);
    EXPECT_EQ(fixed["LINE"], 5);
    EXPECT_EQ(fixed["Misc."], 11);
}

TEST(Targets, AllCompileAndRunSeeds)
{
    for (const auto &target : allTargets()) {
        std::unique_ptr<minic::Program> program;
        ASSERT_NO_THROW(program = minic::parseAndCheck(target.source))
            << target.name;
        compiler::Compiler comp(*program);
        const compiler::CompilerConfig config{
            compiler::Vendor::Gcc, compiler::OptLevel::O0,
            compiler::Sanitizer::None};
        auto module = comp.compile(config);
        vm::Vm machine(module, config);
        for (const auto &seed : target.seeds) {
            auto run = machine.run(seed);
            EXPECT_FALSE(run.crashed())
                << target.name << ": seed crashed: "
                << run.exitClass();
            EXPECT_FALSE(run.timedOut()) << target.name;
        }
    }
}

// Every planted bug must be *triggerable*: there must exist an input
// that fires its probe and produces divergence. We drive each target
// with a short deterministic campaign and require high coverage of
// the planted set, then verify per-bug divergence on the witnesses.
TEST(Targets, CampaignsFindPlantedBugs)
{
    // A smoke-budget sweep over representative targets; the Table 5
    // bench runs the full-budget campaigns on all thirteen.
    session::SessionConfig config = targets::campaignConfig();
    config.fuzz.maxExecs = 10'000;

    std::size_t planted = 0;
    std::size_t found = 0;
    for (const char *name :
         {"pktdump", "elfread", "arczip", "scriptvm", "jsonq"}) {
        const TargetProgram *target = targets::findTarget(name);
        ASSERT_NE(target, nullptr) << name;
        auto result = targets::runCampaign(*target, config,
                                           /*check_sanitizers=*/false);
        planted += target->bugs.size();
        found += result.found.size();
        EXPECT_EQ(result.untriaged.size(), 0u)
            << name << " produced unplanted divergences";
        for (const auto &finding : result.found) {
            ASSERT_NE(finding.bug, nullptr);
            EXPECT_FALSE(finding.hashVector.empty());
        }
    }
    EXPECT_GE(found, planted * 3 / 4)
        << "only " << found << " of " << planted << " bugs found";
}

TEST(Targets, NetsharkNeedsNormalization)
{
    const TargetProgram *netshark = targets::findTarget("netshark");
    ASSERT_NE(netshark, nullptr);
    EXPECT_TRUE(netshark->nonDeterministicOutput);

    auto program = minic::parseAndCheck(netshark->source);
    // Raw comparison diverges on the timestamped frame record...
    core::DiffOptions raw;
    raw.normalizer = core::OutputNormalizer();
    core::DiffEngine raw_engine(
        *program, compiler::standardImplementations(), raw);
    support::Bytes ts_input = {87, 1, 9};
    EXPECT_TRUE(raw_engine.runInput(ts_input).divergent);

    // ...while the default filters keep it stable (RQ5).
    core::DiffEngine engine(*program);
    EXPECT_FALSE(engine.runInput(ts_input).divergent);
}

TEST(Targets, ScriptvmHostsTheCompilerBugs)
{
    const TargetProgram *scriptvm = targets::findTarget("scriptvm");
    ASSERT_NE(scriptvm, nullptr);
    int compiler_bugs = 0;
    for (const auto &bug : scriptvm->bugs)
        compiler_bugs += bug.category == BugCategory::CompilerBug;
    EXPECT_EQ(compiler_bugs, 3); // RQ2: 2 gcc-sim + 1 clang-sim

    // Direct witness: push 3, push 9, sub -> -6, then op_hash (%8).
    auto program = minic::parseAndCheck(scriptvm->source);
    core::DiffEngine engine(*program);
    auto diff = engine.runInput({74, 1, 3, 1, 9, 3, 4, 10});
    EXPECT_TRUE(diff.divergent);
}

} // namespace
