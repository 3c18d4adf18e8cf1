/**
 * @file
 * Cross-dispatch identity and operand-stack hardening.
 *
 * The execution engine has two interpreter instantiations (computed-
 * goto threaded code and a portable switch loop) and two decodings of
 * every module (with and without superinstruction fusion). All four
 * combinations must produce byte-identical observable results —
 * output, exit classification, sanitizer reports, probes, coverage,
 * and the instruction count that drives the RQ6 budget discipline —
 * for every program, including ones that trap mid-expression. These
 * tests pin that invariant over the bundled seed-bug targets and
 * generated programs that may fault (tests/program_gen.hh), then pin the batch/retarget layers on top
 * (DiffEngine::runBatch, retarget() and the fuzzer's deferred oracle
 * flushes must match fresh per-input runs bit for bit).
 *
 * The hardening half feeds the Vm hand-assembled *malformed* modules
 * (compiler-lowered code is always stack-balanced) and requires a
 * deterministic Trap — exit class "crash:stack" — instead of
 * std::vector UB on operand-stack underflow/overflow, and a
 * deterministic "crash:segv" when the pc runs off the end of a
 * function (the decoded TrapEnd sentinel).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bytecode/decode.hh"
#include "compdiff/engine.hh"
#include "compiler/compiler.hh"
#include "fuzz/fuzzer.hh"
#include "minic/parser.hh"
#include "program_gen.hh"
#include "session/serial.hh"
#include "support/hash.hh"
#include "support/strings.hh"
#include "targets/targets.hh"
#include "vm/coverage.hh"
#include "vm/vm.hh"

namespace
{

using namespace compdiff;
using support::format;
using testgen::resultKey;

const compiler::CompilerConfig kGccO0{compiler::Vendor::Gcc,
                                      compiler::OptLevel::O0,
                                      compiler::Sanitizer::None};
const compiler::CompilerConfig kClangO3{compiler::Vendor::Clang,
                                        compiler::OptLevel::O3,
                                        compiler::Sanitizer::None};

struct ModeRun
{
    std::string key;
    support::Bytes coverage;
};

ModeRun
runOne(const bytecode::Module &module,
       const compiler::CompilerConfig &config,
       const support::Bytes &input, vm::DispatchMode mode,
       bool fused, std::uint64_t nonce)
{
    vm::Vm machine(module, config);
    machine.setDispatchMode(mode);
    if (!fused) {
        machine.setDecodedProgram(
            bytecode::decodeModule(module, {/*fuse=*/false}));
    }
    vm::CoverageMap coverage;
    auto result = machine.run(input, &coverage, nonce);
    support::Bytes map(coverage.data(),
                       coverage.data() + vm::kCoverageMapSize);
    return {resultKey(result), std::move(map)};
}

/** Every dispatch x decode combination; the first is the reference. */
const struct DispatchCombo
{
    vm::DispatchMode mode;
    bool fused;
    const char *name;
} kCombos[] = {
    {vm::DispatchMode::Switch, true, "switch/fused"},
    {vm::DispatchMode::Switch, false, "switch/unfused"},
    {vm::DispatchMode::Threaded, true, "threaded/fused"},
    {vm::DispatchMode::Threaded, false, "threaded/unfused"},
};

/**
 * Run (module, config, input) under every dispatch x decode
 * combination in one process and require identical observations.
 */
void
expectDispatchIdentity(const bytecode::Module &module,
                       const compiler::CompilerConfig &config,
                       const support::Bytes &input,
                       const std::string &label,
                       std::uint64_t nonce = 0)
{
    const ModeRun reference =
        runOne(module, config, input, kCombos[0].mode,
               kCombos[0].fused, nonce);
    for (const auto &combo : std::span(kCombos).subspan(1)) {
        const ModeRun run = runOne(module, config, input, combo.mode,
                                   combo.fused, nonce);
        EXPECT_EQ(run.key, reference.key)
            << label << ": " << combo.name << " diverges from "
            << kCombos[0].name;
        EXPECT_EQ(run.coverage, reference.coverage)
            << label << ": " << combo.name << " coverage differs";
    }
}

// ------------------------------------------------------------------
// Satellite: identity over the bundled seed-bug corpus.
// ------------------------------------------------------------------

TEST(DispatchIdentity, BundledTargetsAllModes)
{
    for (const auto &target : targets::allTargets()) {
        auto program = minic::parseAndCheck(target.source);
        compiler::Compiler comp(*program);
        for (const auto &config : {kGccO0, kClangO3}) {
            const auto module = comp.compile(config);
            std::uint64_t nonce = 0;
            for (const auto &seed : target.seeds) {
                expectDispatchIdentity(
                    module, config, seed,
                    target.name + "/" + config.name(), ++nonce);
                // A corrupted seed exercises the target's error and
                // trap paths, where fused handlers must stop at the
                // same instruction the unfused stream would.
                support::Bytes mutated = seed;
                if (!mutated.empty()) {
                    mutated[mutated.size() / 2] ^= 0xFF;
                    expectDispatchIdentity(
                        module, config, mutated,
                        target.name + "/" + config.name() +
                            "/mutated",
                        ++nonce);
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// Golden observation digests. Every dispatch mode and decoding runs
// the one handler source in vm/interp.inc, so the identity tests
// above cannot see a change to a handler itself. These digests pin
// what Vm::run observes on every bundled target: the resultKey
// fields, the coverage map and the control-flow trace. They cover
// the paper10 binaries plus one build per sanitizer (whose shadows go
// through the checked memory helpers), every seed and its one-byte
// mutation, and a ladder of instruction budgets, all on one resident
// Vm per (target, config) so that arena reuse is covered too.
//
// Only a change meant to alter VM behaviour may update the constants.
// ------------------------------------------------------------------

std::vector<compiler::CompilerConfig>
goldenConfigs()
{
    auto configs = compiler::standardImplementations();
    configs.push_back({compiler::Vendor::Gcc, compiler::OptLevel::O2,
                       compiler::Sanitizer::ASan});
    configs.push_back({compiler::Vendor::Clang, compiler::OptLevel::O1,
                       compiler::Sanitizer::MSan});
    configs.push_back({compiler::Vendor::Clang, compiler::OptLevel::O2,
                       compiler::Sanitizer::UBSan});
    return configs;
}

std::uint64_t
observationDigest(const targets::TargetProgram &target,
                  vm::DispatchMode mode, bool fused)
{
    static constexpr std::uint64_t kBudgets[] = {
        1, 2, 3, 17, 100, 1000, 2'000'000};
    std::vector<support::Bytes> inputs;
    for (const auto &seed : target.seeds) {
        inputs.push_back(seed);
        if (!seed.empty()) {
            support::Bytes mutated = seed;
            mutated[mutated.size() / 2] ^= 0xFF;
            inputs.push_back(std::move(mutated));
        }
    }
    auto program = minic::parseAndCheck(target.source);
    compiler::Compiler comp(*program);
    support::HashCombiner digest;
    vm::CoverageMap coverage;
    std::vector<vm::TraceEntry> trace;
    for (const auto &config : goldenConfigs()) {
        const auto module = comp.compile(config);
        vm::Vm machine(module, config);
        machine.setDispatchMode(mode);
        if (!fused) {
            machine.setDecodedProgram(
                bytecode::decodeModule(module, {/*fuse=*/false}));
        }
        std::uint64_t nonce = 0;
        for (const auto &input : inputs) {
            for (const std::uint64_t budget : kBudgets) {
                machine.setMaxInstructions(budget);
                coverage.reset();
                trace.clear();
                const auto result =
                    machine.run(input, &coverage, ++nonce, &trace);
                digest.addString(resultKey(result));
                digest.addBytes(coverage.data(), vm::kCoverageMapSize);
                digest.add(trace.size());
                for (const auto &entry : trace) {
                    digest.add(static_cast<std::uint64_t>(entry.func));
                    digest.add(entry.line);
                }
            }
        }
    }
    return digest.digest();
}

TEST(VmGolden, ObservationDigestsMatchRecorded)
{
    const std::pair<const char *, std::uint64_t> kGolden[] = {
        {"pktdump", 0x4a18ed973262e7ddull},
        {"netshark", 0xe61dd26a3c03b121ull},
        {"elfread", 0xebfd3f0e96690c29ull},
        {"objview", 0x14b115c6f08f6925ull},
        {"arczip", 0xf54f01fc0e12447full},
        {"sndconv", 0x7f77be06e524950dull},
        {"imgmeta", 0x6658b26164271d6aull},
        {"pixmagick", 0xe0f6bdc1c727f9ddull},
        {"scriptvm", 0x741d366d8de7aa8eull},
        {"floatpack", 0xdf74ecda5f45c761ull},
        {"jsonq", 0x26b46450dbbedecdull},
        {"phplite", 0xca2bf63f0411d0c4ull},
        {"vidmux", 0x2b97d8a5a49fab37ull},
    };
    ASSERT_EQ(std::size(kGolden), targets::allTargets().size());
    for (const auto &[name, expected] : kGolden) {
        const auto *target = targets::findTarget(name);
        ASSERT_NE(target, nullptr) << name;
        for (const auto &combo : kCombos) {
            const std::uint64_t digest =
                observationDigest(*target, combo.mode, combo.fused);
            EXPECT_EQ(digest, expected)
                << name << " " << combo.name << ": computed digest "
                << format("0x%016llx",
                          static_cast<unsigned long long>(digest));
        }
    }
}

// ------------------------------------------------------------------
// Satellite: identity over generated programs. Unlike the
// well-definedness sweep in test_properties.cc, these programs may
// fault (unguarded division, oversized shifts, wild indices):
// identity is per-configuration, and trap paths are exactly where a
// fused handler could stop one instruction early or late.
// ------------------------------------------------------------------

class RandomizedDispatchIdentity : public testing::TestWithParam<int>
{};

TEST_P(RandomizedDispatchIdentity, AllModesAgree)
{
    const std::string source = testgen::generateProgram(
        0xD15BA7C4ull + static_cast<std::uint64_t>(GetParam()),
        testgen::Mode::MayFault);
    SCOPED_TRACE(source);
    auto program = minic::parseAndCheck(source);
    compiler::Compiler comp(*program);
    for (const auto &config : {kGccO0, kClangO3}) {
        const auto module = comp.compile(config);
        expectDispatchIdentity(module, config, {3, 1, 4},
                               "random/" + config.name());
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, RandomizedDispatchIdentity,
                         testing::Range(0, 40));

// ------------------------------------------------------------------
// Batch and retarget layers: the resident-module API must be
// bit-identical to fresh per-input runs.
// ------------------------------------------------------------------

void
expectSameDiff(const core::DiffResult &a, const core::DiffResult &b,
               const std::string &label)
{
    EXPECT_EQ(a.divergent, b.divergent) << label;
    EXPECT_EQ(a.unresolvedTimeout, b.unresolvedTimeout) << label;
    EXPECT_EQ(a.attempts, b.attempts) << label;
    EXPECT_EQ(a.classCount, b.classCount) << label;
    EXPECT_EQ(a.classOf, b.classOf) << label;
    ASSERT_EQ(a.observations.size(), b.observations.size()) << label;
    for (std::size_t i = 0; i < a.observations.size(); i++) {
        const auto &oa = a.observations[i];
        const auto &ob = b.observations[i];
        EXPECT_EQ(oa.impl, ob.impl) << label;
        EXPECT_EQ(oa.hash, ob.hash) << label;
        EXPECT_EQ(oa.normalizedOutput, ob.normalizedOutput) << label;
        EXPECT_EQ(oa.exitClass, ob.exitClass) << label;
        EXPECT_EQ(oa.timedOut, ob.timedOut) << label;
        EXPECT_EQ(oa.instructions, ob.instructions) << label;
    }
}

std::vector<support::Bytes>
batchInputs(const targets::TargetProgram &target)
{
    std::vector<support::Bytes> inputs = target.seeds;
    const std::size_t base = inputs.size();
    for (std::size_t i = 0; i < base; i++) {
        support::Bytes mutated = inputs[i];
        if (mutated.empty())
            continue;
        mutated[i % mutated.size()] ^= 0x55;
        inputs.push_back(std::move(mutated));
    }
    return inputs;
}

TEST(BatchExecution, RunBatchMatchesSerialRunInput)
{
    const auto &target = *targets::findTarget("pktdump");
    auto program = minic::parseAndCheck(target.source);
    const auto inputs = batchInputs(target);
    std::vector<std::uint64_t> nonce_bases;
    for (std::size_t i = 0; i < inputs.size(); i++)
        nonce_bases.push_back(i * 7 + 1);

    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        core::DiffOptions options;
        options.jobs = jobs;
        core::DiffEngine engine(*program, options);
        const auto batch = engine.runBatch(inputs, nonce_bases);
        ASSERT_EQ(batch.size(), inputs.size());
        for (std::size_t b = 0; b < inputs.size(); b++) {
            const auto serial =
                engine.runInput(inputs[b], nonce_bases[b]);
            expectSameDiff(batch[b], serial,
                           format("jobs=%zu input=%zu", jobs, b));
        }
    }
}

TEST(BatchExecution, RetargetMatchesFreshEngine)
{
    const auto &targets_list = targets::allTargets();
    ASSERT_GE(targets_list.size(), 2u);
    auto first = minic::parseAndCheck(targets_list[0].source);
    auto second = minic::parseAndCheck(targets_list[1].source);

    core::DiffOptions options;
    core::DiffEngine resident(*first, options);
    // Warm the resident executors on the first program, then swing
    // the whole engine — artifacts and executors — to the second.
    (void)resident.runInput(targets_list[0].seeds.front());
    resident.retarget(*second);

    core::DiffEngine fresh(*second, options);
    std::uint64_t nonce = 0;
    for (const auto &seed : targets_list[1].seeds) {
        ++nonce;
        expectSameDiff(resident.runInput(seed, nonce),
                       fresh.runInput(seed, nonce),
                       "retargeted vs fresh");
    }
    // And back again: rebinding must fully restore the first target.
    resident.retarget(*first);
    core::DiffEngine fresh_first(*first, options);
    expectSameDiff(
        resident.runInput(targets_list[0].seeds.front(), 99),
        fresh_first.runInput(targets_list[0].seeds.front(), 99),
        "retargeted back vs fresh");
}

TEST(BatchExecution, FuzzCampaignDiffsMatchFreshRunInput)
{
    // The fuzzer runs its oracle in DiffEngine::runBatch flushes,
    // after later inputs already executed on B_fuzz. Every diff it
    // files must still be exactly what a fresh engine reports for
    // that input under the recorded exec index.
    const auto &target = *targets::findTarget("pktdump");
    auto program = minic::parseAndCheck(target.source);
    fuzz::FuzzOptions options;
    options.maxExecs = 600;
    fuzz::Fuzzer fuzzer(*program, target.seeds, options);
    fuzzer.run();
    ASSERT_FALSE(fuzzer.diffs().empty());

    core::DiffOptions diff_options = options.diffOptions;
    diff_options.limits = options.limits;
    core::DiffEngine fresh(*program, options.diffImpls, diff_options);
    for (const auto &diff : fuzzer.diffs()) {
        expectSameDiff(diff.result,
                       fresh.runInput(diff.input, diff.execIndex),
                       format("exec %llu",
                              static_cast<unsigned long long>(
                                  diff.execIndex)));
    }
}

TEST(BatchExecution, FlushPointsDoNotChangeTheCampaign)
{
    // An always-true iteration hook flushes the oracle queue at every
    // safe point (one seed's worth of inputs at a time); without a
    // hook the queue drains only at plot samples and the end of the
    // run. Where it drains must be invisible in the published state.
    const auto &target = *targets::findTarget("pktdump");
    auto program = minic::parseAndCheck(target.source);

    const auto campaign = [&](bool hooked) {
        fuzz::FuzzOptions options;
        options.maxExecs = 600;
        fuzz::Fuzzer fuzzer(*program, target.seeds, options);
        if (hooked)
            fuzzer.setIterationHook([](const fuzz::Fuzzer &) {
                return true;
            });
        fuzzer.run();
        return std::make_pair(
            fuzzer.plotData().str(),
            session::encodeFuzzerState(fuzzer.captureState()));
    };
    const auto [plain_plot, plain_state] = campaign(false);
    const auto [hooked_plot, hooked_state] = campaign(true);

    EXPECT_EQ(hooked_plot, plain_plot);
    EXPECT_EQ(hooked_state, plain_state);
}

// ------------------------------------------------------------------
// Satellite: operand-stack hardening on malformed modules.
// ------------------------------------------------------------------

bytecode::Module
handModule(std::vector<bytecode::Insn> code)
{
    bytecode::Module module;
    bytecode::Function fn;
    fn.name = "main";
    fn.index = 0;
    fn.code = std::move(code);
    module.functions.push_back(std::move(fn));
    module.mainIndex = 0;
    return module;
}

vm::ExecutionResult
runMalformed(const bytecode::Module &module, vm::DispatchMode mode,
             std::uint64_t budget = 10'000'000)
{
    vm::VmLimits limits;
    limits.maxInstructions = budget;
    vm::Vm machine(module, kGccO0, limits);
    machine.setDispatchMode(mode);
    return machine.run({});
}

class OperandStackHardening
    : public testing::TestWithParam<vm::DispatchMode>
{};

TEST_P(OperandStackHardening, UnderflowTrapsDeterministically)
{
    // A bare binary op on an empty stack: lowered code can never
    // produce this, and the legacy engine's vector::back() was UB.
    const auto module =
        handModule({{bytecode::Op::AddI, 0, 0, 0, 1}});
    const auto result = runMalformed(module, GetParam());
    EXPECT_EQ(result.termination, vm::Termination::Trap);
    EXPECT_EQ(result.trap, vm::TrapKind::OperandStack);
    EXPECT_EQ(result.exitClass(), "crash:stack");
}

TEST_P(OperandStackHardening, DeepUnderflowInRot3)
{
    // Rot3 needs three slots; give it one.
    const auto module =
        handModule({{bytecode::Op::PushI, 0, 0, 7, 1},
                    {bytecode::Op::Rot3, 0, 0, 0, 2}});
    const auto result = runMalformed(module, GetParam());
    EXPECT_EQ(result.trap, vm::TrapKind::OperandStack);
    EXPECT_EQ(result.exitClass(), "crash:stack");
}

TEST_P(OperandStackHardening, UnboundedPushLoopTrapsNotOom)
{
    // An infinite push loop must hit the operand-slot cap and trap
    // long before the instruction budget or host memory does: 2^20
    // (PushI, Jmp) pairs fill the stack, and the next PushI traps.
    const auto module =
        handModule({{bytecode::Op::PushI, 0, 0, 1, 1},
                    {bytecode::Op::Jmp, 0, 0, 0, 1}});
    vm::VmLimits limits;
    limits.maxInstructions = 10'000'000;
    vm::Vm machine(module, kGccO0, limits);
    machine.setDispatchMode(GetParam());
    const auto result = machine.run({});
    EXPECT_EQ(result.termination, vm::Termination::Trap);
    EXPECT_EQ(result.trap, vm::TrapKind::OperandStack);
    EXPECT_EQ(result.exitClass(), "crash:stack");
    EXPECT_EQ(result.instructions, 2'097'153u);
    // The arena keeps the grown stack; a rerun must not notice.
    EXPECT_EQ(resultKey(machine.run({})), resultKey(result));
}

TEST_P(OperandStackHardening, PushLoopBudgetStopsAroundArenaGrowth)
{
    // The operand stack starts with 64 slots; budgets 127-130 stop
    // the push loop just before and just after it first grows.
    const auto module =
        handModule({{bytecode::Op::PushI, 0, 0, 1, 1},
                    {bytecode::Op::Jmp, 0, 0, 0, 1}});
    for (std::uint64_t budget = 127; budget <= 130; budget++) {
        const auto result = runMalformed(module, GetParam(), budget);
        EXPECT_EQ(result.exitClass(), "timeout") << budget;
        EXPECT_EQ(result.instructions, budget + 1) << budget;
    }
}

TEST_P(OperandStackHardening, PcRunawayHitsTrapEndSentinel)
{
    // No Halt/Ret: control falls off the end of the function onto
    // the decoded TrapEnd sentinel instead of running past code.end().
    const auto module =
        handModule({{bytecode::Op::Nop, 0, 0, 0, 1}});
    const auto result = runMalformed(module, GetParam());
    EXPECT_EQ(result.termination, vm::Termination::Trap);
    EXPECT_EQ(result.trap, vm::TrapKind::Segv);
    EXPECT_EQ(result.exitClass(), "crash:segv");
}

TEST_P(OperandStackHardening, MalformedRunsAreRepeatable)
{
    const auto module =
        handModule({{bytecode::Op::PushI, 0, 0, 3, 1},
                    {bytecode::Op::MulI, 0, 0, 0, 2}});
    const auto first = runMalformed(module, GetParam());
    const auto second = runMalformed(module, GetParam());
    EXPECT_EQ(resultKey(first), resultKey(second));
    EXPECT_EQ(first.exitClass(), "crash:stack");
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, OperandStackHardening,
    testing::Values(vm::DispatchMode::Switch,
                    vm::DispatchMode::Threaded),
    [](const testing::TestParamInfo<vm::DispatchMode> &info) {
        return vm::dispatchModeName(info.param);
    });

} // namespace
