/**
 * @file
 * Hang fast-forward: a run that proves it re-entered an identical
 * state skips whole periods of its cycle (DESIGN.md §13). Skipping
 * must be invisible: every ExecutionResult field, the output bytes
 * across the 1 MiB cap, and the instruction count at the budget stop
 * are what running every period would give.
 *
 * The golden digests below were recorded by running these programs in
 * full, before the fast-forward existed. They cover cycles with and
 * without output, a user call, a long period, memset's instruction
 * charge and time_stamp(); loops that can never be skipped (malloc and
 * free, probe(), a counter that never repeats); budgets that are not a
 * multiple of any period; and the RQ6 retries of a partial timeout.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bytecode/decode.hh"
#include "compdiff/engine.hh"
#include "compiler/compiler.hh"
#include "minic/parser.hh"
#include "obs/metrics.hh"
#include "program_gen.hh"
#include "support/hash.hh"
#include "support/strings.hh"
#include "vm/coverage.hh"
#include "vm/vm.hh"

namespace
{

using namespace compdiff;
using support::format;
using testgen::resultKey;

std::string
readTestData(const std::string &name)
{
    std::ifstream in(std::string(COMPDIFF_TEST_DATA) + "/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

struct HangProgram
{
    const char *name;
    const char *source;
    std::vector<std::uint64_t> budgets;
    std::uint64_t golden;
};

const HangProgram kPrograms[] = {
    // The reducer's typical hung candidate: the increment is gone and
    // read_byte() returns -1 forever once the input runs out.
    {"pure_cycle", R"(
int main() {
    int frames = 0;
    while (frames < 64) {
        int tag = read_byte();
        if (tag == 7) {
            frames = frames + 1;
        }
        print_str(".");
    }
    return frames;
}
)",
     {100'000, 2'000'000, 2'000'003},
     0x3008713ddb890305ull},
    // Eight bytes a period in two appends; crosses the 1 MiB cap.
    {"output_cap", R"(
int main() {
    int v = 1234567;
    while (v > 0) {
        print_int(v);
        print_char(' ');
        v = v | 1;
    }
    return 0;
}
)",
     {2'000'000, 8'000'001},
     0x555f339d135a4f95ull},
    {"user_call", R"(
int step(int s) {
    return (s + 3) & 7;
}

int main() {
    int s = 0;
    int n = 0;
    while (n < 1000) {
        s = step(s);
        if (s == 5) {
            print_char('c');
        }
    }
    return s;
}
)",
     {100'000, 2'000'000, 2'000'003},
     0x3200d5256fd04287ull},
    // A period of 256 iterations.
    {"counter8", R"(
int main() {
    char c = 0;
    int laps = 0;
    while (laps >= 0) {
        c = c + 1;
        if (c == 0) {
            print_char('!');
        }
    }
    return laps;
}
)",
     {100'000, 2'000'000, 2'000'003},
     0x90a898e58e608526ull},
    // memset adds its length to the count inside the period.
    {"memset_cycle", R"(
char buf[32];

int main() {
    int k = 0;
    while (k < 3) {
        memset(buf, k, 32);
        k = (k + 1) & 1;
    }
    return buf[0];
}
)",
     {100'000, 2'000'000, 2'000'003},
     0x15378441899d9c61ull},
    {"time_stamp", R"(
int main() {
    int t = time_stamp() & 255;
    while (t >= 0) {
        print_int(t);
        newline();
        t = (t + 128) & 255;
    }
    return 0;
}
)",
     {100'000, 2'000'000, 2'000'003},
     0xdd14c2fbad0376f9ull},
    // Never skipped: the allocator changes state every period.
    {"malloc_free", R"(
int main() {
    int i = 0;
    while (i < 1000) {
        char *p = malloc(16);
        p[0] = 'm';
        print_char(p[0]);
        free(p);
    }
    return 0;
}
)",
     {100'000, 2'000'003},
     0x9fc2b3c1cedf6499ull},
    // Never skipped: every period fires a probe.
    {"probe_loop", R"(
int main() {
    int i = 0;
    while (i < 1000) {
        probe(3);
    }
    return 0;
}
)",
     {100'000, 2'000'003},
     0x13b54ba11837728bull},
    // Never skipped: no state repeats within the budget.
    {"non_cyclic", R"(
int main() {
    long n = 0;
    while (n >= 0) {
        n = n + 1;
        if ((n & 65535) == 0) {
            print_char('n');
        }
    }
    print_long(n);
    return 0;
}
)",
     {100'000, 2'000'003},
     0xb200255106dda753ull},
};

/** Every dispatch x decode combination. */
const struct
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
 * Digest of every result of `program` over paper10 and its budget
 * ladder, one resident Vm per configuration, no coverage map (the
 * oracle's runs). `keys` receives the result keys in order.
 */
std::uint64_t
hangDigest(const HangProgram &program, vm::DispatchMode mode,
           bool fused, std::vector<std::string> &keys)
{
    auto parsed = minic::parseAndCheck(program.source);
    compiler::Compiler comp(*parsed);
    support::HashCombiner digest;
    const support::Bytes input = {1, 2, 3};
    std::uint64_t nonce = 0;
    for (const auto &config : compiler::standardImplementations()) {
        const auto module = comp.compile(config);
        vm::Vm machine(module, config);
        machine.setDispatchMode(mode);
        if (!fused) {
            machine.setDecodedProgram(
                bytecode::decodeModule(module, {/*fuse=*/false}));
        }
        for (const std::uint64_t budget : program.budgets) {
            machine.setMaxInstructions(budget);
            keys.push_back(resultKey(machine.run(input, nullptr, ++nonce)));
            digest.addString(keys.back());
        }
    }
    return digest.digest();
}

TEST(HangGolden, ResultsMatchRecorded)
{
    for (const auto &program : kPrograms) {
        std::vector<std::string> reference;
        for (const auto &combo : kCombos) {
            std::vector<std::string> keys;
            const std::uint64_t digest =
                hangDigest(program, combo.mode, combo.fused, keys);
            EXPECT_EQ(digest, program.golden)
                << program.name << " " << combo.name
                << ": computed digest "
                << format("0x%016llx",
                          static_cast<unsigned long long>(digest));
            if (reference.empty()) {
                reference = std::move(keys);
            } else {
                EXPECT_TRUE(keys == reference)
                    << program.name << ": " << combo.name
                    << " differs from " << kCombos[0].name;
            }
        }
    }
}

TEST(HangGolden, PartialTimeoutRetriesMatchRecorded)
{
    // Five implementations abort and five hang, so the oracle reruns
    // at 8M, 32M and 128M instructions; the dots fill the output cap.
    const auto program =
        minic::parseAndCheck(readTestData("hang_partial.mc"));
    core::DiffEngine engine(*program);
    const core::DiffResult result = engine.runInput({}, 7);
    EXPECT_EQ(result.attempts, 4);
    EXPECT_TRUE(result.unresolvedTimeout);
    support::HashCombiner digest;
    digest.add(result.divergent);
    digest.add(result.unresolvedTimeout);
    digest.add(static_cast<std::uint64_t>(result.attempts));
    digest.add(result.classCount);
    for (const std::size_t cls : result.classOf)
        digest.add(cls);
    for (const auto &obs : result.observations) {
        digest.addString(obs.impl);
        digest.addString(obs.normalizedOutput);
        digest.addString(obs.exitClass);
        digest.add(obs.hash);
        digest.add(obs.timedOut);
        digest.add(obs.instructions);
    }
    EXPECT_EQ(digest.digest(), 0xb6fbb19342436b8dull)
        << format("computed digest 0x%016llx",
                  static_cast<unsigned long long>(digest.digest()));
    for (const auto &obs : result.observations) {
        if (obs.timedOut) {
            EXPECT_EQ(obs.normalizedOutput.size(), std::size_t{1} << 20)
                << obs.impl;
        }
    }
}

// ------------------------------------------------------------------
// Where the fast-forward runs, and what it reports.
// ------------------------------------------------------------------

const compiler::CompilerConfig kGccO0{compiler::Vendor::Gcc,
                                      compiler::OptLevel::O0,
                                      compiler::Sanitizer::None};

bool
isCyclic(const HangProgram &program)
{
    const std::string name = program.name;
    return name != "malloc_free" && name != "probe_loop" &&
           name != "non_cyclic";
}

TEST(HangFastForward, CyclesAreSkippedAndCounted)
{
    obs::EnabledGuard on(true);
    obs::Counter &skippedCounter =
        obs::counter("vm.skipped_instructions");
    obs::Counter &instructionCounter = obs::counter("vm.instructions");
    for (const auto &program : kPrograms) {
        auto parsed = minic::parseAndCheck(program.source);
        const auto module =
            compiler::Compiler(*parsed).compile(kGccO0);
        // RQ6's second budget: counter8's period spans 256 visits to
        // its loop branch, and the snapshot windows take longer than
        // 2M instructions to grow past that.
        vm::VmLimits limits;
        limits.maxInstructions = 8'000'000;
        vm::Vm machine(module, kGccO0, limits);
        const std::uint64_t skipped0 = skippedCounter.value();
        const std::uint64_t instructions0 = instructionCounter.value();
        const auto result = machine.run({1, 2, 3});
        const std::uint64_t skipped = skippedCounter.value() - skipped0;

        // The budget stop executes for real, at the usual count (one
        // past the budget, or more when a memset charged its length
        // just before), and vm.instructions counts skipped periods.
        EXPECT_TRUE(result.timedOut()) << program.name;
        if (std::string(program.name) != "memset_cycle") {
            EXPECT_EQ(result.instructions,
                      machine.limits().maxInstructions + 1)
                << program.name;
        }
        EXPECT_EQ(instructionCounter.value() - instructions0,
                  result.instructions)
            << program.name;
        if (isCyclic(program)) {
            EXPECT_GT(skipped, 0u) << program.name;
            EXPECT_LT(skipped, result.instructions) << program.name;
        } else {
            EXPECT_EQ(skipped, 0u) << program.name;
        }

        // A coverage map turns the fast-forward off, and nothing else.
        vm::CoverageMap coverage;
        const std::uint64_t skipped1 = skippedCounter.value();
        const auto covered = machine.run({1, 2, 3}, &coverage);
        EXPECT_EQ(skippedCounter.value(), skipped1) << program.name;
        EXPECT_EQ(resultKey(covered), resultKey(result)) << program.name;
    }
}

TEST(HangFastForward, RandomLoopsMatchRunsWithCoverage)
{
    // A coverage map turns the fast-forward off: the covered run is
    // the reference for the same run without one.
    obs::EnabledGuard on(true);
    obs::Counter &skippedCounter =
        obs::counter("vm.skipped_instructions");
    const std::uint64_t skipped0 = skippedCounter.value();
    vm::VmLimits limits;
    limits.maxInstructions = 200'003;
    const compiler::CompilerConfig kClangO2{compiler::Vendor::Clang,
                                            compiler::OptLevel::O2,
                                            compiler::Sanitizer::None};
    // Generated programs that loop in main until a variable meets a
    // random value: most runs cycle, some after a transient, some
    // never, and some exit.
    for (std::uint64_t seed = 1; seed <= 60; seed++) {
        const std::string source = testgen::generateProgram(
            0x4A46ull * seed, testgen::Mode::MayFault,
            testgen::Shape::CyclingLoop);
        auto parsed = minic::parseAndCheck(source);
        compiler::Compiler comp(*parsed);
        for (const auto &config : {kGccO0, kClangO2}) {
            const auto module = comp.compile(config);
            for (const auto mode : {vm::DispatchMode::Switch,
                                    vm::DispatchMode::Threaded}) {
                vm::Vm machine(module, config, limits);
                machine.setDispatchMode(mode);
                const support::Bytes input = {3, 1, 4, 1, 5};
                vm::CoverageMap coverage;
                const auto covered = machine.run(input, &coverage, 9);
                const auto plain = machine.run(input, nullptr, 9);
                EXPECT_EQ(resultKey(plain), resultKey(covered))
                    << config.name() << " "
                    << vm::dispatchModeName(mode) << "\n"
                    << source;
            }
        }
    }
    EXPECT_GT(skippedCounter.value(), skipped0);
}

} // namespace
