/**
 * @file
 * End-to-end tests of the compile+execute pipeline: language
 * semantics that must hold under EVERY compiler configuration.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.hh"
#include "minic/parser.hh"
#include "support/logging.hh"
#include "vm/vm.hh"

namespace
{

using namespace compdiff;
using compiler::CompilerConfig;
using compiler::OptLevel;
using compiler::Vendor;
using vm::ExecutionResult;
using vm::Termination;
using vm::Vm;

ExecutionResult
runWith(std::string_view source, const CompilerConfig &config,
        const support::Bytes &input = {})
{
    auto program = minic::parseAndCheck(source);
    compiler::Compiler comp(*program);
    auto module = comp.compile(config);
    Vm machine(module, config);
    return machine.run(input);
}

/** Run under every standard implementation and require identical
 *  output — the well-defined-program property CompDiff relies on. */
std::string
runAllExpectStable(std::string_view source,
                   const support::Bytes &input = {})
{
    auto program = minic::parseAndCheck(source);
    compiler::Compiler comp(*program);
    std::string first;
    std::string first_name;
    for (const auto &config : compiler::standardImplementations()) {
        auto module = comp.compile(config);
        Vm machine(module, config);
        auto result = machine.run(input);
        EXPECT_EQ(result.termination, Termination::Exit)
            << config.name();
        const std::string key =
            result.output + "|" + result.exitClass();
        if (first_name.empty()) {
            first = key;
            first_name = config.name();
        } else {
            EXPECT_EQ(key, first)
                << "divergence between " << first_name << " and "
                << config.name();
        }
    }
    return first;
}

const CompilerConfig kGccO0{Vendor::Gcc, OptLevel::O0,
                            compiler::Sanitizer::None};
const CompilerConfig kClangO2{Vendor::Clang, OptLevel::O2,
                              compiler::Sanitizer::None};

TEST(VmBasic, ReturnCode)
{
    auto result = runWith("int main() { return 41 + 1; }", kGccO0);
    EXPECT_EQ(result.termination, Termination::Exit);
    EXPECT_EQ(result.exitCode, 42);
}

TEST(VmBasic, PrintBuiltins)
{
    auto result = runWith(R"(
        int main() {
            print_int(-5);
            print_str(" ");
            print_uint(7U);
            print_str(" ");
            print_long(1234567890123L);
            print_char('!');
            newline();
            print_f(1.5);
            return 0;
        }
    )",
                          kGccO0);
    EXPECT_EQ(result.output, "-5 7 1234567890123!\n1.5");
}

TEST(VmBasic, ArithmeticStable)
{
    runAllExpectStable(R"(
        int main() {
            int a = 1000;
            int b = -7;
            print_int(a / b); newline();
            print_int(a % b); newline();
            print_int(a * b); newline();
            uint u = 4000000000U;
            print_uint(u + 1000000000U); newline();
            long big = 123456789L * 100000L;
            print_long(big); newline();
            return 0;
        }
    )");
}

TEST(VmBasic, ControlFlowStable)
{
    const auto out = runAllExpectStable(R"(
        int main() {
            int total = 0;
            for (int i = 0; i < 10; i = i + 1) {
                if (i % 2 == 0) { continue; }
                if (i == 9) { break; }
                total += i;
            }
            int j = 0;
            while (j < 3) { total = total * 2; j = j + 1; }
            print_int(total);
            return 0;
        }
    )");
    // 1+3+5+7 = 16; doubled three times = 128.
    EXPECT_EQ(out, "128|exit:0");
}

TEST(VmBasic, RecursionAndCalls)
{
    auto result = runWith(R"(
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() { print_int(fib(15)); return 0; }
    )",
                          kClangO2);
    EXPECT_EQ(result.output, "610");
}

TEST(VmBasic, PointersAndArraysStable)
{
    const auto out = runAllExpectStable(R"(
        int sum(int *arr, int n) {
            int total = 0;
            for (int i = 0; i < n; i += 1) { total += arr[i]; }
            return total;
        }
        int main() {
            int data[5];
            for (int i = 0; i < 5; i += 1) { data[i] = i * i; }
            int *p = data;
            p[1] = 100;
            *(p + 2) = 50;
            print_int(sum(data, 5)); newline();
            long span = &data[4] - &data[0];
            print_long(span);
            return 0;
        }
    )");
    EXPECT_EQ(out, "175\n4|exit:0");
}

TEST(VmBasic, StructsStable)
{
    const auto out = runAllExpectStable(R"(
        struct packet {
            int kind;
            char name[8];
            long payload;
        };
        void fill(struct packet *p, int kind) {
            p->kind = kind;
            p->payload = (long)kind * 1000L;
            strcpy(p->name, "pkt");
        }
        int main() {
            struct packet p;
            fill(&p, 3);
            print_int(p.kind);
            print_str(p.name);
            print_long(p.payload);
            return 0;
        }
    )");
    EXPECT_EQ(out, "3pkt3000|exit:0");
}

TEST(VmBasic, GlobalsStable)
{
    const auto out = runAllExpectStable(R"(
        int counter = 10;
        char message[16];
        char *greeting = "hi";
        int bump() { counter += 1; return counter; }
        int main() {
            bump(); bump();
            print_int(counter); newline();
            print_str(greeting);
            return 0;
        }
    )");
    EXPECT_EQ(out, "12\nhi|exit:0");
}

TEST(VmBasic, HeapStable)
{
    const auto out = runAllExpectStable(R"(
        int main() {
            char *buf = malloc(32L);
            if (buf == 0) { return 1; }
            memset(buf, 65, 5L);
            buf[5] = 0;
            print_str(buf); newline();
            int *nums = (int *)malloc(40L);
            for (int i = 0; i < 10; i += 1) { nums[i] = i; }
            int total = 0;
            for (int i = 0; i < 10; i += 1) { total += nums[i]; }
            print_int(total);
            free(buf);
            free((char *)nums);
            return 0;
        }
    )");
    EXPECT_EQ(out, "AAAAA\n45|exit:0");
}

TEST(VmBasic, StringBuiltinsStable)
{
    const auto out = runAllExpectStable(R"(
        int main() {
            char buf[32];
            strcpy(buf, "hello");
            print_long(strlen(buf)); newline();
            print_int(strcmp(buf, "hello")); newline();
            print_int(strcmp(buf, "help")); newline();
            memcpy(buf, "HE", 2L);
            print_str(buf);
            return 0;
        }
    )");
    EXPECT_EQ(out, "5\n0\n-1\nHEllo|exit:0");
}

TEST(VmBasic, InputBuiltins)
{
    auto result = runWith(R"(
        int main() {
            print_int(input_size()); newline();
            print_int(input_byte(0)); newline();
            print_int(input_byte(99)); newline();
            int b = read_byte();
            int c = read_byte();
            print_int(b + c);
            return 0;
        }
    )",
                          kGccO0, support::Bytes{10, 20, 30});
    EXPECT_EQ(result.output, "3\n10\n-1\n30");
}

TEST(VmBasic, DivisionByZeroTraps)
{
    auto result = runWith(R"(
        int main() {
            int z = input_size();
            print_int(7 / z);
            return 0;
        }
    )",
                          kGccO0);
    EXPECT_EQ(result.termination, Termination::Trap);
    EXPECT_EQ(result.exitClass(), "crash:fpe");
}

TEST(VmBasic, NullDerefTraps)
{
    auto result = runWith(R"(
        int main() {
            int *p = 0;
            return *p;
        }
    )",
                          kGccO0);
    EXPECT_EQ(result.exitClass(), "crash:segv");
}

TEST(VmBasic, InstructionBudgetIsTimeout)
{
    auto result = runWith(R"(
        int main() {
            int x = 0;
            while (1) { x += 1; }
            return x;
        }
    )",
                          kGccO0);
    EXPECT_TRUE(result.timedOut());
    EXPECT_EQ(result.exitClass(), "timeout");
}

TEST(VmBasic, MemsetAndMemcpyCountOneInstructionPerByte)
{
    // Both builtins bill each byte as one instruction on top of the
    // call; between the two runs only n differs.
    auto program = minic::parseAndCheck(R"(
        int main() {
            char a[200];
            char b[200];
            long n = input_byte(0);
            memset(a, 1, n);
            memcpy(b, a, n);
            return 0;
        }
    )");
    compiler::Compiler comp(*program);
    const auto module = comp.compile(kGccO0);
    for (const auto mode :
         {vm::DispatchMode::Switch, vm::DispatchMode::Threaded}) {
        Vm machine(module, kGccO0);
        machine.setDispatchMode(mode);
        const auto none = machine.run(support::Bytes{0});
        const auto some = machine.run(support::Bytes{150});
        EXPECT_EQ(none.exitClass(), "exit:0");
        EXPECT_EQ(some.exitClass(), "exit:0");
        EXPECT_EQ(some.instructions - none.instructions, 300u)
            << vm::dispatchModeName(mode);
    }
}

TEST(VmBasic, StackOverflowDetected)
{
    auto result = runWith(R"(
        int deep(int n) { return deep(n + 1); }
        int main() { return deep(0); }
    )",
                          kGccO0);
    EXPECT_EQ(result.termination, Termination::StackOverflow);
}

TEST(VmBasic, ExitAndAbort)
{
    auto r1 = runWith("int main() { exit(7); return 0; }", kGccO0);
    EXPECT_EQ(r1.exitCode, 7);
    auto r2 = runWith("int main() { abort(); return 0; }", kGccO0);
    EXPECT_EQ(r2.termination, Termination::RuntimeAbort);
}

TEST(VmBasic, TernaryAndLogicalStable)
{
    const auto out = runAllExpectStable(R"(
        int sideeffect(int *p) { *p += 1; return 1; }
        int main() {
            int calls = 0;
            int v = 0 && sideeffect(&calls);
            int w = 1 || sideeffect(&calls);
            print_int(calls); newline();
            print_int(v + w); newline();
            print_int(5 > 3 ? 10 : 20);
            return 0;
        }
    )");
    EXPECT_EQ(out, "0\n1\n10|exit:0");
}

TEST(VmBasic, CompoundAssignsStable)
{
    const auto out = runAllExpectStable(R"(
        int main() {
            int a = 10;
            a += 5; a -= 3; a *= 2; a /= 4; a %= 5;
            long b = 1L;
            b <<= 10;
            b >>= 2;
            uint c = 0xf0U;
            c &= 0x3cU; c |= 3U; c ^= 1U;
            print_int(a); newline();
            print_long(b); newline();
            print_uint(c);
            return 0;
        }
    )");
    EXPECT_EQ(out, "1\n256\n50|exit:0");
}

TEST(VmBasic, DoubleMathStable)
{
    const auto out = runAllExpectStable(R"(
        int main() {
            double x = 2.0;
            double y = sqrt_f(x * 8.0);
            print_f(y); newline();
            print_f(floor_f(3.7)); newline();
            print_int((int)(y + 0.5));
            return 0;
        }
    )");
    EXPECT_EQ(out, "4\n3\n4|exit:0");
}

TEST(VmBasic, CharSignedness)
{
    auto result = runWith(R"(
        int main() {
            char c = 200;
            print_int(c);
            return 0;
        }
    )",
                          kClangO2);
    EXPECT_EQ(result.output, "-56"); // char is signed 8-bit
}

TEST(VmBasic, MissingMainIsFatal)
{
    auto program = minic::parseAndCheck("int f() { return 0; }");
    compiler::Compiler comp(*program);
    auto module = comp.compile(kGccO0);
    Vm machine(module, kGccO0);
    EXPECT_THROW(machine.run({}), compdiff::support::FatalError);
}

} // namespace
