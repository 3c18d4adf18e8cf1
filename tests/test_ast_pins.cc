/**
 * @file
 * Pinned AST-derived values of every bundled program.
 *
 * The compiler passes, the compile-cache key, the semantic
 * canonicalizer and the program reducer all walk the MiniC AST, and
 * their walk order feeds values that outlive one process: cache
 * keys, session MANIFEST fingerprints, canonical names and reduction
 * statistics. This test pins those values for every campaign target,
 * the sanlab program and the semantic-dedup smoke program, plus a
 * digest of the bytecode each standard implementation compiles, so
 * a refactor of any walker that moves one of them fails here.
 *
 * Only a change meant to alter one of these values may update the
 * constants; on failure the computed row is printed ready to paste.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/cache.hh"
#include "compiler/compiler.hh"
#include "compiler/lowering.hh"
#include "minic/parser.hh"
#include "reduce/program_reducer.hh"
#include "sancheck/sancheck.hh"
#include "semdiff/canon.hh"
#include "support/hash.hh"
#include "support/strings.hh"
#include "targets/targets.hh"

namespace
{

using namespace compdiff;
using support::format;

struct Pinned
{
    const char *name;
    std::uint64_t program;   ///< compiler::programFingerprint
    std::uint64_t lines;     ///< compiler::sourceLineFingerprint
    std::uint64_t canonical; ///< semdiff::canonicalize fingerprint
    std::size_t statements;  ///< reduce::countStatements
    std::size_t nodes;       ///< reduce::countAstNodes
    std::uint64_t modules;   ///< bytecode of every standard config
};

/** Digest of every instruction (with its line) and frame layout the
 *  ten standard implementations compile the program to. */
std::uint64_t
modulesDigest(const minic::Program &program)
{
    compiler::Compiler comp(program);
    support::HashCombiner digest;
    for (const auto &config : compiler::standardImplementations()) {
        const auto module = comp.compile(config);
        digest.addString(module.disassemble());
        for (const auto &func : module.functions)
            for (const auto &insn : func.code)
                digest.add(insn.line);
    }
    return digest.digest();
}

std::string
readTestData(const std::string &name)
{
    std::ifstream in(std::string(COMPDIFF_TEST_DATA) + "/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(AstPins, FingerprintsAndCountsMatchRecorded)
{
    const Pinned kPinned[] = {
        {"pktdump", 0x6613bd196bf3d0ccull,
         0x77c90c50f7bc0bf2ull,
         0x819054cf1eb037f9ull, 99, 389,
         0xd4eb1675e2aebb63ull},
        {"netshark", 0x460d483d6528deafull,
         0xbfab6598286c1456ull,
         0x0a0a579e8cac5e01ull, 90, 317,
         0xfebe74fd9671c4eeull},
        {"elfread", 0xce59cff628a443aaull,
         0x401e21ddaf555fb4ull,
         0xa1beeec626becb43ull, 99, 347,
         0x91d064fdd6899660ull},
        {"objview", 0x5b3df8181575a6eaull,
         0xc410797daa762e94ull,
         0xd9aedb74f5b3e7b5ull, 80, 269,
         0x1f5815255ab8d34cull},
        {"arczip", 0x10c3a57350e23053ull,
         0x1230eb5dd6031d20ull,
         0x12f4cbf0691505adull, 97, 347,
         0x646025c8f4b58274ull},
        {"sndconv", 0x9f150f889aaa2422ull,
         0x5499a9cf96dc2f62ull,
         0x2df4e40070e031b4ull, 115, 423,
         0x66123b038c1caabcull},
        {"imgmeta", 0x2b1883b61a462731ull,
         0xff6257bbddd7a999ull,
         0x0381382124fe863dull, 154, 571,
         0xf1e6725a7ff04816ull},
        {"pixmagick", 0x1115955772537e10ull,
         0xea459f60e068bbfdull,
         0xaa3634095989bcb5ull, 99, 345,
         0xd689c09371745f32ull},
        {"scriptvm", 0x0b16cd17a7642859ull,
         0x4b1d959280b7d157ull,
         0xe96e275010591a8full, 100, 367,
         0x7271430b3d52f2c9ull},
        {"floatpack", 0x4dda188fabfa4d3eull,
         0x89a57d4313a5f1ecull,
         0xfb26d603cf9077cbull, 65, 226,
         0xd12e9d8f85176cb0ull},
        {"jsonq", 0x9b3c9fe71fbba35dull,
         0x6711f1c4a1e19125ull,
         0x90809e074b4aa52aull, 134, 481,
         0xfe669f308c3f498full},
        {"phplite", 0x7f9760b65f31278bull,
         0x2eadbd52fb6bb7d7ull,
         0x1dd14936ed4c5023ull, 189, 670,
         0xa8161ec6cf254c88ull},
        {"vidmux", 0x19eba3f7a26c4315ull,
         0x2b9cb8e780688a59ull,
         0xd31770ffa602b9a6ull, 76, 255,
         0x32279af9f31ec3d4ull},
        {"sanlab", 0x51f89f1aa644dbdaull,
         0x1faab8df3e518c66ull,
         0xc685c9a8c1a86a51ull, 74, 252,
         0x3e975054c2fa9511ull},
        {"semdedup_smoke", 0xbc0aff234d7076b8ull,
         0x2878cc9637a2addeull,
         0x44f657994287f857ull, 15, 54,
         0x037256df21ecdd86ull},
    };

    std::vector<std::pair<std::string, std::string>> programs;
    for (const auto &target : targets::allTargets())
        programs.emplace_back(target.name, target.source);
    programs.emplace_back("sanlab", sancheck::sanlabSource());
    programs.emplace_back("semdedup_smoke",
                          readTestData("semdedup_smoke.mc"));
    ASSERT_FALSE(programs.back().second.empty());
    ASSERT_EQ(std::size(kPinned), programs.size());

    for (std::size_t i = 0; i < programs.size(); i++) {
        const auto &[name, source] = programs[i];
        const Pinned &expected = kPinned[i];
        ASSERT_EQ(name, expected.name);
        const auto program = minic::parseAndCheck(source);
        const Pinned computed = {
            expected.name,
            compiler::programFingerprint(*program),
            compiler::sourceLineFingerprint(*program),
            semdiff::canonicalize(*program).fingerprint,
            reduce::countStatements(*program),
            reduce::countAstNodes(*program),
            modulesDigest(*program),
        };
        const auto hex = [](std::uint64_t v) {
            return format("0x%016llxull",
                          static_cast<unsigned long long>(v));
        };
        const std::string row = format(
            "{\"%s\", %s, %s, %s, %zu, %zu, %s},", computed.name,
            hex(computed.program).c_str(), hex(computed.lines).c_str(),
            hex(computed.canonical).c_str(), computed.statements,
            computed.nodes, hex(computed.modules).c_str());
        EXPECT_EQ(computed.program, expected.program) << row;
        EXPECT_EQ(computed.lines, expected.lines) << row;
        EXPECT_EQ(computed.canonical, expected.canonical) << row;
        EXPECT_EQ(computed.statements, expected.statements) << row;
        EXPECT_EQ(computed.nodes, expected.nodes) << row;
        EXPECT_EQ(computed.modules, expected.modules) << row;
    }
}

} // namespace
