#pragma once

/**
 * @file
 * AST-to-bytecode lowering (the simulated backend).
 *
 * Lowering is where the per-implementation *codegen* choices take
 * effect: call-argument evaluation order, stack-frame and globals
 * layout (with O0 padding or ASan redzones), shift-count
 * normalization policy, the cur_line() interpretation, and — for
 * sanitizer builds — the inserted UBSan checks.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "bytecode/module.hh"
#include "compiler/config.hh"
#include "minic/ast.hh"

namespace compdiff::compiler
{

/**
 * Fingerprint of the source lines lowering reads: every statement's
 * line, which its instructions carry and gcc's cur_line() returns,
 * and every cur_line() call's own line, which clang's returns.
 * minic::printProgram renumbers lines, so programFingerprint hashes
 * this next to the printed text.
 */
std::uint64_t sourceLineFingerprint(const minic::Program &program);

/**
 * Lowers a set of (already transformed) functions plus the program's
 * globals into a Module.
 */
class Lowering
{
  public:
    /**
     * @param program   The analyzed program (for globals and types).
     * @param config    Configuration being compiled for.
     * @param traits    Pre-derived (possibly overridden) traits.
     */
    Lowering(const minic::Program &program,
             const CompilerConfig &config, const Traits &traits);

    /**
     * Produce the module for the given transformed function clones
     * (one per program function, same order).
     */
    bytecode::Module
    lower(const std::vector<std::unique_ptr<minic::FunctionDecl>>
              &funcs);

  private:
    void layoutGlobals(bytecode::Module &module);
    std::uint32_t internRodata(const std::string &bytes);

    const minic::Program &program_;
    CompilerConfig config_;
    Traits traits_;
    std::vector<std::uint8_t> rodata_;
};

} // namespace compdiff::compiler
