#pragma once

/**
 * @file
 * The compiler driver: one analyzed MiniC program, many binaries.
 *
 * Compiler::compile() is the analog of invoking `CC=<vendor>
 * CFLAGS=-<level>` on the target source (paper Section 3.2,
 * "Instrumentation on B_i"): it clones the analyzed AST, runs the
 * configuration's optimization passes, and lowers the result.
 */

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bytecode/module.hh"
#include "compiler/config.hh"
#include "minic/ast.hh"

namespace compdiff::compiler
{

/**
 * Compiles one analyzed Program under any number of configurations.
 * The Program must outlive the Compiler and all produced Modules
 * (interned types are shared).
 */
class Compiler
{
  public:
    explicit Compiler(const minic::Program &program)
        : program_(program)
    {}

    /** Compile under one configuration. */
    bytecode::Module compile(const CompilerConfig &config) const;

    /**
     * Compile with explicitly overridden traits (ablation studies:
     * e.g. the same configuration with one UB-exploiting pass
     * disabled). Note that the VM derives *runtime* traits from the
     * config, so only compile-time knobs are meaningfully
     * overridable here.
     */
    bytecode::Module compileWithTraits(const CompilerConfig &config,
                                       const Traits &traits) const;

    /**
     * The rodata image compile(config) would produce, without the
     * decode and without counting a compile (the canonicalizer checks
     * that its rewrite keeps the string literals' bytes in place).
     */
    std::vector<std::uint8_t> rodata(const CompilerConfig &config) const;

    const minic::Program &program() const { return program_; }

  private:
    const minic::Program &program_;
};

/**
 * Parse + analyze + compile in one step (convenience for tests).
 *
 * @throws support::CompileError on frontend errors.
 */
bytecode::Module compileSource(std::string_view source,
                               const CompilerConfig &config);

} // namespace compdiff::compiler
