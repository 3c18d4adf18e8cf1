#include "compiler/compiler.hh"

#include "bytecode/decode.hh"
#include "compiler/lowering.hh"
#include "compiler/passes.hh"
#include "minic/parser.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace compdiff::compiler
{

namespace
{

bytecode::Module
lowerProgram(const minic::Program &program, const CompilerConfig &config,
             const Traits &traits)
{
    // Clone the analyzed AST so UB-exploiting transforms never leak
    // between configurations, then run this configuration's pipeline.
    std::vector<std::unique_ptr<minic::FunctionDecl>> clones;
    clones.reserve(program.functions.size());
    for (const auto &func : program.functions) {
        auto clone = func->clone();
        normalizeBodies(*clone);
        for (const auto &pass : standardPasses()) {
            if (pass->enabledFor(traits))
                pass->run(*clone, traits);
        }
        clones.push_back(std::move(clone));
    }

    Lowering lowering(program, config, traits);
    return lowering.lower(clones);
}

} // namespace

bytecode::Module
Compiler::compile(const CompilerConfig &config) const
{
    return compileWithTraits(config, traitsFor(config));
}

bytecode::Module
Compiler::compileWithTraits(const CompilerConfig &config,
                            const Traits &traits) const
{
    obs::Span span("compile." + config.name());
    obs::counter("compiler.compiles").add();
    bytecode::Module module = lowerProgram(program_, config, traits);
    // Lower once more into threaded-code form so every Vm bound to
    // this module (k-way oracle, batch runs, cache hits) shares one
    // decoded image instead of re-decoding per executor.
    module.decoded = bytecode::decodeModule(module);
    return module;
}

std::vector<std::uint8_t>
Compiler::rodata(const CompilerConfig &config) const
{
    return lowerProgram(program_, config, traitsFor(config)).rodata;
}

bytecode::Module
compileSource(std::string_view source, const CompilerConfig &config)
{
    const auto program = minic::parseAndCheck(source);
    // NOTE: convenience path for short-lived modules only; the Module
    // does not reference the Program after lowering.
    Compiler compiler(*program);
    return compiler.compile(config);
}

} // namespace compdiff::compiler
