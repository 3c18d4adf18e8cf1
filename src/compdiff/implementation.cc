#include "compdiff/implementation.hh"

#include <algorithm>
#include <cctype>
#include <optional>

#include "compiler/cache.hh"
#include "compiler/compiler.hh"
#include "refinterp/refinterp.hh"
#include "support/logging.hh"

namespace compdiff::core
{

namespace
{

// --- the simulated Vendor×OptLevel family --------------------------

struct SimulatedArtifact : Artifact
{
    explicit SimulatedArtifact(
        std::shared_ptr<const bytecode::Module> module)
        : module(std::move(module))
    {
    }

    std::shared_ptr<const bytecode::Module> module;
};

class SimulatedExecutor : public Executor
{
  public:
    SimulatedExecutor(std::shared_ptr<const SimulatedArtifact> art,
                      const compiler::CompilerConfig &config,
                      const vm::VmLimits &limits)
        : artifact_(std::move(art)),
          vm_(*artifact_->module, config, limits)
    {
    }

    RawObservation
    execute(const support::Bytes &input, std::uint64_t nonce,
            std::uint64_t budget) override
    {
        vm_.setMaxInstructions(budget);
        vm::ExecutionResult run =
            vm_.run(input, /*coverage=*/nullptr, nonce);
        RawObservation out;
        out.output = std::move(run.output);
        out.exitClass = run.exitClass();
        out.timedOut = run.timedOut();
        out.instructions = run.instructions;
        return out;
    }

    bool
    rebind(std::shared_ptr<const Artifact> artifact) override
    {
        auto art = std::dynamic_pointer_cast<const SimulatedArtifact>(
            std::move(artifact));
        if (!art)
            return false;
        // Keep the old artifact alive until the Vm points at the new
        // module; the arena (address space, heap, stacks) survives.
        vm_.rebind(*art->module);
        artifact_ = std::move(art);
        return true;
    }

  private:
    std::shared_ptr<const SimulatedArtifact> artifact_;
    vm::Vm vm_;
};

class SimulatedCompilerImpl : public Implementation
{
  public:
    explicit SimulatedCompilerImpl(compiler::CompilerConfig config)
        : config_(config), id_(config.name())
    {
    }

    const std::string &id() const override { return id_; }

    std::string
    describe() const override
    {
        return "simulated " + id_ +
               " (traits-driven lowering on the bytecode VM)";
    }

    std::shared_ptr<const Artifact>
    compile(const minic::Program &program,
            const CompileContext &ctx) const override
    {
        compiler::Traits traits = compiler::traitsFor(config_);
        if (ctx.traitsTweak)
            ctx.traitsTweak(traits);
        std::shared_ptr<const bytecode::Module> module;
        if (ctx.useCache) {
            const std::uint64_t hash =
                ctx.programHash
                    ? ctx.programHash
                    : compiler::programFingerprint(program);
            module = compiler::CompileCache::global().compile(
                program, hash, id_, config_, traits);
        } else {
            module = std::make_shared<const bytecode::Module>(
                compiler::Compiler(program).compileWithTraits(
                    config_, traits));
        }
        return std::make_shared<SimulatedArtifact>(
            std::move(module));
    }

    std::unique_ptr<Executor>
    makeExecutor(std::shared_ptr<const Artifact> artifact,
                 const vm::VmLimits &limits) const override
    {
        auto art =
            std::dynamic_pointer_cast<const SimulatedArtifact>(
                std::move(artifact));
        if (!art)
            support::panic("SimulatedCompilerImpl: foreign artifact");
        return std::make_unique<SimulatedExecutor>(std::move(art),
                                                   config_, limits);
    }

    const compiler::CompilerConfig *
    simulatedConfig() const override
    {
        return &config_;
    }

  private:
    compiler::CompilerConfig config_;
    std::string id_;
};

// --- the reference-interpreter backend -----------------------------

struct RefArtifact : Artifact
{
    explicit RefArtifact(const minic::Program &program)
        : program(&program)
    {
    }

    const minic::Program *program;
};

class RefExecutor : public Executor
{
  public:
    RefExecutor(std::shared_ptr<const RefArtifact> art,
                const vm::VmLimits &limits)
        : artifact_(std::move(art)), limits_(limits)
    {
        interp_.emplace(*artifact_->program, limits_);
    }

    RawObservation
    execute(const support::Bytes &input, std::uint64_t nonce,
            std::uint64_t budget) override
    {
        interp_->setMaxInstructions(budget);
        vm::ExecutionResult run = interp_->run(input, nonce);
        RawObservation out;
        out.output = std::move(run.output);
        out.exitClass = run.exitClass();
        out.timedOut = run.timedOut();
        out.instructions = run.instructions;
        return out;
    }

    bool
    rebind(std::shared_ptr<const Artifact> artifact) override
    {
        auto art = std::dynamic_pointer_cast<const RefArtifact>(
            std::move(artifact));
        if (!art)
            return false;
        // The tree-walker precomputes per-program layout at
        // construction; rebuild it in place for the new AST.
        artifact_ = std::move(art);
        interp_.emplace(*artifact_->program, limits_);
        return true;
    }

  private:
    std::shared_ptr<const RefArtifact> artifact_;
    vm::VmLimits limits_;
    std::optional<refinterp::RefInterpreter> interp_;
};

class RefInterpImpl : public Implementation
{
  public:
    const std::string &
    id() const override
    {
        static const std::string id = "ref";
        return id;
    }

    std::string
    describe() const override
    {
        return "AST tree-walking reference interpreter "
               "(no lowering, no bytecode, no traits)";
    }

    std::shared_ptr<const Artifact>
    compile(const minic::Program &program,
            const CompileContext &) const override
    {
        // Nothing to compile: the AST is the executable. Frame and
        // rodata layouts are precomputed per executor.
        return std::make_shared<RefArtifact>(program);
    }

    std::unique_ptr<Executor>
    makeExecutor(std::shared_ptr<const Artifact> artifact,
                 const vm::VmLimits &limits) const override
    {
        auto art = std::dynamic_pointer_cast<const RefArtifact>(
            std::move(artifact));
        if (!art)
            support::panic("RefInterpImpl: foreign artifact");
        return std::make_unique<RefExecutor>(std::move(art), limits);
    }
};

// --- spec parsing --------------------------------------------------

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const std::size_t at = text.find(sep, start);
        if (at == std::string::npos) {
            parts.push_back(text.substr(start));
            return parts;
        }
        parts.push_back(text.substr(start, at - start));
        start = at + 1;
    }
}

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(
                              static_cast<unsigned char>(text[begin])))
        begin++;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        end--;
    return text.substr(begin, end - begin);
}

compiler::OptLevel
optFromArg(const std::string &family, const std::string &arg)
{
    if (arg == "-O0")
        return compiler::OptLevel::O0;
    if (arg == "-O1")
        return compiler::OptLevel::O1;
    if (arg == "-O2")
        return compiler::OptLevel::O2;
    if (arg == "-O3")
        return compiler::OptLevel::O3;
    if (arg == "-Os")
        return compiler::OptLevel::Os;
    support::fatal("implementation spec '" + family +
                   "': unknown optimization level '" + arg +
                   "' (expected -O0, -O1, -O2, -O3, or -Os)");
}

compiler::Sanitizer
sanitizerFromArg(const std::string &family, const std::string &arg)
{
    if (arg == "asan")
        return compiler::Sanitizer::ASan;
    if (arg == "ubsan")
        return compiler::Sanitizer::UBSan;
    if (arg == "msan")
        return compiler::Sanitizer::MSan;
    support::fatal("implementation spec '" + family +
                   "': unknown sanitizer '" + arg +
                   "' (expected asan, ubsan, or msan)");
}

/** A gcc or clang spec's args: an optimization level and an
 *  optional sanitizer ("gcc:-O2" → {"-O2"}). */
std::shared_ptr<const Implementation>
simulatedFromArgs(compiler::Vendor vendor, const std::string &family,
                  const std::vector<std::string> &args)
{
    if (args.empty() || args.size() > 2) {
        support::fatal("implementation spec '" + family +
                       "' takes an optimization level and an optional "
                       "sanitizer, e.g. '" +
                       family + ":-O2' or '" + family + ":-Os:ubsan'");
    }
    compiler::CompilerConfig config;
    config.vendor = vendor;
    config.opt = optFromArg(family, args[0]);
    config.sanitizer = args.size() == 2
                           ? sanitizerFromArg(family, args[1])
                           : compiler::Sanitizer::None;
    return simulatedImplementation(config);
}

} // namespace

// --- spec parsing --------------------------------------------------

std::shared_ptr<const Implementation>
makeImplementation(const std::string &spec)
{
    const std::string text = trim(spec);
    if (text.empty())
        support::fatal("empty implementation spec");

    const std::vector<std::string> parts = splitOn(text, ':');
    const std::string &family = parts[0];
    const std::vector<std::string> args(parts.begin() + 1, parts.end());
    if (family == "gcc")
        return simulatedFromArgs(compiler::Vendor::Gcc, family, args);
    if (family == "clang")
        return simulatedFromArgs(compiler::Vendor::Clang, family, args);
    if (family == "ref") {
        if (!args.empty())
            support::fatal(
                "implementation spec 'ref' takes no arguments");
        return std::make_shared<RefInterpImpl>();
    }
    // Legacy CompilerConfig::name() forms ("gcc-O2",
    // "clang-O1+asan") keep working for scripts and saved repros.
    if (parts.size() == 1 && text.find('-') != std::string::npos)
        return simulatedImplementation(compiler::configFromName(text));
    support::fatal("unknown implementation family '" + family +
                   "' in spec '" + spec + "' (known: clang, gcc, ref)");
}

ImplementationSet
parseImplementations(const std::string &specs)
{
    ImplementationSet set;
    for (const std::string &raw : splitOn(specs, ',')) {
        const std::string spec = trim(raw);
        if (spec.empty())
            support::fatal("empty implementation spec in '" + specs +
                           "'");
        if (spec == "paper10") {
            ImplementationSet paper = paper10Implementations();
            set.insert(set.end(), paper.begin(), paper.end());
        } else if (spec == "all") {
            ImplementationSet paper = paper10Implementations();
            set.insert(set.end(), paper.begin(), paper.end());
            set.push_back(makeImplementation("ref"));
        } else {
            set.push_back(makeImplementation(spec));
        }
    }
    if (set.empty())
        support::fatal("implementation spec list '" + specs +
                       "' names no implementations");
    return set;
}

// --- convenience constructors --------------------------------------

std::shared_ptr<const Implementation>
simulatedImplementation(const compiler::CompilerConfig &config)
{
    return std::make_shared<SimulatedCompilerImpl>(config);
}

ImplementationSet
implementationsFor(
    const std::vector<compiler::CompilerConfig> &configs)
{
    ImplementationSet set;
    set.reserve(configs.size());
    for (const compiler::CompilerConfig &config : configs)
        set.push_back(simulatedImplementation(config));
    return set;
}

ImplementationSet
paper10Implementations()
{
    return implementationsFor(compiler::standardImplementations());
}

} // namespace compdiff::core
