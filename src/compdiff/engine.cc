#include "compdiff/engine.hh"

#include <algorithm>
#include <sstream>

#include "compiler/cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/hash.hh"
#include "support/thread_pool.hh"

namespace compdiff::core
{

using support::Bytes;

std::vector<std::uint64_t>
DiffResult::hashVector() const
{
    std::vector<std::uint64_t> hashes;
    hashes.reserve(observations.size());
    for (const auto &obs : observations)
        hashes.push_back(obs.hash);
    return hashes;
}

bool
DiffResult::divergesWithin(const std::vector<std::size_t> &subset) const
{
    if (subset.size() < 2)
        return false;
    const std::uint64_t first = observations[subset[0]].hash;
    for (std::size_t i = 1; i < subset.size(); i++)
        if (observations[subset[i]].hash != first)
            return true;
    return false;
}

std::string
DiffResult::summary(std::size_t max_output_bytes) const
{
    std::ostringstream os;
    os << (divergent ? "DIVERGENT" : "consistent") << " across "
       << observations.size() << " implementations ("
       << classCount << " behavior class"
       << (classCount == 1 ? "" : "es") << ")\n";
    for (std::size_t cls = 0; cls < classCount; cls++) {
        os << "  class " << cls << ":";
        const Observation *sample = nullptr;
        for (std::size_t i = 0; i < observations.size(); i++) {
            if (classOf[i] == cls) {
                os << " " << observations[i].impl;
                sample = &observations[i];
            }
        }
        if (sample) {
            std::string text = sample->normalizedOutput;
            if (text.size() > max_output_bytes) {
                text.resize(max_output_bytes);
                text += "...";
            }
            for (auto &c : text)
                if (c == '\n')
                    c = ' ';
            os << "\n    [" << sample->exitClass << "] \"" << text
               << "\"\n";
        }
    }
    if (obs::metricsEnabled()) {
        // Per-observation telemetry: the instruction count is the
        // deterministic stand-in for per-binary timing.
        os << "  telemetry (instructions per implementation):\n";
        for (const auto &obs_entry : observations) {
            os << "    " << obs_entry.impl << ": "
               << obs_entry.instructions
               << (obs_entry.timedOut ? " (timed out)" : "") << "\n";
        }
        os << "  budget rounds: " << (attempts > 0 ? attempts : 1)
           << (unresolvedTimeout ? " (timeout unresolved)" : "")
           << "\n";
    }
    return os.str();
}

DiffEngine::DiffEngine(const minic::Program &program,
                       DiffOptions options)
    : DiffEngine(program, paper10Implementations(),
                 std::move(options))
{
}

DiffEngine::DiffEngine(const minic::Program &program,
                       std::vector<compiler::CompilerConfig> configs,
                       DiffOptions options)
    : DiffEngine(program, implementationsFor(configs),
                 std::move(options))
{
}

DiffEngine::DiffEngine(const minic::Program &program,
                       ImplementationSet impls, DiffOptions options)
    : impls_(std::move(impls)), options_(std::move(options))
{
    auto artifacts = compileAll(program);
    executors_.reserve(impls_.size());
    for (std::size_t i = 0; i < impls_.size(); i++) {
        executors_.push_back(impls_[i]->makeExecutor(
            std::move(artifacts[i]), options_.limits));
    }
    // runRound hands the pool one task per implementation and runs
    // tasks on the calling thread too, so more than k - 1 workers
    // would only sit idle.
    const std::size_t jobs =
        options_.jobs == 0 ? support::ThreadPool::hardwareWorkers()
                           : options_.jobs;
    const std::size_t workers =
        std::min(jobs, impls_.empty() ? 0 : impls_.size() - 1);
    if (jobs > 1 && workers > 0)
        pool_ = std::make_unique<support::ThreadPool>(workers);
}

DiffEngine::~DiffEngine() = default;

std::vector<std::shared_ptr<const Artifact>>
DiffEngine::compileAll(const minic::Program &program) const
{
    obs::Span span("compdiff.compileAll");
    // One pretty-print fingerprints the program for the whole
    // k-implementation batch; each simulated compile is then a
    // cache lookup.
    CompileContext ctx;
    ctx.programHash = compiler::programFingerprint(program);
    ctx.traitsTweak = options_.traitsTweak;
    std::vector<std::shared_ptr<const Artifact>> artifacts;
    artifacts.reserve(impls_.size());
    for (const auto &impl : impls_)
        artifacts.push_back(impl->compile(program, ctx));
    return artifacts;
}

void
DiffEngine::retarget(const minic::Program &program)
{
    obs::Span span("compdiff.retarget");
    auto artifacts = compileAll(program);
    // Rebind in place to keep each executor's warm state; backends
    // that cannot rebind get a fresh executor.
    for (std::size_t i = 0; i < executors_.size(); i++) {
        if (!executors_[i]->rebind(artifacts[i])) {
            executors_[i] = impls_[i]->makeExecutor(
                std::move(artifacts[i]), options_.limits);
        }
    }
}

void
DiffEngine::runRound(std::span<const Bytes> inputs,
                     std::span<const std::uint64_t> nonce_bases,
                     std::span<DiffResult> results,
                     std::uint64_t budget) const
{
    for (DiffResult &result : results) {
        result.observations.resize(executors_.size());
        result.attempts++;
    }
    // An executor is single-threaded, so implementation i owns
    // column i of the batch and runs its inputs back to back.
    const auto run_impl = [&](std::size_t i) {
        const std::string &id = impls_[i]->id();
        for (std::size_t b = 0; b < inputs.size(); b++) {
            obs::Span exec_span(obs::tracingEnabled() ? "exec." + id
                                                      : std::string());
            const RawObservation raw = executors_[i]->execute(
                inputs[b], nonce_bases[b] * executors_.size() + i + 1,
                budget);
            Observation &out = results[b].observations[i];
            out.impl = id;
            out.timedOut = raw.timedOut;
            out.instructions = raw.instructions;
            out.normalizedOutput =
                options_.normalizer.normalize(raw.output);
            out.exitClass = raw.exitClass;
            support::HashCombiner combiner;
            combiner.addString(out.normalizedOutput);
            combiner.addString(out.exitClass);
            out.hash = combiner.digest();
        }
    };
    if (!pool_) {
        for (std::size_t i = 0; i < executors_.size(); i++)
            run_impl(i);
        return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(executors_.size());
    for (std::size_t i = 0; i < executors_.size(); i++)
        tasks.push_back([&run_impl, i] { run_impl(i); });
    pool_->runAll(std::move(tasks));
}

DiffResult
DiffEngine::runInput(const Bytes &input, std::uint64_t nonce_base) const
{
    obs::Span run_span("compdiff.runInput");
    DiffResult result;
    runRound({&input, 1}, {&nonce_base, 1}, {&result, 1},
             options_.limits.maxInstructions);
    finishInput(result, input, nonce_base);
    return result;
}

std::vector<DiffResult>
DiffEngine::runBatch(const std::vector<Bytes> &inputs,
                     const std::vector<std::uint64_t> &nonce_bases) const
{
    obs::Span run_span("compdiff.runBatch");
    std::vector<DiffResult> results(inputs.size());
    runRound(inputs, nonce_bases, results,
             options_.limits.maxInstructions);
    // RQ6 retries (rare) and classification complete per input.
    for (std::size_t b = 0; b < inputs.size(); b++)
        finishInput(results[b], inputs[b], nonce_bases[b]);
    return results;
}

void
DiffEngine::finishInput(DiffResult &result, const Bytes &input,
                        std::uint64_t nonce_base) const
{
    // result.observations holds the first round; each partial
    // timeout below raises the budget and reruns the whole round.
    std::uint64_t budget = options_.limits.maxInstructions;
    int attempts_left = (options_.retryTimeouts
                             ? options_.timeoutRetries + 1
                             : 1) -
                        1;

    while (true) {
        bool any_timeout = false;
        bool all_timeout = true;
        for (const Observation &obs : result.observations) {
            any_timeout |= obs.timedOut;
            all_timeout &= obs.timedOut;
        }
        if (!any_timeout || all_timeout) {
            result.unresolvedTimeout = false;
            break;
        }
        // Partial timeout: the truncated outputs are not comparable.
        // Raise the budget and try again (RQ6).
        result.unresolvedTimeout = true;
        budget *= options_.timeoutBudgetFactor;
        static obs::Counter &timeout_retries =
            obs::counter("compdiff.timeout_retries");
        timeout_retries.add();
        if (attempts_left-- <= 0)
            break;
        runRound({&input, 1}, {&nonce_base, 1}, {&result, 1}, budget);
    }

    // Assign behavior classes.
    obs::Span compare_span("compdiff.compare");
    result.classOf.assign(impls_.size(), 0);
    std::vector<std::uint64_t> class_hash;
    for (std::size_t i = 0; i < result.observations.size(); i++) {
        const std::uint64_t h = result.observations[i].hash;
        std::size_t cls = class_hash.size();
        for (std::size_t c = 0; c < class_hash.size(); c++) {
            if (class_hash[c] == h) {
                cls = c;
                break;
            }
        }
        if (cls == class_hash.size())
            class_hash.push_back(h);
        result.classOf[i] = cls;
    }
    result.classCount = class_hash.size();
    result.divergent = !result.unresolvedTimeout &&
                       result.classCount > 1;

    if (obs::metricsEnabled()) {
        // Each handle is looked up where its metric is first bumped,
        // so snapshots list only metrics that were.
        static obs::Counter &runs = obs::counter("compdiff.runs");
        static obs::Counter &impl_execs =
            obs::counter("compdiff.impl_execs");
        runs.add();
        impl_execs.add(static_cast<std::uint64_t>(result.attempts) *
                       impls_.size());
        if (result.divergent) {
            static obs::Counter &divergent =
                obs::counter("compdiff.divergent");
            divergent.add();
        }
        if (result.unresolvedTimeout) {
            static obs::Counter &unresolved =
                obs::counter("compdiff.unresolved_timeouts");
            unresolved.add();
        }
        static obs::Histogram &classes_per_run =
            obs::histogram("compdiff.classes_per_run");
        classes_per_run.observe(result.classCount);
    }
}

std::optional<DiffResult>
DiffEngine::findDivergence(const std::vector<Bytes> &inputs) const
{
    std::uint64_t nonce = 0;
    for (const auto &input : inputs) {
        auto result = runInput(input, nonce++);
        if (result.divergent)
            return result;
    }
    return std::nullopt;
}

} // namespace compdiff::core
