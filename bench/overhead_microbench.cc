/**
 * @file
 * Reproduces the paper's Section 5 overhead discussion with
 * google-benchmark: the run-time cost of CompDiff per generated
 * input as a function of the number of compiler implementations
 * (1 = plain fuzzing, 2 = the recommended budget subset, 10 = the
 * full set). The paper reports roughly 10x for the full set and 2x
 * for a two-implementation subset.
 *
 * A second axis measures DiffEngine's thread pool: the same
 * k = 10 oracle with 1/2/4/8 worker threads. On a multicore host the
 * full-set overhead shrinks toward the 2x of the budget subset while
 * producing bit-identical observations; on a single-core host the
 * threads>1 rows only show the pool's dispatch overhead.
 *
 * A third axis measures the batch path: BM_BatchOracle drives
 * DiffEngine::runBatch over a deterministic 64-input batch so the
 * resident executors (decoded module, warm arena) run the whole
 * batch implementation-major — the execution shape of a fuzz
 * campaign's oracle flushes — versus BM_CompDiff's one input per
 * round (runInput, the shape reduction and replay use).
 *
 * Besides the human-readable console table, the binary always emits
 * a machine-readable google-benchmark JSON report (default
 * `BENCH_overhead.json`, override with --benchmark_out=FILE): one
 * entry per (k, jobs) grid point plus one per pipeline phase
 * (parse / compile / execute / oracle), each with `real_time` in
 * nanoseconds and `items_per_second` = fuzz-loop inputs per second.
 * Executing phases additionally report the deterministic work rate:
 * `insns_per_sec` (guest instructions retired per second, summed
 * from the per-observation instruction counters) and, for k-way
 * rows, `oracle_execs_per_sec` (raw per-implementation executions).
 * Inputs/sec answers "how fast is the fuzz loop"; insns/sec
 * separates dispatch overhead from workload size when comparing
 * engines. CI archives the file as a build artifact.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "minic/parser.hh"
#include "targets/targets.hh"
#include "vm/vm.hh"

namespace
{

using namespace compdiff;

const targets::TargetProgram &
pktdumpTarget()
{
    return *targets::findTarget("pktdump");
}

const minic::Program &
targetProgram()
{
    static const auto program =
        minic::parseAndCheck(pktdumpTarget().source);
    return *program;
}

const support::Bytes &
workloadInput()
{
    static const support::Bytes input = {80, 1, 17, 34, 3, 2, 60,
                                         4,  2, 48, 5,  7, 2, 3};
    return input;
}

vm::VmLimits
benchLimits()
{
    vm::VmLimits limits;
    limits.stackSize = 1 << 14;
    limits.heapSize = 1 << 15;
    return limits;
}

/** Phase 1 of the pipeline: parse + semantic analysis. */
void
BM_PhaseParse(benchmark::State &state)
{
    const std::string &source = pktdumpTarget().source;
    for (auto _ : state) {
        auto program = minic::parseAndCheck(source);
        benchmark::DoNotOptimize(program.get());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhaseParse);

/** Phase 2: compilation cost per implementation (one-time,
 *  forkserver-like; caching disabled to measure the compile). */
void
BM_PhaseCompile(benchmark::State &state)
{
    const auto impl = core::makeImplementation("gcc:-O2");
    core::CompileContext ctx;
    ctx.useCache = false; // measure the compile, not the cache hit
    for (auto _ : state) {
        auto artifact = impl->compile(targetProgram(), ctx);
        benchmark::DoNotOptimize(artifact.get());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhaseCompile);

/** Phase 3 baseline: one plain execution per input (the fuzzer
 *  without CompDiff). */
void
BM_PhaseExecute(benchmark::State &state)
{
    const auto impl = core::makeImplementation("clang:-O2");
    const auto limits = benchLimits();
    auto artifact = impl->compile(targetProgram());
    auto executor = impl->makeExecutor(artifact, limits);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        auto raw = executor->execute(workloadInput(), 0,
                                     limits.maxInstructions);
        instructions += raw.instructions;
        benchmark::DoNotOptimize(raw.output.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
    state.counters["insns_per_sec"] = benchmark::Counter(
        static_cast<double>(instructions),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PhaseExecute);

/** Phase 4, the paper's overhead axis: CompDiff with a
 *  k-implementation oracle on `jobs` worker threads. */
void
BM_CompDiff(benchmark::State &state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto jobs = static_cast<std::size_t>(state.range(1));
    core::ImplementationSet subset;
    if (k == 2) {
        // The paper's budget recommendation: different vendors with
        // unoptimizing / aggressively optimizing levels.
        subset = core::parseImplementations("gcc:-O0,clang:-O3");
    } else {
        const auto impls = core::paper10Implementations();
        subset.assign(impls.begin(),
                      impls.begin() + static_cast<long>(k));
    }
    core::DiffOptions options;
    options.limits = benchLimits();
    options.jobs = jobs;
    core::DiffEngine engine(targetProgram(), subset, options);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        auto result = engine.runInput(workloadInput());
        for (const auto &obs : result.observations)
            instructions += obs.instructions;
        benchmark::DoNotOptimize(result.divergent);
    }
    // items_per_second = fuzz-loop inputs/sec; the counters report
    // the raw per-implementation execution rate (k per input) and
    // the guest-instruction rate across all implementations.
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
    state.counters["oracle_execs_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * k),
        benchmark::Counter::kIsRate);
    state.counters["insns_per_sec"] = benchmark::Counter(
        static_cast<double>(instructions),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CompDiff)
    ->ArgNames({"k", "jobs"})
    // Serial sweep over k (the paper's overhead axis)...
    ->Args({2, 1})
    ->Args({5, 1})
    ->Args({10, 1})
    // ...then the thread axis at the full set.
    ->Args({10, 2})
    ->Args({10, 4})
    ->Args({10, 8});

/** Phase 4b, a fuzz campaign's oracle shape: the full k = 10
 *  oracle over a deterministic 64-input batch via
 *  DiffEngine::runBatch, implementation-major across the resident
 *  executors. items_per_second counts batch inputs, directly
 *  comparable to BM_CompDiff's inputs/sec. */
void
BM_BatchOracle(benchmark::State &state)
{
    const auto jobs = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kBatch = 64;
    core::DiffOptions options;
    options.limits = benchLimits();
    options.jobs = jobs;
    core::DiffEngine engine(targetProgram(),
                            core::paper10Implementations(), options);

    // The batch a fuzzer would queue between plot samples: small
    // deterministic variations of the workload input.
    std::vector<support::Bytes> inputs(kBatch, workloadInput());
    std::vector<std::uint64_t> nonce_bases(kBatch);
    for (std::size_t b = 0; b < kBatch; b++) {
        inputs[b][b % inputs[b].size()] ^=
            static_cast<std::uint8_t>(b + 1);
        nonce_bases[b] = b;
    }

    std::uint64_t instructions = 0;
    for (auto _ : state) {
        auto results = engine.runBatch(inputs, nonce_bases);
        for (const auto &result : results)
            for (const auto &obs : result.observations)
                instructions += obs.instructions;
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBatch));
    state.counters["oracle_execs_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kBatch *
                            engine.size()),
        benchmark::Counter::kIsRate);
    state.counters["insns_per_sec"] = benchmark::Counter(
        static_cast<double>(instructions),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchOracle)
    ->ArgNames({"jobs"})
    ->Arg(1)
    ->Arg(4);

} // namespace

/**
 * Custom entry point: like BENCHMARK_MAIN(), but defaults the JSON
 * file report to BENCH_overhead.json so every run leaves a
 * machine-readable artifact without extra flags. Explicit
 * --benchmark_out=/--benchmark_out_format= flags win.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; i++) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
            has_out = true;
    }
    static char out_flag[] = "--benchmark_out=BENCH_overhead.json";
    static char format_flag[] = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag);
        args.push_back(format_flag);
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count,
                                               args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
