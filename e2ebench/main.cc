/**
 * @file
 * e2ebench: end-to-end campaign and triage workloads over the public
 * library APIs, one JSON record per line.
 *
 *   e2ebench --workload=campaign|campaign_jobs2|triage --seed=N
 *            --seconds=S --trace=0|1 --work=DIR --out=FILE
 *   e2ebench --isolation-selftest --out=FILE
 *
 * Records: one "host", one "setup" per set-up repetition, one per
 * operation ("campaign", "witness" or "failed") and a closing "end".
 * run.py turns them into the benchmark's metrics; see README.md.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "compdiff/normalizer.hh"
#include "compiler/cache.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/mutator.hh"
#include "minic/parser.hh"
#include "reduce/oracle.hh"
#include "reduce/pipeline.hh"
#include "session/checkpoint.hh"
#include "session/serial.hh"
#include "session/session.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "targets/targets.hh"
#include "vm/coverage.hh"
#include "vm/vm.hh"

#include "isolate.hh"
#include "layers.hh"

namespace
{

using namespace compdiff;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// --- workload constants (see README.md for why) -----------------------

/** Fuzz budget per target and round of the campaign workloads. */
constexpr std::uint64_t kCampaignExecs = 500;
/** Set-up repetitions per run (setup_s is their median): the campaign
 *  set-up is cheap, the triage set-up runs campaigns. */
constexpr int kCampaignSetupReps = 15;
constexpr int kTriageSetupReps = 3;
/** Fuzz budget per target of the triage set-up campaigns. */
constexpr std::uint64_t kTriageCampaignExecs = 300;
/** Campaign seed of the triage set-up (FuzzOptions' default): every
 *  triage run reduces the same witnesses, because the per-witness cost
 *  is heavy-tailed (a few witnesses reach looping candidates and take
 *  ~35x the median) and a seed-dependent draw would make the run's
 *  throughput depend on how many of those it drew. */
constexpr std::uint64_t kTriageCampaignSeed = 0xFA2200D1;
/** Records reduced per target: the first ones each campaign filed.
 *  Six keeps the draw (78 witnesses, two of them reaching looping
 *  candidates) under a minute on a 4-vCPU host. */
constexpr std::size_t kTriageDraw = 6;
/** Reduction candidate budget per witness; large enough to reach the
 *  looping candidates (a budget of 32 does not). */
constexpr std::uint64_t kTriageBudget = 100;
/** Minimum time per replay-estimate measurement. */
constexpr double kReplaySecs = 0.02;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Minimal JSON object writer: one flat object per record. */
class Json
{
  public:
    Json &
    num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return raw(key, buf);
    }
    Json &
    num(const std::string &key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }
    Json &
    flag(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }
    Json &
    str(const std::string &key, const std::string &value)
    {
        std::string quoted = "\"";
        for (unsigned char c : value) {
            if (c == '"' || c == '\\') {
                quoted += '\\';
                quoted += static_cast<char>(c);
            } else if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                quoted += buf;
            } else {
                quoted += static_cast<char>(c);
            }
        }
        return raw(key, quoted + "\"");
    }
    Json &
    raw(const std::string &key, const std::string &value)
    {
        text_ += text_.empty() ? "{" : ",";
        text_ += "\"" + key + "\":" + value;
        return *this;
    }
    std::string done() const { return text_.empty() ? "{}" : text_ + "}"; }

  private:
    std::string text_;
};

std::string
hex64(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work;
    std::string out;
    bool selftest = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> const char * {
            const std::string prefix = std::string(flag) + "=";
            return arg.rfind(prefix, 0) == 0
                       ? argv[i] + prefix.size()
                       : nullptr;
        };
        if (const char *v = value("--workload"))
            args.workload = v;
        else if (const char *v = value("--seed"))
            args.seed = std::stoull(v);
        else if (const char *v = value("--seconds"))
            args.seconds = std::stod(v);
        else if (const char *v = value("--trace"))
            args.trace = std::string(v) == "1";
        else if (const char *v = value("--work"))
            args.work = v;
        else if (const char *v = value("--out"))
            args.out = v;
        else if (arg == "--isolation-selftest")
            args.selftest = true;
        else
            throw std::runtime_error("unknown argument " + arg);
    }
    return args;
}

/** Per-op deltas of the traced layer totals. */
std::string
layerJson(const e2ebench::LayerTotals &a, const e2ebench::LayerTotals &b)
{
    return Json()
        .num("compiles", b.compiles - a.compiles)
        .num("compile_ns", b.compileNs - a.compileNs)
        .num("executors_built", b.executorsBuilt - a.executorsBuilt)
        .num("executor_build_ns", b.executorBuildNs - a.executorBuildNs)
        .num("rebinds", b.rebinds - a.rebinds)
        .num("oracle_execs", b.oracleExecs - a.oracleExecs)
        .num("oracle_exec_ns", b.oracleExecNs - a.oracleExecNs)
        .num("guest_insns", b.guestInsns - a.guestInsns)
        .num("timeouts", b.timeouts - a.timeouts)
        .num("timeout_exec_ns", b.timeoutExecNs - a.timeoutExecNs)
        .num("retry_execs", b.retryExecs - a.retryExecs)
        .num("threads", b.threads)
        .done();
}

struct CacheCounts
{
    std::uint64_t hits, misses, evictions;
};

CacheCounts
cacheCounts()
{
    const auto &cache = compiler::CompileCache::global();
    return {cache.hits(), cache.misses(), cache.evictions()};
}

std::string
cacheJson(const CacheCounts &a, const CacheCounts &b)
{
    return Json()
        .num("hits", b.hits - a.hits)
        .num("misses", b.misses - a.misses)
        .num("evictions", b.evictions - a.evictions)
        .done();
}

/** Time `body` over repeated calls for at least kReplaySecs; returns
 *  nanoseconds per call. */
template <typename Body>
double
nsPerCall(Body body)
{
    std::uint64_t calls = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0;
    do {
        calls += body();
        elapsed = secondsSince(start);
    } while (elapsed < kReplaySecs);
    return calls ? elapsed * 1e9 / static_cast<double>(calls) : 0.0;
}

std::uintmax_t
fileSize(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec);
    return ec ? 0 : size;
}

std::string
readFileOr(const std::string &path, bool *ok)
{
    std::ifstream in(path, std::ios::binary);
    *ok = static_cast<bool>(in);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

bool
isPlanted(const targets::TargetProgram &target,
          const session::DivergenceRecord &record)
{
    for (int probe : record.probes)
        if (target.findBug(probe))
            return true;
    return false;
}

/** Campaign RNG seed of round `round`: the workload seed itself for
 *  round 0, then independent seeds derived from it. */
std::uint64_t
roundSeed(std::uint64_t seed, std::size_t round)
{
    return round == 0 ? seed
                      : support::murmurMix64(
                            seed + 0x9e3779b97f4a7c15ULL * round);
}

class Bench
{
  public:
    explicit Bench(Args args)
        : args_(std::move(args)), targets_(targets::allTargets()),
          out_(args_.out)
    {
        if (!out_)
            throw std::runtime_error("cannot write " + args_.out);
        impls_ = core::paper10Implementations();
        if (args_.trace)
            impls_ = e2ebench::traced(impls_);
    }

    int
    run()
    {
        jobs_ = args_.workload == "campaign_jobs2" ? 2 : 1;
        writeHost();
        fs::create_directories(args_.work);
        if (args_.workload == "campaign" ||
            args_.workload == "campaign_jobs2")
            runCampaigns();
        else if (args_.workload == "triage")
            runTriage();
        else
            throw std::runtime_error("unknown workload " +
                                     args_.workload);
        emit(Json()
                 .str("kind", "end")
                 .num("timed_wall_s", timedWall_)
                 .num("peak_rss_kb",
                      static_cast<std::uint64_t>(e2ebench::peakRssKb()))
                 .done());
        return 0;
    }

  private:
    void
    emit(const std::string &line)
    {
        out_ << line << "\n";
        out_.flush();
    }

    void
    writeHost()
    {
        const char *env = std::getenv("COMPDIFF_DISPATCH");
        emit(Json()
                 .str("kind", "host")
                 .str("workload", args_.workload)
                 .num("seed", args_.seed)
                 .num("seconds", args_.seconds)
                 .flag("trace", args_.trace)
                 .num("nproc", static_cast<std::uint64_t>(
                                   ::sysconf(_SC_NPROCESSORS_ONLN)))
                 .str("dispatch", vm::dispatchModeName(
                                      vm::defaultDispatchMode()))
                 .str("dispatch_env", env ? env : "")
                 .str("build_type", E2EBENCH_BUILD_TYPE)
                 .num("jobs", static_cast<std::uint64_t>(jobs_))
                 // ThreadPool::runAll joins the caller to its workers.
                 .num("threads_configured",
                      static_cast<std::uint64_t>(
                          jobs_ > 1 ? jobs_ + 1 : 1))
                 .num("k", static_cast<std::uint64_t>(impls_.size()))
                 .done());
    }

    fuzz::FuzzOptions
    fuzzOptions() const
    {
        fuzz::FuzzOptions options;
        options.diffImpls = impls_;
        options.jobs = jobs_;
        return options;
    }

    /** Run ops under failure isolation and the time budget; op i of
     *  the first `first_round` always runs. */
    void
    runOps(std::size_t count, std::size_t round_size,
           std::size_t first_round,
           const std::function<std::string(std::size_t)> &op,
           const std::function<std::string(std::size_t)> &describe)
    {
        if (args_.trace)
            e2ebench::setAllocCounting(true);
        const Clock::time_point start = Clock::now();
        const double budget = args_.seconds;
        const auto outcomes = e2ebench::runIsolated(
            count,
            [&](std::size_t i) {
                return args_.trace || i < first_round ||
                       i % round_size != 0 ||
                       secondsSince(start) < budget;
            },
            op);
        timedWall_ = secondsSince(start);
        e2ebench::setAllocCounting(false);
        for (const auto &outcome : outcomes) {
            if (outcome.returned) {
                emit(outcome.line);
                continue;
            }
            emit(Json()
                     .str("kind", "failed")
                     .num("index", static_cast<std::uint64_t>(
                                       outcome.index))
                     .raw("op", describe(outcome.index))
                     .str("error", outcome.line)
                     .done());
        }
    }

    // --- campaign, campaign_jobs2 -------------------------------------

    /** Parse every target and build what its campaign needs before
     *  the first input: B_fuzz + k modules, canonical form, executors
     *  (one Fuzzer construction), from an empty compile cache. */
    void
    campaignSetup()
    {
        for (int rep = 0; rep < kCampaignSetupReps; rep++) {
            compiler::CompileCache::global().clear();
            programs_.emplace_back();
            double parse_s = 0;
            const Clock::time_point start = Clock::now();
            for (const auto &target : targets_) {
                const Clock::time_point parse_start = Clock::now();
                auto program = minic::parseAndCheck(target.source);
                parse_s += secondsSince(parse_start);
                fuzz::FuzzOptions options = fuzzOptions();
                options.jobs = 1; // keep the parent single-threaded
                fuzz::Fuzzer warm(*program, target.seeds, options);
                programs_.back().push_back(std::move(program));
            }
            emit(Json()
                     .str("kind", "setup")
                     .num("rep", static_cast<std::uint64_t>(rep))
                     .num("seconds", secondsSince(start))
                     .num("parse_s", parse_s)
                     .done());
        }
    }

    void
    runCampaigns()
    {
        campaignSetup();
        const std::size_t n = targets_.size();
        // A traced run makes exactly two rounds with the same seeds, so
        // the run itself shows whether the exact counters repeat.
        const std::size_t count = args_.trace ? 2 * n : n * 100000;
        runOps(
            count, n, n,
            [&](std::size_t i) { return campaignOp(i / n, i % n); },
            [&](std::size_t i) {
                return Json()
                    .str("kind", "campaign")
                    .str("target", targets_[i % n].name)
                    .num("round", static_cast<std::uint64_t>(i / n))
                    .done();
            });
    }

    std::string
    campaignOp(std::size_t round, std::size_t t)
    {
        const targets::TargetProgram &target = targets_[t];
        const minic::Program &program = *programs_.back()[t];
        const std::string dir = args_.work + "/c" +
                                std::to_string(round) + "-" +
                                target.name;
        fs::remove_all(dir);

        session::SessionConfig config;
        config.dir = dir;
        config.fuzz = fuzzOptions();
        config.fuzz.maxExecs = kCampaignExecs;
        config.fuzz.rngSeed =
            roundSeed(args_.seed, args_.trace ? 0 : round);
        config.shards = 1;
        config.jobs = jobs_;
        // Heartbeats are display-only and rewritten on a wall-clock
        // cadence; a traced run writes only the forced ones so that its
        // allocation count is a function of the campaign alone.
        if (args_.trace)
            config.heartbeatSecs = 1e9;

        e2ebench::beginThreadCount();
        const e2ebench::LayerTotals layers0 = e2ebench::layerTotals();
        const CacheCounts cache0 = cacheCounts();
        const Clock::time_point start = Clock::now();
        // The session is destroyed inside the timed span: tearing it
        // down is part of the campaign, and executors fold their
        // traced counts into the totals when they die.
        fuzz::FuzzStats stats;
        std::vector<std::uint64_t> sigs;
        std::uint64_t untriaged = 0;
        {
            session::CampaignSession session(program, target.seeds,
                                             config);
            const fuzz::ShardedResult &result = session.run();
            stats = result.total;
            for (const auto &diff : result.diffs)
                sigs.push_back(diff.signature);
            for (const auto &record : session.divergenceRecords())
                if (!isPlanted(target, record))
                    untriaged++;
        }
        const double wall = secondsSince(start);
        const e2ebench::LayerTotals layers1 = e2ebench::layerTotals();
        const CacheCounts cache1 = cacheCounts();

        const Clock::time_point aside = Clock::now();
        std::sort(sigs.begin(), sigs.end());
        support::HashCombiner sig_hash;
        for (std::uint64_t sig : sigs)
            sig_hash.add(sig);
        const std::string journal = dir + "/shard-0.journal";

        Json json;
        json.str("kind", "campaign")
            .str("target", target.name)
            .num("round", static_cast<std::uint64_t>(round))
            .num("seed", config.fuzz.rngSeed)
            .num("wall_s", wall)
            .num("execs", stats.execs)
            .num("oracle_execs", stats.compdiffExecs)
            .num("corpus", static_cast<std::uint64_t>(stats.seeds))
            .num("edges", static_cast<std::uint64_t>(stats.edges))
            .num("diffs", static_cast<std::uint64_t>(sigs.size()))
            .str("sigs", hex64(sig_hash.digest()))
            .num("untriaged", untriaged)
            .num("checkpoints", static_cast<std::uint64_t>(
                                    session::readRecords(journal).size()))
            .num("journal_bytes",
                 static_cast<std::uint64_t>(
                     fileSize(journal) +
                     fileSize(dir + "/shard-0.events.jsonl")));
        if (args_.trace) {
            json.raw("layers", layerJson(layers0, layers1))
                .raw("cache", cacheJson(cache0, cache1))
                .num("allocs", layers1.allocs - layers0.allocs);
            replayEstimates(json, program, journal, config.fuzz);
        }
        fs::remove_all(dir);
        return json.num("aside_s", secondsSince(aside)).done();
    }

    /** Replay estimates for the layers without an injection point:
     *  B_fuzz runs over the final corpus, mutations of it, and the
     *  normalizer over raw outputs sampled by the traced executors. */
    void
    replayEstimates(Json &json, const minic::Program &program,
                    const std::string &journal,
                    const fuzz::FuzzOptions &options)
    {
        const auto last = session::readLastRecord(journal);
        if (!last)
            throw std::runtime_error("empty journal " + journal);
        const fuzz::FuzzerState state =
            session::decodeFuzzerState(*last);
        std::vector<support::Bytes> corpus;
        for (const auto &seed : state.corpus)
            corpus.push_back(seed.data);
        if (corpus.empty())
            corpus.push_back({});

        const auto module =
            compiler::compileCached(program, options.fuzzConfig);
        vm::Vm fuzz_vm(*module, options.fuzzConfig, options.limits);
        vm::CoverageMap coverage;
        std::uint64_t nonce = 0;
        json.num("fuzz_exec_ns", nsPerCall([&] {
                     for (const auto &input : corpus) {
                         coverage.reset();
                         fuzz_vm.run(input, &coverage, ++nonce);
                     }
                     return corpus.size();
                 }));

        fuzz::Mutator mutator(support::Rng(options.rngSeed),
                              options.maxInputSize);
        std::vector<support::Bytes> pool(
            corpus.begin(),
            corpus.begin() + std::min<std::size_t>(4, corpus.size()));
        std::size_t next = 0;
        json.num("mutate_ns", nsPerCall([&] {
                     for (int i = 0; i < 64; i++) {
                         const support::Bytes child = mutator.mutate(
                             corpus[next++ % corpus.size()], pool);
                         (void)child;
                     }
                     return std::size_t{64};
                 }));

        const std::vector<std::string> outputs =
            e2ebench::takeSampledOutputs();
        const core::OutputNormalizer normalizer =
            options.diffOptions.normalizer;
        std::size_t normalized_bytes = 0;
        json.num("normalize_ns",
                 outputs.empty() ? 0.0 : nsPerCall([&] {
                     for (const auto &output : outputs)
                         normalized_bytes +=
                             normalizer.normalize(output).size();
                     return outputs.size();
                 }));
        json.num("normalize_samples",
                 static_cast<std::uint64_t>(outputs.size()))
            .num("normalized_bytes",
                 static_cast<std::uint64_t>(normalized_bytes));
    }

    // --- triage -------------------------------------------------------

    struct Draw
    {
        std::size_t target;
        std::size_t record;
    };

    /** Short seeded campaigns produce each target's divergence
     *  records; repeated kTriageSetupReps times from an empty cache. */
    void
    triageSetup()
    {
        for (int rep = 0; rep < kTriageSetupReps; rep++) {
            compiler::CompileCache::global().clear();
            programs_.emplace_back();
            records_.assign(targets_.size(), {});
            double parse_s = 0;
            support::HashCombiner pool_hash;
            std::uint64_t pool_size = 0;
            const Clock::time_point start = Clock::now();
            for (std::size_t t = 0; t < targets_.size(); t++) {
                const auto &target = targets_[t];
                const Clock::time_point parse_start = Clock::now();
                auto program = minic::parseAndCheck(target.source);
                parse_s += secondsSince(parse_start);
                session::SessionConfig config;
                config.fuzz = fuzzOptions();
                config.fuzz.maxExecs = kTriageCampaignExecs;
                config.fuzz.rngSeed = kTriageCampaignSeed;
                session::CampaignSession session(*program, target.seeds,
                                                 config);
                session.run();
                records_[t] = session.divergenceRecords();
                for (const auto &record : records_[t])
                    pool_hash.add(record.signature);
                pool_size += records_[t].size();
                programs_.back().push_back(std::move(program));
            }
            emit(Json()
                     .str("kind", "setup")
                     .num("rep", static_cast<std::uint64_t>(rep))
                     .num("seconds", secondsSince(start))
                     .num("parse_s", parse_s)
                     .num("pool", pool_size)
                     .str("pool_hash", hex64(pool_hash.digest()))
                     .done());
        }
    }

    void
    runTriage()
    {
        triageSetup();
        // A fixed draw: the first kTriageDraw records of every target.
        // The seed orders the witnesses (which moves compile-cache
        // state, not the work), and every drawn witness is reduced.
        std::vector<Draw> draws;
        for (std::size_t t = 0; t < targets_.size(); t++)
            for (std::size_t j = 0;
                 j < std::min(records_[t].size(), kTriageDraw); j++)
                draws.push_back({t, j});
        support::Rng rng(args_.seed);
        for (std::size_t j = draws.size(); j > 1; j--)
            std::swap(draws[j - 1], draws[rng.index(j)]);

        const auto describe = [&](std::size_t i) {
            return Json()
                .str("kind", "witness")
                .str("target", targets_[draws[i].target].name)
                .num("record", static_cast<std::uint64_t>(draws[i].record))
                .done();
        };
        runOps(
            draws.size(), 1, draws.size(),
            [&](std::size_t i) { return witnessOp(i, draws[i]); },
            describe);
    }

    std::string
    witnessOp(std::size_t index, const Draw &draw)
    {
        const targets::TargetProgram &target = targets_[draw.target];
        const minic::Program &program = *programs_.back()[draw.target];
        const session::DivergenceRecord &record =
            records_[draw.target][draw.record];
        const std::string dir =
            args_.work + "/w" + std::to_string(index);
        fs::remove_all(dir);

        reduce::ReduceOptions options;
        const fuzz::FuzzOptions fuzz_options = fuzzOptions();
        options.diffOptions = fuzz_options.diffOptions;
        options.diffOptions.limits = fuzz_options.limits;
        options.candidateBudget = kTriageBudget;
        options.jobs = 1;
        options.checkSanitizers = true;
        options.reportsDir = dir;

        const e2ebench::LayerTotals layers0 = e2ebench::layerTotals();
        const CacheCounts cache0 = cacheCounts();
        const Clock::time_point start = Clock::now();
        const std::vector<reduce::DivergenceReport> reports =
            reduce::reduceRecords(program, impls_, {record}, options);
        const double wall = secondsSince(start);
        const e2ebench::LayerTotals layers1 = e2ebench::layerTotals();
        const CacheCounts cache1 = cacheCounts();

        const Clock::time_point aside = Clock::now();
        std::uint64_t bundles = 0;
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.is_directory())
                bundles++;
        if (reports.size() != 1)
            throw std::runtime_error("expected one report per witness");
        const reduce::DivergenceReport &report = reports.front();
        const std::string error = replayBundle(dir, report, options);

        Json json;
        json.str("kind", "witness")
            .str("target", target.name)
            .num("record", static_cast<std::uint64_t>(draw.record))
            .num("wall_s", wall)
            .flag("ok", error.empty())
            .str("error", error)
            .flag("reproduced", report.reproduced)
            .num("candidates", report.inputStats.candidatesTried +
                                   report.programStats.candidatesTried)
            .num("accepted", report.inputStats.candidatesAccepted +
                                 report.programStats.candidatesAccepted)
            .num("frontend_rejects", report.programStats.frontendRejected)
            .num("bundles", bundles);
        if (args_.trace)
            json.raw("layers", layerJson(layers0, layers1))
                .raw("cache", cacheJson(cache0, cache1))
                .num("allocs", layers1.allocs - layers0.allocs);
        fs::remove_all(dir);
        return json.num("aside_s", secondsSince(aside)).done();
    }

    /** Re-run the bundle's minimized program and input through a
     *  fresh paper10 DiffEngine; "" when it reproduces the report's
     *  divergence signature. */
    static std::string
    replayBundle(const std::string &dir,
                 const reduce::DivergenceReport &report,
                 const reduce::ReduceOptions &options)
    {
        const std::string bundle =
            dir + "/" + reduce::signatureDirName(report.semanticKey);
        bool have_program = false;
        bool have_input = false;
        const std::string source =
            readFileOr(bundle + "/program.mc", &have_program);
        const std::string input_text =
            readFileOr(bundle + "/input.bin", &have_input);
        if (!have_program || !have_input)
            return "bundle files missing";
        std::unique_ptr<minic::Program> program;
        try {
            program = minic::parseAndCheck(source);
        } catch (const support::CompileError &compile_error) {
            return std::string("bundle program rejected: ") +
                   compile_error.what();
        }
        core::DiffOptions diff_options = options.diffOptions;
        diff_options.jobs = 1;
        core::DiffEngine engine(*program,
                                core::paper10Implementations(),
                                diff_options);
        const core::DiffResult diff = engine.runInput(
            support::Bytes(input_text.begin(), input_text.end()), 0);
        if (!diff.divergent)
            return "bundle does not diverge on replay";
        if (reduce::divergenceSignature(diff) != report.signature)
            return "bundle replays a different divergence signature";
        return "";
    }

    Args args_;
    const std::vector<targets::TargetProgram> &targets_;
    std::ofstream out_;
    core::ImplementationSet impls_;
    std::size_t jobs_ = 1;
    /** Parsed programs, one vector per set-up repetition (all kept
     *  alive; the last repetition's are the ones the ops use). */
    std::vector<std::vector<std::unique_ptr<minic::Program>>> programs_;
    std::vector<std::vector<session::DivergenceRecord>> records_;
    double timedWall_ = 0;
};

/** Three synthetic operations, the middle one aborting: the worker
 *  dies in op 1, op 0 and op 2 still report. */
int
isolationSelftest(const std::string &out_path)
{
    std::ofstream out(out_path);
    const auto outcomes = e2ebench::runIsolated(
        3, [](std::size_t) { return true; },
        [](std::size_t i) -> std::string {
            if (i == 1)
                std::abort();
            return "op" + std::to_string(i);
        });
    for (const auto &outcome : outcomes)
        out << Json()
                   .num("index", static_cast<std::uint64_t>(outcome.index))
                   .flag("returned", outcome.returned)
                   .str("line", outcome.line)
                   .done()
            << "\n";
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        if (args.out.empty())
            throw std::runtime_error("--out=FILE is required");
        if (args.selftest)
            return isolationSelftest(args.out);
        if (args.work.empty())
            throw std::runtime_error("--work=DIR is required");
        support::QuietGuard quiet(true);
        return Bench(args).run();
    } catch (const std::exception &error) {
        std::fprintf(stderr, "e2ebench: %s\n", error.what());
        return 2;
    }
}
