#include "fuzz/fuzzer.hh"

#include <algorithm>
#include <stdexcept>

#include "compiler/cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "reduce/oracle.hh"
#include "semdiff/canon.hh"
#include "support/hash.hh"

namespace compdiff::fuzz
{

using support::Bytes;

namespace
{

/** Mutations attempted per selected seed. */
constexpr std::uint32_t kEnergyBase = 16;

/** Plot rows per campaign: one sample every maxExecs / kPlotRows
 *  executions (Fuzzer::plotData()). */
constexpr std::uint64_t kPlotRows = 50;

} // namespace

Fuzzer::Fuzzer(const minic::Program &program,
               std::vector<Bytes> initial_seeds, FuzzOptions options)
    : program_(program), options_(std::move(options)),
      rng_(options_.rngSeed),
      mutator_(rng_.split(), options_.maxInputSize),
      fuzzModule_(
          compiler::compileCached(program, options_.fuzzConfig)),
      fuzzVm_(*fuzzModule_, options_.fuzzConfig, options_.limits),
      canonFingerprint_(semdiff::canonicalize(program).fingerprint)
{
    if (options_.sancheckMode) {
        if (options_.sancheckImpls.empty())
            options_.sancheckImpls =
                sancheck::defaultImplementations();
        sanOracle_ = std::make_unique<sancheck::SanCheckOracle>(
            program_, options_.sancheckImpls, options_.limits);
        // One row per sancheck config: the certifying reference
        // interpreter plus every sanitized implementation.
        perConfigExecs_.assign(options_.sancheckImpls.size() + 1, 0);
    } else if (options_.enableCompDiff) {
        core::DiffOptions diff_options = options_.diffOptions;
        diff_options.limits = options_.limits;
        diff_options.jobs = options_.jobs;
        diffEngine_ = std::make_unique<core::DiffEngine>(
            program_, options_.diffImpls, diff_options);
        perConfigExecs_.assign(diffEngine_->size(), 0);
    }
    if (initial_seeds.empty())
        initial_seeds.push_back({});
    for (auto &seed : initial_seeds) {
        if (seed.size() > options_.maxInputSize)
            seed.resize(options_.maxInputSize);
        corpus_.push_back({std::move(seed), 0, 0, 0});
    }
}

std::size_t
Fuzzer::selectSeed()
{
    // Favor recent discoveries: exponential bias toward the corpus
    // tail (AFL's queue cycling spirit without its bookkeeping).
    if (corpus_.size() == 1 || rng_.chance(1, 3))
        return rng_.index(corpus_.size());
    const std::size_t half = corpus_.size() / 2;
    return half + rng_.index(corpus_.size() - half);
}

std::string
Fuzzer::crashSignatureOf(const vm::ExecutionResult &result)
{
    std::string signature = result.exitClass();
    for (const auto &report : result.sanReports)
        signature += "|" + report.str();
    return signature;
}

void
Fuzzer::executeOne(Bytes input, std::size_t depth)
{
    // --- the plain AFL++ part: run B_fuzz with coverage ---
    coverage_.reset();
    vm::ExecutionResult result;
    {
        obs::Span span("fuzz.execute");
        result = fuzzVm_.run(input, &coverage_, ++nonceCounter_);
    }
    stats_.execs++;

    obs::Span triage_span("fuzz.triage");
    const bool is_crash = result.crashed() || result.sanitizerFired();
    if (is_crash) {
        const std::string signature = crashSignatureOf(result);
        if (!crashSignatures_.count(signature)) {
            crashSignatures_[signature] = crashes_.size();
            crashes_.push_back({input, result.exitClass(),
                                result.sanReports, result.probes,
                                stats_.execs});
            stats_.lastFindExec = stats_.execs;
            obs::counter("fuzz.unique_crashes").add();
        }
    }
    if (virgin_.mergeAndCheckNew(coverage_)) {
        corpus_.push_back({input, coverage_.countBits(),
                           stats_.execs,
                           static_cast<int>(depth) + 1});
        stats_.lastFindExec = stats_.execs;
        static obs::Counter &corpus_adds =
            obs::counter("fuzz.corpus_adds");
        corpus_adds.add();
    }

    // --- the sancheck part (flipped oracle, DESIGN.md §14) ---
    if (sanOracle_) {
        // nonceCounter_ == stats_.execs here: the exec index doubles
        // as the oracle nonce, the same value restoreState() replays
        // the record under.
        runSancheck(input, result.probes, nonceCounter_);
        return;
    }

    // --- the CompDiff part (Algorithm 1, lines 9-12) ---
    if (!diffEngine_)
        return;

    // Queue the k-way oracle round: the queue drains through
    // DiffEngine::runBatch at the next observation point (plot
    // sample, safe point, end of run), implementation-major so each
    // resident binary runs the batch back to back. nonceCounter_ ==
    // stats_.execs here, so the recorded exec index doubles as the
    // oracle nonce base — the same value restoreState() replays the
    // record under.
    PendingDiff pending{std::move(input), nonceCounter_,
                        result.probes};
    if (!options_.divergenceFeedback) {
        pendingDiffs_.push_back(std::move(pending));
        return;
    }
    // NEZHA feedback folds each oracle result back into the corpus,
    // so it cannot wait for an observation point: flush right away,
    // and the partition seed lands right after this execution's
    // coverage seed.
    pending.coverageBits = coverage_.countBits();
    pending.depth = static_cast<int>(depth) + 1;
    pendingDiffs_.push_back(std::move(pending));
    flushDiffBatch();
}

void
Fuzzer::recordDiffOutcome(const Bytes &input, core::DiffResult diff,
                          const std::vector<int> &probes,
                          std::uint64_t exec_index)
{
    // Retries re-ran every implementation; count actual executions
    // so per-config totals stay consistent (RQ6).
    const std::uint64_t rounds =
        diff.attempts > 0 ? static_cast<std::uint64_t>(diff.attempts)
                          : 1;
    stats_.compdiffExecs += rounds * diffEngine_->size();
    for (auto &execs : perConfigExecs_)
        execs += rounds;

    if (!diff.divergent)
        return;
    // Unique by the set of ground-truth probes the input fired (the
    // automatic stand-in for the paper's manual triage); inputs with
    // no probes fall back to the behavior-class partition.
    support::HashCombiner combiner;
    std::vector<int> sorted = probes;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()),
                 sorted.end());
    if (sorted.empty()) {
        for (std::size_t i = 0; i < diff.classOf.size(); i++)
            combiner.add(diff.classOf[i]);
        for (const auto &obs : diff.observations)
            combiner.addString(obs.exitClass);
    } else {
        for (int probe : sorted)
            combiner.add(static_cast<std::uint64_t>(probe));
    }
    const std::uint64_t signature = combiner.digest();
    if (!diffSignatures_.count(signature)) {
        // Tier-2 key: probe-FREE behavior signature, so two
        // probe-distinguished witnesses of the same underlying bug
        // already share a semantic key at fuzz time.
        const std::uint64_t semantic_key = semdiff::semanticKeyOf(
            canonFingerprint_, reduce::divergenceSignature(diff));
        diffSignatures_[signature] = diffs_.size();
        diffs_.push_back({input, std::move(diff), exec_index, probes,
                          signature, semantic_key, {}});
        // max(), not assignment: a flush can record a find after
        // later executions already advanced the clock.
        stats_.lastFindExec =
            std::max(stats_.lastFindExec, exec_index);
        stats_.lastDiffExec =
            std::max(stats_.lastDiffExec, exec_index);
        obs::counter("fuzz.unique_diffs").add();
    }
}

void
Fuzzer::runSancheck(const Bytes &input,
                    const std::vector<int> &probes,
                    std::uint64_t exec_index)
{
    obs::Span span("fuzz.sancheck");
    sancheck::Outcome outcome =
        sanOracle_->runInput(input, exec_index);
    stats_.compdiffExecs +=
        static_cast<std::uint64_t>(perConfigExecs_.size());
    for (auto &execs : perConfigExecs_)
        execs += 1;

    for (sancheck::SanFinding &finding : outcome.findings) {
        const std::uint64_t signature = finding.signatureHash();
        if (diffSignatures_.count(signature))
            continue;
        diffSignatures_[signature] = diffs_.size();
        FoundDiff diff;
        diff.input = input;
        diff.execIndex = exec_index;
        diff.probes = probes;
        diff.signature = signature;
        diff.sanFinding = std::move(finding);
        diffs_.push_back(std::move(diff));
        stats_.lastFindExec =
            std::max(stats_.lastFindExec, exec_index);
        stats_.lastDiffExec =
            std::max(stats_.lastDiffExec, exec_index);
        obs::counter("fuzz.unique_san_findings").add();
    }
}

void
Fuzzer::flushDiffBatch()
{
    if (pendingDiffs_.empty())
        return;
    obs::Span span("fuzz.flushDiffBatch");
    std::vector<Bytes> inputs;
    std::vector<std::uint64_t> nonce_bases;
    inputs.reserve(pendingDiffs_.size());
    nonce_bases.reserve(pendingDiffs_.size());
    for (auto &pending : pendingDiffs_) {
        inputs.push_back(std::move(pending.input));
        nonce_bases.push_back(pending.execIndex);
    }
    auto results = diffEngine_->runBatch(inputs, nonce_bases);
    for (std::size_t i = 0; i < results.size(); i++) {
        const PendingDiff &pending = pendingDiffs_[i];
        // Optional NEZHA-style feedback: a new behavior-class
        // partition is as interesting as new coverage.
        if (options_.divergenceFeedback) {
            support::HashCombiner partition;
            for (std::size_t cls : results[i].classOf)
                partition.add(cls);
            if (partitionsSeen_.insert(partition.digest()).second &&
                partitionsSeen_.size() > 1) {
                corpus_.push_back({inputs[i], pending.coverageBits,
                                   pending.execIndex, pending.depth});
            }
        }
        recordDiffOutcome(inputs[i], std::move(results[i]),
                          pending.probes, pending.execIndex);
    }
    pendingDiffs_.clear();
}

FuzzStats
Fuzzer::run()
{
    obs::Span campaign_span("fuzz.campaign");
    const std::uint64_t plot_every =
        std::max<std::uint64_t>(options_.maxExecs / kPlotRows, 1);
    haltedByHook_ = false;

    // A checkpoint taken at shutdown of a *finished* campaign is the
    // final post-run snapshot: restoring it leaves nothing to do,
    // and re-running the epilogue would duplicate the final plot row.
    if (resumed_ && stats_.execs >= options_.maxExecs)
        return stats_;

    // Every observation point below (safe point, plot sample, end of
    // run) flushes the oracle queue first, so plot rows, checkpoints
    // and final stats count every input executed so far.
    const auto sample_plot = [&] {
        plot_.addRow({stats_.execs, corpus_.size(), crashes_.size(),
                      diffs_.size(), virgin_.edgesSeen(),
                      stats_.compdiffExecs});
    };

    // Dry-run the initial seeds first (AFL++ does the same). A
    // resumed campaign already did this before its first checkpoint:
    // checkpoints happen only at the safe point below, which the
    // dry-run precedes.
    if (!resumed_) {
        nextPlot_ = plot_every;
        const std::size_t initial = corpus_.size();
        for (std::size_t i = 0;
             i < initial && stats_.execs < options_.maxExecs; i++) {
            executeOne(corpus_[i].data, 0);
        }
    }

    while (stats_.execs < options_.maxExecs) {
        // Safe point: the batch flush makes all campaign state
        // consistent here, so the session hook can checkpoint — or
        // halt — between seeds.
        if (hook_) {
            flushDiffBatch();
            if (!hook_(*this)) {
                haltedByHook_ = true;
                break;
            }
        }

        const std::size_t seed_index = selectSeed();
        // Snapshot: corpus_ may grow while we mutate.
        const Bytes parent = corpus_[seed_index].data;
        const int depth = corpus_[seed_index].depth;

        std::vector<Bytes> splice_pool;
        if (corpus_.size() > 1) {
            for (int i = 0; i < 4; i++)
                splice_pool.push_back(
                    corpus_[rng_.index(corpus_.size())].data);
        }

        for (std::uint32_t i = 0;
             i < kEnergyBase && stats_.execs < options_.maxExecs; i++) {
            Bytes child;
            {
                obs::Span span("fuzz.mutate");
                child = mutator_.mutate(parent, splice_pool);
            }
            executeOne(child, static_cast<std::size_t>(depth));
            if (stats_.execs >= nextPlot_) {
                flushDiffBatch();
                sample_plot();
                nextPlot_ += plot_every;
            }
        }
    }

    flushDiffBatch();
    stats_.seeds = corpus_.size();
    stats_.crashes = crashes_.size();
    stats_.diffs = diffs_.size();
    stats_.edges = virgin_.edgesSeen();

    // A halted campaign is abandoned mid-flight: its state was
    // checkpointed at the safe point, and the resumed process will
    // take the final plot sample when the budget is actually
    // exhausted.
    if (!haltedByHook_)
        sample_plot();
    return stats_;
}

obs::FuzzerStatsSnapshot
Fuzzer::statsSnapshot() const
{
    obs::FuzzerStatsSnapshot snapshot;
    snapshot.execsDone = stats_.execs;
    snapshot.compdiffExecs = stats_.compdiffExecs;
    if (sanOracle_) {
        const auto ids = sanOracle_->configIds();
        for (std::size_t i = 0; i < perConfigExecs_.size(); i++) {
            snapshot.perConfigExecs.emplace_back(
                ids[i], perConfigExecs_[i]);
        }
    } else if (diffEngine_) {
        const auto &impls = diffEngine_->implementations();
        for (std::size_t i = 0; i < perConfigExecs_.size(); i++) {
            snapshot.perConfigExecs.emplace_back(
                impls[i]->id(), perConfigExecs_[i]);
        }
    }
    snapshot.corpusSize = corpus_.size();
    snapshot.crashes = crashes_.size();
    snapshot.diffs = diffs_.size();
    snapshot.edges = virgin_.edgesSeen();
    snapshot.lastFindExec = stats_.lastFindExec;
    snapshot.lastDiffExec = stats_.lastDiffExec;
    return snapshot;
}

FuzzerState
Fuzzer::captureState() const
{
    FuzzerState state;
    state.stats = stats_;
    state.nonceCounter = nonceCounter_;
    state.rng = rng_.state();
    state.mutatorRng = mutator_.rngState();
    state.nextPlot = nextPlot_;
    state.corpus = corpus_;
    state.diffs.reserve(diffs_.size());
    for (const auto &diff : diffs_) {
        state.diffs.push_back(
            {diff.input, diff.execIndex, diff.signature,
             diff.probes});
    }
    state.crashes.reserve(crashes_.size());
    for (const auto &crash : crashes_)
        state.crashes.push_back({crash.input, crash.execIndex});
    state.partitionsSeen.assign(partitionsSeen_.begin(),
                                partitionsSeen_.end());
    state.perConfigExecs = perConfigExecs_;
    state.plotRows = plot_.rows();
    state.virginMap = virgin_.snapshotBytes();
    return state;
}

void
Fuzzer::restoreState(const FuzzerState &state)
{
    const std::size_t engine_size =
        sanOracle_ ? options_.sancheckImpls.size() + 1
                   : (diffEngine_ ? diffEngine_->size() : 0);
    if (state.perConfigExecs.size() != engine_size) {
        throw std::runtime_error(
            "fuzzer snapshot does not match campaign: snapshot has " +
            std::to_string(state.perConfigExecs.size()) +
            " differential implementations, campaign has " +
            std::to_string(engine_size));
    }
    if (!virgin_.restoreBytes(state.virginMap)) {
        throw std::runtime_error(
            "fuzzer snapshot does not match campaign: virgin map is " +
            std::to_string(state.virginMap.size()) +
            " bytes, expected " +
            std::to_string(vm::kCoverageMapSize));
    }
    if (!diffEngine_ && !sanOracle_ && !state.diffs.empty()) {
        throw std::runtime_error(
            "fuzzer snapshot does not match campaign: snapshot "
            "carries divergences but the differential oracle is "
            "disabled");
    }

    stats_ = state.stats;
    nonceCounter_ = state.nonceCounter;
    rng_.setState(state.rng);
    mutator_.setRngState(state.mutatorRng);
    nextPlot_ = state.nextPlot;
    corpus_ = state.corpus;
    partitionsSeen_ =
        std::set<std::uint64_t>(state.partitionsSeen.begin(),
                                state.partitionsSeen.end());
    perConfigExecs_ = state.perConfigExecs;
    plot_.setRows(state.plotRows);

    // Re-derive the heavyweight result objects: every execution is a
    // pure function of (binary, input, nonce), so re-running the
    // recorded input under its recorded exec index reproduces the
    // original DiffResult / crash report bit for bit.
    diffs_.clear();
    diffSignatures_.clear();
    for (const auto &record : state.diffs) {
        if (sanOracle_) {
            // Re-classify under the recorded nonce and pick the
            // finding the signature names — bit-exact, because the
            // classification is a pure function of (program, input,
            // nonce).
            sancheck::Outcome outcome =
                sanOracle_->runInput(record.input, record.execIndex);
            FoundDiff diff;
            diff.input = record.input;
            diff.execIndex = record.execIndex;
            diff.probes = record.probes;
            diff.signature = record.signature;
            bool matched = false;
            for (sancheck::SanFinding &finding : outcome.findings) {
                if (finding.signatureHash() == record.signature) {
                    diff.sanFinding = std::move(finding);
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                throw std::runtime_error(
                    "fuzzer snapshot does not match campaign: a "
                    "recorded sancheck finding does not reproduce "
                    "under its recorded nonce");
            }
            diffSignatures_[record.signature] = diffs_.size();
            diffs_.push_back(std::move(diff));
            continue;
        }
        auto diff = diffEngine_->runInput(record.input,
                                          record.execIndex);
        const std::uint64_t semantic_key = semdiff::semanticKeyOf(
            canonFingerprint_, reduce::divergenceSignature(diff));
        diffSignatures_[record.signature] = diffs_.size();
        diffs_.push_back({record.input, std::move(diff),
                          record.execIndex, record.probes,
                          record.signature, semantic_key, {}});
    }
    crashes_.clear();
    crashSignatures_.clear();
    vm::CoverageMap scratch_coverage;
    for (const auto &record : state.crashes) {
        scratch_coverage.reset();
        const auto result = fuzzVm_.run(
            record.input, &scratch_coverage, record.execIndex);
        crashSignatures_[crashSignatureOf(result)] = crashes_.size();
        crashes_.push_back({record.input, result.exitClass(),
                            result.sanReports, result.probes,
                            record.execIndex});
    }
    resumed_ = true;
}

} // namespace compdiff::fuzz
