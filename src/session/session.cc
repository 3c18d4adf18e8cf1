#include "session/session.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include <unistd.h> // getpid for heartbeats

#include "compiler/cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "reduce/pipeline.hh"
#include "session/checkpoint.hh"
#include "session/heartbeat.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace compdiff::session
{

using support::Bytes;

namespace
{

constexpr std::uint32_t kSessionFormatVersion = 1;

/** The signature a `reduced` ops event names. */
std::uint64_t
reportSignature(const reduce::DivergenceReport &report)
{
    return report.signature;
}

std::uint64_t
reportSignature(const sancheck::FindingReport &report)
{
    return report.finding.signatureHash();
}

// --- shard event derivation -------------------------------------
//
// Campaign events are a pure projection of the fuzzer's corpus/
// diffs/crashes vectors onto the exec-index axis: no wall clock, no
// pid, nothing process-local. That is what makes the per-shard event
// journal replayable — a resumed fuzzer re-derives the identical
// vectors, so re-deriving events from them reproduces the identical
// byte stream.

obs::CampaignEvent
discoveryEvent(const fuzz::Seed &seed)
{
    obs::CampaignEvent event("discovery", seed.foundAtExec);
    event.num("size", seed.data.size())
        .num("cov", seed.coverageBits)
        .num("depth", static_cast<std::uint64_t>(seed.depth));
    return event;
}

obs::CampaignEvent
divergenceEvent(const fuzz::FoundDiff &diff)
{
    obs::CampaignEvent event("divergence", diff.execIndex);
    event.hex("signature", diff.signature)
        .hex("sem", diff.semanticKey)
        .num("size", diff.input.size())
        .num("probes", diff.probes.size());
    return event;
}

obs::CampaignEvent
sanFindingEvent(const fuzz::FoundDiff &diff)
{
    const sancheck::SanFinding &finding = diff.sanFinding;
    obs::CampaignEvent event("san_finding", diff.execIndex);
    event.hex("signature", diff.signature)
        .text("impl", finding.implId)
        .text("ub", refinterp::ubKindName(finding.ubKind))
        .text("class", sancheck::findingKindName(finding.kind))
        .num("size", diff.input.size());
    return event;
}

obs::CampaignEvent
crashEvent(const fuzz::FoundCrash &crash)
{
    obs::CampaignEvent event("crash", crash.execIndex);
    event.text("exit", crash.exitClass)
        .num("size", crash.input.size());
    return event;
}

/**
 * Order a batch the way the fuzz loop discovers things within one
 * execution: crash, then coverage discovery, then divergence (the
 * push order inside Fuzzer::executeOne). With this tiebreak, sorting
 * each incremental safe-point batch yields the same stream as
 * sorting a full derivation — exec indices only grow between safe
 * points, so batches never interleave.
 */
int
eventKindRank(const std::string &kind)
{
    if (kind == "crash")
        return 0;
    if (kind == "discovery")
        return 1;
    return 2;
}

void
sortEventBatch(std::vector<obs::CampaignEvent> &events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const obs::CampaignEvent &a,
                        const obs::CampaignEvent &b) {
                         if (a.exec != b.exec)
                             return a.exec < b.exec;
                         return eventKindRank(a.kind) <
                                eventKindRank(b.kind);
                     });
}

} // namespace

CampaignSession::CampaignSession(const minic::Program &program,
                                 std::vector<Bytes> seeds,
                                 SessionConfig config)
    : program_(program), seeds_(std::move(seeds)),
      config_(std::move(config))
{
    // Resolve the default sanitizer set up front so the campaign
    // fingerprint and the MANIFEST record the concrete
    // implementation ids rather than "empty means defaults".
    if (config_.fuzz.sancheckMode &&
        config_.fuzz.sancheckImpls.empty()) {
        config_.fuzz.sancheckImpls =
            sancheck::defaultImplementations();
    }
}

CampaignSession::~CampaignSession() = default;

void
CampaignSession::resolveOwnedShards()
{
    owned_.clear();
    if (config_.workerShards.empty()) {
        for (std::size_t s = 0; s < plans_.size(); s++)
            owned_.push_back(s);
        return;
    }
    if (!persistent()) {
        throw SessionError(
            "fleet worker mode requires a session directory");
    }
    bool first = true;
    std::size_t prev = 0;
    for (const std::size_t s : config_.workerShards) {
        if (s >= plans_.size()) {
            throw SessionError(
                "worker shard " + std::to_string(s) +
                " is out of range: the campaign has " +
                std::to_string(plans_.size()) + " shards");
        }
        if (!first && s <= prev) {
            throw SessionError("worker shard list must be strictly "
                               "increasing");
        }
        first = false;
        prev = s;
        owned_.push_back(s);
    }
}

std::string
CampaignSession::shardJournalPath(std::size_t shard) const
{
    return config_.dir + "/shard-" + std::to_string(shard) +
           ".journal";
}

std::string
CampaignSession::shardEventsPath(std::size_t shard) const
{
    return config_.dir + "/shard-" + std::to_string(shard) +
           ".events.jsonl";
}

std::uint64_t
CampaignSession::checkpointCadence(
    const fuzz::FuzzOptions &shard_options) const
{
    if (config_.checkpointEvery)
        return config_.checkpointEvery;
    return std::max<std::uint64_t>(shard_options.maxExecs / 20, 1);
}

std::uint64_t
CampaignSession::campaignFingerprint() const
{
    // Everything that defines the campaign's results. `jobs` and the
    // telemetry paths are deliberately absent (result-neutral), as
    // are the two non-hashable knobs: the output normalizer and the
    // traitsTweak ablation hook — resuming with a different one of
    // those is on the caller.
    const fuzz::FuzzOptions &o = config_.fuzz;
    support::HashCombiner h;
    h.add(compiler::programFingerprint(program_));
    h.add(o.maxExecs);
    h.add(o.rngSeed);
    h.add(o.maxInputSize);
    // Fixed values that every fingerprint has always covered, kept in
    // place so existing sessions still resume: the fuzzer's energy
    // (16 mutations per seed) and plot interval (0 = maxExecs / 50).
    h.add(16);
    h.add(0);
    h.addString(o.fuzzConfig.name());
    h.add(o.enableCompDiff ? 1 : 0);
    h.add(o.divergenceFeedback ? 1 : 0);
    for (const auto &impl : o.diffImpls)
        h.addString(impl->id());
    h.add(o.sancheckMode ? 1 : 0);
    for (const auto &impl : o.sancheckImpls)
        h.addString(impl->id());
    h.add(o.limits.maxInstructions);
    h.add(o.limits.stackSize);
    h.add(o.limits.heapSize);
    h.add(o.limits.maxOutput);
    h.add(o.limits.maxCallDepth);
    h.add(o.diffOptions.retryTimeouts ? 1 : 0);
    // Likewise the engine's 3 timeout retries, each at 4x the budget.
    h.add(3);
    h.add(4);
    h.add(std::max<std::size_t>(config_.shards, 1));
    h.add(seeds_.size());
    for (const auto &seed : seeds_)
        h.add(support::murmurHash64(seed));
    return h.digest();
}

std::string
CampaignSession::renderManifest() const
{
    std::ostringstream os;
    os << "format_version : " << kSessionFormatVersion << "\n";
    os << "fingerprint : " << obs::hex16(campaignFingerprint())
       << "\n";
    os << "shards : " << std::max<std::size_t>(config_.shards, 1)
       << "\n";
    os << "max_execs : " << config_.fuzz.maxExecs << "\n";
    os << "rng_seed : " << config_.fuzz.rngSeed << "\n";
    std::string impls;
    for (const auto &impl : config_.fuzz.diffImpls) {
        if (!impls.empty())
            impls += ",";
        impls += impl->id();
    }
    os << "impls : " << impls << "\n";
    // Only sancheck sessions carry the mode lines: every manifest a
    // differential campaign ever wrote stays byte-identical.
    if (config_.fuzz.sancheckMode) {
        os << "mode : sancheck\n";
        std::string san;
        for (const auto &impl : config_.fuzz.sancheckImpls) {
            if (!san.empty())
                san += ",";
            san += impl->id();
        }
        os << "sancheck_impls : " << san << "\n";
    }
    return os.str();
}

void
CampaignSession::validateManifest(const std::string &text) const
{
    const auto kv = obs::parseFuzzerStats(text);
    const auto field =
        [&](const std::string &key) -> const std::string & {
        const auto it = kv.find(key);
        if (it == kv.end()) {
            throw SessionError("session manifest in " + config_.dir +
                               " is missing the '" + key +
                               "' field; the directory does not "
                               "hold a valid session");
        }
        return it->second;
    };
    const std::string &version = field("format_version");
    if (version != std::to_string(kSessionFormatVersion)) {
        throw SessionError(
            "session in " + config_.dir + " has format version " +
            version + "; this build reads version " +
            std::to_string(kSessionFormatVersion));
    }
    const auto expect = [&](const std::string &key,
                            const std::string &want) {
        const std::string &got = field(key);
        if (got != want) {
            throw SessionError(
                "cannot resume session in " + config_.dir + ": its " +
                key + " is " + got + " but this campaign's is " +
                want + " — a session must be resumed with the exact "
                       "campaign configuration it was started with");
        }
    };
    expect("shards",
           std::to_string(std::max<std::size_t>(config_.shards, 1)));
    expect("max_execs", std::to_string(config_.fuzz.maxExecs));
    expect("rng_seed", std::to_string(config_.fuzz.rngSeed));
    expect("fingerprint", obs::hex16(campaignFingerprint()));
}

void
CampaignSession::openDir(
    std::vector<std::unique_ptr<fuzz::FuzzerState>> &restored)
{
    if (!persistent()) {
        if (config_.resume) {
            throw SessionError(
                "cannot resume without a session directory");
        }
        return;
    }
    const std::string manifest_path = config_.dir + "/MANIFEST";
    if (workerMode()) {
        // Attach semantics: the fleet coordinator creates the
        // directory (initializeDir) before any worker spawns, so a
        // missing manifest is a protocol error, not a fresh start.
        // Owned shards restore from their journals when checkpoints
        // exist — a revived worker continues bit-exactly — and the
        // session-level bookkeeping (restart counters, final
        // artifacts) stays with the coordinator.
        const auto text = readTextFile(manifest_path);
        if (!text) {
            throw SessionError(
                "no session manifest at " + manifest_path +
                "; the fleet coordinator must initialize the "
                "session before workers attach");
        }
        validateManifest(*text);
        std::size_t resumed_shards = 0;
        for (std::size_t i = 0; i < owned_.size(); i++) {
            const std::size_t s = owned_[i];
            const std::string path = shardJournalPath(s);
            if (!std::filesystem::exists(path)) {
                createJournal(path);
                continue;
            }
            const auto payload = readLastRecord(path);
            if (!payload) {
                compactJournal(path);
                continue;
            }
            restored[i] = std::make_unique<fuzz::FuzzerState>(
                decodeFuzzerState(*payload));
            compactJournal(path);
            resumed_shards++;
        }
        obs::CampaignEvent opened("worker_open", 0);
        opened.num("pid", static_cast<std::uint64_t>(::getpid()))
            .num("shards", owned_.size())
            .num("resumed", resumed_shards);
        appendOpsEvent(std::move(opened));
        return;
    }
    if (config_.resume) {
        const auto text = readTextFile(manifest_path);
        if (!text) {
            throw SessionError(
                "no session manifest at " + manifest_path +
                "; nothing to resume (start without resume to "
                "create a new session)");
        }
        validateManifest(*text);
        if (const auto stats_text =
                readTextFile(config_.dir + "/session_stats")) {
            const auto kv = obs::parseFuzzerStats(*stats_text);
            if (const auto it = kv.find("run_secs");
                it != kv.end()) {
                savedRunSecs_ =
                    std::strtod(it->second.c_str(), nullptr);
            }
            if (const auto it = kv.find("restarts"); it != kv.end()) {
                restarts_ = std::strtoull(it->second.c_str(),
                                          nullptr, 10);
            }
        }
        restarts_++;
        for (std::size_t s = 0; s < plans_.size(); s++) {
            const std::string path = shardJournalPath(s);
            if (!std::filesystem::exists(path)) {
                support::warn("session: " + path +
                              " is missing; shard " +
                              std::to_string(s) +
                              " restarts from scratch");
                createJournal(path);
                continue;
            }
            const auto payload = readLastRecord(path);
            if (!payload) {
                support::warn(
                    "session: " + path +
                    " holds no complete checkpoint; shard " +
                    std::to_string(s) + " restarts from scratch");
                compactJournal(path);
                continue;
            }
            restored[s] = std::make_unique<fuzz::FuzzerState>(
                decodeFuzzerState(*payload));
            // Bound journal growth: history before the checkpoint
            // we restored from is dead weight.
            compactJournal(path);
        }
    } else {
        if (readTextFile(manifest_path)) {
            throw SessionError(
                config_.dir +
                " already contains a campaign session; resume it, "
                "or choose a fresh directory");
        }
        std::error_code ec;
        std::filesystem::create_directories(config_.dir, ec);
        atomicWriteFile(manifest_path, renderManifest());
        for (std::size_t s = 0; s < plans_.size(); s++)
            createJournal(shardJournalPath(s));
    }
    // Persist the restart count up front: a hard kill mid-run must
    // not forget that this incarnation happened. (Wall-clock since
    // this point is lost on a hard kill — display-only data.)
    writeSessionStats(config_.dir, savedRunSecs_, restarts_);
    // Ops log: process history, append-only across restarts — this
    // stream records what *happened to the session* (restarts,
    // checkpoints, cache traffic) and is deliberately not part of
    // the replay-invariant surface.
    obs::CampaignEvent opened("session_open", 0);
    opened.num("restarts", restarts_)
        .num("resumed", config_.resume ? 1 : 0)
        .num("shards", plans_.size());
    appendOpsEvent(std::move(opened));
}

void
CampaignSession::initializeDir()
{
    if (!persistent()) {
        throw SessionError(
            "cannot initialize a session without a directory");
    }
    plans_ = fuzz::planShards(config_.fuzz, seeds_, config_.shards);
    const std::string manifest_path = config_.dir + "/MANIFEST";
    if (const auto text = readTextFile(manifest_path)) {
        // Idempotent attach: a coordinator restart (or an elastic
        // late joiner) finds its own campaign and proceeds; a
        // different campaign is refused loudly.
        validateManifest(*text);
    } else {
        std::error_code ec;
        std::filesystem::create_directories(config_.dir, ec);
        atomicWriteFile(manifest_path, renderManifest());
    }
    for (std::size_t s = 0; s < plans_.size(); s++) {
        if (!std::filesystem::exists(shardJournalPath(s)))
            createJournal(shardJournalPath(s));
    }
}

void
CampaignSession::initShardObservability()
{
    emitted_.assign(fuzzers_.size(), EmitCursor{});
    lastBeat_.assign(fuzzers_.size(),
                     std::chrono::steady_clock::time_point{});
    if (!persistent())
        return;
    for (std::size_t i = 0; i < fuzzers_.size(); i++) {
        // Rewind the event journal to the restored checkpoint: a
        // kill after the last checkpoint left events on disk that
        // the restored fuzzer has not (yet) re-discovered. The
        // wholesale rewrite (write-then-rename) re-derives the
        // stream from restored state, so the re-fuzzed stretch
        // appends the identical bytes again — this is what makes
        // kill-anywhere+resume produce a byte-identical event file.
        obs::writeEventLog(shardEventsPath(globalShard(i)), {});
        emitShardEvents(i, *fuzzers_[i]);
        writeShardHeartbeat(i, *fuzzers_[i], kPhaseRunning,
                            /*force=*/true);
    }
}

void
CampaignSession::emitShardEvents(std::size_t local,
                                 const fuzz::Fuzzer &fuzzer)
{
    EmitCursor &cursor = emitted_[local];
    const auto &corpus = fuzzer.corpus();
    const auto &diffs = fuzzer.diffs();
    const auto &crashes = fuzzer.crashes();
    if (cursor.corpus == corpus.size() &&
        cursor.diffs == diffs.size() &&
        cursor.crashes == crashes.size()) {
        return;
    }
    std::vector<obs::CampaignEvent> batch;
    for (std::size_t i = cursor.corpus; i < corpus.size(); i++) {
        // foundAtExec == 0 marks an initial seed, not a discovery.
        if (corpus[i].foundAtExec)
            batch.push_back(discoveryEvent(corpus[i]));
    }
    for (std::size_t i = cursor.diffs; i < diffs.size(); i++) {
        batch.push_back(config_.fuzz.sancheckMode
                            ? sanFindingEvent(diffs[i])
                            : divergenceEvent(diffs[i]));
    }
    for (std::size_t i = cursor.crashes; i < crashes.size(); i++)
        batch.push_back(crashEvent(crashes[i]));
    sortEventBatch(batch);
    obs::appendEventLines(shardEventsPath(globalShard(local)), batch);
    cursor = {corpus.size(), diffs.size(), crashes.size()};
}

void
CampaignSession::writeShardHeartbeat(std::size_t local,
                                     const fuzz::Fuzzer &fuzzer,
                                     const char *phase, bool force)
{
    if (!persistent())
        return;
    const auto now = std::chrono::steady_clock::now();
    if (!force &&
        lastBeat_[local] !=
            std::chrono::steady_clock::time_point{} &&
        std::chrono::duration<double>(now - lastBeat_[local])
                .count() < config_.heartbeatSecs) {
        return;
    }
    lastBeat_[local] = now;
    const std::size_t shard = globalShard(local);
    Heartbeat heartbeat;
    heartbeat.pid = static_cast<std::uint64_t>(::getpid());
    heartbeat.shard = shard;
    heartbeat.phase = phase;
    heartbeat.execs = fuzzer.stats().execs;
    heartbeat.budget = plans_[shard].options.maxExecs;
    heartbeat.corpus = fuzzer.corpus().size();
    heartbeat.diffs = fuzzer.stats().diffs;
    heartbeat.crashes = fuzzer.stats().crashes;
    // Wall-clock stamps: display/health data for readers, never a
    // campaign input (see heartbeat.hh).
    heartbeat.unixTime =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    heartbeat.runSecs = runSecsNow();
    writeHeartbeat(heartbeatPath(config_.dir, shard), heartbeat);
}

void
CampaignSession::appendOpsEvent(obs::CampaignEvent event) const
{
    if (!persistent())
        return;
    std::lock_guard<std::mutex> lock(opsMu_);
    obs::appendEventLines(config_.dir + "/events.jsonl",
                          {std::move(event)});
}

double
CampaignSession::runSecsNow() const
{
    return savedRunSecs_ +
           std::chrono::duration<double>(
               std::chrono::steady_clock::now() - wallStart_)
               .count();
}

void
CampaignSession::installHooks()
{
    const std::uint64_t halt = config_.haltAfterExecs;
    if (!persistent() && halt == 0 && !config_.stopFlag)
        return;
    for (std::size_t i = 0; i < fuzzers_.size(); i++) {
        const std::size_t g = globalShard(i);
        const std::uint64_t every =
            checkpointCadence(plans_[g].options);
        nextCheckpoint_[i] = fuzzers_[i]->stats().execs + every;
        fuzzers_[i]->setIterationHook(
            [this, i, g, halt, every](const fuzz::Fuzzer &fuzzer) {
                if (persistent()) {
                    // Events before the checkpoint: a kill between
                    // the two merely re-appends the identical lines
                    // after resume (the journal is rewound to the
                    // restored checkpoint first).
                    emitShardEvents(i, fuzzer);
                    const std::uint64_t done = fuzzer.stats().execs;
                    if (done >= nextCheckpoint_[i]) {
                        appendRecord(
                            shardJournalPath(g),
                            encodeFuzzerState(fuzzer.captureState()));
                        nextCheckpoint_[i] = done + every;
                        obs::CampaignEvent noted("checkpoint", done);
                        noted.num("shard", g);
                        appendOpsEvent(std::move(noted));
                    }
                    writeShardHeartbeat(i, fuzzer, kPhaseRunning,
                                        /*force=*/false);
                }
                if (config_.stopFlag &&
                    config_.stopFlag->load(
                        std::memory_order_relaxed)) {
                    return false;
                }
                return !(halt && fuzzer.stats().execs >= halt);
            });
    }
}

const fuzz::ShardedResult &
CampaignSession::run()
{
    obs::Span span("session.run");
    wallStart_ = std::chrono::steady_clock::now();

    plans_ = fuzz::planShards(config_.fuzz, seeds_, config_.shards);
    resolveOwnedShards();
    std::vector<std::unique_ptr<fuzz::FuzzerState>> restored(
        owned_.size());
    openDir(restored);

    fuzzers_.clear();
    for (const std::size_t s : owned_) {
        // Serial construction: all shards share the CompileCache
        // warm-up.
        fuzzers_.push_back(std::make_unique<fuzz::Fuzzer>(
            program_, plans_[s].seeds, plans_[s].options));
    }
    for (std::size_t i = 0; i < fuzzers_.size(); i++) {
        if (restored[i])
            fuzzers_[i]->restoreState(*restored[i]);
    }

    nextCheckpoint_.assign(fuzzers_.size(), 0);
    initShardObservability();
    installHooks();

    fuzz::runShardFuzzers(fuzzers_, config_.jobs);

    halted_ = false;
    for (const auto &fuzzer : fuzzers_)
        halted_ = halted_ || fuzzer->haltedByHook();
    completed_ = !halted_;
    result_ = fuzz::foldShards(fuzzers_);
    ran_ = true;

    runSecs_ = runSecsNow();

    if (persistent()) {
        // Shutdown checkpoint for every shard — graceful exits (both
        // completion and a haltAfterExecs stop) never lose work. The
        // event flush comes first: run() can leave the loop without
        // a trailing hook call, so discoveries since the last safe
        // point are still unjournaled here.
        for (std::size_t i = 0; i < fuzzers_.size(); i++) {
            emitShardEvents(i, *fuzzers_[i]);
            appendRecord(
                shardJournalPath(globalShard(i)),
                encodeFuzzerState(fuzzers_[i]->captureState()));
            writeShardHeartbeat(i, *fuzzers_[i],
                                fuzzers_[i]->haltedByHook()
                                    ? kPhaseHalted
                                    : kPhaseComplete,
                                /*force=*/true);
        }
        // In worker mode the coordinator owns the cumulative
        // session_stats (workers come and go; their wall clocks
        // overlap and must not clobber each other).
        if (!workerMode())
            writeSessionStats(config_.dir, runSecs_, restarts_);
        obs::CampaignEvent finished(halted_ ? "halt" : "complete",
                                    result_.total.execs);
        finished.num("corpus", result_.total.seeds)
            .num("diffs", result_.total.diffs)
            .num("crashes", result_.total.crashes)
            .num("edges", result_.total.edges);
        appendOpsEvent(std::move(finished));
        // Cache traffic is process-history telemetry: the counters
        // depend on thread interleaving and on what else this
        // process compiled, so they live in the ops log, never in
        // the deterministic shard streams.
        const compiler::CompileCache &cache =
            compiler::CompileCache::global();
        obs::CampaignEvent cached("cache", result_.total.execs);
        cached.num("hits", cache.hits())
            .num("misses", cache.misses())
            .num("evictions", cache.evictions());
        appendOpsEvent(std::move(cached));
    }
    writeFinalArtifacts();
    return result_;
}

obs::FuzzerStatsSnapshot
CampaignSession::statsSnapshot() const
{
    auto snapshot = result_.statsSnapshot();
    snapshot.runTimeSecs = runSecs_;
    snapshot.restarts = restarts_;
    if (runSecs_ > 0) {
        snapshot.execsPerSec =
            static_cast<double>(result_.total.execs) / runSecs_;
    }
    return snapshot;
}

std::vector<DivergenceRecord>
CampaignSession::divergenceRecords() const
{
    std::vector<DivergenceRecord> records;
    records.reserve(result_.diffs.size());
    for (const auto &diff : result_.diffs) {
        records.push_back({diff.signature, diff.input,
                           diff.execIndex, diff.probes,
                           diff.result.hashVector(),
                           diff.semanticKey});
    }
    return records;
}

template <typename Options, typename Reduce>
auto
CampaignSession::reduceWitnesses(Options options,
                                 const Reduce &reduce) const
{
    options.candidateBudget = config_.triage.candidateBudget;
    options.jobs = config_.jobs;
    options.reportsDir = config_.triage.reportsDir;
    // One witness per unique divergence or finding.
    obs::CampaignEvent started("reduce_start", result_.total.execs);
    started.num("records", result_.diffs.size());
    appendOpsEvent(std::move(started));
    auto reports = reduce(options);
    for (const auto &report : reports) {
        obs::CampaignEvent reduced("reduced", result_.total.execs);
        reduced.hex("signature", reportSignature(report))
            .num("reproduced", report.reproduced ? 1 : 0)
            .num("input_bytes", report.input.size())
            .num("witness_bytes", report.witnessInput.size());
        appendOpsEvent(std::move(reduced));
    }
    obs::CampaignEvent done("reduce_done", result_.total.execs);
    done.num("reports", reports.size());
    appendOpsEvent(std::move(done));
    return reports;
}

std::vector<reduce::DivergenceReport>
CampaignSession::triage() const
{
    // Sancheck campaigns triage through triageSancheck(): their
    // FoundDiffs carry sanitizer findings, not DiffResults.
    if (config_.fuzz.sancheckMode)
        return {};
    if (!config_.triage.reduceFound || result_.diffs.empty())
        return {};
    obs::Span span("session.triage");
    reduce::ReduceOptions options;
    options.diffOptions = config_.fuzz.diffOptions;
    options.diffOptions.limits = config_.fuzz.limits;
    return reduceWitnesses(options, [&](const auto &opts) {
        return reduce::reduceRecords(program_, config_.fuzz.diffImpls,
                                     divergenceRecords(), opts);
    });
}

std::vector<sancheck::FindingReport>
CampaignSession::triageSancheck() const
{
    if (!config_.fuzz.sancheckMode || !config_.triage.reduceFound ||
        result_.diffs.empty())
        return {};
    obs::Span span("session.triage_sancheck");
    sancheck::FindingReduceOptions options;
    options.limits = config_.fuzz.limits;
    std::vector<sancheck::FindingWitness> witnesses;
    witnesses.reserve(result_.diffs.size());
    for (const auto &diff : result_.diffs)
        witnesses.push_back({diff.input, diff.sanFinding});
    return reduceWitnesses(options, [&](const auto &opts) {
        return sancheck::reduceFindings(
            program_, config_.fuzz.sancheckImpls, witnesses, opts);
    });
}

void
writeSessionStats(const std::string &dir, double run_secs,
                  std::uint64_t restarts)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", run_secs);
    std::ostringstream os;
    os << "run_secs : " << buf << "\n";
    os << "restarts : " << restarts << "\n";
    atomicWriteFile(dir + "/session_stats", os.str());
}

void
CampaignSession::writeFinalArtifacts()
{
    // Final telemetry describes a *finished* campaign; a halted one
    // leaves only its checkpoints, and the resume that completes the
    // budget writes these files. A fleet worker never writes them at
    // all — it finished only its own shard subset, and the
    // coordinator's finalize pass folds the whole campaign.
    if (!completed_ || workerMode())
        return;
    const std::string stats_text =
        obs::renderFuzzerStats(statsSnapshot());
    if (persistent()) {
        atomicWriteFile(config_.dir + "/fuzzer_stats", stats_text);
        fuzz::writeShardPlots(fuzzers_, config_.dir + "/plot_data");
        std::vector<Bytes> payloads;
        for (const auto &record : divergenceRecords())
            payloads.push_back(encodeDivergenceRecord(record));
        writeJournal(config_.dir + "/divergences.journal", payloads);
        // Metrics snapshot with histogram percentiles — what the
        // monitor surfaces as latency/size digests. Only meaningful
        // when the process had metrics on; an empty registry would
        // just shadow a prior incarnation's dump.
        if (obs::metricsEnabled()) {
            obs::writeTextFile(
                config_.dir + "/metrics.jsonl",
                obs::Registry::global().snapshot().toJsonl());
        }
    }
    if (!config_.statsOutPath.empty())
        obs::writeTextFile(config_.statsOutPath, stats_text);
    fuzz::writeShardPlots(fuzzers_, config_.plotOutPath);
}

std::vector<DivergenceRecord>
CampaignSession::loadDivergenceRecords(const std::string &dir)
{
    std::vector<DivergenceRecord> records;
    for (const auto &payload :
         readRecords(dir + "/divergences.journal"))
        records.push_back(decodeDivergenceRecord(payload));
    return records;
}

} // namespace compdiff::session
