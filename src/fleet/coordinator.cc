#include "fleet/fleet.hh"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>

#include "obs/events.hh"
#include "session/checkpoint.hh"
#include "session/heartbeat.hh"
#include "session/lease.hh"
#include "session/serial.hh"

namespace compdiff::fleet
{

namespace
{

using Clock = std::chrono::steady_clock;

double secsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from)
        .count();
}

double nowUnix()
{
    const auto now = std::chrono::system_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch())
        .count();
}

/** One live worker process under supervision. */
struct Child
{
    pid_t pid = -1;
    std::size_t worker = 0;
    std::uint64_t generation = 0;
    std::vector<std::size_t> shards;
    Clock::time_point spawnedAt;
};

/** The coordinator's process-history log (`fleet.jsonl` in the
 *  session dir; session event-line format, ops-log semantics —
 *  append-only, deliberately not replay-invariant). */
void fleetEvent(const std::string &dir, obs::CampaignEvent event)
{
    obs::appendEventLines(dir + "/fleet.jsonl", {std::move(event)});
}

std::string joinShards(const std::vector<std::size_t> &shards)
{
    std::string text;
    for (const std::size_t shard : shards)
    {
        if (!text.empty())
            text += ',';
        text += std::to_string(shard);
    }
    return text;
}

/** Last checkpointed execution count of a shard (0 when the journal
 *  is empty, missing, or torn — all read as "no saved progress"). */
std::uint64_t checkpointedExecs(const std::string &dir,
                                std::size_t shard)
{
    const std::string path =
        dir + "/shard-" + std::to_string(shard) + ".journal";
    try
    {
        const auto payload = session::readLastRecord(path);
        if (!payload)
            return 0;
        return session::decodeFuzzerState(*payload).stats.execs;
    }
    catch (const session::SessionError &)
    {
        return 0;
    }
}

pid_t spawnWorker(const std::vector<std::string> &command,
                  const WorkerSpec &spec)
{
    std::vector<std::string> argvOwned = command;
    for (auto &extra : workerArgs(spec))
        argvOwned.push_back(std::move(extra));
    std::vector<char *> argv;
    argv.reserve(argvOwned.size() + 1);
    for (auto &arg : argvOwned)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid == 0)
    {
        ::execv(argv[0], argv.data());
        std::fprintf(stderr, "fleet: cannot exec %s\n", argv[0]);
        _exit(127);
    }
    return pid;
}

} // namespace

std::vector<std::vector<std::size_t>>
chunkShards(const std::vector<std::size_t> &pending,
            std::size_t slots)
{
    std::vector<std::vector<std::size_t>> chunks;
    slots = std::min(slots, pending.size());
    if (slots == 0)
        return chunks;
    const std::size_t base = pending.size() / slots;
    const std::size_t extra = pending.size() % slots;
    std::size_t index = 0;
    for (std::size_t slot = 0; slot < slots; slot++)
    {
        const std::size_t take = base + (slot < extra ? 1 : 0);
        chunks.emplace_back(pending.begin() + index,
                            pending.begin() + index + take);
        index += take;
    }
    return chunks;
}

FleetResult runFleet(const minic::Program &program,
                     const std::vector<support::Bytes> &seeds,
                     session::SessionConfig config,
                     const FleetOptions &options)
{
    if (config.dir.empty())
        throw session::SessionError(
            "fleet mode requires a session directory");
    if (options.workers == 0)
        throw session::SessionError(
            "fleet mode requires at least one worker slot");
    if (options.workerCommand.empty())
        throw session::SessionError(
            "fleet mode requires a worker command");

    config.workerShards.clear();
    config.stopFlag = nullptr;

    // Initialize (or validate) the session directory so workers can
    // attach; idempotent across coordinator restarts.
    {
        session::SessionConfig boot = config;
        boot.resume = false;
        session::CampaignSession session(program, seeds, boot);
        session.initializeDir();
    }

    const auto plans = fuzz::planShards(
        config.fuzz, seeds, std::max<std::size_t>(config.shards, 1));
    const std::size_t shardCount = plans.size();
    std::vector<std::uint64_t> budgets(shardCount, 0);
    for (std::size_t shard = 0; shard < shardCount; shard++)
        budgets[shard] = plans[shard].options.maxExecs;

    FleetResult out;
    std::vector<Child> live;
    std::vector<std::size_t> spawnsPerShard(shardCount, 0);
    std::vector<bool> done(shardCount, false);
    std::size_t nextWorker = 0;
    std::uint64_t generation = 0;
    const auto start = Clock::now();

    {
        obs::CampaignEvent event("fleet_open", 0);
        event.num("pid", static_cast<std::uint64_t>(::getpid()))
            .num("workers", options.workers)
            .num("shards", shardCount);
        fleetEvent(config.dir, std::move(event));
    }

    // True when every shard's journal has reached its budget.
    const auto refreshDone = [&]() -> bool {
        bool all = true;
        for (std::size_t shard = 0; shard < shardCount; shard++)
        {
            if (done[shard])
                continue;
            if (checkpointedExecs(config.dir, shard) >=
                budgets[shard])
                done[shard] = true;
            else
                all = false;
        }
        return all;
    };

    // Reap exited children; `block` waits for each in turn.
    const auto reap = [&](bool block) {
        for (std::size_t i = 0; i < live.size();)
        {
            int status = 0;
            const pid_t got = ::waitpid(live[i].pid, &status,
                                        block ? 0 : WNOHANG);
            if (got <= 0)
            {
                i++;
                continue;
            }
            const bool signaled = WIFSIGNALED(status);
            const int code =
                WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            if (code == kWorkerExitLeaseHeld)
                out.leaseConflicts++;
            obs::CampaignEvent event(signaled ? "fleet_dead"
                                              : "fleet_exit",
                                     0);
            event
                .num("pid",
                     static_cast<std::uint64_t>(live[i].pid))
                .num("worker", live[i].worker)
                .text("shards", joinShards(live[i].shards));
            if (signaled)
                event.num("signal",
                          static_cast<std::uint64_t>(
                              WTERMSIG(status)));
            else
                event.num("code",
                          static_cast<std::uint64_t>(code));
            fleetEvent(config.dir, std::move(event));
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
    };

    // Terminate every child (TERM, grace period, then KILL) and reap.
    const auto shutdownChildren = [&](double graceSecs) {
        for (const Child &child : live)
            ::kill(child.pid, SIGTERM);
        const auto began = Clock::now();
        while (!live.empty())
        {
            reap(false);
            if (live.empty())
                break;
            if (secsSince(began) > graceSecs)
            {
                for (const Child &child : live)
                    ::kill(child.pid, SIGKILL);
                reap(true);
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    };

    try
    {
        while (!refreshDone())
        {
            if (options.deadlineSecs > 0 &&
                secsSince(start) >= options.deadlineSecs)
            {
                obs::CampaignEvent event("fleet_deadline", 0);
                event.num("spawns", out.spawns)
                    .num("revivals", out.revivals);
                fleetEvent(config.dir, std::move(event));
                shutdownChildren(30.0);
                out.completed = false;
                return out;
            }

            reap(false);

            // Hung workers: every incomplete shard's heartbeat has
            // aged out (and the worker has had time to write one).
            if (options.deadAfterSecs > 0)
            {
                const double now = nowUnix();
                for (std::size_t i = 0; i < live.size();)
                {
                    const Child &child = live[i];
                    if (secsSince(child.spawnedAt) <=
                        options.deadAfterSecs)
                    {
                        i++;
                        continue;
                    }
                    bool anyIncomplete = false;
                    bool anyFresh = false;
                    for (const std::size_t shard : child.shards)
                    {
                        if (done[shard])
                            continue;
                        anyIncomplete = true;
                        const auto text = session::readTextFile(
                            session::heartbeatPath(config.dir,
                                                   shard));
                        if (!text)
                            continue;
                        const auto beat =
                            session::parseHeartbeat(*text);
                        if (now - beat.unixTime <=
                            options.deadAfterSecs)
                            anyFresh = true;
                    }
                    if (!anyIncomplete || anyFresh)
                    {
                        i++;
                        continue;
                    }
                    obs::CampaignEvent event("fleet_hung", 0);
                    event
                        .num("pid", static_cast<std::uint64_t>(
                                        child.pid))
                        .num("worker", child.worker)
                        .text("shards", joinShards(child.shards));
                    fleetEvent(config.dir, std::move(event));
                    ::kill(child.pid, SIGKILL);
                    int status = 0;
                    ::waitpid(child.pid, &status, 0);
                    live.erase(live.begin() +
                               static_cast<std::ptrdiff_t>(i));
                }
            }

            // Shards owned by a live child of ours.
            std::set<std::size_t> owned;
            for (const Child &child : live)
                for (const std::size_t shard : child.shards)
                    if (!done[shard])
                        owned.insert(shard);

            // Pending: incomplete, unowned, and not leased by a live
            // external worker (an elastic co-coordinator's child). A
            // dead holder's lease is broken here — the revival path.
            std::vector<std::size_t> pending;
            for (std::size_t shard = 0; shard < shardCount; shard++)
            {
                if (done[shard] || owned.count(shard))
                    continue;
                if (const auto lease =
                        session::readShardLease(config.dir, shard))
                {
                    if (lease->pid != 0 &&
                        session::pidAlive(lease->pid))
                        continue;
                    session::breakShardLease(config.dir, shard);
                }
                pending.push_back(shard);
            }

            if (!pending.empty() && live.size() < options.workers)
            {
                const auto chunks = chunkShards(
                    pending, options.workers - live.size());
                for (const auto &chunk : chunks)
                {
                    bool revival = false;
                    for (const std::size_t shard : chunk)
                    {
                        if (spawnsPerShard[shard] > 0)
                            revival = true;
                        if (++spawnsPerShard[shard] >
                            options.maxSpawnsPerShard)
                            throw session::SessionError(
                                "fleet: shard " +
                                std::to_string(shard) +
                                " keeps crash-looping; giving up");
                    }
                    WorkerSpec spec;
                    spec.shards = chunk;
                    spec.worker = nextWorker++;
                    spec.generation = generation++;
                    const pid_t pid =
                        spawnWorker(options.workerCommand, spec);
                    if (pid < 0)
                        throw session::SessionError(
                            "fleet: fork failed");
                    out.spawns++;
                    if (revival)
                        out.revivals++;
                    obs::CampaignEvent event(
                        revival ? "fleet_revive" : "fleet_spawn",
                        0);
                    event
                        .num("pid",
                             static_cast<std::uint64_t>(pid))
                        .num("worker", spec.worker)
                        .num("generation", spec.generation)
                        .text("shards", joinShards(chunk));
                    fleetEvent(config.dir, std::move(event));
                    Child child;
                    child.pid = pid;
                    child.worker = spec.worker;
                    child.generation = spec.generation;
                    child.shards = chunk;
                    child.spawnedAt = Clock::now();
                    live.push_back(std::move(child));
                }
            }

            std::this_thread::sleep_for(std::chrono::duration<double>(
                std::max(options.pollSecs, 0.01)));
        }

        // Every shard reached its budget; let the workers run their
        // checkpoint epilogues and exit on their own.
        reap(true);
    }
    catch (...)
    {
        shutdownChildren(10.0);
        throw;
    }

    // Record the fleet's cumulative wall clock + revival count where
    // the finalize pass (and compdiff_monitor) read session stats.
    // Both fields are display-only and volatile-filtered everywhere
    // byte-identity is asserted.
    session::writeSessionStats(config.dir, secsSince(start),
                               out.revivals);

    // Finalize in-process: a plain resume restores every shard's
    // final checkpoint (each fuzzer's run() returns immediately at
    // budget) and writes the fused artifacts — the reason a fleet
    // campaign's outputs are byte-identical to a single-process run.
    session::SessionConfig finalize = config;
    finalize.resume = true;
    finalize.haltAfterExecs = 0;
    finalize.stopFlag = nullptr;
    session::CampaignSession session(program, seeds, finalize);
    session.run();
    out.completed = session.completed();
    out.result = session.result();
    out.stats = session.statsSnapshot();
    out.reports = session.triage();

    {
        obs::CampaignEvent event("fleet_complete",
                                 out.result.total.execs);
        event.num("spawns", out.spawns)
            .num("revivals", out.revivals)
            .num("lease_conflicts", out.leaseConflicts)
            .num("diffs", out.result.diffs.size());
        fleetEvent(config.dir, std::move(event));
    }
    return out;
}

} // namespace compdiff::fleet
