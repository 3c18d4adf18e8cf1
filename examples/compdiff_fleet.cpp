/**
 * @file
 * Multi-process fleet front end: one coordinator process supervising
 * N fuzzing worker processes over a shared crash-safe session
 * directory (DESIGN.md §12).
 *
 *   # 3 worker processes over 6 deterministic shards
 *   ./build/examples/compdiff_fleet --target=pktdump --fuzz=60000 \
 *       --shards=6 --workers=3 --session=/tmp/fleet
 *
 * The same binary is both sides of the protocol: without `--worker`
 * it runs the coordinator (fleet::runFleet), which re-execs itself
 * with its own arguments plus `--worker --worker-shards=...` per
 * spawned worker. Workers that die — crash, OOM-kill, kill -9 — are
 * revived from their shard checkpoints and the finished campaign's
 * artifacts are byte-identical to a single-process run (kill one and
 * watch: `kill -9 $(awk '/^pid/{print $3}' /tmp/fleet/shard-0.lease)`).
 *
 * Exit codes: 0 campaign complete and stable, 1 complete with
 * divergences, 2 usage/session error, 4 deadline hit (incomplete,
 * resumable). `--help` lists the flags.
 */

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "frontend.hh"
#include "minic/parser.hh"
#include "obs/stats.hh"
#include "support/logging.hh"

namespace
{

using namespace compdiff;

/** This binary's path, for the worker re-exec. */
std::string
selfExecutable(const char *argv0)
{
    char buffer[4096];
    const ssize_t got =
        ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (got > 0) {
        buffer[got] = '\0';
        return buffer;
    }
    return argv0;
}

int
run(int argc, char **argv)
{
    // The worker protocol's own arguments are the coordinator's
    // business (fleet::workerArgs), not flags a user gives.
    fleet::WorkerSpec spec;
    std::vector<char *> user_args;
    for (int i = 0; i < argc; i++) {
        if (i == 0 || !fleet::parseWorkerArg(argv[i], &spec))
            user_args.push_back(argv[i]);
    }

    frontend::CampaignFlags flags;
    fleet::FleetOptions fleet_options;
    bool worker = false;
    support::FlagTable table(
        "compdiff_fleet [options] [prog.mc]", 1,
        "Every flag is forwarded to the worker processes, which "
        "re-exec this binary with --worker.");
    flags.addFlags(table);
    table.value("--sync-every", "S", &fleet_options.syncSecs,
                "cross-worker corpus sync cadence in seconds (0 = off, "
                "the default; syncing forfeits bit-identity)");
    table.value("--workers", "N", &fleet_options.workers,
                "worker process slots (default 2); rerun with a higher "
                "N and late joiners pick up unleased shards",
                frontend::kMaxParallelism);
    table.value("--deadline", "S", &fleet_options.deadlineSecs,
                "wall-clock budget: at S seconds workers checkpoint "
                "and exit (rerun the same command to continue)");
    table.value("--poll-every", "S", &fleet_options.pollSecs,
                "supervision poll interval (default 0.2)");
    table.value("--status-every", "S", &fleet_options.statusSecs,
                "print the aggregated monitor table every S seconds "
                "(0 = off)");
    table.value("--dead-after", "S", &fleet_options.deadAfterSecs,
                "heartbeat age that marks a worker hung: SIGKILL and "
                "revive (default 30)");
    table.value("--max-spawns", "N", &fleet_options.maxSpawnsPerShard,
                "per-shard spawn cap, the crash-loop brake (default "
                "64)");
    table.flag("--worker", &worker,
               "run as a worker of a coordinator (internal)");
    const std::vector<std::string> args = frontend::parseArgs(
        table, static_cast<int>(user_args.size()), user_args.data());
    support::QuietGuard quiet(flags.quiet);

    if (flags.sessionDir.empty())
        throw support::UsageError("a fleet needs --session=DIR");
    if (flags.target.empty() && args.empty())
        throw support::UsageError(
            "a fleet needs --target=NAME or a program file");
    const frontend::Subject subject = flags.load(args, {});
    const auto program = minic::parseAndCheck(subject.source);

    session::SessionConfig config =
        flags.sessionConfig(flags.implementations());
    if (fleet_options.syncSecs > 0) {
        config.syncPath = flags.sessionDir + "/sync.journal";
        config.syncSecs = fleet_options.syncSecs;
    }
    if (worker)
        return fleet::runWorker(*program, subject.seeds, config, spec);

    fleet_options.workerCommand = {selfExecutable(argv[0])};
    fleet_options.workerCommand.insert(
        fleet_options.workerCommand.end(), user_args.begin() + 1,
        user_args.end());
    fleet_options.workerCommand.push_back("--worker");

    const fleet::FleetResult result =
        fleet::runFleet(*program, subject.seeds, config, fleet_options);
    if (!result.completed) {
        std::printf("fleet deadline reached after %zu spawns (%zu "
                    "revivals); rerun the same command to continue "
                    "from the checkpoints in %s\n",
                    result.spawns, result.revivals,
                    flags.sessionDir.c_str());
        return 4;
    }
    std::printf("%s", obs::renderFuzzerStats(result.stats).c_str());
    std::printf("\nfleet: %zu spawns, %zu revivals, %zu lease "
                "conflicts, %zu unique divergences\n",
                result.spawns, result.revivals, result.leaseConflicts,
                result.result.diffs.size());
    for (const auto &report : result.reports) {
        std::printf("reduced %s: input %zu -> %zu bytes\n",
                    reduce::signatureDirName(report.signature).c_str(),
                    report.witnessInput.size(), report.input.size());
    }
    return result.result.diffs.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (...) {
        return frontend::reportError();
    }
}
