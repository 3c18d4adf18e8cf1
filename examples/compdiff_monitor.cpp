/**
 * @file
 * compdiff_monitor: the afl-whatsup analog for campaign sessions.
 *
 *   ./build/examples/compdiff_monitor [options] <session-root>...
 *
 * Scans each root for session directories (any directory holding a
 * MANIFEST counts, so both a single `--session=DIR` run and a whole
 * targets-mode tree work), merges every shard's heartbeats, last
 * checkpoints, and event/divergence feeds into one campaign
 * snapshot, and renders it as a table, JSON or Prometheus text, once
 * or on a `--watch` loop. `--help` lists the flags.
 *
 * Exit status: 0 on success, 1 when no session was found under any
 * root, 2 on usage errors. Scanning is read-only and crash-tolerant;
 * it is safe to point at a tree whose campaigns are mid-write.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "frontend.hh"
#include "monitor/monitor.hh"

namespace
{

using namespace compdiff;

struct MonitorCli
{
    monitor::MonitorOptions options;
    std::string format = "table";
    bool watch = false;
    double watchSecs = 2.0;
    std::vector<std::string> roots;
};

/** One scan-and-render pass; returns the session count. */
std::size_t
renderOnce(const MonitorCli &cli)
{
    std::vector<monitor::SessionView> sessions;
    for (const auto &root : cli.roots) {
        auto found = monitor::scanTree(root, cli.options);
        sessions.insert(sessions.end(),
                        std::make_move_iterator(found.begin()),
                        std::make_move_iterator(found.end()));
    }
    std::string out;
    if (cli.format == "json")
        out = monitor::renderJson(sessions, cli.options);
    else if (cli.format == "prom")
        out = monitor::renderProm(sessions, cli.options);
    else
        out = monitor::renderTable(sessions, cli.options);
    std::fputs(out.c_str(), stdout);
    if (!out.empty() && out.back() != '\n')
        std::fputc('\n', stdout);
    std::fflush(stdout);
    return sessions.size();
}

int
run(int argc, char **argv)
{
    MonitorCli cli;
    session::HealthPolicy &health = cli.options.health;
    support::FlagTable table(
        "compdiff_monitor [options] <session-root>...", SIZE_MAX);
    table.choice("--format", {"table", "json", "prom"}, &cli.format,
                 "an aligned text table with a summary (default), "
                 "one JSON document, or Prometheus text exposition");
    table.optional("--watch", "SECS", &cli.watch, &cli.watchSecs,
                   "re-scan and re-render every SECS seconds "
                   "(default 2)");
    table.value("--stall-after", "SECS", &health.stallAfterSecs,
                "heartbeat age that classifies a shard as stalled "
                "(default 30)");
    table.value("--dead-after", "SECS", &health.deadAfterSecs,
                "heartbeat age that classifies a shard as dead "
                "(default 300)");
    bool no_pid_check = false;
    table.flag("--no-pid-check", &no_pid_check,
               "skip the kill(pid, 0) liveness probe (for session "
               "trees copied from another host)");
    table.flag("--stable", &cli.options.stable,
               "omit wall-clock-derived fields (ages, rates, run "
               "time, pids) so two scans of a finished tree "
               "byte-compare equal");
    table.value("--now", "UNIX_SECS", &cli.options.nowUnix,
                "classify against this reader clock instead of the "
                "system clock (testing)");
    cli.roots = frontend::parseArgs(table, argc, argv);
    health.checkPid = !no_pid_check;
    if (cli.roots.empty())
        throw support::UsageError("no session root given\n\n" +
                                  table.usage());
    if (cli.watch && cli.watchSecs <= 0)
        throw support::UsageError("--watch: SECS must be positive");

    if (!cli.watch)
        return renderOnce(cli) == 0 ? 1 : 0;
    for (;;) {
        // Home + clear-to-end keeps the snapshot flicker-free in a
        // terminal (full clears make short tables blink).
        std::fputs("\033[H\033[2J", stdout);
        renderOnce(cli);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cli.watchSecs));
    }
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
