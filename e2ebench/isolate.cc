#include "isolate.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace e2ebench
{

namespace
{

void
writeAll(int fd, const std::string &text)
{
    std::size_t done = 0;
    while (done < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + done, text.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::_exit(120);
        }
        done += static_cast<std::size_t>(n);
    }
}

std::string
oneLine(std::string text)
{
    std::replace(text.begin(), text.end(), '\n', ' ');
    return text;
}

/** Worker body: never returns. Protocol, one line each:
 *  "R <i> <line>" returned, "F <i> <why>" threw, "S <i>" stopped. */
[[noreturn]] void
workerMain(int fd, std::size_t first, std::size_t count,
           const std::function<bool(std::size_t)> &should_start,
           const std::function<std::string(std::size_t)> &op)
{
    for (std::size_t i = first; i < count; i++) {
        if (!should_start(i)) {
            writeAll(fd, "S " + std::to_string(i) + "\n");
            ::_exit(0);
        }
        std::string line;
        try {
            line = "R " + std::to_string(i) + " " + oneLine(op(i));
        } catch (const std::exception &error) {
            line = "F " + std::to_string(i) + " threw: " +
                   oneLine(error.what());
        } catch (...) {
            line = "F " + std::to_string(i) + " threw";
        }
        writeAll(fd, line + "\n");
    }
    ::_exit(0);
}

std::string
describeStatus(int status)
{
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        return "signal " + std::to_string(sig) + " (" +
               strsignal(sig) + ")";
    }
    if (WIFEXITED(status))
        return "exit " + std::to_string(WEXITSTATUS(status));
    return "status " + std::to_string(status);
}

} // namespace

std::vector<OpOutcome>
runIsolated(std::size_t count,
            const std::function<bool(std::size_t)> &should_start,
            const std::function<std::string(std::size_t)> &op)
{
    std::vector<OpOutcome> outcomes;
    std::size_t next = 0;
    while (next < count) {
        int fds[2];
        if (::pipe(fds) != 0)
            throw std::runtime_error("pipe failed");
        std::fflush(stdout);
        std::fflush(stderr);
        const pid_t pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            ::close(fds[0]);
            workerMain(fds[1], next, count, should_start, op);
        }
        ::close(fds[1]);

        std::string buffer;
        char chunk[65536];
        while (true) {
            const ssize_t n = ::read(fds[0], chunk, sizeof chunk);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<std::size_t>(n));
        }
        ::close(fds[0]);
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }

        bool stopped = false;
        std::size_t pos = 0;
        while (true) {
            const std::size_t end = buffer.find('\n', pos);
            if (end == std::string::npos)
                break; // a torn last line is the dying worker's
            const std::string line = buffer.substr(pos, end - pos);
            pos = end + 1;
            const std::size_t sp = line.find(' ', 2);
            const std::size_t index = std::stoull(
                line.substr(2, sp == std::string::npos ? sp : sp - 2));
            if (line[0] == 'S') {
                stopped = true;
                next = count;
                break;
            }
            OpOutcome outcome;
            outcome.index = index;
            outcome.returned = line[0] == 'R';
            outcome.line =
                sp == std::string::npos ? "" : line.substr(sp + 1);
            outcomes.push_back(std::move(outcome));
            next = index + 1;
        }
        if (stopped)
            break;
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (clean && next >= count)
            break;
        if (clean)
            throw std::runtime_error(
                "worker exited before finishing its operations");
        // The worker died inside operation `next`.
        OpOutcome failed;
        failed.index = next;
        failed.line = describeStatus(status);
        outcomes.push_back(std::move(failed));
        next++;
    }
    return outcomes;
}

long
peakRssKb()
{
    struct rusage self{};
    struct rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return std::max(self.ru_maxrss, children.ru_maxrss);
}

} // namespace e2ebench
