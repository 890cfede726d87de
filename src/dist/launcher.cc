#include "dist/launcher.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "obs/trace.hh"

extern char **environ;

namespace smt::dist
{

namespace
{

constexpr const char *kTokenEnvVar = "SMTSTORE_TOKEN";

/** True when the environment entry `entry` sets variable `name`. */
bool
setsVar(const char *entry, const char *name)
{
    const std::size_t n = std::strlen(name);
    return std::strncmp(entry, name, n) == 0 && entry[n] == '=';
}

/** Write all of `text` to `fd`; false when the reader is gone. */
bool
writeAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + off, text.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

std::string
shellQuoteArg(const std::string &arg)
{
    // Single quotes pass everything literally; an embedded single
    // quote becomes '\'' (close, escaped quote, reopen).
    std::string quoted = "'";
    for (char c : arg) {
        if (c == '\'')
            quoted += "'\\''";
        else
            quoted += c;
    }
    quoted += "'";
    return quoted;
}

std::vector<std::string>
sshArgv(const std::string &ssh_program, const std::string &host,
        const std::vector<std::string> &argv, bool token_on_stdin,
        const std::string &trace_id)
{
    // The token never rides argv: the remote shell reads it off the
    // ssh channel's stdin into the environment first. IFS= and -r
    // keep the line byte-exact. The trace id is not a secret and sshd
    // strips foreign env vars, so it is exported in the command.
    std::string command;
    if (token_on_stdin)
        command += "IFS= read -r SMTSTORE_TOKEN; "
                   "export SMTSTORE_TOKEN; ";
    if (!trace_id.empty())
        command += "SMTSWEEP_TRACE_ID=" + shellQuoteArg(trace_id)
                   + "; export SMTSWEEP_TRACE_ID; ";
    command += "exec";
    for (const std::string &arg : argv) {
        command += ' ';
        command += shellQuoteArg(arg);
    }
    // BatchMode forbids password prompts (a coordinator cannot answer
    // them); the remote command is one quoted word.
    return {ssh_program, "-o", "BatchMode=yes", host, command};
}

std::vector<std::string>
parseHostList(const std::string &host_list)
{
    std::vector<std::string> hosts;
    std::size_t pos = 0;
    while (pos <= host_list.size()) {
        const std::size_t comma = host_list.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? host_list.size() : comma;
        if (end > pos)
            hosts.push_back(host_list.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return hosts;
}

WorkerLauncher::WorkerLauncher(std::vector<std::string> hosts,
                               std::string ssh_program, OutputSink sink)
    : hosts_(std::move(hosts)), sshProgram_(std::move(ssh_program)),
      sink_(std::move(sink))
{
}

WorkerLauncher::~WorkerLauncher()
{
    for (auto &[pid, cap] : captures_)
        if (cap.fd >= 0)
            ::close(cap.fd);
}

long
WorkerLauncher::launch(unsigned shard, const std::vector<std::string> &argv)
{
    const bool remote = !hosts_.empty();
    const bool token_on_stdin = remote && !token_.empty();
    const std::vector<std::string> full =
        remote ? sshArgv(sshProgram_, hosts_[shard % hosts_.size()], argv,
                         token_on_stdin, traceId_)
               : argv;

    // Local workers take the token and the trace id from their
    // environment, and see either variable only when this sweep hands
    // them one. (Remote workers get both inside the ssh command.)
    std::vector<std::string> extra_env;
    if (!remote && !token_.empty())
        extra_env.push_back(std::string(kTokenEnvVar) + "=" + token_);
    if (!remote && !traceId_.empty())
        extra_env.push_back(std::string(obs::kTraceEnvVar) + "="
                            + traceId_);

    // Build the exec vectors before forking: the child must go
    // straight to exec without touching the heap.
    std::vector<char *> cargv;
    for (const std::string &arg : full)
        cargv.push_back(const_cast<char *>(arg.c_str()));
    cargv.push_back(nullptr);
    std::vector<char *> cenv;
    for (char **e = environ; *e != nullptr; ++e)
        if (remote || (!setsVar(*e, kTokenEnvVar)
                       && !setsVar(*e, obs::kTraceEnvVar)))
            cenv.push_back(*e);
    for (std::string &entry : extra_env)
        cenv.push_back(entry.data());
    cenv.push_back(nullptr);

    int out_fds[2] = {-1, -1};
    if (::pipe2(out_fds, O_CLOEXEC) != 0)
        smt_fatal("cannot create the capture pipe for shard %u", shard);
    int in_fds[2] = {-1, -1};
    if (token_on_stdin && ::pipe2(in_fds, O_CLOEXEC) != 0)
        smt_fatal("cannot create the token pipe for shard %u", shard);

    const pid_t pid = ::fork();
    if (pid < 0)
        smt_fatal("cannot fork worker for shard %u", shard);
    if (pid == 0) {
        ::close(out_fds[0]);
        ::dup2(out_fds[1], STDOUT_FILENO);
        ::dup2(out_fds[1], STDERR_FILENO);
        ::close(out_fds[1]);
        if (token_on_stdin) {
            ::close(in_fds[1]);
            ::dup2(in_fds[0], STDIN_FILENO);
            ::close(in_fds[0]);
        }
        ::execvpe(cargv[0], cargv.data(), cenv.data());
        std::fprintf(stderr, "smtsweep: cannot exec %s\n", cargv[0]);
        ::_exit(127);
    }
    ::close(out_fds[1]);
    ::fcntl(out_fds[0], F_SETFL, O_NONBLOCK);
    if (token_on_stdin) {
        // One line, written before the worker could possibly block on
        // output (a pipe holds far more than a token), then EOF. An
        // ssh child that died before reading must surface as a failed
        // write, not a SIGPIPE kill — ignore the signal only for the
        // duration of this write.
        struct sigaction ignore = {};
        struct sigaction saved = {};
        ignore.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore, &saved);
        ::close(in_fds[0]);
        if (!writeAll(in_fds[1], token_ + "\n"))
            smt_warn("shard %u: cannot deliver the store token over ssh "
                     "stdin",
                     shard);
        ::close(in_fds[1]);
        ::sigaction(SIGPIPE, &saved, nullptr);
    }

    Capture &cap = captures_[pid];
    cap.shard = shard;
    cap.fd = out_fds[0];
    return pid;
}

void
WorkerLauncher::drain(Capture &cap)
{
    char buf[8192];
    while (cap.fd >= 0) {
        const ssize_t n = ::read(cap.fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            break; // EAGAIN: nothing more right now.
        if (n == 0) { // every writer closed: the worker is gone.
            ::close(cap.fd);
            cap.fd = -1;
            break;
        }
        if (sink_)
            sink_(cap.shard,
                  std::string_view(buf, static_cast<std::size_t>(n)));
    }
}

void
WorkerLauncher::pump(std::chrono::milliseconds window)
{
    const auto until = std::chrono::steady_clock::now() + window;
    while (true) {
        std::vector<pollfd> fds;
        std::vector<Capture *> caps;
        for (auto &[pid, cap] : captures_) {
            if (cap.fd >= 0) {
                fds.push_back({cap.fd, POLLIN, 0});
                caps.push_back(&cap);
            }
        }
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                until - std::chrono::steady_clock::now());
        if (left.count() <= 0)
            return;
        if (fds.empty()) {
            std::this_thread::sleep_for(left);
            return;
        }
        if (::poll(fds.data(), fds.size(),
                   static_cast<int>(left.count()))
            <= 0)
            continue; // timed out (loop exits) or interrupted.
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            drain(*caps[i]);
            if (caps[i]->fd < 0)
                return;
        }
    }
}

bool
WorkerLauncher::poll(long handle, int &exit_code)
{
    auto it = captures_.find(handle);
    smt_assert(it != captures_.end(), "polling an unknown worker");
    Capture &cap = it->second;
    drain(cap);
    if (!cap.exited) {
        int status = 0;
        const pid_t r =
            ::waitpid(static_cast<pid_t>(handle), &status, WNOHANG);
        if (r == 0)
            return false;
        if (r < 0)
            cap.exitCode = 127; // already reaped (or never ours).
        else if (WIFEXITED(status))
            cap.exitCode = WEXITSTATUS(status);
        else if (WIFSIGNALED(status))
            cap.exitCode = 128 + WTERMSIG(status);
        else
            return false; // stopped/continued; keep polling.
        cap.exited = true;
        // Everything the worker wrote is in the pipe by now; a
        // descendant still holding it open must not stall us.
        drain(cap);
        if (cap.fd >= 0) {
            ::close(cap.fd);
            cap.fd = -1;
        }
    }
    exit_code = cap.exitCode;
    return true;
}

void
WorkerLauncher::wait(long handle, int &exit_code)
{
    // The pipe must keep draining while we wait, or a chatty worker
    // blocks on a full pipe and never exits.
    while (!poll(handle, exit_code))
        pump(std::chrono::milliseconds(10));
}

} // namespace smt::dist
