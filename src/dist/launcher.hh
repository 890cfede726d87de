/**
 * @file
 * The worker launcher: start `smtsweep --shard i/N` processes — on
 * this host, or over ssh on a host list — and capture each one's
 * stdout and stderr through one pipe.
 *
 * Local and remote workers differ only in how they start. A remote
 * launch wraps the worker argv with sshArgv() (`ssh -o BatchMode=yes
 * HOST 'exec smtsweep ...'`, hosts assigned round-robin) and pipes
 * the store token to the remote shell's stdin; a local one hands the
 * token and the trace id over in the exec environment. Either way the
 * token never rides an argv that `ps` would show. Capture, polling
 * and waiting are the same code for both. No agent,
 * daemon, or shared filesystem is required on a remote host beyond a
 * reachable `smtsweep` binary and the store URL.
 *
 * The ssh program is injectable; tests substitute a stub that runs
 * the command locally, exercising the whole remote path without an
 * sshd.
 */

#ifndef SMT_DIST_LAUNCHER_HH
#define SMT_DIST_LAUNCHER_HH

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace smt::dist
{

/** Quote one argument for the remote POSIX shell ssh invokes. */
std::string shellQuoteArg(const std::string &arg);

/**
 * The local argv for one remote worker launch: ssh_program, options,
 * the host, and the quoted remote command. With `token_on_stdin` the
 * remote command first reads one line from its stdin into
 * SMTSTORE_TOKEN before exec'ing the worker — the launcher pipes the
 * store token through ssh's encrypted channel, so it never appears in
 * argv (ps) on either host. A non-empty `trace_id` is exported as
 * SMTSWEEP_TRACE_ID inside the remote command (sshd drops foreign env
 * vars; a trace id is not a secret, so the command line is fine), so
 * remote workers join the coordinator's trace.
 */
std::vector<std::string> sshArgv(const std::string &ssh_program,
                                 const std::string &host,
                                 const std::vector<std::string> &argv,
                                 bool token_on_stdin = false,
                                 const std::string &trace_id = "");

/** Parse "hostA,hostB,user@hostC" (empty names skipped). */
std::vector<std::string> parseHostList(const std::string &host_list);

class WorkerLauncher
{
  public:
    /** Receives each chunk a worker writes to stdout or stderr, in
     *  order, tagged with the worker's shard. */
    using OutputSink =
        std::function<void(unsigned shard, std::string_view bytes)>;

    /** Empty `hosts` launches on this host; otherwise over
     *  `ssh_program` to the hosts, round-robin by shard. Without a
     *  sink, captured output is discarded. */
    explicit WorkerLauncher(std::vector<std::string> hosts = {},
                            std::string ssh_program = "ssh",
                            OutputSink sink = {});
    ~WorkerLauncher();

    WorkerLauncher(const WorkerLauncher &) = delete;
    WorkerLauncher &operator=(const WorkerLauncher &) = delete;

    /** Hand every future worker the store bearer token (workers read
     *  it back from SMTSTORE_TOKEN). */
    void setStoreToken(const std::string &token) { token_ = token; }

    /** Hand every future worker the sweep's trace id
     *  (SMTSWEEP_TRACE_ID), so their spans join the coordinator's
     *  trace. Workers see the variable only when this is set. */
    void setTraceId(const std::string &trace_id) { traceId_ = trace_id; }

    /** Start the worker for `shard` (argv[0] is the program); returns
     *  its handle. */
    long launch(unsigned shard, const std::vector<std::string> &argv);

    /** Deliver whatever output arrives within `window`, returning
     *  early when a worker closes its output (it is exiting). */
    void pump(std::chrono::milliseconds window);

    /** Poll a worker; true once it has exited, filling `exit_code`
     *  (128+signal for a signalled death). Drains its output first. */
    bool poll(long handle, int &exit_code);

    /** Block until the worker exits, draining its output. */
    void wait(long handle, int &exit_code);

  private:
    struct Capture
    {
        unsigned shard = 0;
        int fd = -1; ///< read end of the stdout+stderr pipe.
        bool exited = false;
        int exitCode = 0;
    };

    /** Non-blocking read of everything the pipe holds into the sink;
     *  closes the pipe at end of file. */
    void drain(Capture &cap);

    std::vector<std::string> hosts_;
    std::string sshProgram_;
    OutputSink sink_;
    std::string token_;
    std::string traceId_;
    std::map<long, Capture> captures_; ///< keyed by child pid.
};

} // namespace smt::dist

#endif // SMT_DIST_LAUNCHER_HH
