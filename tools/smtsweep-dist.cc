/**
 * @file
 * smtsweep-dist: run a named experiment sharded across worker
 * processes sharing one result store.
 *
 *   smtsweep-dist --experiment smoke --shards 2
 *       partition the smoke grid into two cost-balanced shards, run
 *       one `smtsweep --shard i/2` worker per shard into the shared
 *       store (live progress + ETA on stderr), then merge the store
 *       into the same report a serial `smtsweep --experiment smoke`
 *       prints — bit-identical per-point stats;
 *   smtsweep-dist --experiment fig5 --shards 4 \
 *       --hosts hostA,hostB --store-url http://hostC:8377
 *       the same, but workers run over ssh on a host list against a
 *       store served by `smtstore` — shards span machines;
 *   smtsweep-dist --status --cache-dir DIR|--store-url URL [--json -]
 *       audit a store against its manifest (done / in-progress /
 *       orphaned / pending work), optionally as JSON.
 *
 * Worker deaths are absorbed by orphan-aware work stealing: idle
 * workers adopt the dead shard's digests through the store claim CAS,
 * and the coordinator measures whatever nobody adopted before the
 * merge. A shard is never relaunched.
 *
 * The budget is MeasureOptions' default unless --cycles / --warmup /
 * --runs / --serial override it; the coordinator passes it to every
 * worker as those same flags.
 */

#include <unistd.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "dist/coordinator.hh"
#include "obs/trace.hh"
#include "sweep/experiments.hh"
#include "sweep/remote_store.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"

namespace
{

int
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: smtsweep-dist --experiment NAME [options]\n"
        "       smtsweep-dist --status [--cache-dir DIR | "
        "--store-url URL]\n"
        "\n"
        "options:\n"
        "  --experiment NAME   experiment to run (see smtsweep --list)\n"
        "  --shards N          worker processes to shard across "
        "(default 2)\n"
        "  --cache-dir DIR     shared result store (default\n"
        "                      $SMTSWEEP_CACHE or .smtsweep-cache)\n"
        "  --store-url URL     remote store served by smtstore\n"
        "                      (http://host:port; same slot as\n"
        "                      --cache-dir)\n"
        "  --store-token T     bearer token for a token-protected\n"
        "                      store; forwarded to workers through the\n"
        "                      environment / the ssh channel, never\n"
        "                      argv (prefer --store-token-file or\n"
        "                      $SMTSTORE_TOKEN: argv is visible in ps)\n"
        "  --store-token-file P  read the token's first line from P\n"
        "  --marker-ttl S      worker marker lease seconds (default\n"
        "                      60); peers adopt work whose lease has\n"
        "                      expired past the clock-skew slack\n"
        "  --steal-wait S      orphan-adoption grace seconds per\n"
        "                      worker (default 10)\n"
        "  --jobs N            pool threads per worker (default:\n"
        "                      cores / shards)\n"
        "  --smtsweep PATH     worker binary (default: smtsweep beside\n"
        "                      this executable; with --hosts, the\n"
        "                      path on the remote hosts)\n"
        "  --hosts LIST        run workers over ssh on these hosts\n"
        "                      (comma-separated, round-robin)\n"
        "  --ssh CMD           ssh program for --hosts (default ssh)\n"
        "  --json PATH         write the coordinator summary (with\n"
        "                      --status: the audit; \"-\" = stdout)\n"
        "  --cycles N          measured cycles per run\n"
        "  --warmup N          warmup cycles per run\n"
        "  --runs N            rotation runs per data point\n"
        "  --serial            workers run their points serially\n"
        "  --trace-out FILE    append JSONL trace spans to FILE: the\n"
        "                      coordinator's own and, verbatim, every\n"
        "                      span its workers stream back (local or\n"
        "                      --hosts), all under one trace id. FILE\n"
        "                      alone is a complete profile for smttrace\n"
        "  --no-progress       no live progress line on stderr\n"
        "  --status            audit the store manifest and exit\n"
        "  --verbose           verbose workers + per-point cache logs\n"
        "  --help, -h          print this help\n");
    return code;
}

/** `smtsweep` in this executable's directory (the normal build tree
 *  layout); "./smtsweep" when /proc/self/exe is unreadable. execv()
 *  does not search PATH, so main() verifies the result is runnable
 *  before every shard fails with exit 127. */
std::string
defaultWorkerPath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        std::string self(buf);
        const std::size_t slash = self.rfind('/');
        if (slash != std::string::npos)
            return self.substr(0, slash + 1) + "smtsweep";
    }
    return "./smtsweep";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace smt;

    dist::DistOptions opts;
    opts.ropts = sweep::defaultRunnerOptions();
    if (opts.ropts.cacheDir.empty())
        opts.ropts.cacheDir = ".smtsweep-cache";

    std::string experiment;
    std::string json_path;
    std::string store_token, store_token_file;
    std::string trace_out;
    bool status_mode = false;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "smtsweep-dist: %s needs a value\n",
                         argv[i]);
            std::exit(usage(2));
        }
        return argv[++i];
    };
    // Every count flag: a whole number in [min, max], else exit 2
    // before any worker starts.
    auto count_arg = [&](int &i, std::uint64_t min,
                         std::uint64_t max = UINT64_MAX) -> std::uint64_t {
        const char *flag = argv[i];
        const char *value = next_arg(i);
        const std::optional<std::uint64_t> n = parseWholeNumber(value);
        if (!n || *n < min || *n > max) {
            std::fprintf(stderr,
                         "smtsweep-dist: %s needs a whole number%s, got "
                         "\"%s\"\n",
                         flag, min > 0 ? " >= 1" : "", value);
            std::exit(2);
        }
        return *n;
    };
    auto positive = [&](int &i) {
        return static_cast<unsigned>(count_arg(i, 1, UINT_MAX));
    };
    // Every seconds flag: a finite number in [min, kMaxSeconds]. The
    // workers parse the forwarded value with the same parser.
    auto seconds_arg = [&](int &i, double min) {
        const char *flag = argv[i];
        const char *value = next_arg(i);
        const std::optional<double> s =
            parseSeconds(value, min, kMaxSeconds);
        if (!s) {
            std::fprintf(stderr,
                         "smtsweep-dist: %s needs seconds in %g..%g, got "
                         "\"%s\"\n",
                         flag, min, kMaxSeconds, value);
            std::exit(2);
        }
        return *s;
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--experiment") == 0)
            experiment = next_arg(i);
        else if (std::strcmp(arg, "--shards") == 0)
            opts.shards = positive(i);
        else if (std::strcmp(arg, "--cache-dir") == 0
                 || std::strcmp(arg, "--store-url") == 0)
            opts.ropts.cacheDir = next_arg(i);
        else if (std::strcmp(arg, "--store-token") == 0)
            store_token = next_arg(i);
        else if (std::strcmp(arg, "--store-token-file") == 0)
            store_token_file = next_arg(i);
        else if (std::strcmp(arg, "--marker-ttl") == 0)
            opts.ropts.markerTtlSeconds =
                seconds_arg(i, sweep::kMinMarkerTtlSeconds);
        else if (std::strcmp(arg, "--steal-wait") == 0)
            opts.stealWaitSeconds = seconds_arg(i, 0.0);
        else if (std::strcmp(arg, "--ssh") == 0)
            opts.sshProgram = next_arg(i);
        else if (std::strcmp(arg, "--jobs") == 0)
            opts.jobsPerWorker = positive(i);
        else if (std::strcmp(arg, "--smtsweep") == 0)
            opts.smtsweepPath = next_arg(i);
        else if (std::strcmp(arg, "--hosts") == 0)
            opts.hostList = next_arg(i);
        else if (std::strcmp(arg, "--json") == 0)
            json_path = next_arg(i);
        else if (std::strcmp(arg, "--cycles") == 0)
            opts.ropts.measure.cyclesPerRun = count_arg(i, 1);
        else if (std::strcmp(arg, "--warmup") == 0)
            opts.ropts.measure.warmupCycles = count_arg(i, 0);
        else if (std::strcmp(arg, "--runs") == 0)
            opts.ropts.measure.runs = positive(i);
        else if (std::strcmp(arg, "--serial") == 0)
            opts.ropts.measure.parallel = false;
        else if (std::strcmp(arg, "--trace-out") == 0)
            trace_out = next_arg(i);
        else if (std::strcmp(arg, "--no-progress") == 0)
            opts.showProgress = false;
        else if (std::strcmp(arg, "--status") == 0)
            status_mode = true;
        else if (std::strcmp(arg, "--verbose") == 0)
            opts.ropts.verbose = true;
        else if (std::strcmp(arg, "--help") == 0
                 || std::strcmp(arg, "-h") == 0)
            return usage(0);
        else {
            std::fprintf(stderr, "smtsweep-dist: unknown option %s\n",
                         arg);
            return usage(2);
        }
    }

    opts.ropts.storeToken =
        sweep::resolveStoreToken(store_token, store_token_file);

    // Must outlive runDistributed: the coordinator emits sweep-level
    // spans through it and hands its id to workers and the store.
    std::unique_ptr<obs::TraceWriter> trace;
    if (!trace_out.empty()) {
        trace = std::make_unique<obs::TraceWriter>(trace_out);
        opts.ropts.trace = trace.get();
    }

    if (status_mode)
        return dist::auditStore(opts.ropts.cacheDir,
                                opts.ropts.storeToken,
                                opts.ropts.verbose, json_path);

    if (experiment.empty()) {
        std::fprintf(stderr, "smtsweep-dist: no experiment named "
                             "(see smtsweep --list)\n");
        return usage(2);
    }
    const sweep::NamedExperiment *e = sweep::findExperiment(experiment);
    if (e == nullptr) {
        std::fprintf(stderr,
                     "smtsweep-dist: unknown experiment \"%s\" (see "
                     "smtsweep --list)\n",
                     experiment.c_str());
        return 2;
    }
    if (opts.smtsweepPath.empty())
        opts.smtsweepPath = defaultWorkerPath();
    // With --hosts the worker path names a binary on the remote
    // machines; only the local case can be vetted up front.
    if (opts.hostList.empty()
        && ::access(opts.smtsweepPath.c_str(), X_OK) != 0) {
        std::fprintf(stderr,
                     "smtsweep-dist: worker binary %s is not runnable; "
                     "pass --smtsweep PATH\n",
                     opts.smtsweepPath.c_str());
        return 2;
    }
    if (!opts.hostList.empty()
        && !sweep::isRemoteStoreLocator(opts.ropts.cacheDir))
        std::fprintf(stderr,
                     "smtsweep-dist: note: --hosts with a directory "
                     "store (%s) requires that path to be a shared "
                     "filesystem on every host; serve it with smtstore "
                     "and pass --store-url otherwise\n",
                     opts.ropts.cacheDir.c_str());

    dist::DistOutcome outcome;
    const int rc = dist::runDistributed(*e, opts, outcome);
    if (rc != 0) {
        std::fprintf(stderr, "smtsweep-dist: sweep failed\n");
        return rc;
    }

    sweep::printReport(*e, outcome.merged);
    std::printf("dist %s: %zu points across %u shards, %u merge hits, "
                "%u misses, %.2fs wall\n",
                experiment.c_str(), outcome.merged.points.size(),
                opts.shards, outcome.merged.cacheHits,
                outcome.merged.cacheMisses, outcome.wallSeconds);

    if (!json_path.empty())
        sweep::writeJsonFile(json_path,
                             dist::distArtifact(experiment, outcome));
    return 0;
}
