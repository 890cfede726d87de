/**
 * @file
 * smtsweep: run any named experiment through the sweep engine, in this
 * process or sharded across worker processes sharing one result store.
 *
 *   smtsweep --experiment fig5
 *       run Figure 5's grid with on-disk result caching, print its
 *       measured tables, then one verdict per paper claim;
 *   smtsweep --experiment fig5 --require-cached
 *       assert the whole grid replays from cache (CI's second pass);
 *   smtsweep --experiment smoke --shards 2
 *       coordinate: partition the grid into two cost-balanced shards,
 *       run one `smtsweep --shard i/2` worker of this same binary per
 *       shard into the shared store (live progress + ETA on stderr),
 *       then merge the store into the report an in-process run
 *       prints — bit-identical per-point stats;
 *   smtsweep --experiment fig5 --shards 4 \
 *       --hosts hostA,hostB --store-url http://hostC:8377
 *       the same, but workers run over ssh on a host list against a
 *       store served by `smtstore` — shards span machines;
 *   smtsweep --status --cache-dir DIR|--store-url URL [--json -]
 *       audit a store against its manifest (done / in-progress /
 *       orphaned / pending work), optionally as JSON;
 *   smtsweep --list | --describe NAME
 *       enumerate / inspect experiment grids without running them;
 *   smtsweep --bench-simspeed [--json BENCH_simspeed.json]
 *       measure simulator speed (simulated cycles per wall-clock
 *       second) over the default machine shapes and write the
 *       "smt-simspeed-v1" artifact scripts/simspeed-ab.sh gates on.
 *
 * A measurement budget is MeasureOptions' default (40000 measured and
 * 30000 warm-up cycles, 8 runs), overridden by --cycles / --warmup /
 * --runs / --serial and then by an experiment's own spec fields. A
 * coordinator passes the budget to every worker as those same flags.
 *
 * Worker deaths are absorbed by orphan-aware work stealing: idle
 * workers adopt the dead shard's digests through the store claim CAS,
 * and the coordinator measures whatever nobody adopted before the
 * merge. A shard is never relaunched.
 */

#include <unistd.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dist/coordinator.hh"
#include "dist/shard.hh"
#include "obs/trace.hh"
#include "sim/simspeed.hh"
#include "sweep/digest.hh"
#include "sweep/experiments.hh"
#include "sweep/remote_store.hh"
#include "sweep/result_cache.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"
#include "sweep/thread_pool.hh"

namespace
{

int
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: smtsweep --experiment NAME [options]\n"
        "       smtsweep --experiment NAME --shards N [options]\n"
        "       smtsweep --status [--cache-dir DIR | --store-url URL]\n"
        "       smtsweep --list\n"
        "       smtsweep --describe NAME\n"
        "       smtsweep --bench-simspeed [options]\n"
        "\n"
        "options:\n"
        "  --bench-simspeed    measure simulator cycles/sec over the\n"
        "                      default machine shapes; writes the\n"
        "                      smt-simspeed-v1 JSON to --json (default\n"
        "                      BENCH_simspeed.json)\n"
        "  --experiment NAME   experiment to run (repeatable)\n"
        "  --list              list every experiment and exit\n"
        "  --describe NAME     print an experiment's grid as JSON\n"
        "                      (repeatable)\n"
        "  --shards N          coordinate N worker processes of this\n"
        "                      binary, one shard each, over the shared\n"
        "                      store, then merge the store into the\n"
        "                      report (one experiment)\n"
        "  --status            audit the store against its sweep\n"
        "                      manifest (done / in-progress / orphaned\n"
        "                      / pending) and exit\n"
        "  --cache-dir DIR     result store directory (default\n"
        "                      .smtsweep-cache)\n"
        "  --store-url URL     shared result store served by smtstore\n"
        "                      (http://host:port; same slot as\n"
        "                      --cache-dir)\n"
        "  --store-token T     bearer token for a token-protected\n"
        "                      store; --shards hands it to workers\n"
        "                      through the environment / the ssh\n"
        "                      channel, never argv (prefer\n"
        "                      --store-token-file or $SMTSTORE_TOKEN:\n"
        "                      argv is visible in ps)\n"
        "  --store-token-file P  read the token's first line from P\n"
        "  --marker-ttl S      in-progress marker lease seconds\n"
        "                      (default 60; heartbeats refresh at S/3;\n"
        "                      peers adopt work whose lease has expired\n"
        "                      past the clock-skew slack)\n"
        "  --no-cache          disable the result cache\n"
        "  --require-cached    fail on any cache miss\n"
        "  --json PATH         write a BENCH_sweep.json artifact (with\n"
        "                      --shards: the coordinator summary; with\n"
        "                      --status: the audit, \"-\" = stdout)\n"
        "  --cycles N          measured cycles per run\n"
        "  --warmup N          warmup cycles per run\n"
        "  --runs N            rotation runs per data point\n"
        "  --jobs N            worker threads for the shared pool (with\n"
        "                      --shards: per worker, default cores /\n"
        "                      shards)\n"
        "  --serial            run data points serially (no pool)\n"
        "  --shard I/N         run only shard I of N into the shared\n"
        "                      store (the --shards worker protocol: no\n"
        "                      report; its trace spans stream to\n"
        "                      stdout, where the coordinator folds them)\n"
        "  --steal             after the shard: adopt orphaned digests\n"
        "                      of dead shards via the store claim CAS\n"
        "  --steal-wait S      grace seconds to linger for orphans\n"
        "                      (default 10; --shards forwards it)\n"
        "  --hosts LIST        with --shards: run workers over ssh on\n"
        "                      these hosts (comma-separated,\n"
        "                      round-robin)\n"
        "  --ssh CMD           ssh program for --hosts (default ssh)\n"
        "  --smtsweep PATH     with --shards: worker binary (default:\n"
        "                      this executable; with --hosts, the path\n"
        "                      on the remote hosts)\n"
        "  --no-progress       with --shards: no live progress line on\n"
        "                      stderr\n"
        "  --stall-report      after each experiment: print the\n"
        "                      per-thread per-cause stall table (fetch/\n"
        "                      rename/issue slot losses) for every point;\n"
        "                      with --json, each point of the artifact\n"
        "                      also carries the ledger as machine-\n"
        "                      readable \"stalls\" (smttrace --stalls\n"
        "                      embeds it in a sweep profile)\n"
        "  --trace-out FILE    append one JSONL trace span per digest\n"
        "                      transition (queued/claimed/run/stored/\n"
        "                      hit) to FILE; the trace id also rides\n"
        "                      X-Smt-Trace on remote-store requests.\n"
        "                      With --shards, FILE also gets every span\n"
        "                      the workers stream back (local or\n"
        "                      --hosts), all under one trace id: FILE\n"
        "                      alone is a complete profile for smttrace\n"
        "  --pipe-out FILE     stream the pipeline microscope to FILE:\n"
        "                      every measured rotation run appends its\n"
        "                      per-instruction lifecycle (fetch through\n"
        "                      commit/squash) as its own JSONL stream;\n"
        "                      analyze with smtpipe. Cache hits replay\n"
        "                      no cycles and trace nothing\n"
        "  --pipe-window F:L   with --pipe-out: only trace instructions\n"
        "                      fetched in absolute machine cycles\n"
        "                      [F, L] (warmup cycles count; default:\n"
        "                      every cycle — large!)\n"
        "  --pipe-sample N     with --pipe-out: every N cycles inside\n"
        "                      the window, emit an occupancy/stall\n"
        "                      sample line (default 0 = off)\n"
        "  --pipe-ab           with --bench-simspeed: also measure each\n"
        "                      shape with a full-window pipetrace\n"
        "                      writing to /dev/null, and print the\n"
        "                      on/off throughput ratio\n"
        "  --verbose           log per-point cache hits/misses (with\n"
        "                      --shards: verbose workers too)\n"
        "  --help, -h          print this help\n");
    return code;
}

/** "A<sep>B" as two whole numbers; nullopt when either half is not. */
std::optional<std::pair<std::uint64_t, std::uint64_t>>
parsePair(const char *text, char sep)
{
    const char *mid = std::strchr(text, sep);
    if (mid == nullptr)
        return std::nullopt;
    const auto a = smt::parseWholeNumber(std::string(text, mid).c_str());
    const auto b = smt::parseWholeNumber(mid + 1);
    if (!a || !b)
        return std::nullopt;
    return std::pair{*a, *b};
}

/** Parse "I/N" with 0 <= I < N; exits on malformed input. */
void
parseShardSpec(const char *text, unsigned &index, unsigned &count)
{
    const auto spec = parsePair(text, '/');
    if (!spec || spec->first >= spec->second || spec->second > UINT_MAX) {
        std::fprintf(stderr,
                     "smtsweep: --shard wants I/N with 0 <= I < N, "
                     "got \"%s\"\n",
                     text);
        std::exit(usage(2));
    }
    index = static_cast<unsigned>(spec->first);
    count = static_cast<unsigned>(spec->second);
}

/** The registered experiment `name`; null, after saying so on stderr,
 *  when there is none. */
const smt::sweep::NamedExperiment *
lookup(const std::string &name)
{
    const smt::sweep::NamedExperiment *e =
        smt::sweep::findExperiment(name);
    if (e == nullptr)
        std::fprintf(stderr,
                     "smtsweep: unknown experiment \"%s\" (try --list)\n",
                     name.c_str());
    return e;
}

/** This executable's path, the default worker binary of --shards;
 *  empty when /proc/self/exe is unreadable. */
std::string
selfPath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf);
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                 : std::string();
}

/** The report every completed sweep prints before its summary line:
 *  the experiment's tables and claim verdicts, then the stall ledger
 *  of every point with --stall-report. */
void
printOutcome(const smt::sweep::NamedExperiment &e,
             const smt::sweep::SweepOutcome &outcome, bool stall_report)
{
    smt::sweep::printReport(e, outcome);
    if (!stall_report)
        return;
    for (const smt::sweep::PointResult &r : outcome.points)
        std::printf("\nstall report: %s (%u threads)%s\n%s",
                    r.point.label.c_str(), r.point.threads,
                    r.cached ? " [cached]" : "",
                    r.data.stats.stallReport(r.point.threads).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace smt::sweep;

    RunnerOptions ropts;
    ropts.cacheDir = ".smtsweep-cache";

    std::vector<std::string> names;
    std::string json_path;
    std::string store_token, store_token_file;
    smt::dist::ShardWorkerOptions wopts;
    smt::dist::DistOptions dopts;
    unsigned shard_count = 0;
    unsigned shards = 0;
    unsigned jobs = 0;
    bool list = false;
    bool status = false;
    bool bench_simspeed = false;
    bool stall_report = false;
    bool pipe_ab = false;
    std::string trace_out;
    std::string pipe_out;
    std::vector<std::string> describe;
    // Every flag given, for the mode rules below.
    std::set<std::string> given;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "smtsweep: %s needs a value\n", argv[i]);
            std::exit(usage(2));
        }
        return argv[++i];
    };
    // Every count flag: a whole number in [min, max], else exit 2
    // before any point runs or any worker starts.
    auto count_arg = [&](int &i, std::uint64_t min,
                         std::uint64_t max = UINT64_MAX) -> std::uint64_t {
        const char *flag = argv[i];
        const char *value = next_arg(i);
        const std::optional<std::uint64_t> n = smt::parseWholeNumber(value);
        if (!n || *n < min || *n > max) {
            std::fprintf(stderr,
                         "smtsweep: %s needs a whole number%s, got \"%s\"\n",
                         flag, min > 0 ? " >= 1" : "", value);
            std::exit(2);
        }
        return *n;
    };
    auto positive = [&](int &i) {
        return static_cast<unsigned>(count_arg(i, 1, UINT_MAX));
    };
    // Every seconds flag: a finite number in [min, kMaxSeconds]. A
    // coordinator's workers parse the forwarded value with the same
    // parser.
    auto seconds_arg = [&](int &i, double min) {
        const char *flag = argv[i];
        const char *value = next_arg(i);
        const std::optional<double> s =
            smt::parseSeconds(value, min, smt::kMaxSeconds);
        if (!s) {
            std::fprintf(stderr,
                         "smtsweep: %s needs seconds in %g..%g, got "
                         "\"%s\"\n",
                         flag, min, smt::kMaxSeconds, value);
            std::exit(2);
        }
        return *s;
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        given.insert(arg);
        if (std::strcmp(arg, "--experiment") == 0)
            names.push_back(next_arg(i));
        else if (std::strcmp(arg, "--cache-dir") == 0
                 || std::strcmp(arg, "--store-url") == 0)
            ropts.cacheDir = next_arg(i);
        else if (std::strcmp(arg, "--store-token") == 0)
            store_token = next_arg(i);
        else if (std::strcmp(arg, "--store-token-file") == 0)
            store_token_file = next_arg(i);
        else if (std::strcmp(arg, "--marker-ttl") == 0)
            ropts.markerTtlSeconds = seconds_arg(i, kMinMarkerTtlSeconds);
        else if (std::strcmp(arg, "--no-cache") == 0)
            ropts.cacheDir.clear();
        else if (std::strcmp(arg, "--require-cached") == 0)
            ropts.requireCached = true;
        else if (std::strcmp(arg, "--json") == 0)
            json_path = next_arg(i);
        else if (std::strcmp(arg, "--cycles") == 0)
            ropts.measure.cyclesPerRun = count_arg(i, 1);
        else if (std::strcmp(arg, "--warmup") == 0)
            ropts.measure.warmupCycles = count_arg(i, 0);
        else if (std::strcmp(arg, "--runs") == 0)
            ropts.measure.runs = positive(i);
        else if (std::strcmp(arg, "--jobs") == 0)
            jobs = positive(i);
        else if (std::strcmp(arg, "--shards") == 0)
            shards = positive(i);
        else if (std::strcmp(arg, "--status") == 0)
            status = true;
        else if (std::strcmp(arg, "--shard") == 0) {
            parseShardSpec(next_arg(i), wopts.index, shard_count);
            wopts.count = shard_count;
        }
        else if (std::strcmp(arg, "--steal") == 0)
            wopts.steal.enabled = true;
        else if (std::strcmp(arg, "--steal-wait") == 0)
            wopts.steal.waitSeconds = dopts.stealWaitSeconds =
                seconds_arg(i, 0.0);
        else if (std::strcmp(arg, "--hosts") == 0)
            dopts.hostList = next_arg(i);
        else if (std::strcmp(arg, "--ssh") == 0)
            dopts.sshProgram = next_arg(i);
        else if (std::strcmp(arg, "--smtsweep") == 0)
            dopts.smtsweepPath = next_arg(i);
        else if (std::strcmp(arg, "--no-progress") == 0)
            dopts.showProgress = false;
        else if (std::strcmp(arg, "--stall-report") == 0)
            stall_report = true;
        else if (std::strcmp(arg, "--trace-out") == 0)
            trace_out = next_arg(i);
        else if (std::strcmp(arg, "--pipe-out") == 0)
            pipe_out = next_arg(i);
        else if (std::strcmp(arg, "--pipe-window") == 0) {
            const char *value = next_arg(i);
            const auto window = parsePair(value, ':');
            if (!window || window->second < window->first) {
                std::fprintf(stderr,
                             "smtsweep: --pipe-window wants FIRST:LAST "
                             "cycles with FIRST <= LAST, got \"%s\"\n",
                             value);
                return 2;
            }
            ropts.pipeOptions.windowFirst = window->first;
            ropts.pipeOptions.windowLast = window->second;
        }
        else if (std::strcmp(arg, "--pipe-sample") == 0)
            ropts.pipeOptions.samplePeriod = count_arg(i, 0);
        else if (std::strcmp(arg, "--pipe-ab") == 0)
            pipe_ab = true;
        else if (std::strcmp(arg, "--serial") == 0)
            ropts.measure.parallel = false;
        else if (std::strcmp(arg, "--verbose") == 0)
            ropts.verbose = true;
        else if (std::strcmp(arg, "--list") == 0)
            list = true;
        else if (std::strcmp(arg, "--bench-simspeed") == 0)
            bench_simspeed = true;
        else if (std::strcmp(arg, "--describe") == 0)
            describe.push_back(next_arg(i));
        else if (std::strcmp(arg, "--help") == 0
                 || std::strcmp(arg, "-h") == 0)
            return usage(0);
        else {
            std::fprintf(stderr, "smtsweep: unknown option %s\n", arg);
            return usage(2);
        }
    }

    // Mode rules: a flag of another mode exits 2 before any point runs
    // or any worker starts. A coordinator owns the shard protocol and
    // the store its workers share; the launch flags mean nothing
    // without one.
    if (shards > 0) {
        for (const char *flag :
             {"--shard", "--steal", "--no-cache", "--require-cached",
              "--pipe-out", "--pipe-window", "--pipe-sample"}) {
            if (given.count(flag) != 0) {
                std::fprintf(stderr,
                             "smtsweep: --shards does not take %s\n",
                             flag);
                return usage(2);
            }
        }
        if (names.size() > 1) {
            std::fprintf(stderr, "smtsweep: --shards runs exactly one "
                                 "experiment\n");
            return usage(2);
        }
    } else {
        for (const char *flag :
             {"--hosts", "--ssh", "--smtsweep", "--no-progress"}) {
            if (given.count(flag) != 0) {
                std::fprintf(stderr, "smtsweep: %s needs --shards\n",
                             flag);
                return usage(2);
            }
        }
    }
    if (shard_count > 0 && !trace_out.empty()) {
        std::fprintf(stderr, "smtsweep: --shard streams its trace spans "
                             "to stdout; drop --trace-out\n");
        return usage(2);
    }
    if ((shard_count > 0 || status) && ropts.cacheDir.empty()) {
        std::fprintf(stderr, "smtsweep: --%s needs a shared store; do "
                             "not pass --no-cache\n",
                     status ? "status" : "shard");
        return usage(2);
    }

    // Token precedence: explicit flag, then file, then the
    // environment (how a coordinator hands it to its workers without
    // touching their argv).
    ropts.storeToken =
        resolveStoreToken(store_token, store_token_file);

    // The trace writer must outlive every sweep below; its id comes
    // from SMTSWEEP_TRACE_ID when set, else a fresh one is minted. A
    // coordinator emits its sweep-level spans through it and hands its
    // id to workers and the store.
    std::unique_ptr<smt::obs::TraceWriter> trace;
    if (!trace_out.empty()) {
        trace = std::make_unique<smt::obs::TraceWriter>(trace_out);
        ropts.trace = trace.get();
    }

    if (status)
        return smt::dist::auditStore(ropts.cacheDir, ropts.storeToken,
                                     ropts.verbose, json_path);

    // The pipe sink is shared by every measured run of every sweep
    // below; each run interleaves its own stream into the one file.
    std::unique_ptr<smt::obs::PipeTraceSink> pipe_sink;
    if (!pipe_out.empty()) {
        pipe_sink = std::make_unique<smt::obs::PipeTraceSink>(pipe_out);
        ropts.pipeSink = pipe_sink.get();
    }

    if (list) {
        for (const NamedExperiment &e : allExperiments())
            std::printf("%-16s %4zu points  %s\n", e.spec.name.c_str(),
                        e.spec.gridSize(), e.spec.title.c_str());
        return 0;
    }
    for (const std::string &name : describe) {
        const NamedExperiment *e = lookup(name);
        if (e == nullptr)
            return 2;
        std::printf("%s\n", e->spec.describe().dump(2).c_str());
    }
    if (!describe.empty() && names.empty())
        return 0;

    // Simulator-speed benchmark: no sweep engine, no cache — just the
    // measurement library and its JSON artifact.
    if (bench_simspeed) {
        smt::simspeed::Options sopts;
        sopts.warmupCycles = ropts.measure.warmupCycles;
        sopts.measureCycles = ropts.measure.cyclesPerRun;
        sopts.repeats = ropts.measure.runs;
        sopts.pipeAb = pipe_ab;
        const auto results =
            smt::simspeed::measureAll(smt::simspeed::defaultShapes(),
                                      sopts);
        std::fputs(smt::simspeed::formatTable(results).c_str(), stdout);
        const std::string out_path =
            json_path.empty() ? "BENCH_simspeed.json" : json_path;
        writeJsonFile(out_path, smt::simspeed::toJson(results, sopts));
        std::printf("wrote %s\n", out_path.c_str());
        return 0;
    }

    if (names.empty()) {
        std::fprintf(stderr, "smtsweep: no experiment named "
                             "(try --list)\n");
        return usage(2);
    }

    // Coordinator: workers of this binary measure the shards into the
    // shared store; the merge replays it into the usual report. --jobs
    // sizes each worker's pool, never this process's.
    if (shards > 0) {
        const NamedExperiment *e = lookup(names[0]);
        if (e == nullptr)
            return 2;
        dopts.shards = shards;
        dopts.jobsPerWorker = jobs;
        dopts.ropts = ropts;
        if (dopts.smtsweepPath.empty())
            dopts.smtsweepPath = selfPath();
        // With --hosts the worker path names a binary on the remote
        // machines; only the local case can be vetted up front.
        if (dopts.hostList.empty()
            && ::access(dopts.smtsweepPath.c_str(), X_OK) != 0) {
            std::fprintf(stderr,
                         "smtsweep: worker binary %s is not runnable; "
                         "pass --smtsweep PATH\n",
                         dopts.smtsweepPath.c_str());
            return 2;
        }
        if (!dopts.hostList.empty()
            && !isRemoteStoreLocator(dopts.ropts.cacheDir))
            std::fprintf(stderr,
                         "smtsweep: note: --hosts with a directory "
                         "store (%s) requires that path to be a shared "
                         "filesystem on every host; serve it with "
                         "smtstore and pass --store-url otherwise\n",
                         dopts.ropts.cacheDir.c_str());

        smt::dist::DistOutcome outcome;
        const int rc = smt::dist::runDistributed(*e, dopts, outcome);
        if (rc != 0) {
            std::fprintf(stderr, "smtsweep: sweep failed\n");
            return rc;
        }
        printOutcome(*e, outcome.merged, stall_report);
        std::printf("dist %s: %zu points across %u shards, %u merge "
                    "hits, %u misses, %.2fs wall\n",
                    names[0].c_str(), outcome.merged.points.size(),
                    shards, outcome.merged.cacheHits,
                    outcome.merged.cacheMisses, outcome.wallSeconds);
        if (!json_path.empty())
            writeJsonFile(json_path,
                          smt::dist::distArtifact(names[0], outcome));
        return 0;
    }
    ropts.jobs = jobs;

    // Worker protocol: measure only this shard's slice of the grid
    // into the shared store; the coordinator merges and reports.
    if (shard_count > 0) {
        if (names.size() != 1) {
            std::fprintf(stderr, "smtsweep: --shard runs exactly one "
                                 "experiment\n");
            return usage(2);
        }
        const NamedExperiment *e = lookup(names[0]);
        if (e == nullptr)
            return 2;
        // The runner's spans are the worker's only report. They join
        // the sweep's trace when the coordinator exports one; without
        // it they carry no trace id, which keeps them out of the
        // store's access log.
        const char *trace_id = std::getenv(smt::obs::kTraceEnvVar);
        smt::obs::TraceWriter spans(stdout,
                                    trace_id != nullptr ? trace_id : "");
        ropts.trace = &spans;
        const smt::dist::ShardRunResult r =
            smt::dist::runShard(e->spec, ropts, wopts);
        std::printf("shard %u/%u of %s: %zu points (%zu hits, "
                    "%zu misses), %zu stolen, %.2fs wall\n",
                    wopts.index, wopts.count, names[0].c_str(), r.points,
                    r.cacheHits, r.cacheMisses, r.stolen, r.wallSeconds);
        return 0;
    }

    std::vector<SweepOutcome> outcomes;
    for (const std::string &name : names) {
        const NamedExperiment *e = lookup(name);
        if (e == nullptr)
            return 2;
        SweepOutcome outcome = runSweep(e->spec, ropts);
        printOutcome(*e, outcome, stall_report);
        std::printf("sweep %s: %zu points, %u cache hits, %u misses, "
                    "%.2fs wall (pool: %u workers%s)\n",
                    outcome.spec.name.c_str(), outcome.points.size(),
                    outcome.cacheHits, outcome.cacheMisses,
                    outcome.wallSeconds, ThreadPool::global().workerCount(),
                    ropts.cacheDir.empty() ? ", cache off" : "");
        outcomes.push_back(std::move(outcome));
    }

    if (!json_path.empty())
        writeJsonFile(json_path, outcomeArtifact(outcomes, stall_report));
    return 0;
}
