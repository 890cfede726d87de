/**
 * @file
 * smtsweep: run any named experiment through the sweep engine.
 *
 *   smtsweep --experiment fig5
 *       run Figure 5's grid with on-disk result caching, print its
 *       measured tables, then one verdict per paper claim;
 *   smtsweep --experiment fig5 --require-cached
 *       assert the whole grid replays from cache (CI's second pass);
 *   smtsweep --list | --describe NAME
 *       enumerate / inspect experiment grids without running them;
 *   smtsweep --bench-simspeed [--json BENCH_simspeed.json]
 *       measure simulator speed (simulated cycles per wall-clock
 *       second) over the default machine shapes and write the
 *       "smt-simspeed-v1" artifact scripts/check-simspeed.sh gates on.
 *
 * A measurement budget is MeasureOptions' default (40000 measured and
 * 30000 warm-up cycles, 8 runs), overridden by --cycles / --warmup /
 * --runs / --serial and then by an experiment's own spec fields.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dist/shard.hh"
#include "obs/trace.hh"
#include "sim/simspeed.hh"
#include "sweep/digest.hh"
#include "sweep/experiments.hh"
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
        "  --cache-dir DIR     result cache directory (default\n"
        "                      $SMTSWEEP_CACHE or .smtsweep-cache)\n"
        "  --store-url URL     shared result store served by smtstore\n"
        "                      (http://host:port; same slot as\n"
        "                      --cache-dir)\n"
        "  --store-token T     bearer token for a token-protected\n"
        "                      store (prefer --store-token-file or\n"
        "                      $SMTSTORE_TOKEN: argv is visible in ps)\n"
        "  --store-token-file P  read the token's first line from P\n"
        "  --marker-ttl S      in-progress marker lease seconds\n"
        "                      (default 60; heartbeats refresh at S/3)\n"
        "  --no-cache          disable the result cache\n"
        "  --require-cached    fail on any cache miss\n"
        "  --json PATH         write a BENCH_sweep.json artifact\n"
        "  --cycles N          measured cycles per run\n"
        "  --warmup N          warmup cycles per run\n"
        "  --runs N            rotation runs per data point\n"
        "  --jobs N            worker threads for the shared pool\n"
        "  --serial            run data points serially (no pool)\n"
        "  --shard I/N         run only shard I of N into the shared\n"
        "                      store (the smtsweep-dist worker protocol:\n"
        "                      no report; its trace spans stream to\n"
        "                      stdout, where the coordinator folds them)\n"
        "  --steal             after the shard: adopt orphaned digests\n"
        "                      of dead shards via the store claim CAS\n"
        "  --steal-wait S      grace seconds to linger for orphans\n"
        "                      (default 10)\n"
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
        "                      X-Smt-Trace on remote-store requests\n"
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
        "  --verbose           log per-point cache hits/misses\n"
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace smt::sweep;

    RunnerOptions ropts = defaultRunnerOptions();
    if (ropts.cacheDir.empty())
        ropts.cacheDir = ".smtsweep-cache";

    std::vector<std::string> names;
    std::string json_path;
    std::string store_token, store_token_file;
    smt::dist::ShardWorkerOptions wopts;
    unsigned shard_count = 0;
    bool list = false;
    bool bench_simspeed = false;
    bool stall_report = false;
    bool pipe_ab = false;
    std::string trace_out;
    std::string pipe_out;
    std::vector<std::string> describe;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "smtsweep: %s needs a value\n", argv[i]);
            std::exit(usage(2));
        }
        return argv[++i];
    };
    // Every count flag: a whole number in [min, max], else exit 2
    // before any point runs.
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
    // Every seconds flag: a finite number in [min, kMaxSeconds].
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
            ropts.measure.runs =
                static_cast<unsigned>(count_arg(i, 1, UINT_MAX));
        else if (std::strcmp(arg, "--jobs") == 0)
            ropts.jobs = static_cast<unsigned>(count_arg(i, 1, UINT_MAX));
        else if (std::strcmp(arg, "--shard") == 0) {
            parseShardSpec(next_arg(i), wopts.index, shard_count);
            wopts.count = shard_count;
        }
        else if (std::strcmp(arg, "--steal") == 0)
            wopts.steal.enabled = true;
        else if (std::strcmp(arg, "--steal-wait") == 0)
            wopts.steal.waitSeconds = seconds_arg(i, 0.0);
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

    if (shard_count > 0 && !trace_out.empty()) {
        std::fprintf(stderr, "smtsweep: --shard streams its trace spans "
                             "to stdout; drop --trace-out\n");
        return usage(2);
    }

    // Token precedence: explicit flag, then file, then the
    // environment (how a coordinator hands it to its workers without
    // touching their argv).
    ropts.storeToken =
        resolveStoreToken(store_token, store_token_file);

    // The trace writer must outlive every sweep below; its id comes
    // from SMTSWEEP_TRACE_ID when set, else a fresh one is minted.
    std::unique_ptr<smt::obs::TraceWriter> trace;
    if (!trace_out.empty()) {
        trace = std::make_unique<smt::obs::TraceWriter>(trace_out);
        ropts.trace = trace.get();
    }

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
        const NamedExperiment *e = findExperiment(name);
        if (e == nullptr) {
            std::fprintf(stderr, "smtsweep: unknown experiment \"%s\"\n",
                         name.c_str());
            return 2;
        }
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

    // Worker protocol: measure only this shard's slice of the grid
    // into the shared store; the coordinator merges and reports.
    if (shard_count > 0) {
        if (names.size() != 1) {
            std::fprintf(stderr, "smtsweep: --shard runs exactly one "
                                 "experiment\n");
            return usage(2);
        }
        const NamedExperiment *e = findExperiment(names[0]);
        if (e == nullptr) {
            std::fprintf(stderr, "smtsweep: unknown experiment \"%s\" "
                                 "(try --list)\n",
                         names[0].c_str());
            return 2;
        }
        if (ropts.cacheDir.empty()) {
            std::fprintf(stderr, "smtsweep: --shard needs a shared "
                                 "store; do not pass --no-cache\n");
            return usage(2);
        }
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
        const NamedExperiment *e = findExperiment(name);
        if (e == nullptr) {
            std::fprintf(stderr, "smtsweep: unknown experiment \"%s\" "
                                 "(try --list)\n",
                         name.c_str());
            return 2;
        }
        SweepOutcome outcome = runSweep(e->spec, ropts);
        printReport(*e, outcome);
        if (stall_report) {
            for (const PointResult &r : outcome.points)
                std::printf("\nstall report: %s (%u threads)%s\n%s",
                            r.point.label.c_str(), r.point.threads,
                            r.cached ? " [cached]" : "",
                            r.data.stats.stallReport(r.point.threads)
                                .c_str());
        }
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
