#include "dist/coordinator.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "common/logging.hh"
#include "dist/launcher.hh"
#include "dist/progress.hh"
#include "sweep/digest.hh"
#include "sweep/remote_store.hh"
#include "sweep/result_store.hh"

namespace smt::dist
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - start)
        .count();
}

sweep::Json
makeManifest(const std::string &experiment,
             const std::vector<sweep::SweepPoint> &grid,
             const ShardPlan &plan, const CostHints &hints)
{
    sweep::Json manifest = sweep::Json::object();
    manifest.set("schema", sweep::Json(sweep::kDigestSchema));
    manifest.set("experiment", sweep::Json(experiment));
    manifest.set("shardCount", sweep::Json(plan.shardCount));
    sweep::Json points = sweep::Json::array();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        sweep::Json p = sweep::Json::object();
        p.set("digest", sweep::Json(plan.digests[i]));
        p.set("shard", sweep::Json(plan.shardOf[i]));
        p.set("label", sweep::Json(grid[i].label));
        p.set("threads", sweep::Json(grid[i].threads));
        points.push(std::move(p));
    }
    manifest.set("points", std::move(points));
    if (!hints.empty()) {
        // Pin the exact cost snapshot the plan was derived from, so a
        // worker re-planning from the manifest cannot diverge.
        sweep::Json costs = sweep::Json::object();
        for (const auto &[digest, seconds] : hints)
            costs.set(digest, sweep::Json(seconds));
        manifest.set("observedCosts", std::move(costs));
    }
    return manifest;
}

/** One status-line chunk from a /v1/stats snapshot: total requests
 *  served and the entry hit ratio — enough to see a hot or sick store
 *  at a glance. Empty when the snapshot has no counters. */
std::string
storeStatsBrief(const sweep::Json &stats)
{
    if (stats.type() != sweep::Json::Type::Object
        || !stats.has("counters"))
        return "";
    const sweep::Json &counters = stats.at("counters");
    if (counters.type() != sweep::Json::Type::Object)
        return "";
    std::uint64_t requests = 0, hits = 0, misses = 0;
    for (const auto &[key, value] : counters.items()) {
        if (value.type() != sweep::Json::Type::UInt)
            continue;
        if (key.rfind("store.requests.", 0) == 0)
            requests += value.asUInt();
        else if (key == "store.entries.hits")
            hits = value.asUInt();
        else if (key == "store.entries.misses")
            misses = value.asUInt();
    }
    char buf[96];
    if (hits + misses > 0)
        std::snprintf(buf, sizeof buf,
                      " | store %llu reqs %.0f%% hits",
                      static_cast<unsigned long long>(requests),
                      100.0 * hits / (hits + misses));
    else
        std::snprintf(buf, sizeof buf, " | store %llu reqs",
                      static_cast<unsigned long long>(requests));
    return buf;
}

/** Declare every unfinished digest of a dead worker's shard orphaned,
 *  so idle workers (and the audit) see abandoned, adoptable work. */
std::size_t
declareShardOrphans(sweep::ResultStore &store, const ShardPlan &plan,
                    unsigned shard)
{
    std::size_t declared = 0;
    for (const auto &[digest, owner] : plan.shardOfDigest) {
        if (owner != shard)
            continue;
        const sweep::WorkState state = store.state(digest);
        if (state == sweep::WorkState::Done)
            continue;
        store.markOrphaned(digest);
        ++declared;
    }
    return declared;
}

/** Why `manifest` cannot be audited, or null when it can. Any store
 *  client may record any JSON as the manifest, and the Json accessors
 *  abort on a type mismatch, so every field is checked first:
 *  `experiment` a string, `points` an array of objects whose digest
 *  looks like one and whose optional shard is a whole number. */
const char *
manifestProblem(const std::optional<sweep::Json> &manifest)
{
    using Type = sweep::Json::Type;
    if (!manifest.has_value())
        return "no sweep manifest recorded (has a coordinator run "
               "here?)";
    const sweep::Json &m = *manifest;
    if (m.type() != Type::Object || !m.has("experiment")
        || m.at("experiment").type() != Type::String)
        return "malformed sweep manifest: no experiment name";
    if (!m.has("points") || m.at("points").type() != Type::Array)
        return "malformed sweep manifest: no points array";
    const sweep::Json &points = m.at("points");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const sweep::Json &p = points[i];
        if (p.type() != Type::Object || !p.has("digest")
            || p.at("digest").type() != Type::String
            || !sweep::looksLikeDigest(p.at("digest").asString()))
            return "malformed sweep manifest: a point's digest";
        if (p.has("shard") && p.at("shard").type() != Type::UInt)
            return "malformed sweep manifest: a point's shard";
    }
    return nullptr;
}

/** `seconds` as the text that parses back to exactly it. */
std::string
exactSeconds(double seconds)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", seconds);
    return buf;
}

} // namespace

std::vector<std::string>
workerShardArgs(const DistOptions &opts, const std::string &experiment,
                unsigned jobs, unsigned shard)
{
    const std::string &locator = opts.ropts.cacheDir;
    const bool remote_store = sweep::isRemoteStoreLocator(locator);
    std::vector<std::string> argv = {
        opts.smtsweepPath,
        "--experiment", experiment,
        "--shard",
        std::to_string(shard) + "/" + std::to_string(opts.shards),
        remote_store ? "--store-url" : "--cache-dir", locator,
        "--jobs", std::to_string(jobs),
        // Forward the measurement knobs explicitly so every worker
        // expands and plans the identical grid the coordinator does.
        "--cycles", std::to_string(opts.ropts.measure.cyclesPerRun),
        "--warmup", std::to_string(opts.ropts.measure.warmupCycles),
        "--runs", std::to_string(opts.ropts.measure.runs),
        "--marker-ttl", exactSeconds(opts.ropts.markerTtlSeconds),
        "--steal", "--steal-wait", exactSeconds(opts.stealWaitSeconds),
    };
    if (!opts.ropts.measure.parallel)
        argv.push_back("--serial");
    if (opts.ropts.verbose)
        argv.push_back("--verbose");
    return argv;
}

int
runDistributed(const sweep::NamedExperiment &experiment,
               const DistOptions &opts, DistOutcome &outcome)
{
    smt_assert(opts.shards >= 1, "need at least one shard");
    if (opts.ropts.cacheDir.empty())
        smt_fatal("a distributed sweep needs a shared store "
                  "(--cache-dir or --store-url)");
    const std::string &name = experiment.spec.name;
    const auto start = std::chrono::steady_clock::now();

    std::unique_ptr<sweep::ResultStore> store =
        sweep::openStore(opts.ropts.cacheDir, opts.ropts.storeToken);

    // The coordinator's trace id brackets the whole sweep: its own
    // store requests carry it, workers inherit it, and the coordinator
    // emits the sweep-level spans (start / worker exits / done)
    // between the workers' per-digest ones.
    obs::TraceWriter *const trace = opts.ropts.trace;
    if (trace != nullptr)
        store->setTraceContext(trace->traceId());
    const auto sweepSpan = [&](const char *event, sweep::Json fields) {
        if (trace != nullptr)
            trace->emit(event, std::move(fields));
    };

    // Plan and record the expected work before any worker starts, so
    // the store can be audited from the first report on. Observed
    // costs from a previous sweep over this store outrank estimates.
    const std::vector<sweep::SweepPoint> grid =
        experiment.spec.expand(opts.ropts.measure);
    CostHints hints;
    if (const std::optional<sweep::Json> previous = store->readManifest())
        hints = costHintsFromManifest(*previous);
    const ShardPlan plan = planShards(grid, opts.shards, hints);
    store->writeManifest(makeManifest(name, grid, plan, hints));

    // Every worker streams its runner spans to stdout: the fold turns
    // them into progress, a traced sweep appends them verbatim to its
    // own trace, and any other output line is forwarded to stderr —
    // on a live terminal over the progress line, which the next tick
    // redraws.
    const bool live_tty = opts.showProgress && ::isatty(2) != 0;
    ProgressFold fold(
        plan,
        [trace](unsigned, const std::string &line) {
            if (trace != nullptr)
                trace->append(line);
        },
        [live_tty](unsigned shard, const std::string &line) {
            std::fprintf(stderr,
                         live_tty ? "\r[shard %u] %-76s\n"
                                  : "[shard %u] %s\n",
                         shard, line.c_str());
        });
    const std::vector<std::string> hosts = parseHostList(opts.hostList);
    if (!opts.hostList.empty() && hosts.empty())
        smt_fatal("--hosts \"%s\" names no hosts", opts.hostList.c_str());
    WorkerLauncher launcher(hosts, opts.sshProgram,
                            [&fold](unsigned shard, std::string_view bytes) {
                                fold.feed(shard, bytes);
                            });
    launcher.setStoreToken(opts.ropts.storeToken);
    if (trace != nullptr)
        launcher.setTraceId(trace->traceId());

    {
        sweep::Json f = sweep::Json::object();
        f.set("experiment", sweep::Json(name));
        f.set("shards", sweep::Json(opts.shards));
        f.set("points",
              sweep::Json(static_cast<std::uint64_t>(grid.size())));
        f.set("store", sweep::Json(store->description()));
        sweepSpan("sweep_start", std::move(f));
    }

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs = opts.jobsPerWorker > 0
                              ? opts.jobsPerWorker
                              : std::max(1u, hw / opts.shards);

    struct Worker
    {
        long handle = -1;
        bool running = false;
        ShardStatus status;
    };
    std::vector<Worker> workers(opts.shards);
    for (unsigned s = 0; s < opts.shards; ++s) {
        workers[s].status.shard = s;
        workers[s].handle =
            launcher.launch(s, workerShardArgs(opts, name, jobs, s));
        workers[s].running = true;
    }

    std::string last_logged;
    unsigned running = opts.shards;
    outcome.orphansDeclared = 0;

    // Live store health: against a remote store, fold a /v1/stats
    // snapshot into the progress line every few seconds (every poll
    // would double the store's request load for no information gain).
    auto *const remote =
        dynamic_cast<sweep::RemoteResultStore *>(store.get());
    std::string store_suffix;
    unsigned ticks = 0;

    auto onExit = [&](Worker &w, int exit_code) {
        w.running = false;
        --running;
        w.status.wallSeconds = secondsSince(start);
        {
            sweep::Json f = sweep::Json::object();
            f.set("shard", sweep::Json(w.status.shard));
            f.set("exitCode", sweep::Json(
                                  static_cast<std::int64_t>(exit_code)));
            f.set("seconds", sweep::Json(w.status.wallSeconds));
            sweepSpan("worker_exit", std::move(f));
        }
        if (exit_code == 0) {
            fold.finish(w.status.shard);
            w.status.succeeded = true;
            return;
        }
        // A dead shard's unfinished digests are declared orphaned:
        // surviving workers adopt them, and the recovery pass below
        // sweeps up anything nobody took.
        const std::size_t declared =
            declareShardOrphans(*store, plan, w.status.shard);
        outcome.orphansDeclared += declared;
        smt_warn("shard %u/%u exited with code %d; declared %zu "
                 "orphaned digest(s) for adoption",
                 w.status.shard, opts.shards, exit_code, declared);
    };

    while (running > 0) {
        for (Worker &w : workers) {
            if (!w.running)
                continue;
            int exit_code = 0;
            if (launcher.poll(w.handle, exit_code))
                onExit(w, exit_code);
        }

        const ProgressSummary summary = fold.summary();
        if (remote != nullptr && ticks++ % 20 == 0) {
            if (std::optional<sweep::Json> s = remote->stats())
                store_suffix = storeStatsBrief(*s);
        }
        const std::string line =
            renderProgressLine(summary, opts.shards, secondsSince(start))
            + store_suffix;
        if (opts.showProgress) {
            if (live_tty) {
                std::fprintf(stderr, "\r[smtsweep] %-70s",
                             line.c_str());
                std::fflush(stderr);
            } else {
                // Non-tty (CI logs): one line per state change, keyed
                // on progress rather than elapsed time.
                std::string key =
                    std::to_string(summary.pointsDone) + "/"
                    + std::to_string(summary.shardsFinished) + "/"
                    + std::to_string(summary.stolen);
                if (key != last_logged) {
                    std::fprintf(stderr, "[smtsweep] %s\n",
                                 line.c_str());
                    last_logged = std::move(key);
                }
            }
        }
        // Deliver worker output as it arrives (a worker blocked on a
        // full pipe would stall), and notice exits within one tick.
        if (running > 0)
            launcher.pump(std::chrono::milliseconds(150));
    }
    if (live_tty)
        std::fprintf(stderr, "\n");

    // Final per-shard numbers, as the span streams reported them.
    outcome.shards.clear();
    outcome.workerCacheHits = 0;
    unsigned succeeded = 0;
    for (Worker &w : workers) {
        const ShardProgress &p = fold.shard(w.status.shard);
        w.status.points = p.points;
        w.status.cacheHits = p.cacheHits;
        w.status.stolen = p.stolen.size();
        if (w.status.succeeded)
            ++succeeded;
        outcome.workerCacheHits += w.status.cacheHits;
        outcome.shards.push_back(w.status);
    }

    // Stealing absorbs *partial* failure. If no worker at all
    // succeeded, the setup is broken (bad --smtsweep path, dead hosts,
    // unreachable store) — recovering the whole grid in-process would
    // just mask it as a slow local run, so fail loudly instead.
    if (succeeded == 0) {
        smt_warn("all %u worker(s) failed; not recovering — check the "
                 "worker binary, hosts, and store",
                 opts.shards);
        return 1;
    }

    // Recovery: anything still unfinished (orphans nobody adopted —
    // every adopter timed out or died) is measured right here, so the
    // merge below never depends on luck.
    std::vector<sweep::SweepPoint> leftovers;
    {
        std::set<std::string> seen;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            if (!seen.insert(plan.digests[i]).second)
                continue;
            if (store->state(plan.digests[i]) != sweep::WorkState::Done)
                leftovers.push_back(grid[i]);
        }
    }
    outcome.recoveredInProcess = leftovers.size();
    if (!leftovers.empty()) {
        smt_warn("recovering %zu unfinished point(s) in-process before "
                 "the merge",
                 leftovers.size());
        sweep::RunnerOptions recovery_opts = opts.ropts;
        recovery_opts.requireCached = false;
        sweep::runPoints(leftovers, recovery_opts);
    }

    // Merge: replay the whole grid from the shared store. Every point
    // must hit — a miss here means a worker lied about finishing — and
    // the replay is bit-identical to a serial run by construction.
    sweep::RunnerOptions merge_opts = opts.ropts;
    merge_opts.requireCached = true;
    outcome.merged = sweep::runSweep(experiment.spec, merge_opts);

    // Dynamic cost feedback: record what each digest actually cost in
    // the manifest, so the next sweep over this store plans from
    // observation instead of estimate. One bulk fetch — not a round
    // trip per digest against a remote store.
    if (std::optional<sweep::Json> manifest = store->readManifest()) {
        const std::map<std::string, double> observed =
            store->observedCosts();
        sweep::Json costs = sweep::Json::object();
        for (const auto &[digest, shard] : plan.shardOfDigest) {
            (void)shard;
            const auto it = observed.find(digest);
            if (it != observed.end())
                costs.set(digest, sweep::Json(it->second));
        }
        manifest->set("observedCosts", std::move(costs));
        store->writeManifest(*manifest);
    }

    outcome.wallSeconds = secondsSince(start);
    {
        sweep::Json f = sweep::Json::object();
        f.set("experiment", sweep::Json(name));
        f.set("seconds", sweep::Json(outcome.wallSeconds));
        f.set("workerCacheHits",
              sweep::Json(static_cast<std::uint64_t>(
                  outcome.workerCacheHits)));
        f.set("orphansDeclared",
              sweep::Json(static_cast<std::uint64_t>(
                  outcome.orphansDeclared)));
        sweepSpan("sweep_done", std::move(f));
    }
    return 0;
}

sweep::Json
distArtifact(const std::string &experiment, const DistOutcome &outcome)
{
    sweep::Json doc = sweep::Json::object();
    doc.set("schema", sweep::Json(sweep::kDigestSchema));
    doc.set("experiment", sweep::Json(experiment));
    doc.set("shards",
            sweep::Json(static_cast<std::uint64_t>(outcome.shards.size())));
    sweep::Json shard_list = sweep::Json::array();
    for (const ShardStatus &s : outcome.shards) {
        sweep::Json j = sweep::Json::object();
        j.set("shard", sweep::Json(s.shard));
        j.set("succeeded", sweep::Json(s.succeeded));
        j.set("points", sweep::Json(static_cast<std::uint64_t>(s.points)));
        j.set("cacheHits",
              sweep::Json(static_cast<std::uint64_t>(s.cacheHits)));
        j.set("stolen",
              sweep::Json(static_cast<std::uint64_t>(s.stolen)));
        j.set("wallSeconds", sweep::Json(s.wallSeconds));
        shard_list.push(std::move(j));
    }
    doc.set("workers", std::move(shard_list));
    doc.set("workerCacheHits",
            sweep::Json(static_cast<std::uint64_t>(outcome.workerCacheHits)));
    doc.set("orphansDeclared",
            sweep::Json(static_cast<std::uint64_t>(
                outcome.orphansDeclared)));
    doc.set("recoveredInProcess",
            sweep::Json(static_cast<std::uint64_t>(
                outcome.recoveredInProcess)));
    doc.set("mergeCacheHits", sweep::Json(outcome.merged.cacheHits));
    doc.set("mergeCacheMisses", sweep::Json(outcome.merged.cacheMisses));
    doc.set("wallSeconds", sweep::Json(outcome.wallSeconds));
    doc.set("merged", sweep::outcomeArtifact({outcome.merged}));
    return doc;
}

sweep::Json
auditArtifact(const std::string &store_locator,
              const std::string &store_token, bool &ok)
{
    ok = false;
    sweep::Json doc = sweep::Json::object();
    doc.set("schema", sweep::Json(sweep::kDigestSchema));

    std::unique_ptr<sweep::ResultStore> store =
        sweep::openStore(store_locator, store_token);
    doc.set("store", sweep::Json(store->description()));
    // A remote store also contributes its live /v1/stats snapshot, so
    // one audit artifact captures both the work ledger and the serving
    // side's health (best-effort: an old server without the route just
    // yields an audit without the snapshot).
    if (auto *remote =
            dynamic_cast<sweep::RemoteResultStore *>(store.get())) {
        if (std::optional<sweep::Json> stats = remote->stats())
            doc.set("storeStats", std::move(*stats));
    }
    const std::optional<sweep::Json> manifest = store->readManifest();
    if (const char *problem = manifestProblem(manifest)) {
        doc.set("error", sweep::Json(problem));
        return doc;
    }
    doc.set("experiment", manifest->at("experiment"));

    const sweep::Json &points = manifest->at("points");
    std::map<std::string, sweep::WorkState> states;
    std::map<std::string, std::uint64_t> shard_of;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string &digest = points[i].at("digest").asString();
        if (states.find(digest) == states.end()) {
            states.emplace(digest, store->state(digest));
            if (points[i].has("shard"))
                shard_of[digest] = points[i].at("shard").asUInt();
        }
    }

    std::map<sweep::WorkState, std::size_t> counts;
    sweep::Json digest_list = sweep::Json::array();
    for (const auto &[digest, state] : states) {
        ++counts[state];
        sweep::Json d = sweep::Json::object();
        d.set("digest", sweep::Json(digest));
        if (shard_of.count(digest))
            d.set("shard", sweep::Json(shard_of[digest]));
        d.set("state", sweep::Json(sweep::toString(state)));
        digest_list.push(std::move(d));
    }

    doc.set("points",
            sweep::Json(static_cast<std::uint64_t>(points.size())));
    doc.set("unique",
            sweep::Json(static_cast<std::uint64_t>(states.size())));
    sweep::Json count_doc = sweep::Json::object();
    count_doc.set("done", sweep::Json(static_cast<std::uint64_t>(
                              counts[sweep::WorkState::Done])));
    count_doc.set("inProgress",
                  sweep::Json(static_cast<std::uint64_t>(
                      counts[sweep::WorkState::InProgress])));
    count_doc.set("orphaned",
                  sweep::Json(static_cast<std::uint64_t>(
                      counts[sweep::WorkState::Orphaned])));
    count_doc.set("pending",
                  sweep::Json(static_cast<std::uint64_t>(
                      counts[sweep::WorkState::Pending])));
    doc.set("counts", std::move(count_doc));
    doc.set("digests", std::move(digest_list));
    ok = true;
    return doc;
}

int
auditStore(const std::string &store_locator,
           const std::string &store_token, bool verbose,
           const std::string &json_path)
{
    bool ok = false;
    const sweep::Json doc =
        auditArtifact(store_locator, store_token, ok);
    if (!ok) {
        std::fprintf(stderr, "%s: %s\n",
                     doc.at("store").asString().c_str(),
                     doc.at("error").asString().c_str());
        return 2;
    }

    if (json_path == "-") {
        std::printf("%s\n", doc.dump(2).c_str());
        return 0;
    }
    if (!json_path.empty())
        sweep::writeJsonFile(json_path, doc);

    const sweep::Json &digests = doc.at("digests");
    if (verbose) {
        for (std::size_t i = 0; i < digests.size(); ++i)
            std::printf("%s  %s\n",
                        digests[i].at("digest").asString().c_str(),
                        digests[i].at("state").asString().c_str());
    }
    const sweep::Json &counts = doc.at("counts");
    std::printf("%s: experiment %s, %llu points (%llu unique), "
                "%llu done, %llu in-progress, %llu orphaned, "
                "%llu pending\n",
                doc.at("store").asString().c_str(),
                doc.at("experiment").asString().c_str(),
                static_cast<unsigned long long>(
                    doc.at("points").asUInt()),
                static_cast<unsigned long long>(
                    doc.at("unique").asUInt()),
                static_cast<unsigned long long>(
                    counts.at("done").asUInt()),
                static_cast<unsigned long long>(
                    counts.at("inProgress").asUInt()),
                static_cast<unsigned long long>(
                    counts.at("orphaned").asUInt()),
                static_cast<unsigned long long>(
                    counts.at("pending").asUInt()));
    return 0;
}

} // namespace smt::dist
