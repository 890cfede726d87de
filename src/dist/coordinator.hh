/**
 * @file
 * The multi-process sweep coordinator.
 *
 * Plans the shard partition (preferring observed point costs from the
 * store manifest over estimates), records the expected-work manifest
 * in the shared store, launches one `smtsweep --shard i/N` worker per
 * shard, folds their span streams into a live stderr progress line
 * (with ETA), and finally merges the store back into a SweepOutcome —
 * a pure cache replay, so the merged result is bit-identical to a
 * serial run of the same experiment whichever store (local directory
 * or remote smtstore) backed it.
 *
 * Failure handling is work stealing: every worker runs with --steal,
 * a dead worker's unfinished digests are declared orphaned in the
 * store, and surviving workers adopt them through the claim CAS. No
 * shard is ever relaunched; anything still unfinished when the last
 * worker exits is recovered in-process before the merge.
 *
 * Workers run on this host or, with a host list, over ssh
 * (dist/launcher.hh). Their only report is the runner's span stream
 * on stdout, which the coordinator captures and folds against its
 * plan into the progress line and the per-shard summary
 * (dist/progress.hh); a traced sweep also appends every span to its
 * own trace file.
 */

#ifndef SMT_DIST_COORDINATOR_HH
#define SMT_DIST_COORDINATOR_HH

#include <string>
#include <vector>

#include "dist/shard.hh"
#include "sweep/experiments.hh"
#include "sweep/json.hh"
#include "sweep/runner.hh"

namespace smt::dist
{

struct DistOptions;

/**
 * The argv one worker shard is launched with (exposed so tests can
 * pin what the coordinator forwards). It names no file: the worker
 * streams its spans to stdout whether or not the sweep is traced.
 * Seconds are forwarded exactly (round-trip %.17g), so a worker parses
 * the very value the coordinator accepted.
 * The store token is deliberately never part of this argv — it
 * travels out of band through the launcher (argv shows up in ps).
 */
std::vector<std::string>
workerShardArgs(const DistOptions &opts, const std::string &experiment,
                unsigned jobs, unsigned shard);

/** How to run a distributed sweep. */
struct DistOptions
{
    unsigned shards = 2;

    /** Pool workers per worker process; 0 = cores / shards. */
    unsigned jobsPerWorker = 0;

    /** Worker binary (`smtsweep --shards` passes its own executable
     *  unless --smtsweep names another). With --hosts this is the
     *  path on the *remote* hosts. */
    std::string smtsweepPath;

    /** Remote host list ("hostA,hostB"); empty = local processes. */
    std::string hostList;

    /** ssh binary for the remote backend (tests inject a stub). */
    std::string sshProgram = "ssh";

    /** Grace period a worker lingers for orphans (--steal-wait). */
    double stealWaitSeconds = 10.0;

    /** Live progress line on stderr. */
    bool showProgress = true;

    /** Measurement knobs + the shared store locator (cacheDir must be
     *  set — a directory or an http:// store URL); forwarded to every
     *  worker and used for the merge pass. */
    sweep::RunnerOptions ropts;
};

/** One shard's lifecycle as the coordinator saw it. */
struct ShardStatus
{
    unsigned shard = 0;
    bool succeeded = false;
    std::size_t points = 0;
    std::size_t cacheHits = 0;
    std::size_t stolen = 0;
    double wallSeconds = 0.0;
};

/** A completed distributed sweep. */
struct DistOutcome
{
    sweep::SweepOutcome merged;
    std::vector<ShardStatus> shards;
    std::size_t workerCacheHits = 0;

    /** Digests declared orphaned after worker deaths (work stealing). */
    std::size_t orphansDeclared = 0;

    /** Orphans nobody adopted, measured by the coordinator itself. */
    std::size_t recoveredInProcess = 0;

    double wallSeconds = 0.0;
};

/**
 * Run `experiment` sharded opts.shards ways. Returns 0 on success
 * (outcome filled, merge verified all-hits), 1 when every worker
 * failed: a broken setup is reported, not recovered in-process.
 */
int runDistributed(const sweep::NamedExperiment &experiment,
                   const DistOptions &opts, DistOutcome &outcome);

/** The machine-readable coordinator summary (BENCH_dist.json body). */
sweep::Json distArtifact(const std::string &experiment,
                         const DistOutcome &outcome);

/**
 * Audit a store against its manifest: per-digest done / in-progress /
 * orphaned / pending classification (the coordinator's view of a
 * sweep it did not run itself). `store_token` authenticates against a
 * token-protected remote store. Prints the human table to stdout;
 * per-digest lines when `verbose`. `json_path` additionally emits the
 * audit as JSON — "-" for stdout (replacing the table), else a file
 * path. Returns an exit code.
 */
int auditStore(const std::string &store_locator,
               const std::string &store_token, bool verbose,
               const std::string &json_path = "");

/** The audit document auditStore() emits (exposed for tests). `ok`
 *  is false, and `error` set, when the store holds no manifest or one
 *  that fails the field checks; auditStore() then exits 2. */
sweep::Json auditArtifact(const std::string &store_locator,
                          const std::string &store_token, bool &ok);

} // namespace smt::dist

#endif // SMT_DIST_COORDINATOR_HH
