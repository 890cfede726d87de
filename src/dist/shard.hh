/**
 * @file
 * The shard planner: deterministically partition an expanded sweep
 * grid into N disjoint shards of roughly equal simulation cost.
 *
 * The unit of work is the measurement digest — the same handle that
 * keys the result store — so the partition is a pure function of the
 * *set* of digests in the grid (plus an optional cost-hint snapshot):
 * stable under point reordering, across processes, and across hosts.
 * Every process of a distributed sweep (coordinator, each worker, the
 * merge pass) re-derives the same plan from the spec instead of
 * shipping assignments around; a worker re-plans from the cost hints
 * the coordinator pinned in the store manifest (`observedCosts`), so
 * it gets the coordinator's plan. The manifest's per-point `shard` is
 * a record for `smtsweep --status`, never read back as a plan.
 *
 * Planning is greedy LPT (longest processing time first): unique
 * digests sorted by descending cost — the observed wall time recorded
 * in the store manifest when a previous sweep measured that digest,
 * else the estimate (cycles x runs, scaled by thread count) — ties
 * broken by digest, each assigned to the least-loaded shard.
 * Duplicate points share their digest's shard, so no two shards ever
 * measure the same machine.
 */

#ifndef SMT_DIST_SHARD_HH
#define SMT_DIST_SHARD_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "sweep/json.hh"
#include "sweep/runner.hh"
#include "sweep/spec.hh"

namespace smt::dist
{

/** Relative simulation cost of one grid point (the estimate used when
 *  no observed cost is on record). */
double estimatedPointCost(const sweep::SweepPoint &point);

/** Observed per-digest wall seconds, keyed as the planner wants them. */
using CostHints = std::map<std::string, double>;

/** The cost hints a coordinator recorded in a store manifest
 *  ("observedCosts"); empty when the manifest has none. */
CostHints costHintsFromManifest(const sweep::Json &manifest);

/** A deterministic partition of a grid into disjoint shards. */
struct ShardPlan
{
    unsigned shardCount = 0;

    /** Shard owning each input point (parallel to the input vector). */
    std::vector<unsigned> shardOf;

    /** Each input point's measurement digest (computed while
     *  planning; callers reuse it instead of re-hashing the grid). */
    std::vector<std::string> digests;

    /** Point indices per shard, in input order. */
    std::vector<std::vector<std::size_t>> members;

    /** Cost per shard (duplicates counted once). */
    std::vector<double> cost;

    /** The order-independent digest -> shard assignment. */
    std::map<std::string, unsigned> shardOfDigest;
};

/**
 * Partition `points` into `shard_count` disjoint shards. A digest with
 * an entry in `observed` is weighed by that observed wall time instead
 * of its estimate — the dynamic cost feedback loop. The plan is a pure
 * function of (digest set, observed snapshot).
 */
ShardPlan planShards(const std::vector<sweep::SweepPoint> &points,
                     unsigned shard_count,
                     const CostHints &observed = {});

/** How a worker lingers after its own shard to adopt orphaned work. */
struct StealOptions
{
    bool enabled = false;

    /** Keep polling for orphans this long after the last adoption
     *  (and after finishing the shard) before giving up while other
     *  shards still run. */
    double waitSeconds = 10.0;

    /** Store poll interval while lingering. */
    double pollSeconds = 0.2;
};

/** One worker's share of a shard run. */
struct ShardRunResult
{
    std::size_t points = 0;
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;
    std::size_t stolen = 0; ///< orphaned digests adopted and measured.
    double wallSeconds = 0.0;
};

/** The worker protocol's knobs (`smtsweep --shard i/N ...`). */
struct ShardWorkerOptions
{
    unsigned index = 0;
    unsigned count = 1;
    StealOptions steal;
};

/**
 * Run one shard of an experiment into the shared store
 * (ropts.cacheDir names it — a directory or a store URL). The
 * assignment is planShards() over the grid with the manifest's cost
 * hints — identical inputs yield identical plans in every worker. With
 * stealing enabled the worker lingers after its own slice and adopts
 * orphaned digests of dead shards through the store's claim CAS.
 * Progress is reported through ropts.trace: the runner's hit and
 * stored spans are what a coordinator folds (dist/progress.hh).
 */
ShardRunResult runShard(const sweep::ExperimentSpec &spec,
                        const sweep::RunnerOptions &ropts,
                        const ShardWorkerOptions &wopts);

/** Convenience overload (no stealing). */
ShardRunResult runShard(const sweep::ExperimentSpec &spec,
                        const sweep::RunnerOptions &ropts,
                        unsigned shard_index, unsigned shard_count);

} // namespace smt::dist

#endif // SMT_DIST_SHARD_HH
