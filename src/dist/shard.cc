#include "dist/shard.hh"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "common/logging.hh"
#include "sweep/digest.hh"
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

} // namespace

double
estimatedPointCost(const sweep::SweepPoint &point)
{
    const MeasureOptions &opts = point.options;
    const double cycles =
        static_cast<double>(opts.warmupCycles + opts.cyclesPerRun);
    const double width = point.threads >= 1 ? point.threads : 1;
    return cycles * opts.runs * width;
}

CostHints
costHintsFromManifest(const sweep::Json &manifest)
{
    CostHints hints;
    if (manifest.type() != sweep::Json::Type::Object
        || !manifest.has("observedCosts"))
        return hints;
    const sweep::Json &costs = manifest.at("observedCosts");
    if (costs.type() != sweep::Json::Type::Object)
        return hints;
    for (const auto &[digest, seconds] : costs.items()) {
        if (seconds.isNumber() && seconds.asDouble() > 0.0)
            hints.emplace(digest, seconds.asDouble());
    }
    return hints;
}

ShardPlan
planShards(const std::vector<sweep::SweepPoint> &points,
           unsigned shard_count, const CostHints &observed)
{
    smt_assert(shard_count >= 1, "cannot plan zero shards");

    ShardPlan plan;
    plan.shardCount = shard_count;
    plan.members.resize(shard_count);
    plan.cost.assign(shard_count, 0.0);

    // Collect unique digests with their cost — observed wall time when
    // a previous sweep recorded one, the static estimate otherwise.
    // Duplicate points (same digest) are one unit of work: the runner
    // measures them once.
    struct Unit
    {
        std::string digest;
        double cost;
    };
    std::vector<Unit> units;
    std::set<std::string> seen;
    plan.digests.reserve(points.size());
    for (const sweep::SweepPoint &p : points) {
        std::string digest = sweep::measurementDigest(p.config, p.options);
        if (seen.insert(digest).second) {
            const auto hint = observed.find(digest);
            units.push_back({digest, hint != observed.end()
                                         ? hint->second
                                         : estimatedPointCost(p)});
        }
        plan.digests.push_back(std::move(digest));
    }

    // LPT over the digest set: costliest first (ties by digest, so the
    // order — and hence the whole plan — is input-order independent),
    // each onto the least-loaded shard (ties to the lowest index).
    std::sort(units.begin(), units.end(), [](const Unit &a, const Unit &b) {
        if (a.cost != b.cost)
            return a.cost > b.cost;
        return a.digest < b.digest;
    });
    for (const Unit &u : units) {
        unsigned best = 0;
        for (unsigned s = 1; s < shard_count; ++s)
            if (plan.cost[s] < plan.cost[best])
                best = s;
        plan.shardOfDigest.emplace(u.digest, best);
        plan.cost[best] += u.cost;
    }

    plan.shardOf.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const unsigned shard = plan.shardOfDigest.at(plan.digests[i]);
        plan.shardOf.push_back(shard);
        plan.members[shard].push_back(i);
    }
    return plan;
}

ShardRunResult
runShard(const sweep::ExperimentSpec &spec,
         const sweep::RunnerOptions &ropts,
         const ShardWorkerOptions &wopts)
{
    smt_assert(wopts.count >= 1 && wopts.index < wopts.count,
               "shard %u/%u out of range", wopts.index, wopts.count);
    if (ropts.cacheDir.empty())
        smt_fatal("a shard run needs a shared store (--cache-dir or "
                  "--store-url): its results are merged from there, "
                  "not printed");

    const auto start = std::chrono::steady_clock::now();
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openStore(ropts.cacheDir, ropts.storeToken);

    // Assignment: re-plan from the cost snapshot the coordinator
    // pinned in the manifest, which yields the coordinator's own plan
    // (the plan is a pure function of digest set and snapshot).
    const std::vector<sweep::SweepPoint> grid =
        spec.expand(ropts.measure);
    const std::optional<sweep::Json> manifest = store->readManifest();
    const ShardPlan plan = planShards(
        grid, wopts.count,
        manifest.has_value() ? costHintsFromManifest(*manifest)
                             : CostHints{});

    std::vector<sweep::SweepPoint> mine;
    for (std::size_t i : plan.members[wopts.index])
        mine.push_back(grid[i]);

    ShardRunResult out;
    const std::vector<sweep::PointResult> results =
        sweep::runPoints(mine, ropts);

    out.points = results.size();
    for (const sweep::PointResult &r : results) {
        if (r.cached)
            ++out.cacheHits;
        else
            ++out.cacheMisses;
    }

    // Work stealing: linger while unfinished work remains anywhere in
    // the grid, adopting orphaned digests through the store's claim
    // CAS. Adoption resets the grace period; a quiet grace period with
    // only live work left means the remaining shards have it covered.
    if (wopts.steal.enabled) {
        std::map<std::string, std::size_t> uniq; // digest -> grid idx
        for (std::size_t i = 0; i < grid.size(); ++i)
            uniq.emplace(plan.digests[i], i);

        // Completion is permanent, so each poll learns the done set
        // from one bulk listing and pays a per-digest state probe
        // only for the (shrinking) unfinished tail — against a remote
        // store that is one round-trip per poll plus one per laggard,
        // not one per grid digest.
        std::set<std::string> done;
        auto last_activity = std::chrono::steady_clock::now();
        while (true) {
            for (std::string &d : store->storedDigests())
                done.insert(std::move(d));
            bool all_done = true;
            bool adopted = false;
            for (const auto &[digest, idx] : uniq) {
                if (done.count(digest))
                    continue;
                const sweep::WorkState state = store->state(digest);
                if (state == sweep::WorkState::Done)
                    continue;
                all_done = false;
                if (state != sweep::WorkState::Orphaned)
                    continue;
                const std::string expect =
                    store->readMarkerText(digest);
                if (expect.empty() || !store->tryAdopt(digest, expect))
                    continue; // a rival adopter beat us to it.
                if (ropts.verbose)
                    smt_inform("shard %u: adopted orphaned %s",
                               wopts.index, digest.c_str());
                sweep::RunnerOptions steal_opts = ropts;
                steal_opts.requireCached = false;
                sweep::runPoints({grid[idx]}, steal_opts);
                ++out.stolen;
                adopted = true;
                last_activity = std::chrono::steady_clock::now();
            }
            if (all_done)
                break;
            if (!adopted) {
                if (secondsSince(last_activity)
                    > wopts.steal.waitSeconds)
                    break;
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    wopts.steal.pollSeconds));
            }
        }
    }

    out.wallSeconds = secondsSince(start);
    return out;
}

ShardRunResult
runShard(const sweep::ExperimentSpec &spec,
         const sweep::RunnerOptions &ropts, unsigned shard_index,
         unsigned shard_count)
{
    ShardWorkerOptions wopts;
    wopts.index = shard_index;
    wopts.count = shard_count;
    return runShard(spec, ropts, wopts);
}

} // namespace smt::dist
