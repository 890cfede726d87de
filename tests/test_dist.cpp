/**
 * @file
 * Tests for the distributed sweep subsystem: shard planning
 * (disjointness, completeness, stability, balance), the hardened
 * result store (in-progress markers, orphan detection, manifest),
 * the span fold behind the coordinator's progress line, and the
 * acceptance bar — a sharded run merged from a shared store is
 * bit-identical to a serial sweep, in-process and end to end through
 * real `smtsweep` workers (local and over a stub ssh).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <thread>

#include "dist/coordinator.hh"
#include "dist/progress.hh"
#include "dist/shard.hh"
#include "obs/trace.hh"
#include "obs/trace_analysis.hh"
#include "support.hh"
#include "sweep/digest.hh"
#include "sweep/experiments.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"
#include "sweep/serialize.hh"

namespace smt::dist
{
namespace
{

namespace fs = std::filesystem;
using sweep::NamedExperiment;
using sweep::SweepPoint;

std::vector<SweepPoint>
fig5Grid()
{
    const NamedExperiment *fig5 = sweep::findExperiment("fig5");
    EXPECT_NE(fig5, nullptr);
    return fig5->spec.expand(tinyOptions());
}

// ---- Shard planning --------------------------------------------------------

TEST(ShardPlan, PartitionIsDisjointAndComplete)
{
    const std::vector<SweepPoint> grid = fig5Grid();
    for (unsigned shards : {1u, 2u, 3u, 7u}) {
        const ShardPlan plan = planShards(grid, shards);
        ASSERT_EQ(plan.shardOf.size(), grid.size());
        ASSERT_EQ(plan.members.size(), shards);

        // Every point is owned by exactly one shard, and the members
        // lists are exactly the inverse of shardOf.
        std::set<std::size_t> seen;
        for (unsigned s = 0; s < shards; ++s) {
            for (std::size_t idx : plan.members[s]) {
                EXPECT_EQ(plan.shardOf[idx], s);
                EXPECT_TRUE(seen.insert(idx).second)
                    << "point " << idx << " in two shards";
            }
        }
        EXPECT_EQ(seen.size(), grid.size());
    }
}

TEST(ShardPlan, StableAcrossRunsAndPointOrderings)
{
    const std::vector<SweepPoint> grid = fig5Grid();
    const ShardPlan plan = planShards(grid, 3);
    EXPECT_EQ(planShards(grid, 3).shardOfDigest, plan.shardOfDigest);

    // Reversing and shuffling the points must not move any digest to
    // a different shard: the plan is a function of the digest set.
    std::vector<SweepPoint> reversed(grid.rbegin(), grid.rend());
    EXPECT_EQ(planShards(reversed, 3).shardOfDigest, plan.shardOfDigest);

    std::vector<SweepPoint> shuffled = grid;
    std::mt19937 rng(7);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    EXPECT_EQ(planShards(shuffled, 3).shardOfDigest, plan.shardOfDigest);

    // And the per-point ownership follows each point's digest.
    const ShardPlan rplan = planShards(reversed, 3);
    for (std::size_t i = 0; i < reversed.size(); ++i) {
        const std::string digest = sweep::measurementDigest(
            reversed[i].config, reversed[i].options);
        EXPECT_EQ(rplan.shardOf[i], plan.shardOfDigest.at(digest));
    }
}

TEST(ShardPlan, BalancesEstimatedCost)
{
    const std::vector<SweepPoint> grid = fig5Grid();
    const ShardPlan plan = planShards(grid, 4);

    // The greedy LPT bound: no two bins differ by more than the
    // largest single unit of work.
    double max_unit = 0.0;
    for (const SweepPoint &p : grid)
        max_unit = std::max(max_unit, estimatedPointCost(p));
    const auto [lo, hi] =
        std::minmax_element(plan.cost.begin(), plan.cost.end());
    EXPECT_LE(*hi - *lo, max_unit);
    EXPECT_GT(*lo, 0.0) << "a shard was left without work";
}

TEST(ShardPlan, DuplicateDigestsShareAShard)
{
    std::vector<SweepPoint> grid = fig5Grid();
    // Append a copy of an existing point: same digest, so it must
    // land in its twin's shard rather than being balanced separately.
    grid.push_back(grid[3]);
    const ShardPlan plan = planShards(grid, 5);
    EXPECT_EQ(plan.shardOf.back(), plan.shardOf[3]);
}

TEST(ShardPlan, ObservedCostsOutrankEstimates)
{
    const std::vector<SweepPoint> grid = fig5Grid();
    const ShardPlan base = planShards(grid, 3);

    // Hints that invert reality: the digests the estimator thinks are
    // cheap become the most expensive. The plan must follow the hints
    // (the hinted costs land in plan.cost), stay a pure function of
    // them, and differ from the unhinted plan.
    CostHints hints;
    double weight = 1000.0;
    for (auto it = base.shardOfDigest.rbegin();
         it != base.shardOfDigest.rend(); ++it) {
        hints[it->first] = weight;
        weight *= 0.5;
    }
    const ShardPlan hinted = planShards(grid, 3, hints);
    EXPECT_EQ(planShards(grid, 3, hints).shardOfDigest,
              hinted.shardOfDigest);

    double total_hinted = 0.0;
    for (const auto &[digest, cost] : hints)
        total_hinted += cost;
    double total_planned = 0.0;
    for (double c : hinted.cost)
        total_planned += c;
    EXPECT_NEAR(total_planned, total_hinted, 1e-6);

    // LPT balance holds under the hinted weights too.
    double max_unit = 0.0;
    for (const auto &[digest, cost] : hints)
        max_unit = std::max(max_unit, cost);
    const auto [lo, hi] =
        std::minmax_element(hinted.cost.begin(), hinted.cost.end());
    EXPECT_LE(*hi - *lo, max_unit);
}

TEST(ShardPlan, CostHintsRoundTripThroughManifests)
{
    sweep::Json manifest = sweep::Json::object();
    sweep::Json costs = sweep::Json::object();
    costs.set(std::string(32, 'a'), sweep::Json(1.5));
    costs.set(std::string(32, 'b'), sweep::Json(0.25));
    costs.set(std::string(32, 'c'), sweep::Json(-1.0)); // ignored.
    manifest.set("observedCosts", std::move(costs));

    const CostHints hints = costHintsFromManifest(manifest);
    ASSERT_EQ(hints.size(), 2u);
    EXPECT_NEAR(hints.at(std::string(32, 'a')), 1.5, 1e-12);
    EXPECT_NEAR(hints.at(std::string(32, 'b')), 0.25, 1e-12);

    EXPECT_TRUE(costHintsFromManifest(sweep::Json::object()).empty());
}

TEST(ShardPlan, MoreShardsThanWorkLeavesTrailingShardsEmpty)
{
    const NamedExperiment *smoke = sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);
    const std::vector<SweepPoint> grid = smoke->spec.expand(tinyOptions());
    const ShardPlan plan = planShards(grid, grid.size() + 3);
    std::size_t populated = 0;
    for (const auto &members : plan.members)
        populated += members.empty() ? 0 : 1;
    EXPECT_EQ(populated, grid.size());
}

// ---- Result store ----------------------------------------------------------

TEST(ResultStore, MarkersDriveWorkStates)
{
    TempDir dir("store");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());

    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = sweep::measurementDigest(cfg, opts);

    EXPECT_EQ(store->state(digest), sweep::WorkState::Pending);

    store->markInProgress(digest);
    EXPECT_EQ(store->state(digest), sweep::WorkState::InProgress);

    // store() persists the entry and clears the marker.
    const DataPoint measured = measure(cfg, opts);
    store->store(digest, cfg, opts, measured.stats);
    EXPECT_EQ(store->state(digest), sweep::WorkState::Done);
    EXPECT_FALSE(
        fs::exists(dir.path() + "/" + digest + ".inprogress"));

    const std::optional<SimStats> hit = store->lookup(digest);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(sweep::toJson(*hit).dump(),
              sweep::toJson(measured.stats).dump());
    EXPECT_EQ(store->storedDigests(),
              std::vector<std::string>{digest});
}

TEST(ResultStore, DeadWritersAreOrphans)
{
    TempDir dir("orphan");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());
    const std::string digest(32, 'b');

    // A marker left by a crashed process on this host: its pid cannot
    // be alive (Linux pids are bounded well below this value).
    char host[256] = {};
    ASSERT_EQ(::gethostname(host, sizeof host - 1), 0);
    {
        std::ofstream marker(dir.path() + "/" + digest + ".inprogress");
        marker << "{\"pid\": 999999999, \"host\": \"" << host << "\"}";
    }
    EXPECT_EQ(store->state(digest), sweep::WorkState::Orphaned);

    // A marker from a foreign host cannot be probed: presumed live.
    {
        std::ofstream marker(dir.path() + "/" + digest + ".inprogress");
        marker << "{\"pid\": 999999999, \"host\": \"elsewhere\"}";
    }
    EXPECT_EQ(store->state(digest), sweep::WorkState::InProgress);

    // A torn marker (crash mid-write) is an orphan, not an error.
    {
        std::ofstream marker(dir.path() + "/" + digest + ".inprogress");
        marker << "{\"pid\": 99";
    }
    EXPECT_EQ(store->state(digest), sweep::WorkState::Orphaned);
}

TEST(ResultStore, DeclaredOrphansAndClaimCas)
{
    TempDir dir("cas");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());
    const std::string digest(32, 'd');

    // A coordinator-declared orphan is orphaned for every observer,
    // whatever host probes it (pid 0 can never be alive).
    store->markOrphaned(digest);
    EXPECT_EQ(store->state(digest), sweep::WorkState::Orphaned);

    // CAS: the first adopter presenting the current marker bytes
    // wins and owns the work; its own retry reads as success; a rival
    // with the stale bytes loses.
    const std::string marker = store->readMarkerText(digest);
    ASSERT_FALSE(marker.empty());
    EXPECT_TRUE(store->tryAdopt(digest, marker));
    EXPECT_EQ(store->state(digest), sweep::WorkState::InProgress);
    EXPECT_TRUE(store->tryAdopt(digest, marker));
    sweep::Json rival = sweep::Json::object();
    rival.set("pid", sweep::Json(std::uint64_t{999999999}));
    rival.set("host", sweep::Json("elsewhere"));
    static_cast<sweep::LocalDirStore *>(store.get())
        ->writeMarker(digest, rival);
    EXPECT_FALSE(store->tryAdopt(digest, marker));

    // Finished work is not adoptable, and declaring it orphaned is a
    // no-op.
    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string done = sweep::measurementDigest(cfg, opts);
    store->store(done, cfg, opts, measure(cfg, opts).stats);
    store->markOrphaned(done);
    EXPECT_EQ(store->state(done), sweep::WorkState::Done);
    EXPECT_FALSE(store->tryAdopt(done, store->readMarkerText(done)));
}

TEST(ResultStore, ObservedCostRoundTrips)
{
    TempDir dir("cost");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());
    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = sweep::measurementDigest(cfg, opts);

    EXPECT_TRUE(store->observedCosts().empty());
    store->store(digest, cfg, opts, measure(cfg, opts).stats, 2.5);
    std::map<std::string, double> costs = store->observedCosts();
    ASSERT_EQ(costs.count(digest), 1u);
    EXPECT_NEAR(costs.at(digest), 2.5, 1e-12);

    // Entries stored without timing (pure replays) report none.
    const std::string untimed(32, 'e');
    store->store(untimed, cfg, opts, measure(cfg, opts).stats);
    costs = store->observedCosts();
    EXPECT_EQ(costs.size(), 1u);
    EXPECT_EQ(costs.count(untimed), 0u);
}

TEST(ResultStore, ManifestRoundTripsAndIsNotAnEntry)
{
    TempDir dir("manifest");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());
    EXPECT_FALSE(store->readManifest().has_value());

    sweep::Json manifest = sweep::Json::object();
    manifest.set("experiment", sweep::Json("smoke"));
    manifest.set("shardCount", sweep::Json(2u));
    store->writeManifest(manifest);

    const std::optional<sweep::Json> read = store->readManifest();
    ASSERT_TRUE(read.has_value());
    EXPECT_TRUE(*read == manifest);

    // The manifest file must not read as a cached result.
    EXPECT_TRUE(store->storedDigests().empty());
}

TEST(ResultStore, TokenResolutionPrecedenceAndFirstLine)
{
    TempDir dir("token");
    const std::string path = dir.path() + "/token";
    {
        std::ofstream out(path);
        out << "  tok-123 \n# provisioned 2026-07\n";
    }
    // The file contract is "first line, trimmed" — later lines must
    // never leak into the Authorization header.
    EXPECT_EQ(sweep::resolveStoreToken("", path), "tok-123");
    // An explicit token outranks the file...
    EXPECT_EQ(sweep::resolveStoreToken("explicit", path), "explicit");
    // ...and the environment backstops both (how workers receive it).
    ASSERT_EQ(::setenv("SMTSTORE_TOKEN", " env-tok \n", 1), 0);
    EXPECT_EQ(sweep::resolveStoreToken("", ""), "env-tok");
    ::unsetenv("SMTSTORE_TOKEN");
    EXPECT_EQ(sweep::resolveStoreToken("", ""), "");
}

// ---- Marker TTL leases -----------------------------------------------------

/** Seconds since the epoch on the system clock (what deadlines use). */
double
epochNow()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/** A marker from an unprobeable foreign host with a given deadline —
 *  the cross-host worker-death case only the TTL can detect. */
void
writeForeignMarker(sweep::ResultStore &store, const std::string &digest,
                   double deadline)
{
    sweep::Json marker = sweep::Json::object();
    marker.set("pid", sweep::Json(std::uint64_t{999999999}));
    marker.set("host", sweep::Json("elsewhere"));
    marker.set("deadline", sweep::Json(deadline));
    static_cast<sweep::LocalDirStore &>(store).writeMarker(digest,
                                                           marker);
}

TEST(MarkerTtl, ExpiryIsJudgedWithClockSkewSlack)
{
    TempDir dir("ttl");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());
    const std::string digest(32, 'a');

    // Live lease: in progress, however unprobeable the host is.
    writeForeignMarker(*store, digest, epochNow() + 60.0);
    EXPECT_EQ(store->state(digest), sweep::WorkState::InProgress);

    // Expired — but by less than the slack (default 10 s): clock skew
    // between hosts must not orphan a healthy worker.
    writeForeignMarker(*store, digest, epochNow() - 2.0);
    EXPECT_EQ(store->state(digest), sweep::WorkState::InProgress);

    // Expired beyond the slack: orphaned, no coordinator involved.
    writeForeignMarker(*store, digest, epochNow() - 3600.0);
    EXPECT_EQ(store->state(digest), sweep::WorkState::Orphaned);

    // The slack is tunable (tests and skew-hostile deployments):
    // under a tiny slack the same 2-second expiry is already death.
    ASSERT_EQ(::setenv("SMTSWEEP_MARKER_SLACK", "0.5", 1), 0);
    writeForeignMarker(*store, digest, epochNow() - 2.0);
    EXPECT_EQ(store->state(digest), sweep::WorkState::Orphaned);
    ::unsetenv("SMTSWEEP_MARKER_SLACK");

    // Markers without a deadline (an older writer) keep the old
    // semantics: foreign hosts are presumed live.
    sweep::Json legacy = sweep::Json::object();
    legacy.set("pid", sweep::Json(std::uint64_t{999999999}));
    legacy.set("host", sweep::Json("elsewhere"));
    static_cast<sweep::LocalDirStore *>(store.get())
        ->writeMarker(digest, legacy);
    EXPECT_EQ(store->state(digest), sweep::WorkState::InProgress);
}

TEST(MarkerTtl, HeartbeatKeepsLeasesFreshUntilRemoved)
{
    TempDir dir("heartbeat");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());
    const std::string digest(32, 'b');

    const double ttl = 0.3;
    store->markInProgress(digest, ttl);
    const std::string first = store->readMarkerText(digest);
    ASSERT_FALSE(first.empty());

    sweep::MarkerHeartbeat heartbeat(*store, ttl);
    heartbeat.add(digest);
    // Several refresh cadences later the lease has been rewritten
    // with a later deadline (same owner, fresher bytes).
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const std::string refreshed = store->readMarkerText(digest);
    ASSERT_FALSE(refreshed.empty());
    EXPECT_NE(refreshed, first);
    const sweep::Json a = sweep::Json::parseOrDie(first);
    const sweep::Json b = sweep::Json::parseOrDie(refreshed);
    EXPECT_GT(b.at("deadline").asDouble(), a.at("deadline").asDouble());
    EXPECT_EQ(a.at("pid").asUInt(), b.at("pid").asUInt());
    EXPECT_TRUE(sweep::sameMarkerOwner(refreshed, a));

    // After remove() the marker is left alone — clearing it sticks.
    // (A beat snapshotted just before remove() may still land; give
    // it a cadence to drain before clearing.)
    heartbeat.remove(digest);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    static_cast<sweep::LocalDirStore *>(store.get())
        ->clearInProgress(digest);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(store->readMarkerText(digest), "");
}

TEST(MarkerTtl, HeartbeatStartsItsThreadOnTheFirstAdd)
{
    TempDir dir("idle-heartbeat");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());
    const auto threads = [] {
        return std::distance(fs::directory_iterator("/proc/self/task"),
                             fs::directory_iterator());
    };

    // A cache replay builds a heartbeat and never marks anything: it
    // must not pay for a thread.
    const auto before = threads();
    {
        sweep::MarkerHeartbeat idle(*store, 0.3);
        idle.remove(std::string(32, 'c'));
        EXPECT_EQ(threads(), before);
    }
    EXPECT_EQ(threads(), before);

    sweep::MarkerHeartbeat beating(*store, 0.3);
    beating.add(std::string(32, 'd'));
    EXPECT_EQ(threads(), before + 1);
}

TEST(MarkerTtl, StealLoopAdoptsExpiredLeasesWithoutACoordinator)
{
    // The cross-host death scenario, coordinator declaration disabled:
    // a worker on another host (unprobeable pid) took shard 0, marked
    // its digests, and was kill -9'd — all that remains is its markers
    // with expired leases. A surviving shard-1 worker's steal loop
    // must adopt and measure every one of them from the marker TTL
    // alone.
    const NamedExperiment *smoke = sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    TempDir dir("ttlsteal");
    sweep::RunnerOptions ropts;
    ropts.measure = tinyOptions();
    ropts.cacheDir = dir.path();

    const std::vector<SweepPoint> grid =
        smoke->spec.expand(ropts.measure);
    const ShardPlan plan = planShards(grid, 2);
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());
    std::size_t dead_digests = 0;
    for (const auto &[digest, shard] : plan.shardOfDigest) {
        if (shard != 0)
            continue;
        writeForeignMarker(*store, digest, epochNow() - 3600.0);
        ++dead_digests;
    }
    ASSERT_GT(dead_digests, 0u);

    ShardWorkerOptions wopts;
    wopts.index = 1;
    wopts.count = 2;
    wopts.steal.enabled = true;
    wopts.steal.waitSeconds = 5.0;
    const ShardRunResult r = runShard(smoke->spec, ropts, wopts);
    EXPECT_EQ(r.stolen, dead_digests);

    // Nothing left behind: every digest in the grid is Done and the
    // merge replays entirely from the store.
    for (const auto &[digest, shard] : plan.shardOfDigest) {
        (void)shard;
        EXPECT_EQ(store->state(digest), sweep::WorkState::Done);
    }
    sweep::RunnerOptions merge = ropts;
    merge.requireCached = true;
    const sweep::SweepOutcome merged =
        sweep::runSweep(smoke->spec, merge);
    EXPECT_EQ(merged.cacheMisses, 0u);
}

// ---- Progress: the span fold -----------------------------------------------

/** Four points: digest "a" twice (shard 0), "b" and "c" (shard 1). */
ShardPlan
foldPlan()
{
    ShardPlan plan;
    plan.shardCount = 2;
    plan.digests = {"a", "a", "b", "c"};
    plan.shardOf = {0, 0, 1, 1};
    plan.members = {{0, 1}, {2, 3}};
    plan.shardOfDigest = {{"a", 0}, {"b", 1}, {"c", 1}};
    return plan;
}

/** One runner span line, as a worker streams it. */
std::string
spanLine(const char *event, const char *digest)
{
    return std::string("{\"ts\": 1.0, \"event\": \"") + event
           + "\", \"trace\": \"\", \"digest\": \"" + digest + "\"}\n";
}

TEST(ProgressFold, FoldsHitAndStoredSpansAgainstThePlan)
{
    const ShardPlan plan = foldPlan();
    std::vector<std::string> spans, forwarded;
    const auto tagged = [](std::vector<std::string> &out) {
        return [&out](unsigned shard, const std::string &line) {
            out.push_back(std::to_string(shard) + " " + line);
        };
    };
    ProgressFold fold(plan, tagged(spans), tagged(forwarded));

    // Totals come from the plan, before any worker reports.
    EXPECT_EQ(renderProgressLine(fold.summary(), 2, 0.0),
              "0/4 points, 0 hits, 0/2 shards done, 0.0s elapsed");

    // Shard 0 replays both points of "a" (one hit span each); shard 1
    // measures "b", its stored span split across two reads, then
    // prints its summary.
    fold.feed(0, spanLine("hit", "a") + spanLine("hit", "a"));
    const std::string stored_b = spanLine("stored", "b");
    fold.feed(1, spanLine("queued", "b") + spanLine("claimed", "b")
                     + spanLine("run", "b") + stored_b.substr(0, 20));
    fold.feed(1, stored_b.substr(20) + "shard 1/2 of smoke: 1 point\n");

    ProgressSummary sum = fold.summary();
    EXPECT_EQ(sum.pointsDone, 3u);
    EXPECT_EQ(sum.pointsTotal, 4u);
    EXPECT_EQ(sum.cacheHits, 2u);
    EXPECT_EQ(sum.stolen, 0u);
    EXPECT_EQ(sum.shardsFinished, 0u);

    // Every span passes on verbatim (the traced coordinator's file);
    // every other line is forwarded.
    ASSERT_EQ(spans.size(), 6u);
    EXPECT_EQ(spans.back(), "1 " + stored_b.substr(0, stored_b.size() - 1));
    EXPECT_EQ(forwarded,
              std::vector<std::string>{"1 shard 1/2 of smoke: 1 point"});

    // Shard 0 adopts shard 1's "c" and exits 0: a steal, not a point
    // of its own.
    fold.feed(0, spanLine("stored", "c"));
    fold.finish(0);
    sum = fold.summary();
    EXPECT_EQ(sum.pointsDone, 3u);
    EXPECT_EQ(sum.stolen, 1u);
    EXPECT_EQ(sum.shardsFinished, 1u);
    EXPECT_EQ(fold.shard(0).points, 2u);
    EXPECT_EQ(fold.shard(0).cacheHits, 2u);
    EXPECT_EQ(fold.shard(0).stolen.size(), 1u);
    EXPECT_EQ(fold.shard(1).pointsDone, 1u);
    EXPECT_EQ(fold.shard(1).cacheHits, 0u);

    // 3 points in 6s -> 2s per point -> 1 left -> eta 2s.
    EXPECT_NEAR(sum.etaSeconds(6.0), 2.0, 1e-9);
    EXPECT_EQ(renderProgressLine(sum, 2, 6.0),
              "3/4 points, 2 hits, 1 stolen, 1/2 shards done, 6.0s "
              "elapsed, eta 2.0s");
}

TEST(ProgressFold, TornTrailingLinesAreIgnored)
{
    const ShardPlan plan = foldPlan();
    std::size_t spans = 0;
    std::vector<std::string> forwarded;
    ProgressFold fold(
        plan, [&spans](unsigned, const std::string &) { ++spans; },
        [&forwarded](unsigned, const std::string &line) {
            forwarded.push_back(line);
        });

    // The worker dies mid-line: the torn tail neither counts nor
    // reaches stderr or the trace.
    fold.feed(1, spanLine("stored", "b") + "{\"ts\": 2.0, \"event\": \"st");
    EXPECT_EQ(fold.summary().pointsDone, 1u);
    EXPECT_EQ(spans, 1u);
    EXPECT_TRUE(forwarded.empty());

    ProgressSummary empty;
    EXPECT_LT(empty.etaSeconds(1.0), 0.0); // no rate yet -> unknown.
}

// ---- The acceptance bar ----------------------------------------------------

TEST(Dist, WorkerArgvNamesNoFileAndNeverTheToken)
{
    dist::DistOptions opts;
    opts.shards = 2;
    opts.smtsweepPath = "/opt/smtsweep";
    opts.ropts.cacheDir = "http://store:8377";
    opts.ropts.storeToken = "super-secret-token";

    const auto value_after = [](const std::vector<std::string> &argv,
                                const std::string &flag) -> std::string {
        const auto it = std::find(argv.begin(), argv.end(), flag);
        return it != argv.end() && it + 1 != argv.end() ? *(it + 1)
                                                        : "";
    };

    const std::vector<std::string> argv =
        dist::workerShardArgs(opts, "smoke", 4, 1);
    EXPECT_EQ(value_after(argv, "--store-url"), "http://store:8377");
    EXPECT_EQ(value_after(argv, "--shard"), "1/2");

    // Workers report on stdout whether or not the sweep is traced, so
    // the argv names no trace or progress file. The token travels out
    // of band (stdin / environment), never in an argv ps would show.
    for (const std::string &arg : argv) {
        EXPECT_EQ(arg.find("--trace-out"), std::string::npos);
        EXPECT_EQ(arg.find("progress"), std::string::npos);
        EXPECT_EQ(arg.find("super-secret-token"), std::string::npos);
    }

    // A directory locator forwards as --cache-dir instead.
    opts.ropts.cacheDir = "/shared/cache";
    const std::vector<std::string> local_store =
        dist::workerShardArgs(opts, "smoke", 1, 0);
    EXPECT_EQ(value_after(local_store, "--cache-dir"), "/shared/cache");
    EXPECT_EQ(std::find(local_store.begin(), local_store.end(),
                        "--store-url"),
              local_store.end());
}

TEST(Dist, WorkerArgvAlwaysStealsAndForwardsSecondsExactly)
{
    dist::DistOptions opts;
    opts.smtsweepPath = "smtsweep";
    opts.ropts.cacheDir = "store";
    opts.ropts.markerTtlSeconds = 0.1 + 0.2; // "0.300000" at 6 digits.
    opts.stealWaitSeconds = 1e-7;            // "0.000000" at 6 digits.
    const std::vector<std::string> argv =
        dist::workerShardArgs(opts, "smoke", 1, 0);
    EXPECT_NE(std::find(argv.begin(), argv.end(), "--steal"), argv.end());
    for (const auto &[flag, seconds] :
         {std::pair<std::string, double>{"--marker-ttl", 0.1 + 0.2},
          std::pair<std::string, double>{"--steal-wait", 1e-7}}) {
        const auto it = std::find(argv.begin(), argv.end(), flag);
        ASSERT_TRUE(it != argv.end() && it + 1 != argv.end()) << flag;
        EXPECT_EQ(parseSeconds((it + 1)->c_str(), 0.0, kMaxSeconds),
                  std::optional<double>(seconds))
            << flag << " " << *(it + 1);
    }
}

TEST(Dist, ShardedRunMergedFromSharedStoreMatchesSerialBitForBit)
{
    const NamedExperiment *smoke = sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    // The reference: a serial, cache-less sweep.
    sweep::RunnerOptions serial;
    serial.measure = tinyOptions();
    serial.measure.parallel = false;
    const sweep::SweepOutcome reference =
        runSweep(smoke->spec, serial);

    // Two shard runs (the worker protocol, in-process) into one store.
    TempDir dir("merge");
    sweep::RunnerOptions shard_opts;
    shard_opts.measure = tinyOptions();
    shard_opts.cacheDir = dir.path();
    const ShardRunResult s0 = runShard(smoke->spec, shard_opts, 0, 2);
    const ShardRunResult s1 = runShard(smoke->spec, shard_opts, 1, 2);
    EXPECT_EQ(s0.points + s1.points, reference.points.size());
    EXPECT_EQ(s0.cacheHits + s1.cacheHits, 0u);

    // The merge: a pure replay of the shared store.
    sweep::RunnerOptions merge_opts = shard_opts;
    merge_opts.requireCached = true; // would abort on any miss.
    const sweep::SweepOutcome merged =
        runSweep(smoke->spec, merge_opts);
    EXPECT_EQ(merged.cacheHits, merged.points.size());
    EXPECT_EQ(merged.cacheMisses, 0u);

    ASSERT_EQ(merged.points.size(), reference.points.size());
    for (std::size_t i = 0; i < merged.points.size(); ++i) {
        EXPECT_EQ(merged.points[i].digest, reference.points[i].digest);
        EXPECT_EQ(sweep::toJson(merged.points[i].data.stats).dump(),
                  sweep::toJson(reference.points[i].data.stats).dump());
    }
}

TEST(Dist, SurvivingWorkerAdoptsOrphanedDigestsInsteadOfRelaunch)
{
    const NamedExperiment *smoke = sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    // The reference: a serial, cache-less sweep.
    sweep::RunnerOptions serial;
    serial.measure = tinyOptions();
    serial.measure.parallel = false;
    const sweep::SweepOutcome reference = runSweep(smoke->spec, serial);

    TempDir dir("steal");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());
    const std::vector<SweepPoint> grid =
        smoke->spec.expand(tinyOptions());
    const ShardPlan plan = planShards(grid, 2);

    // Shard 0's worker "died" before finishing anything; the
    // coordinator declared its digests orphaned.
    std::size_t shard0_uniques = 0;
    for (const auto &[digest, shard] : plan.shardOfDigest) {
        if (shard == 0) {
            store->markOrphaned(digest);
            ++shard0_uniques;
        }
    }
    ASSERT_GT(shard0_uniques, 0u);

    // Shard 1 runs with stealing: it must finish its own slice, then
    // adopt and measure every orphan rather than leaving them behind.
    sweep::RunnerOptions ropts;
    ropts.measure = tinyOptions();
    ropts.cacheDir = dir.path();
    ShardWorkerOptions wopts;
    wopts.index = 1;
    wopts.count = 2;
    wopts.steal.enabled = true;
    wopts.steal.waitSeconds = 5.0;
    wopts.steal.pollSeconds = 0.01;
    const ShardRunResult r = runShard(smoke->spec, ropts, wopts);
    EXPECT_EQ(r.stolen, shard0_uniques);

    for (const auto &[digest, shard] : plan.shardOfDigest)
        EXPECT_EQ(store->state(digest), sweep::WorkState::Done)
            << digest << " of shard " << shard;

    // The merged result is still bit-identical to the serial run.
    sweep::RunnerOptions merge_opts = ropts;
    merge_opts.requireCached = true;
    const sweep::SweepOutcome merged = runSweep(smoke->spec, merge_opts);
    ASSERT_EQ(merged.points.size(), reference.points.size());
    for (std::size_t i = 0; i < merged.points.size(); ++i) {
        EXPECT_EQ(merged.points[i].digest, reference.points[i].digest);
        EXPECT_EQ(sweep::toJson(merged.points[i].data.stats).dump(),
                  sweep::toJson(reference.points[i].data.stats).dump());
    }
}

TEST(Dist, WorkersReplanFromTheManifestCostSnapshot)
{
    const NamedExperiment *smoke = sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);
    TempDir dir("manifest_replan");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());

    // A cost snapshot that reorders the estimate-only plan: the
    // coordinator planned with it, so the worker must too.
    const std::vector<SweepPoint> grid =
        smoke->spec.expand(tinyOptions());
    CostHints hints;
    double cost = 1.0;
    for (const auto &[digest, shard] : planShards(grid, 2).shardOfDigest) {
        (void)shard;
        hints[digest] = cost;
        cost *= 3.0;
    }
    const ShardPlan hinted = planShards(grid, 2, hints);
    ASSERT_NE(hinted.shardOfDigest, planShards(grid, 2).shardOfDigest);

    // The manifest's per-point shards disagree with that plan; they
    // are a record for --status, never a plan a worker follows.
    sweep::Json manifest = sweep::Json::object();
    manifest.set("experiment", sweep::Json("smoke"));
    manifest.set("shardCount", sweep::Json(2u));
    sweep::Json points = sweep::Json::array();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        sweep::Json p = sweep::Json::object();
        p.set("digest", sweep::Json(hinted.digests[i]));
        p.set("shard", sweep::Json(1u - hinted.shardOf[i]));
        points.push(std::move(p));
    }
    manifest.set("points", std::move(points));
    sweep::Json costs = sweep::Json::object();
    for (const auto &[digest, seconds] : hints)
        costs.set(digest, sweep::Json(seconds));
    manifest.set("observedCosts", std::move(costs));
    store->writeManifest(manifest);

    sweep::RunnerOptions ropts;
    ropts.measure = tinyOptions();
    ropts.cacheDir = dir.path();
    const ShardRunResult r0 = runShard(smoke->spec, ropts, 0, 2);

    std::set<std::string> expected;
    for (const auto &[digest, shard] : hinted.shardOfDigest) {
        if (shard == 0)
            expected.insert(digest);
    }
    EXPECT_EQ(r0.points, hinted.members[0].size());
    const std::vector<std::string> stored = store->storedDigests();
    EXPECT_EQ(std::set<std::string>(stored.begin(), stored.end()),
              expected);
}

TEST(Dist, TypeConfusedManifestsNeverAbortAWorker)
{
    // Any client may PUT any JSON as the manifest. A worker reads only
    // its cost snapshot, checked field by field, and otherwise plans
    // from estimates.
    const NamedExperiment *smoke = sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);
    const std::vector<SweepPoint> grid =
        smoke->spec.expand(tinyOptions());
    const std::size_t own = planShards(grid, 2).members[0].size();
    const std::string digest = planShards(grid, 2).digests[0];

    for (const std::string &text :
         {std::string("{\"shardCount\": \"2\", \"points\": []}"),
          "{\"shardCount\": 2, \"points\": [{\"digest\": \"" + digest
              + "\", \"shard\": -1}]}",
          std::string("{\"points\": {\"a\": 1}, \"observedCosts\": 5}"),
          "{\"observedCosts\": {\"" + digest + "\": \"slow\"}}",
          std::string("[1, 2]")}) {
        TempDir dir("manifest_confused");
        sweep::openLocalStore(dir.path())
            ->writeManifest(sweep::Json::parseOrDie(text));
        sweep::RunnerOptions ropts;
        ropts.measure = tinyOptions();
        ropts.cacheDir = dir.path();
        EXPECT_EQ(runShard(smoke->spec, ropts, 0, 2).points, own) << text;
    }
}

TEST(Dist, AuditArtifactClassifiesManifestWork)
{
    TempDir dir("audit");
    std::unique_ptr<sweep::ResultStore> store =
        sweep::openLocalStore(dir.path());

    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string done = sweep::measurementDigest(cfg, opts);
    store->store(done, cfg, opts, measure(cfg, opts).stats);
    const std::string orphaned(32, 'a');
    store->markOrphaned(orphaned);
    const std::string pending(32, 'b');

    sweep::Json manifest = sweep::Json::object();
    manifest.set("experiment", sweep::Json("smoke"));
    manifest.set("shardCount", sweep::Json(2u));
    sweep::Json points = sweep::Json::array();
    unsigned shard = 0;
    for (const std::string &digest : {done, orphaned, pending}) {
        sweep::Json p = sweep::Json::object();
        p.set("digest", sweep::Json(digest));
        p.set("shard", sweep::Json(shard++ % 2));
        points.push(std::move(p));
    }
    manifest.set("points", std::move(points));
    store->writeManifest(manifest);

    bool ok = false;
    const sweep::Json doc = auditArtifact(dir.path(), "", ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(doc.at("experiment").asString(), "smoke");
    EXPECT_EQ(doc.at("unique").asUInt(), 3u);
    const sweep::Json &counts = doc.at("counts");
    EXPECT_EQ(counts.at("done").asUInt(), 1u);
    EXPECT_EQ(counts.at("orphaned").asUInt(), 1u);
    EXPECT_EQ(counts.at("pending").asUInt(), 1u);
    EXPECT_EQ(counts.at("inProgress").asUInt(), 0u);
    EXPECT_EQ(doc.at("digests").size(), 3u);

    bool bad_ok = true;
    TempDir empty("audit_empty");
    const sweep::Json no_manifest =
        auditArtifact(empty.path(), "", bad_ok);
    EXPECT_FALSE(bad_ok);
    EXPECT_TRUE(no_manifest.has("error"));

    // A type-confused manifest reads like a missing one: an error, not
    // an abort.
    for (const std::string &text :
         {std::string("{\"experiment\": \"smoke\", \"points\": "
                      "[{\"digest\": 7, \"shard\": 0}]}"),
          std::string("{\"experiment\": \"smoke\", \"points\": "
                      "{\"a\": 1}}"),
          "{\"points\": [{\"digest\": \"" + done + "\"}]}",
          "{\"experiment\": \"smoke\", \"points\": [{\"digest\": \""
              + done + "\", \"shard\": -1}]}"}) {
        store->writeManifest(sweep::Json::parseOrDie(text));
        bad_ok = true;
        const sweep::Json confused = auditArtifact(dir.path(), "", bad_ok);
        EXPECT_FALSE(bad_ok) << text;
        EXPECT_TRUE(confused.has("error")) << text;
    }
}

TEST(Dist, ShardWorkerSpansFoldIntoItsShardCounts)
{
    const NamedExperiment *smoke = sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    TempDir dir("spans");
    const std::string spans_path = dir.path() + "/spans.jsonl";
    sweep::RunnerOptions ropts;
    ropts.measure = tinyOptions();
    ropts.cacheDir = dir.path();
    const ShardPlan plan =
        planShards(smoke->spec.expand(ropts.measure), 2);

    // Shard 0 measures cold, then replays warm: its span stream must
    // fold to exactly what runShard reports.
    for (const char *pass : {"cold", "warm"}) {
        fs::remove(spans_path);
        ShardRunResult r;
        {
            obs::TraceWriter spans(spans_path, "spansunderfold");
            ropts.trace = &spans;
            r = runShard(smoke->spec, ropts, 0, 2);
            ropts.trace = nullptr;
        }
        std::ifstream in(spans_path);
        const std::string text(std::istreambuf_iterator<char>(in), {});
        ProgressFold fold(plan, {}, {});
        fold.feed(0, text);
        const ShardProgress &p = fold.shard(0);
        EXPECT_EQ(p.points, r.points) << pass;
        EXPECT_EQ(p.pointsDone, r.points) << pass;
        EXPECT_EQ(p.cacheHits, r.cacheHits) << pass;
        EXPECT_EQ(p.stolen.size(), r.stolen) << pass;
    }
}

#ifdef SMTSWEEP_BINARY

/** Runs the enclosing scope in another working directory. */
class WorkingDirectory
{
  public:
    explicit WorkingDirectory(const std::string &path)
        : home_(fs::current_path())
    {
        fs::current_path(path);
    }
    ~WorkingDirectory() { fs::current_path(home_); }

    WorkingDirectory(const WorkingDirectory &) = delete;
    WorkingDirectory &operator=(const WorkingDirectory &) = delete;

  private:
    fs::path home_;
};

/** Every file under `root`, recursively and sorted (paths relative
 *  to it). */
std::vector<std::string>
filesUnder(const std::string &root)
{
    std::vector<std::string> files;
    for (const auto &entry : fs::recursive_directory_iterator(root))
        files.push_back(fs::relative(entry.path(), root).string());
    std::sort(files.begin(), files.end());
    return files;
}

/** Planned points per shard, as the coordinator recorded them. */
std::vector<std::size_t>
manifestPoints(const std::string &store_dir, unsigned shards)
{
    std::vector<std::size_t> points(shards, 0);
    const std::optional<sweep::Json> manifest =
        sweep::openLocalStore(store_dir)->readManifest();
    EXPECT_TRUE(manifest.has_value());
    if (!manifest.has_value())
        return points;
    const sweep::Json &list = manifest->at("points");
    for (std::size_t i = 0; i < list.size(); ++i)
        ++points.at(list[i].at("shard").asUInt());
    return points;
}

/**
 * The coordinator end to end over the smoke grid with two real
 * `smtsweep` workers — on this host, or through a stub ssh — first
 * cold and traced, then warm and untraced, from a scratch working
 * directory.
 */
void
coordinateSmokeSweep(bool over_ssh)
{
    const NamedExperiment *smoke = sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);
    sweep::RunnerOptions serial;
    serial.measure = tinyOptions();
    serial.measure.parallel = false;
    const sweep::SweepOutcome reference = runSweep(smoke->spec, serial);

    TempDir dir("coordinator");
    const std::string store = dir.path() + "/store";
    const std::string cwd = dir.path() + "/cwd";
    fs::create_directories(cwd);

    DistOptions opts;
    opts.shards = 2;
    opts.jobsPerWorker = 1;
    opts.smtsweepPath = SMTSWEEP_BINARY;
    opts.showProgress = false;
    opts.ropts.measure = tinyOptions();
    opts.ropts.cacheDir = store;
    if (over_ssh) {
        const std::string stub = dir.path() + "/fake-ssh";
        std::ofstream(stub) << "#!/bin/sh\n"
                               "# args: -o BatchMode=yes HOST COMMAND\n"
                               "shift 3\n"
                               "exec /bin/sh -c \"$1\"\n";
        ::chmod(stub.c_str(), 0755);
        opts.hostList = "hostA,hostB";
        opts.sshProgram = stub;
    }
    WorkingDirectory in_cwd(cwd);

    const auto expectMergedMatchesSerial = [&](const DistOutcome &out) {
        ASSERT_EQ(out.merged.points.size(), reference.points.size());
        EXPECT_EQ(out.merged.cacheMisses, 0u);
        for (std::size_t i = 0; i < reference.points.size(); ++i) {
            EXPECT_EQ(out.merged.points[i].digest,
                      reference.points[i].digest);
            EXPECT_EQ(
                sweep::toJson(out.merged.points[i].data.stats).dump(),
                sweep::toJson(reference.points[i].data.stats).dump());
        }
    };

    // Cold and traced: the coordinator's file alone closes the ledger
    // and carries both workers' spans.
    const std::string trace_path = dir.path() + "/trace.jsonl";
    std::string trace_id;
    DistOutcome cold;
    {
        obs::TraceWriter trace(trace_path);
        trace_id = trace.traceId();
        DistOptions traced = opts;
        traced.ropts.trace = &trace;
        ASSERT_EQ(runDistributed(*smoke, traced, cold), 0);
    }
    expectMergedMatchesSerial(cold);
    std::vector<std::size_t> planned = manifestPoints(store, 2);
    ASSERT_EQ(cold.shards.size(), 2u);
    for (const ShardStatus &s : cold.shards) {
        EXPECT_TRUE(s.succeeded);
        EXPECT_EQ(s.points, planned[s.shard]);
        EXPECT_EQ(s.cacheHits, 0u);
        EXPECT_EQ(s.stolen, 0u);
    }

    obs::TraceSet set;
    std::string error;
    ASSERT_TRUE(set.addFile(trace_path, &error)) << error;
    EXPECT_EQ(set.skipped, 0u);
    const obs::TraceAnalysis analysis = obs::analyzeTrace(set, trace_id);
    EXPECT_TRUE(analysis.hasSweepStart);
    EXPECT_TRUE(analysis.hasSweepDone);
    EXPECT_EQ(analysis.experiment, "smoke");
    EXPECT_EQ(analysis.nonTerminal, 0u);
    EXPECT_EQ(analysis.terminalStored, analysis.digests.size());
    std::set<std::uint64_t> worker_pids;
    for (const obs::TraceEvent &ev : set.events)
        if (ev.event == "stored" && ev.trace == trace_id)
            worker_pids.insert(ev.pid);
    EXPECT_EQ(worker_pids.size(), 2u);
    EXPECT_EQ(worker_pids.count(static_cast<std::uint64_t>(::getpid())),
              0u);

    // Warm and untraced: every point of every shard replays, and no
    // trace or progress file appears anywhere.
    const std::vector<std::string> store_files = filesUnder(store);
    DistOutcome warm;
    ASSERT_EQ(runDistributed(*smoke, opts, warm), 0);
    expectMergedMatchesSerial(warm);
    planned = manifestPoints(store, 2);
    ASSERT_EQ(warm.shards.size(), 2u);
    for (const ShardStatus &s : warm.shards) {
        EXPECT_TRUE(s.succeeded);
        EXPECT_EQ(s.points, planned[s.shard]);
        EXPECT_EQ(s.cacheHits, s.points);
        EXPECT_EQ(s.stolen, 0u);
    }
    EXPECT_EQ(warm.workerCacheHits, reference.points.size());
    EXPECT_TRUE(filesUnder(cwd).empty());
    EXPECT_EQ(filesUnder(store), store_files);
    for (const std::string &file : filesUnder(store)) {
        EXPECT_EQ(file.find("progress"), std::string::npos) << file;
        EXPECT_EQ(file.find("trace"), std::string::npos) << file;
        EXPECT_EQ(file.find(".jsonl"), std::string::npos) << file;
    }
}

/** The exit status of `program args` (-1 when a signal ended it);
 *  stdout goes to `out`, stderr nowhere. */
int
exitStatus(const std::string &program, const std::string &args,
           const std::string &out = "/dev/null")
{
    const std::string command =
        program + " " + args + " > " + out + " 2> /dev/null";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** The built smtsweep's exit status for `args`. */
int
smtsweepExit(const std::string &args, const std::string &out = "/dev/null")
{
    return exitStatus(SMTSWEEP_BINARY, args, out);
}

TEST(SmtsweepCli, MalformedCountsExitTwoBeforeAnyPointRuns)
{
    for (const char *args :
         {"--cycles abc", "--cycles 0", "--cycles 12x", "--cycles -5",
          "--warmup xyz", "--runs 1x", "--runs 0", "--jobs 2x",
          "--pipe-sample 3q", "--marker-ttl nan", "--marker-ttl inf",
          "--marker-ttl 5x", "--marker-ttl 0", "--steal-wait nan",
          "--steal-wait -1"})
        EXPECT_EQ(smtsweepExit(std::string("--experiment fig7 --no-cache ")
                               + args),
                  2)
            << args;
}

TEST(SmtsweepCli, MalformedSecondsExitTwoBeforeAnyWorkerStarts)
{
    // Workers are /bin/false: a value that slipped through would fail
    // the sweep with exit 1, not 2.
    TempDir dir("distcli");
    const std::string coordinator =
        "--experiment smoke --shards 2 --smtsweep /bin/false "
        "--no-progress --cache-dir "
        + dir.path() + " ";
    for (const char *args :
         {"--marker-ttl nan", "--marker-ttl 1e-7", "--marker-ttl 60s",
          "--steal-wait inf", "--steal-wait -0.5", "--shards 0",
          "--shards 2x"})
        EXPECT_EQ(smtsweepExit(coordinator + args), 2) << args;
}

TEST(SmtsweepCli, FlagsOfAnotherModeExitTwoBeforeAnyWorkerStarts)
{
    TempDir dir("modecli");
    const std::string store = " --cache-dir " + dir.path() + "/store ";
    // The worker protocol, cache switches, microscope flags and a
    // second experiment under --shards. Workers are /bin/false, so a
    // flag that slipped through exits 1.
    const std::string coordinator =
        "--experiment smoke --shards 2 --smtsweep /bin/false "
        "--no-progress"
        + store;
    for (const char *args :
         {"--shard 0/2", "--steal", "--no-cache", "--require-cached",
          "--pipe-out /dev/null", "--pipe-window 1:2", "--pipe-sample 5",
          "--experiment fig7"})
        EXPECT_EQ(smtsweepExit(coordinator + args), 2) << args;
    // The launch flags without --shards. A flag that slipped through
    // runs the smoke grid in process and exits 0.
    for (const char *args : {"--hosts a,b", "--ssh /bin/false",
                             "--smtsweep /bin/false", "--no-progress"})
        EXPECT_EQ(smtsweepExit("--experiment smoke" + store + args), 2)
            << args;
}

TEST(SmtsweepCli, ShardsRunThisBinaryAsWorkers)
{
    // No --smtsweep: the coordinator's workers are its own executable.
    // It runs here as a link named `sweeper`, from a directory that
    // holds no `smtsweep`, so no other binary can stand in for it.
    TempDir dir("selfworkers");
    const std::string self = dir.path() + "/sweeper";
    std::error_code ec;
    fs::create_hard_link(SMTSWEEP_BINARY, self, ec);
    if (ec)
        fs::copy_file(SMTSWEEP_BINARY, self);
    const std::string store = " --cache-dir " + dir.path() + "/store";
    ASSERT_EQ(exitStatus("cd " + dir.path() + " && ./sweeper",
                         "--experiment smoke --shards 2 --no-progress"
                         " --json dist.json"
                             + store),
              0);
    const std::string audit = dir.path() + "/audit.json";
    ASSERT_EQ(smtsweepExit("--status --json -" + store, audit), 0);
    std::ifstream in(audit);
    const std::string text(std::istreambuf_iterator<char>(in), {});
    EXPECT_NE(text.find("\"pending\": 0"), std::string::npos) << text;
    EXPECT_EQ(smtsweepExit("--experiment smoke --require-cached" + store),
              0);
}

TEST(Coordinator, LocalWorkersMergeBitIdenticalAndReportBySpans)
{
    coordinateSmokeSweep(/*over_ssh=*/false);
}

TEST(Coordinator, SshWorkersMergeBitIdenticalAndReportBySpans)
{
    coordinateSmokeSweep(/*over_ssh=*/true);
}

/** A worker binary in `dir` that exits 1 when its argv matches the
 *  shell `pattern` and otherwise runs the real smtsweep. */
std::string
failingWorker(const std::string &dir, const std::string &pattern)
{
    const std::string path = dir + "/failing-smtsweep";
    std::ofstream(path) << "#!/bin/sh\n"
                           "case \" $* \" in " << pattern
                        << ") exit 1 ;; esac\n"
                           "exec " SMTSWEEP_BINARY " \"$@\"\n";
    ::chmod(path.c_str(), 0755);
    return path;
}

TEST(Coordinator, DeadWorkersDigestsAreStolenOrRecoveredBeforeTheMerge)
{
    const NamedExperiment *smoke = sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);
    sweep::RunnerOptions serial;
    serial.measure = tinyOptions();
    serial.measure.parallel = false;
    const sweep::SweepOutcome reference = runSweep(smoke->spec, serial);

    // Shard 0's worker dies at once. An empty store holds no cost
    // hints, so the coordinator plans exactly this.
    TempDir dir("deadworker");
    const std::string store = dir.path() + "/store";
    const ShardPlan plan =
        planShards(smoke->spec.expand(tinyOptions()), 2);
    std::size_t shard0_uniques = 0;
    for (const auto &[digest, shard] : plan.shardOfDigest)
        shard0_uniques += shard == 0 ? 1 : 0;
    ASSERT_GT(shard0_uniques, 0u);

    DistOptions opts;
    opts.shards = 2;
    opts.jobsPerWorker = 1;
    opts.smtsweepPath = failingWorker(dir.path(), "*\" --shard 0/2 \"*");
    opts.showProgress = false;
    opts.ropts.measure = tinyOptions();
    opts.ropts.cacheDir = store;
    DistOutcome out;
    ASSERT_EQ(runDistributed(*smoke, opts, out), 0);

    // Every digest of the dead shard was declared orphaned, then
    // either stolen by the survivor or measured by the coordinator.
    EXPECT_EQ(out.orphansDeclared, shard0_uniques);
    ASSERT_EQ(out.shards.size(), 2u);
    EXPECT_FALSE(out.shards[0].succeeded);
    EXPECT_TRUE(out.shards[1].succeeded);
    EXPECT_EQ(out.shards[1].stolen + out.recoveredInProcess,
              shard0_uniques);

    // The --json summary reports the same recovery.
    const sweep::Json summary = distArtifact("smoke", out);
    ASSERT_TRUE(summary.has("orphansDeclared"));
    EXPECT_EQ(summary.at("orphansDeclared").asUInt(), shard0_uniques);
    ASSERT_EQ(summary.at("workers").size(), 2u);
    EXPECT_FALSE(summary.at("workers")[0].at("succeeded").asBool());

    ASSERT_EQ(out.merged.points.size(), reference.points.size());
    EXPECT_EQ(out.merged.cacheMisses, 0u);
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
        EXPECT_EQ(out.merged.points[i].digest, reference.points[i].digest);
        EXPECT_EQ(sweep::toJson(out.merged.points[i].data.stats).dump(),
                  sweep::toJson(reference.points[i].data.stats).dump());
    }
    bool ok = false;
    const sweep::Json audit = auditArtifact(store, "", ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(audit.at("counts").at("pending").asUInt(), 0u);

    // Every worker failing is a broken setup: exit 1, nothing
    // recovered in-process.
    TempDir broken_dir("allworkersdead");
    DistOptions broken = opts;
    broken.smtsweepPath = failingWorker(broken_dir.path(), "*");
    broken.ropts.cacheDir = broken_dir.path() + "/store";
    DistOutcome none;
    EXPECT_EQ(runDistributed(*smoke, broken, none), 1);
    EXPECT_EQ(none.recoveredInProcess, 0u);
    EXPECT_TRUE(sweep::openLocalStore(broken.ropts.cacheDir)
                    ->storedDigests()
                    .empty());
}

#endif // SMTSWEEP_BINARY

} // namespace
} // namespace smt::dist
