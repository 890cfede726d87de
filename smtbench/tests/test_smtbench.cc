// Unit tests of the benchmark's pure parts: the percentile rule, the
// paper-error formula, reference-speed scaling, span self time and the
// closure gaps, the metric schema against BENCHMARK.json, and the churn
// sequence read from the capture; and of the churn's outcome check
// against a loopback store that rejects a call.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "analysis.hh"
#include "phases.hh"
#include "sweep/json.hh"
#include "sweep/serialize.hh"

using namespace smtbench;
using smt::sweep::Json;

namespace
{

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

} // namespace

TEST(Percentile, MedianOfOddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, QuartilesAsPythonStatisticsComputesThem)
{
    // statistics.quantiles(v, n=4) of the same samples.
    EXPECT_DOUBLE_EQ(quartile({1, 2, 3, 4, 5}, 1), 1.5);
    EXPECT_DOUBLE_EQ(quartile({1, 2, 3, 4, 5}, 3), 4.5);
    EXPECT_DOUBLE_EQ(quartile({3, 1, 4, 1, 5, 9, 2, 6}, 1), 1.25);
    EXPECT_DOUBLE_EQ(quartile({3, 1, 4, 1, 5, 9, 2, 6}, 3), 5.75);
    EXPECT_DOUBLE_EQ(quartile({1, 2}, 1), 0.75);
    EXPECT_DOUBLE_EQ(quartile({7}, 3), 7.0);
}

TEST(Percentile, NeedsTenSamplesBeyondIt)
{
    // p99 needs n * 0.01 >= 10, i.e. 1000 samples.
    EXPECT_FALSE(tailPercentile(iota(999), 0.99).has_value());
    ASSERT_TRUE(tailPercentile(iota(1000), 0.99).has_value());
    EXPECT_DOUBLE_EQ(*tailPercentile(iota(1000), 0.99), 990.0);
    // p90 needs 100.
    EXPECT_FALSE(tailPercentile(iota(99), 0.9).has_value());
    EXPECT_DOUBLE_EQ(*tailPercentile(iota(100), 0.9), 90.0);
    EXPECT_FALSE(tailPercentile({}, 0.5).has_value());
}

TEST(Percentile, NearestRankIgnoresInputOrder)
{
    std::vector<double> v = iota(2000);
    std::reverse(v.begin(), v.end());
    EXPECT_DOUBLE_EQ(*tailPercentile(v, 0.99), 1980.0);
}

TEST(Percentile, CallWindowsInCompletionOrder)
{
    // 2500 calls completing every 1 ms, listed out of order: two full
    // windows of 1000 (the last 500 dropped), each at 1000 calls/s
    // between its first and last completion. The second window holds a
    // burst of 15 slow calls: its p99 jumps, its p50 barely moves.
    std::vector<double> latency, done;
    for (int i = 2499; i >= 0; --i) {
        done.push_back(0.001 * (i + 1));
        latency.push_back(i >= 1000 && i < 1015 ? 1e6 : 100.0 + i % 10);
    }
    const CallWindows w = callWindows(latency, done, 1000);
    ASSERT_EQ(w.perSecond.size(), 2u);
    EXPECT_NEAR(w.perSecond[0], 999.0 / 0.999, 1e-6);
    EXPECT_NEAR(w.perSecond[1], 999.0 / 0.999, 1e-6);
    EXPECT_DOUBLE_EQ(w.p50Us[0], 104.5);
    EXPECT_DOUBLE_EQ(w.p50Us[1], 105.0);
    ASSERT_EQ(w.p99Us.size(), 2u);
    EXPECT_DOUBLE_EQ(w.p99Us[0], 109.0);
    EXPECT_DOUBLE_EQ(w.p99Us[1], 1e6);
}

TEST(PaperError, OnlyTheTable4GapAtThePaperNumbers)
{
    HeadlineIpc ipc;
    ipc.superscalar = 2.16;
    ipc.rr18Peak = 1.84 * 2.16;
    ipc.rr28At8 = 4.2;
    ipc.icount28At8 = 5.4;
    // Table 4 says 5.3 where the abstract says 5.4, and 5.4 / 2.16 is
    // exactly the abstract's 2.5x: only the 5.3 claim misses, by
    // 0.1 / 5.3, averaged over five claims.
    EXPECT_NEAR(paperErrorPct(ipc), 100.0 * (0.1 / 5.3) / 5.0, 1e-9);
}

TEST(PaperError, MeanOfAbsoluteRelativeErrors)
{
    PaperReference ref;
    ref.fig3PeakSpeedup = 2.0;
    ref.table4Rr28Ipc = 4.0;
    ref.table4Icount28Ipc = 5.0;
    ref.abstractIpc = 5.0;
    ref.abstractSpeedup = 2.5;
    HeadlineIpc ipc;
    ipc.superscalar = 2.0;
    ipc.rr18Peak = 3.0;    // 1.5x vs 2.0: 25% low.
    ipc.rr28At8 = 5.0;     // 25% high.
    ipc.icount28At8 = 5.0; // exact, exact, and 2.5x exact.
    EXPECT_NEAR(paperErrorPct(ipc, ref), (25.0 + 25.0) / 5.0, 1e-9);
}

TEST(ReferenceSpeed, ScalesTimesAndRatesOppositeWays)
{
    // A host running the kernel in 15 ms instead of 12 is 1.25x slow:
    // times shrink by that factor and rates grow by it.
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1.25, 15.0, 12.0, false), 1.0);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(800.0, 15.0, 12.0, true), 1000.0);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(3.0, 12.0, 12.0, false), 3.0);
    // No index yet: unscaled.
    EXPECT_DOUBLE_EQ(atReferenceSpeed(3.0, 0.0, 12.0, false), 3.0);
}

TEST(SelfTime, SubtractsChildrenOnce)
{
    // root [0,100): children [10,30) and [20,50) overlap -> cover 40;
    // a grandchild [12,14) inside the first child.
    const std::vector<SpanTimes> spans = {
        {-1, 0, 100}, {0, 10, 30}, {0, 20, 50}, {1, 12, 14}};
    const std::vector<std::uint64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 60u);
    EXPECT_EQ(self[1], 18u);
    EXPECT_EQ(self[2], 30u);
    EXPECT_EQ(self[3], 2u);
}

TEST(SelfTime, ClipsChildrenToTheParent)
{
    const std::vector<SpanTimes> spans = {{-1, 10, 20}, {0, 5, 15}};
    EXPECT_EQ(selfTimesNs(spans)[0], 5u);
}

TEST(SelfTime, NestedSequentialTreeClosesExactly)
{
    const std::vector<SpanTimes> spans = {
        {-1, 0, 1000}, {0, 0, 400}, {0, 400, 900}, {2, 500, 800}};
    std::uint64_t sum = 0;
    for (std::uint64_t s : selfTimesNs(spans))
        sum += s;
    EXPECT_EQ(sum, 1000u);
}

TEST(SelfTime, ChildRecordedBeforeItsParentStillCounts)
{
    // A server span is recorded before the client call that caused it
    // closes, then joined to it: the subtree must still include it.
    SpanRecorder rec;
    const std::int64_t root = rec.add("root", -1, 0, 100);
    const std::int64_t handle = rec.add("handle", -1, 20, 50);
    const std::int64_t call = rec.add("call", root, 10, 60);
    rec.setParent(handle, call);
    const std::map<std::string, std::uint64_t> self =
        rec.selfTimeByName(root);
    EXPECT_EQ(self.at("root"), 50u);
    EXPECT_EQ(self.at("call"), 20u);
    EXPECT_EQ(self.at("handle"), 30u);
}

TEST(Closure, GapOfPartsAgainstTheWhole)
{
    EXPECT_DOUBLE_EQ(closureGapPct(99.0, 100.0), 1.0);
    EXPECT_DOUBLE_EQ(closureGapPct(102.0, 100.0), 2.0);
    EXPECT_DOUBLE_EQ(closureGapPct(5.0, 0.0), 0.0);
    // The server's total truncates each request to whole µs: half a µs
    // a request comes back before comparing.
    EXPECT_DOUBLE_EQ(serverClosureGapPct(1000.0, 950.0, 100), 0.0);
    EXPECT_DOUBLE_EQ(serverClosureGapPct(1100.0, 950.0, 100), 10.0);
}

TEST(Schema, EveryMetricOfBenchmarkJsonWithItsUnit)
{
    Json doc;
    ASSERT_TRUE(Json::readFile(std::string(SMTBENCH_SOURCE_DIR)
                                   + "/../BENCHMARK.json",
                               doc));
    for (const char *section : {"end_to_end", "per_layer"}) {
        const Json &list = doc.at(section);
        const std::vector<MetricDef> &schema =
            std::string(section) == "end_to_end" ? endToEndMetrics()
                                                 : perLayerMetrics();
        ASSERT_EQ(list.size(), schema.size()) << section;
        std::map<std::string, std::string> units;
        for (std::size_t i = 0; i < list.size(); ++i) {
            const std::string name = list[i].at("name").asString();
            EXPECT_TRUE(units.emplace(name, list[i].at("unit").asString())
                            .second)
                << name;
        }
        for (const MetricDef &m : schema)
            EXPECT_EQ(units[m.name], m.unit) << m.name;
    }
}

TEST(Schema, SetupIsTimedAndHasTheLargestBound)
{
    Json doc;
    ASSERT_TRUE(Json::readFile(std::string(SMTBENCH_SOURCE_DIR)
                                   + "/../BENCHMARK.json",
                               doc));
    const Json &e2e = doc.at("end_to_end");
    double setup_bound = -1.0, max_bound = 0.0;
    for (std::size_t i = 0; i < e2e.size(); ++i) {
        const double b = e2e[i].at("bound").asDouble();
        max_bound = std::max(max_bound, b);
        EXPECT_LE(b, 0.25);
        if (e2e[i].at("name").asString() == "setup_s") {
            setup_bound = b;
            EXPECT_EQ(e2e[i].at("unit").asString(), "s");
            EXPECT_EQ(e2e[i].at("better").asString(), "lower");
        }
    }
    EXPECT_DOUBLE_EQ(setup_bound, max_bound);
}

TEST(Traffic, CommittedCaptureGivesTheSweepSequence)
{
    Json capture;
    ASSERT_TRUE(Json::readFile(std::string(SMTBENCH_SOURCE_DIR)
                                   + "/traffic/fig5-2shard.json",
                               capture));
    const std::vector<ChurnOp> seq = churnSequenceFrom(capture);
    const std::vector<ChurnOp> want = {ChurnOp::LookupMiss, ChurnOp::Mark,
                                       ChurnOp::Put, ChurnOp::State,
                                       ChurnOp::LookupHit};
    EXPECT_EQ(seq, want);
}

TEST(Traffic, UnknownCallsAreRejected)
{
    Json capture = Json::object();
    Json seq = Json::array();
    seq.push(Json("HEAD entries 200"));
    capture.set("per_digest_sequence", seq);
    EXPECT_TRUE(churnSequenceFrom(capture).empty());
    EXPECT_TRUE(churnSequenceFrom(Json::object()).empty());
}

namespace
{

/** A warm store with one real-shaped entry, served on loopback by
 *  `handler` (StoreService::handle when empty). */
WarmStore
oneEntryStore(const std::string &dir, StoreHost::Handler handler)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    WarmStore warm;
    warm.host = std::make_unique<StoreHost>(dir, 1, std::move(handler));
    EntrySource e;
    e.stats.cycles = 1000;
    e.stats.committedInstructions = 2500;
    e.statsJson = smt::sweep::toJson(e.stats);
    warm.entries.push_back(e);
    return warm;
}

std::string
scratchDir(const char *name)
{
    return std::string(SMTBENCH_BINARY_DIR) + "/test-" + name + "-"
           + std::to_string(::getpid());
}

const std::vector<ChurnOp> kSequence = {ChurnOp::LookupMiss, ChurnOp::Mark,
                                        ChurnOp::Put, ChurnOp::State,
                                        ChurnOp::LookupHit};

} // namespace

TEST(Churn, EveryCallOfAHealthyStoreSucceeds)
{
    const std::string dir = scratchDir("healthy");
    WarmStore warm = oneEntryStore(dir, {});
    Settings s;
    s.clients = 2;
    Tally tally;
    std::uint64_t counter = 0;
    const ChurnResult r =
        runChurn(s, warm, kSequence, 0.0, 50, nullptr, 0, counter, tally);
    EXPECT_GE(r.calls, 50u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(tally.failed, 0u);
    EXPECT_EQ(r.requestsDelta, r.expectedDelta);
    warm = WarmStore{};
    std::filesystem::remove_all(dir);
}

TEST(Churn, ARejectedMarkerPutCountsAsAFailure)
{
    // The client's markInProgress returns nothing, so only the
    // server's status can tell a rejected marker from a written one.
    const std::string dir = scratchDir("reject");
    WarmStore warm = oneEntryStore(
        dir, [](smt::sweep::StoreService &service,
                const smt::net::HttpRequest &req) {
            if (req.method == "PUT"
                && req.target.rfind("/v1/markers/", 0) == 0) {
                smt::net::HttpResponse resp;
                resp.status = 403;
                resp.body = "markers are read-only\n";
                return resp;
            }
            return service.handle(req);
        });
    Settings s;
    s.clients = 1;
    Tally tally;
    std::uint64_t counter = 0;
    const ChurnResult r =
        runChurn(s, warm, kSequence, 0.0, 50, nullptr, 0, counter, tally);
    const std::uint64_t marks = r.byOp.at(ChurnOp::Mark).size();
    EXPECT_GE(marks, 10u);
    ASSERT_TRUE(r.failedByOp.count(ChurnOp::Mark));
    EXPECT_EQ(r.failedByOp.at(ChurnOp::Mark), marks);
    EXPECT_EQ(r.failed, marks);
    for (ChurnOp op : {ChurnOp::LookupMiss, ChurnOp::Put, ChurnOp::State,
                       ChurnOp::LookupHit})
        EXPECT_EQ(r.failedByOp.count(op), 0u) << churnOpName(op);
    // The untimed warm-up's marker counts too.
    EXPECT_EQ(tally.failed, marks + 1);
    warm = WarmStore{};
    std::filesystem::remove_all(dir);
}

TEST(Seed, SaltsTheConfigSeedDeterministically)
{
    EXPECT_EQ(configSeedFor(1), configSeedFor(1));
    EXPECT_NE(configSeedFor(1), configSeedFor(1009));
    EXPECT_NE(configSeedFor(1, 0), configSeedFor(1, 1));
    EXPECT_NE(configSeedFor(1, 1), configSeedFor(1, 2));
    EXPECT_LE(configSeedFor(7), 0xffffffffULL);
    EXPECT_LE(configSeedFor(7, 2), 0xffffffffULL);
    EXPECT_EQ(headlineSpec(configSeedFor(1)).gridSize(), 12u);
}
