/**
 * @file
 * Tests for the observability layer: the metrics registry (atomic
 * counters under contention, histogram bucket-edge placement, JSON
 * snapshot round-trip) and the JSONL trace writer (well-formed lines,
 * stable trace id, environment inheritance for worker processes).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sweep/json.hh"

namespace smt
{
namespace
{

namespace fs = std::filesystem;

/** A scratch file path removed when the test ends. */
class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_((fs::temp_directory_path()
                 / ("smtobs_test_" + tag + "_"
                    + std::to_string(std::random_device{}())))
                    .string())
    {
    }

    ~TempFile()
    {
        std::error_code ec;
        fs::remove(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ---- Counters and gauges ---------------------------------------------------

TEST(Metrics, ConcurrentIncrementsAreLossless)
{
    obs::Registry reg;
    obs::Counter &c = reg.counter("test.hits");

    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t)
        workers.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    for (std::thread &w : workers)
        w.join();

    EXPECT_EQ(c.value(), kThreads * kPerThread);
    // Same name, same instrument: the reference is stable.
    EXPECT_EQ(&reg.counter("test.hits"), &c);
    EXPECT_EQ(reg.counter("test.hits").value(), kThreads * kPerThread);
}

TEST(Metrics, GaugeTracksLevelNotVolume)
{
    obs::Registry reg;
    obs::Gauge &g = reg.gauge("test.live");
    g.add(3);
    g.add(-1);
    EXPECT_EQ(g.value(), 2);
    g.set(-7);
    EXPECT_EQ(g.value(), -7);
}

// ---- Histogram bucket edges ------------------------------------------------

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds)
{
    obs::Registry reg;
    obs::LatencyHistogram &h = reg.histogram("test.lat", {10, 100});

    h.observe(0);    // first bucket.
    h.observe(10);   // exactly on a bound: still that bucket.
    h.observe(11);   // just past: next bucket.
    h.observe(100);  // last finite bound.
    h.observe(101);  // overflow bucket.
    h.observe(~0ull); // far overflow.

    const std::vector<std::uint64_t> counts = h.counts();
    ASSERT_EQ(counts.size(), 3u); // two bounds + overflow.
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 2u);
    EXPECT_EQ(h.samples(), 6u);

    // Re-registration keeps the first bounds and the same instrument.
    EXPECT_EQ(&reg.histogram("test.lat", {1, 2, 3}), &h);
    EXPECT_EQ(h.bounds().size(), 2u);

    // The default request-latency bounds are sorted and nontrivial.
    const std::vector<std::uint64_t> defaults =
        obs::defaultLatencyBoundsUs();
    ASSERT_GE(defaults.size(), 2u);
    for (std::size_t i = 1; i < defaults.size(); ++i)
        EXPECT_LT(defaults[i - 1], defaults[i]);
}

// ---- Snapshot round-trip ---------------------------------------------------

TEST(Metrics, SnapshotRoundTripsThroughJsonText)
{
    obs::Registry reg;
    reg.counter("a.requests").inc(42);
    reg.counter("b.errors"); // registered but never incremented.
    reg.gauge("live").set(3);
    obs::LatencyHistogram &h = reg.histogram("lat", {5, 50});
    h.observe(4);
    h.observe(40);
    h.observe(400);

    const sweep::Json snap = reg.snapshot();
    sweep::Json parsed;
    ASSERT_TRUE(sweep::Json::parse(snap.dump(), parsed));

    EXPECT_EQ(parsed.at("counters").at("a.requests").asUInt(), 42u);
    EXPECT_EQ(parsed.at("counters").at("b.errors").asUInt(), 0u);
    EXPECT_EQ(parsed.at("gauges").at("live").asInt(), 3);
    const sweep::Json &lat = parsed.at("histograms").at("lat");
    EXPECT_EQ(lat.at("bounds").size(), 2u);
    EXPECT_EQ(lat.at("counts").size(), 3u);
    EXPECT_EQ(lat.at("counts")[0].asUInt(), 1u);
    EXPECT_EQ(lat.at("counts")[1].asUInt(), 1u);
    EXPECT_EQ(lat.at("counts")[2].asUInt(), 1u);
    EXPECT_EQ(lat.at("samples").asUInt(), 3u);
    EXPECT_EQ(lat.at("sum").asUInt(), 444u);
}

// ---- Trace writer ----------------------------------------------------------

TEST(Trace, EmitsOneWellFormedJsonObjectPerLine)
{
    TempFile file("trace");
    std::string trace_id;
    {
        obs::TraceWriter writer(file.path());
        trace_id = writer.traceId();
        EXPECT_FALSE(trace_id.empty());

        sweep::Json fields = sweep::Json::object();
        fields.set("digest", sweep::Json(std::string(32, 'a')));
        writer.emit("queued", std::move(fields));
        writer.emit("stored", sweep::Json());
    }

    std::ifstream in(file.path());
    std::string line;
    std::vector<sweep::Json> events;
    while (std::getline(in, line)) {
        sweep::Json j;
        ASSERT_TRUE(sweep::Json::parse(line, j)) << line;
        events.push_back(std::move(j));
    }
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].at("event").asString(), "queued");
    EXPECT_EQ(events[0].at("trace").asString(), trace_id);
    EXPECT_EQ(events[0].at("digest").asString(), std::string(32, 'a'));
    EXPECT_GT(events[0].at("ts").asDouble(), 0.0);
    EXPECT_EQ(events[1].at("event").asString(), "stored");
    EXPECT_EQ(events[1].at("trace").asString(), trace_id);

    // A second writer on the same path appends rather than truncates.
    {
        obs::TraceWriter more(file.path(), trace_id);
        more.emit("resumed", sweep::Json());
    }
    std::ifstream again(file.path());
    std::size_t lines = 0;
    while (std::getline(again, line))
        ++lines;
    EXPECT_EQ(lines, 3u);
}

TEST(Trace, IdComesFromTheEnvironmentWhenNotGiven)
{
    TempFile file("env");
    ::setenv(obs::kTraceEnvVar, "feedface00112233", 1);
    {
        obs::TraceWriter writer(file.path());
        EXPECT_EQ(writer.traceId(), "feedface00112233");
    }
    ::unsetenv(obs::kTraceEnvVar);

    // Without the environment, ids are minted fresh and distinct.
    obs::TraceWriter a(file.path());
    obs::TraceWriter b(file.path());
    EXPECT_NE(a.traceId(), b.traceId());
    EXPECT_EQ(a.traceId().size(), 16u);
}

TEST(Trace, ExplicitIdOutranksTheEnvironment)
{
    // Precedence: explicit constructor arg > SMTSWEEP_TRACE_ID >
    // fresh — a tool's --trace flag must win over an inherited
    // coordinator id.
    TempFile file("prec");
    ::setenv(obs::kTraceEnvVar, "feedface00112233", 1);
    {
        obs::TraceWriter writer(file.path(), "explicit-id");
        EXPECT_EQ(writer.traceId(), "explicit-id");
    }
    // An empty env var counts as unset, never as an empty id.
    ::setenv(obs::kTraceEnvVar, "", 1);
    {
        obs::TraceWriter writer(file.path());
        EXPECT_FALSE(writer.traceId().empty());
    }
    ::unsetenv(obs::kTraceEnvVar);
}

TEST(Trace, EmitStampsBothClocksAndReturnsTheExactLine)
{
    TempFile file("clocks");
    obs::TraceWriter writer(file.path());
    sweep::Json fields = sweep::Json::object();
    fields.set("dur_us", sweep::Json(1250.0));
    const std::string line = writer.emit("run", std::move(fields));

    // The return value is the written line, byte for byte (minus the
    // newline) — the contract store-side ingest dedup relies on.
    std::ifstream in(file.path());
    std::string written;
    ASSERT_TRUE(std::getline(in, written));
    EXPECT_EQ(written, line);

    sweep::Json j;
    ASSERT_TRUE(sweep::Json::parse(line, j));
    EXPECT_GT(j.at("ts").asDouble(), 0.0);
    EXPECT_GT(j.at("mono").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(j.at("dur_us").asDouble(), 1250.0);

    // The monotonic clock never steps backwards between events.
    const double m0 = obs::monoSeconds();
    const double m1 = obs::monoSeconds();
    EXPECT_GE(m1, m0);
}

} // namespace
} // namespace smt
