/**
 * @file
 * Tests for the statistics package: derived metrics, aggregation, and
 * table rendering.
 */

#include <gtest/gtest.h>

#include "stats/stats.hh"
#include "stats/table.hh"

namespace smt
{
namespace
{

TEST(SimStats, IpcComputation)
{
    SimStats s;
    s.cycles = 1000;
    s.committedInstructions = 2500;
    EXPECT_DOUBLE_EQ(s.ipc(), 2.5);
}

TEST(SimStats, ZeroCyclesSafe)
{
    SimStats s;
    EXPECT_DOUBLE_EQ(s.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(s.branchMispredictRate(), 0.0);
    EXPECT_DOUBLE_EQ(s.wrongPathFetchedFraction(), 0.0);
    EXPECT_DOUBLE_EQ(s.avgQueuePopulation(), 0.0);
}

TEST(SimStats, UselessIssueFraction)
{
    SimStats s;
    s.issuedInstructions = 100;
    s.issuedWrongPath = 4;
    s.optimisticSquashes = 3;
    EXPECT_DOUBLE_EQ(s.uselessIssueFraction(), 0.07);
}

TEST(SimStats, CacheRates)
{
    CacheStats c;
    c.accesses = 200;
    c.misses = 50;
    EXPECT_DOUBLE_EQ(c.missRate(), 0.25);
    EXPECT_DOUBLE_EQ(c.mpki(1000), 50.0);
}

TEST(SimStats, AddAggregates)
{
    SimStats a;
    a.cycles = 10;
    a.committedInstructions = 20;
    a.icache.accesses = 5;
    a.icache.misses = 1;
    a.condBranches = 4;
    a.combinedQueuePopulation.sample(10);

    SimStats b;
    b.cycles = 30;
    b.committedInstructions = 60;
    b.icache.accesses = 15;
    b.icache.misses = 3;
    b.condBranches = 8;
    b.combinedQueuePopulation.sample(20);

    a.add(b);
    EXPECT_EQ(a.cycles, 40u);
    EXPECT_EQ(a.committedInstructions, 80u);
    EXPECT_EQ(a.icache.accesses, 20u);
    EXPECT_EQ(a.icache.misses, 4u);
    EXPECT_EQ(a.condBranches, 12u);
    EXPECT_DOUBLE_EQ(a.avgQueuePopulation(), 15.0);
    EXPECT_DOUBLE_EQ(a.ipc(), 2.0);
}

TEST(SimStats, AddKeepsTheValuesOfClampedQueueSamples)
{
    // The population histogram's top bucket holds every sample of 128
    // or more. Adding a run into a point must keep those samples' true
    // values, not rewrite them as 128.
    SimStats run;
    run.combinedQueuePopulation.sample(200);
    run.combinedQueuePopulation.sample(100);
    ASSERT_DOUBLE_EQ(run.avgQueuePopulation(), 150.0);

    SimStats point;
    point.add(run);
    EXPECT_DOUBLE_EQ(point.avgQueuePopulation(), 150.0);
    EXPECT_EQ(point.combinedQueuePopulation.sum(), 300u);
    EXPECT_EQ(point.combinedQueuePopulation.samples(), 2u);
    EXPECT_EQ(point.combinedQueuePopulation.bucket(128), 1u);
    EXPECT_EQ(point.combinedQueuePopulation.bucket(100), 1u);
}

TEST(SimStats, ReportContainsKeyLines)
{
    SimStats s;
    s.cycles = 100;
    s.committedInstructions = 200;
    const std::string report = s.report();
    EXPECT_NE(report.find("IPC"), std::string::npos);
    EXPECT_NE(report.find("2.00"), std::string::npos);
    EXPECT_NE(report.find("I-cache miss rate"), std::string::npos);
}

TEST(Table, RendersAlignedColumns)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
}

} // namespace
} // namespace smt
