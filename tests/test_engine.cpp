/**
 * @file
 * Core binding and hot-path tests: a core runs whatever policy its
 * config's name is registered as when the core is built (a plugin that
 * replaces a builtin name gets its own behaviour, and restoring the
 * builtin restores the golden statistics), the fetch candidate
 * insertion sort must match std::sort's strict-total-order result, and
 * the steady-state hot path must not allocate (instruction pool and
 * oracle ring audits).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "core/stages/fetch.hh"
#include "policy/fetch_policies.hh"
#include "policy/registry.hh"
#include "sim/simulator.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

// ---- Policy binding: a re-registered name binds the new policy --------------

/** ICOUNT inverted: the thread with the most instructions in
 *  decode/rename/IQ fetches first. */
class MostInstructionsFirstPolicy final : public policy::FetchPolicy
{
  public:
    const char *name() const override { return "MOST_ICOUNT"; }

    double
    priorityKey(const PipelineState &st, ThreadID tid) const override
    {
        return -static_cast<double>(st.frontAndQueueCount[tid]);
    }
};

/** ICOUNT.2.8 at 4 threads after 20000 cycles, as
 *  GoldenStats.Icount28MatchesPreRefactorCore pins it. */
void
expectIcount28Golden(const SimStats &s)
{
    EXPECT_EQ(s.committedInstructions, 33173u);
    EXPECT_EQ(s.fetchedInstructions, 35951u);
    EXPECT_EQ(s.issuedInstructions, 39341u);
    EXPECT_EQ(s.condBranchMispredicts, 88u);
    EXPECT_EQ(s.dcache.misses, 1261u);
    EXPECT_EQ(s.optimisticSquashes, 2467u);
}

TEST(PolicyBinding, ReRegisteredNameRunsTheNewPolicy)
{
    auto &reg = policy::PolicyRegistry::instance();
    const SmtConfig cfg = presets::icount28(4);
    const auto make_most = [] {
        return std::make_unique<MostInstructionsFirstPolicy>();
    };

    // A plugin redefines "ICOUNT": a core built afterwards runs the new
    // ranking, exactly as it runs under a name of its own.
    reg.registerFetchPolicy("ICOUNT", make_most);
    Simulator replaced(cfg, mixForRun(4, 0));
    EXPECT_STREQ(replaced.core().fetchPolicy().name(), "MOST_ICOUNT");
    replaced.run(20000);

    reg.registerFetchPolicy("MOST_ICOUNT", make_most);
    SmtConfig own_name = cfg;
    own_name.fetchPolicy = "MOST_ICOUNT";
    Simulator reference(own_name, mixForRun(4, 0));
    reference.run(20000);

    const SimStats &r = replaced.stats();
    const SimStats &ref = reference.stats();
    EXPECT_EQ(r.committedInstructions, ref.committedInstructions);
    EXPECT_EQ(r.fetchedInstructions, ref.fetchedInstructions);
    EXPECT_EQ(r.issuedInstructions, ref.issuedInstructions);
    EXPECT_EQ(r.condBranchMispredicts, ref.condBranchMispredicts);
    EXPECT_EQ(r.dcache.misses, ref.dcache.misses);
    EXPECT_EQ(r.optimisticSquashes, ref.optimisticSquashes);
    EXPECT_NE(r.committedInstructions, 33173u)
        << "the replacement ran like the builtin ICOUNT";

    // Restoring the builtin restores the golden machine.
    reg.registerFetchPolicy("ICOUNT", [] {
        return std::make_unique<policy::ICountPolicy>();
    });
    Simulator restored(cfg, mixForRun(4, 0));
    EXPECT_STREQ(restored.core().fetchPolicy().name(), "ICOUNT");
    restored.run(20000);
    expectIcount28Golden(restored.stats());
}

// ---- Fetch candidate ordering ----------------------------------------------

TEST(FetchSort, MatchesStdSortOnEveryPermutation)
{
    // (key, rr) is a strict total order (rr ranks are unique), so the
    // insertion sort must agree with std::sort from any input
    // permutation — including key ties broken by rr.
    const std::array<FetchCandidate, 5> base = {{
        {2.0, 1, 0},
        {2.0, 0, 1},
        {1.0, 3, 2},
        {7.0, 2, 3},
        {1.0, 4, 4},
    }};
    std::array<unsigned, 5> idx = {0, 1, 2, 3, 4};
    do {
        std::array<FetchCandidate, 5> mine;
        for (unsigned i = 0; i < 5; ++i)
            mine[i] = base[idx[i]];
        std::array<FetchCandidate, 5> ref = mine;

        sortFetchCandidates(mine.data(), 5);
        std::sort(ref.begin(), ref.end(),
                  [](const FetchCandidate &a, const FetchCandidate &b) {
                      if (a.key != b.key)
                          return a.key < b.key;
                      return a.rr < b.rr;
                  });
        for (unsigned i = 0; i < 5; ++i)
            ASSERT_EQ(mine[i].tid, ref[i].tid);
    } while (std::next_permutation(idx.begin(), idx.end()));
}

TEST(FetchSort, KeyTiesBreakTowardLowerRoundRobinRank)
{
    std::array<FetchCandidate, 3> cands = {{
        {5.0, 2, 7},
        {5.0, 0, 3},
        {5.0, 1, 5},
    }};
    sortFetchCandidates(cands.data(), 3);
    EXPECT_EQ(cands[0].tid, 3);
    EXPECT_EQ(cands[1].tid, 5);
    EXPECT_EQ(cands[2].tid, 7);
}

// ---- Steady-state allocation audit ------------------------------------------

TEST(AllocationAudit, InstPoolStopsGrowingAfterWarmup)
{
    SmtConfig cfg = presets::icount28(4);
    Simulator sim(cfg, mixForRun(4, 0));
    sim.run(30000); // reach the in-flight high-water mark.

    const std::size_t highWater = sim.core().poolAllocated();
    sim.run(20000);
    EXPECT_EQ(sim.core().poolAllocated(), highWater)
        << "DynInst allocations on the steady-state path";
}

TEST(AllocationAudit, EightThreadMachineAlsoStabilizes)
{
    SmtConfig cfg = presets::icount28(8);
    Simulator sim(cfg, mixForRun(8, 0));
    // The 8-thread machine hits rare deep wrong-path bursts that nudge
    // the in-flight record up past cycle 40k; it plateaus by 50k.
    sim.run(60000);
    const std::size_t highWater = sim.core().poolAllocated();
    sim.run(20000);
    EXPECT_EQ(sim.core().poolAllocated(), highWater)
        << "DynInst allocations on the steady-state path";
}

} // namespace
} // namespace smt
