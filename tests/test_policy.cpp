/**
 * @file
 * Unit tests for the policy layer: the priority ordering each fetch
 * policy produces on a hand-built PipelineState, the candidate ordering
 * of each issue policy, registry resolution (including custom policy
 * registration selected by SmtConfig's policy names), and golden-stats
 * regressions: the refactored core against the pre-refactor cycle
 * behaviour on the RR and ICOUNT.2.8 machines, and every paper policy
 * pair (plus four more machines) against its recorded statistics, stall
 * ledger and a digest of every statistic.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>

#include "core/pipeline_state.hh"
#include "policy/registry.hh"
#include "sim/simulator.hh"
#include "sweep/serialize.hh"
#include "sweep/spec.hh"
#include "sweep/store_service.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

// ---- Harness ---------------------------------------------------------------

/** A bare machine-state fixture the policies can be queried against. */
class PolicyStateTest : public ::testing::Test
{
  protected:
    PolicyStateTest()
        : cfg_(presets::baseSmt(4)), mem_(cfg_, stats_), bp_(cfg_),
          state_(cfg_, mem_, bp_, stats_)
    {
    }

    std::unique_ptr<policy::FetchPolicy>
    fetchPolicy(const std::string &name)
    {
        return policy::PolicyRegistry::instance().makeFetchPolicy(name);
    }

    std::unique_ptr<policy::IssuePolicy>
    issuePolicy(const std::string &name)
    {
        return policy::PolicyRegistry::instance().makeIssuePolicy(name);
    }

    DynInst *
    mkInst(InstSeqNum seq, ThreadID tid, const StaticInst *si,
           InstStage stage = InstStage::InQueue)
    {
        DynInst *inst = state_.pool.alloc();
        inst->seq = seq;
        inst->tid = tid;
        inst->si = si;
        inst->stage = stage;
        return inst;
    }

    SmtConfig cfg_;
    SimStats stats_;
    MemoryHierarchy mem_;
    BranchPredictor bp_;
    PipelineState state_;
    StaticInst alu_; // default IntAlu, no operands.
};

// ---- Registry --------------------------------------------------------------

TEST(PolicyRegistry, BuiltinsRegistered)
{
    const auto &reg = policy::PolicyRegistry::instance();
    for (const char *name :
         {"RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN",
          "ICOUNT+MISSCOUNT"})
        EXPECT_TRUE(reg.hasFetchPolicy(name)) << name;
    for (const char *name :
         {"OLDEST_FIRST", "OPT_LAST", "SPEC_LAST", "BRANCH_FIRST"})
        EXPECT_TRUE(reg.hasIssuePolicy(name)) << name;
    EXPECT_FALSE(reg.hasFetchPolicy("NO_SUCH_POLICY"));
}

TEST(PolicyRegistry, ConfigNamesResolveToMatchingPolicies)
{
    SmtConfig cfg = presets::icount28(2);
    cfg.issuePolicy = "SPEC_LAST";
    Simulator sim(cfg, mixForRun(2, 0));
    EXPECT_STREQ(sim.core().fetchPolicy().name(), "ICOUNT");
    EXPECT_STREQ(sim.core().issuePolicy().name(), "SPEC_LAST");

    cfg.fetchPolicy = "ICOUNT+MISSCOUNT";
    EXPECT_EQ(cfg.fetchSchemeName(), "ICOUNT+MISSCOUNT.2.8");
    Simulator hybrid(cfg, mixForRun(2, 0));
    EXPECT_STREQ(hybrid.core().fetchPolicy().name(), "ICOUNT+MISSCOUNT");
}

TEST(PolicyRegistry, CustomPolicyRunsASimulation)
{
    // A custom policy needs only a registry entry: fetch the highest
    // thread id first (deliberately silly, easy to register).
    class HighestTidPolicy final : public policy::FetchPolicy
    {
      public:
        const char *name() const override { return "HIGHEST_TID"; }

        double
        priorityKey(const PipelineState &, ThreadID tid) const override
        {
            return -static_cast<double>(tid);
        }
    };
    policy::PolicyRegistry::instance().registerFetchPolicy(
        "HIGHEST_TID", [] { return std::make_unique<HighestTidPolicy>(); });

    SmtConfig cfg = presets::baseSmt(2);
    cfg.fetchPolicy = "HIGHEST_TID";
    Simulator sim(cfg, mixForRun(2, 0));
    sim.run(3000);
    EXPECT_GT(sim.stats().committedInstructions, 500u);
    EXPECT_STREQ(sim.core().fetchPolicy().name(), "HIGHEST_TID");
}

// ---- Fetch policies ----------------------------------------------------------

TEST_F(PolicyStateTest, RoundRobinRanksAllThreadsEqual)
{
    auto p = fetchPolicy("RR");
    state_.frontAndQueueCount[0] = 12;
    state_.frontAndQueueCount[1] = 0;
    EXPECT_EQ(p->priorityKey(state_, 0), p->priorityKey(state_, 1));
}

TEST_F(PolicyStateTest, ICountPrefersThreadWithFewestInstructions)
{
    auto p = fetchPolicy("ICOUNT");
    state_.frontAndQueueCount[0] = 7;
    state_.frontAndQueueCount[1] = 2;
    state_.frontAndQueueCount[2] = 11;
    // Lower key = higher priority: thread 1 first, thread 2 last.
    EXPECT_LT(p->priorityKey(state_, 1), p->priorityKey(state_, 0));
    EXPECT_LT(p->priorityKey(state_, 0), p->priorityKey(state_, 2));
}

TEST_F(PolicyStateTest, BrCountPrefersThreadWithFewestBranches)
{
    auto p = fetchPolicy("BRCOUNT");
    state_.branchCount[0] = 4;
    state_.branchCount[1] = 1;
    state_.frontAndQueueCount[0] = 1; // must not matter.
    state_.frontAndQueueCount[1] = 30;
    EXPECT_LT(p->priorityKey(state_, 1), p->priorityKey(state_, 0));
}

TEST_F(PolicyStateTest, MissCountPenalizesOutstandingDCacheMisses)
{
    auto p = fetchPolicy("MISSCOUNT");
    EXPECT_EQ(p->priorityKey(state_, 0), p->priorityKey(state_, 1));

    // A cold D-cache access misses; the fill is outstanding for a while.
    mem_.dataAccess(0, AddressLayout::dataBase(0), false, 0);
    ASSERT_GT(mem_.outstandingDMisses(0, 1), 0u);
    EXPECT_GT(p->priorityKey(state_, 0), p->priorityKey(state_, 1));
}

TEST_F(PolicyStateTest, IQPosnDeprioritizesThreadNearestQueueHead)
{
    auto p = fetchPolicy("IQPOSN");
    // Thread 0 owns the int-queue head (position 0); thread 1's oldest
    // entry sits behind it (position 2); thread 2 has nothing in the
    // int queue (sentinel position = queue size = farthest = best).
    // Thread 3 fills the FP queue so the empty-queue sentinel there
    // (min over both queues) does not clamp threads 0-2 to zero.
    state_.intQueue.insert(mkInst(1, 0, &alu_));
    state_.intQueue.insert(mkInst(2, 0, &alu_));
    state_.intQueue.insert(mkInst(3, 1, &alu_));
    StaticInst fpop;
    fpop.op = OpClass::FpAlu;
    for (InstSeqNum seq = 4; seq <= 6; ++seq)
        state_.fpQueue.insert(mkInst(seq, 3, &fpop));
    p->beginCycle(state_);
    EXPECT_GT(p->priorityKey(state_, 0), p->priorityKey(state_, 1));
    EXPECT_GT(p->priorityKey(state_, 1), p->priorityKey(state_, 2));
}

TEST_F(PolicyStateTest, IQPosnConsidersBothQueues)
{
    auto p = fetchPolicy("IQPOSN");
    StaticInst fpop;
    fpop.op = OpClass::FpAlu;
    // Thread 0 is one slot from the int-queue head but owns the
    // FP-queue head; thread 2 is one slot from the FP-queue head and
    // absent from the int queue. The closest position across both
    // queues governs, so thread 0 (FP head) ranks below thread 2.
    state_.intQueue.insert(mkInst(1, 1, &alu_));
    state_.intQueue.insert(mkInst(2, 0, &alu_));
    state_.fpQueue.insert(mkInst(3, 0, &fpop));
    state_.fpQueue.insert(mkInst(4, 2, &fpop));
    p->beginCycle(state_);
    EXPECT_GT(p->priorityKey(state_, 0), p->priorityKey(state_, 2));
}

TEST_F(PolicyStateTest, HybridICountMissCountBlendsBothSignals)
{
    auto p = fetchPolicy("ICOUNT+MISSCOUNT");
    state_.frontAndQueueCount[0] = 2;
    state_.frontAndQueueCount[1] = 3;
    // Without misses the hybrid degenerates to ICOUNT order...
    EXPECT_LT(p->priorityKey(state_, 0), p->priorityKey(state_, 1));
    // ...but an outstanding miss on thread 0 outweighs its small
    // occupancy edge.
    mem_.dataAccess(0, AddressLayout::dataBase(0), false, 0);
    ASSERT_GT(mem_.outstandingDMisses(0, 1), 0u);
    EXPECT_GT(p->priorityKey(state_, 0), p->priorityKey(state_, 1));
}

// ---- Issue policies -----------------------------------------------------------

TEST_F(PolicyStateTest, OldestFirstOrdersBySequence)
{
    auto p = issuePolicy("OLDEST_FIRST");
    std::vector<DynInst *> cands = {mkInst(9, 0, &alu_), mkInst(3, 1, &alu_),
                                    mkInst(5, 0, &alu_)};
    p->order(state_, cands);
    EXPECT_EQ(cands[0]->seq, 3u);
    EXPECT_EQ(cands[1]->seq, 5u);
    EXPECT_EQ(cands[2]->seq, 9u);
}

TEST_F(PolicyStateTest, BranchFirstHoistsControlInstructions)
{
    auto p = issuePolicy("BRANCH_FIRST");
    StaticInst branch;
    branch.op = OpClass::CondBranch;
    std::vector<DynInst *> cands = {mkInst(1, 0, &alu_),
                                    mkInst(8, 0, &branch),
                                    mkInst(2, 0, &alu_)};
    p->order(state_, cands);
    EXPECT_EQ(cands[0]->seq, 8u); // the branch, though youngest.
    EXPECT_EQ(cands[1]->seq, 1u);
    EXPECT_EQ(cands[2]->seq, 2u);
}

TEST_F(PolicyStateTest, SpecLastDemotesInstructionsBehindABranch)
{
    auto p = issuePolicy("SPEC_LAST");
    StaticInst branch;
    branch.op = OpClass::CondBranch;
    // Thread 0 has an unresolved branch at seq 4: its seq-6 candidate
    // is speculative; thread 1's seq-9 candidate is not.
    DynInst *br = mkInst(4, 0, &branch);
    state_.threads[0].unresolvedBranches.push_back(br);
    std::vector<DynInst *> cands = {mkInst(6, 0, &alu_),
                                    mkInst(9, 1, &alu_)};
    p->order(state_, cands);
    EXPECT_EQ(cands[0]->seq, 9u);
    EXPECT_EQ(cands[1]->seq, 6u);
}

TEST_F(PolicyStateTest, OptLastDemotesUnverifiedLoadDependents)
{
    auto p = issuePolicy("OPT_LAST");
    StaticInst consumer;
    consumer.src1 = LogReg::intReg(3);
    // The consumer's renamed source is optimistic (unverified) until
    // cycle 5; the plain ALU op is not.
    DynInst *opt = mkInst(2, 0, &consumer);
    opt->src1Phys = 40;
    state_.intRegs.setUnverifiedUntil(40, 5);
    std::vector<DynInst *> cands = {opt, mkInst(7, 0, &alu_)};
    p->order(state_, cands);
    EXPECT_EQ(cands[0]->seq, 7u);
    EXPECT_EQ(cands[1]->seq, 2u);
    // Once verified, age order returns.
    state_.intRegs.setUnverifiedUntil(40, 0);
    p->order(state_, cands);
    EXPECT_EQ(cands[0]->seq, 2u);
}

// ---- Golden-stats regression ---------------------------------------------------

/**
 * Pre-refactor committed/fetched/issued counts of the monolithic core
 * (seed 1, mixForRun, 20000 cycles), captured before SmtCore was split
 * into stage modules. The stage-per-class core must stay cycle-exact.
 */
TEST(GoldenStats, RrBaseMachineMatchesPreRefactorCore)
{
    SmtConfig cfg = presets::baseSmt(4);
    Simulator sim(cfg, mixForRun(4, 0));
    sim.run(20000);
    const SimStats &s = sim.stats();
    EXPECT_EQ(s.committedInstructions, 33373u);
    EXPECT_EQ(s.fetchedInstructions, 36046u);
    EXPECT_EQ(s.issuedInstructions, 40476u);
    EXPECT_EQ(s.condBranchMispredicts, 81u);
    EXPECT_EQ(s.dcache.misses, 1293u);
}

TEST(GoldenStats, Icount28MatchesPreRefactorCore)
{
    SmtConfig cfg = presets::icount28(4);
    Simulator sim(cfg, mixForRun(4, 0));
    sim.run(20000);
    const SimStats &s = sim.stats();
    EXPECT_EQ(s.committedInstructions, 33173u);
    EXPECT_EQ(s.fetchedInstructions, 35951u);
    EXPECT_EQ(s.issuedInstructions, 39341u);
    EXPECT_EQ(s.condBranchMispredicts, 88u);
    EXPECT_EQ(s.dcache.misses, 1261u);
    EXPECT_EQ(s.optimisticSquashes, 2467u);
}

/** One paper policy pair's statistics: 4 threads, RR.1.8 partitioning,
 *  seed 1, mixForRun, 6000 cycles. */
struct PairGolden
{
    const char *fetch;
    const char *issue;

    /** The counters a single divergent cycle anywhere would disturb. */
    struct
    {
        std::uint64_t cycles, committed, fetched, fetchedWrongPath,
            issued, issuedWrongPath, optimisticSquashes, mispredicts,
            dcacheMisses;
    } stats;

    /** Each stall-ledger cause, summed over the threads. */
    struct
    {
        std::uint64_t fetchActive, fetchIcacheMiss, fetchFrontEndFull,
            fetchNoTarget, fetchLostSelection, renameIQFull,
            renameNoRegisters, issueOperandWait, issueFuBusy,
            issueNoCandidatesCycles;
    } ledger;

    /** statsDigest() of the run: every statistic, including the cache,
     *  TLB and per-thread ledger counts the two groups above omit. */
    const char *digest;
};

/**
 * Every fetch policy of Section 5 (and the ICOUNT+MISSCOUNT hybrid)
 * under OLDEST_FIRST, and every issue policy of Section 6 under ICOUNT.
 * Recorded from the two-engine core, where each pair's devirtualized
 * engine and the generic engine agreed on every value; any core that
 * binds these policies must reproduce them exactly.
 */
constexpr PairGolden kPairGoldens[] = {
    {"RR", "OLDEST_FIRST",
     {6000, 3228, 3693, 256, 4151, 97, 420, 12, 191},
     {592, 13302, 9956, 0, 150, 9704, 1487, 150815, 1869, 311},
     "1d041b3068a3321c84a6ff6d4c837776"},
    {"BRCOUNT", "OLDEST_FIRST",
     {6000, 2997, 3548, 333, 3922, 137, 406, 13, 192},
     {566, 14178, 9148, 0, 108, 8506, 1953, 153085, 1689, 312},
     "b8a7a25be983c74082ae7c599fc28108"},
    {"MISSCOUNT", "OLDEST_FIRST",
     {6000, 3400, 3783, 232, 4273, 96, 410, 13, 189},
     {605, 13954, 9307, 0, 134, 8695, 1885, 140769, 1851, 311},
     "dbb0a0db634809d8f0517a730ea840b9"},
    {"ICOUNT", "OLDEST_FIRST",
     {6000, 3080, 3615, 332, 4010, 152, 386, 13, 198},
     {578, 14123, 9160, 0, 139, 8687, 1655, 146218, 1780, 312},
     "3ed3e31c4d7f9c502487c64dc394f141"},
    {"IQPOSN", "OLDEST_FIRST",
     {6000, 3360, 3773, 261, 4271, 130, 415, 13, 190},
     {607, 13878, 9402, 0, 113, 8735, 1841, 135817, 1778, 323},
     "19256d37d0f044b6cb8a6f14770fae35"},
    {"ICOUNT+MISSCOUNT", "OLDEST_FIRST",
     {6000, 3289, 3684, 236, 4183, 109, 398, 13, 189},
     {593, 14057, 9226, 0, 124, 8688, 1870, 140652, 1788, 312},
     "0fee034bcb56e91cf50b996f1a494bd2"},
    {"ICOUNT", "OPT_LAST",
     {6000, 3080, 3615, 332, 4021, 161, 379, 13, 202},
     {578, 14271, 9040, 0, 111, 8725, 1468, 148017, 1119, 312},
     "5866e4c4877126d0ba85f8db90ba5c48"},
    {"ICOUNT", "SPEC_LAST",
     {6000, 3080, 3635, 341, 4008, 157, 366, 13, 198},
     {583, 14122, 9174, 0, 121, 8427, 1954, 145376, 1874, 312},
     "54b701fa9b11ccde5be520b46f23ddd3"},
    {"ICOUNT", "BRANCH_FIRST",
     {6000, 3254, 3776, 348, 4182, 165, 376, 13, 209},
     {605, 14171, 9091, 0, 133, 8547, 1725, 142260, 1394, 312},
     "2db52c85deab830cd66178fd7f3822ea"},
};

/** The content digest of a run's full `toJson(SimStats)` dump. */
std::string
statsDigest(const SimStats &s)
{
    return sweep::contentDigest(sweep::toJson(s).dump());
}

std::uint64_t
threadSum(const std::array<std::uint64_t, kMaxThreads> &perThread)
{
    return std::accumulate(perThread.begin(), perThread.end(),
                           std::uint64_t{0});
}

TEST(GoldenStats, EveryPaperPolicyPairMatchesTheParent)
{
    for (const PairGolden &g : kPairGoldens) {
        const std::string what = std::string(g.fetch) + "." + g.issue;
        SmtConfig cfg = presets::baseSmt(4);
        sweep::applyKnob(cfg, {"fetchPolicy", sweep::Json(g.fetch)});
        sweep::applyKnob(cfg, {"issuePolicy", sweep::Json(g.issue)});
        Simulator sim(cfg, mixForRun(4, 0));
        sim.run(6000);
        sim.core().validateInvariants();

        const SimStats &s = sim.stats();
        EXPECT_EQ(s.cycles, g.stats.cycles) << what;
        EXPECT_EQ(s.committedInstructions, g.stats.committed) << what;
        EXPECT_EQ(s.fetchedInstructions, g.stats.fetched) << what;
        EXPECT_EQ(s.fetchedWrongPath, g.stats.fetchedWrongPath) << what;
        EXPECT_EQ(s.issuedInstructions, g.stats.issued) << what;
        EXPECT_EQ(s.issuedWrongPath, g.stats.issuedWrongPath) << what;
        EXPECT_EQ(s.optimisticSquashes, g.stats.optimisticSquashes)
            << what;
        EXPECT_EQ(s.condBranchMispredicts, g.stats.mispredicts) << what;
        EXPECT_EQ(s.dcache.misses, g.stats.dcacheMisses) << what;

        const StallStats &sl = s.stalls;
        EXPECT_EQ(threadSum(sl.fetchActive), g.ledger.fetchActive) << what;
        EXPECT_EQ(threadSum(sl.fetchIcacheMiss), g.ledger.fetchIcacheMiss)
            << what;
        EXPECT_EQ(threadSum(sl.fetchFrontEndFull),
                  g.ledger.fetchFrontEndFull)
            << what;
        EXPECT_EQ(threadSum(sl.fetchNoTarget), g.ledger.fetchNoTarget)
            << what;
        EXPECT_EQ(threadSum(sl.fetchLostSelection),
                  g.ledger.fetchLostSelection)
            << what;
        EXPECT_EQ(threadSum(sl.renameIQFull), g.ledger.renameIQFull)
            << what;
        EXPECT_EQ(threadSum(sl.renameNoRegisters),
                  g.ledger.renameNoRegisters)
            << what;
        EXPECT_EQ(threadSum(sl.issueOperandWait),
                  g.ledger.issueOperandWait)
            << what;
        EXPECT_EQ(threadSum(sl.issueFuBusy), g.ledger.issueFuBusy) << what;
        EXPECT_EQ(sl.issueNoCandidatesCycles,
                  g.ledger.issueNoCandidatesCycles)
            << what;
        EXPECT_EQ(statsDigest(s), g.digest)
            << what << "\n" << sweep::toJson(s).dump(2);
    }
}

/** A machine pinned by the digest of all its statistics alone: seed 1,
 *  mixForRun, 6000 cycles. */
struct MachineGolden
{
    const char *name;
    SmtConfig (*config)();
    const char *digest;
};

/**
 * The 8-thread machines of Section 5 (ICOUNT.2.8, its 64-entry BIGQ
 * and the ITAG front end on ICOUNT.1.8) and a Section 7 speculation
 * restriction, none of which the 4-thread pairs above exercise.
 */
const MachineGolden kMachineGoldens[] = {
    {"ICOUNT.2.8 x8", [] { return presets::icount28(8); },
     "3cff0642b9f4ee08dca375c0bc7db4f2"},
    {"BIGQ ICOUNT.2.8 x8",
     [] {
         SmtConfig cfg = presets::icount28(8);
         cfg.intQueueEntries = 64;
         cfg.fpQueueEntries = 64;
         return cfg;
     },
     "a19efb1f04de0644d0abdb8934079253"},
    {"ITAG ICOUNT.1.8 x8",
     [] {
         SmtConfig cfg = presets::baseSmt(8);
         cfg.fetchPolicy = "ICOUNT";
         cfg.itagEarlyLookup = true;
         return cfg;
     },
     "429a51583506d6d28b25486fe3d3af3f"},
    {"no-wrong-path-issue ICOUNT.2.8 x4",
     [] {
         SmtConfig cfg = presets::icount28(4);
         cfg.speculation = SpeculationMode::NoWrongPathIssue;
         return cfg;
     },
     "6d2bedc19eddbf5879b176b10c2dceb4"},
};

TEST(GoldenStats, EveryStatisticOfFourMoreMachinesMatchesTheParent)
{
    for (const MachineGolden &g : kMachineGoldens) {
        const SmtConfig cfg = g.config();
        Simulator sim(cfg, mixForRun(cfg.numThreads, 0));
        sim.run(6000);
        sim.core().validateInvariants();
        EXPECT_EQ(statsDigest(sim.stats()), g.digest)
            << g.name << "\n" << sweep::toJson(sim.stats()).dump(2);
    }
}

} // namespace
} // namespace smt
