/**
 * @file
 * Integration tests: whole-machine runs across the paper's main
 * configuration axes, checking the qualitative relationships the paper
 * reports (which scheme wins, which direction each knob moves
 * throughput) and cross-cutting invariants. The paper's own numbers
 * live in the experiment registry's claims; the gate below runs the
 * registered grids and holds every ordering claim that passes here.
 */

#include <sys/wait.h>

#include <cstdlib>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "sim/mix_runner.hh"
#include "sim/simulator.hh"
#include "sweep/experiments.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

MeasureOptions
fastOptions()
{
    MeasureOptions opts;
    // Long enough past the cold-start ramp that steady-state relations
    // hold; still a fraction of the default budget.
    opts.cyclesPerRun = 15000;
    opts.warmupCycles = 15000;
    opts.runs = 4;
    return opts;
}

TEST(Integration, MeasureAggregatesRuns)
{
    MeasureOptions opts = fastOptions();
    const DataPoint p = measure(presets::baseSmt(2), opts);
    EXPECT_EQ(p.stats.cycles, opts.runs * opts.cyclesPerRun);
    EXPECT_GT(p.ipc(), 0.5);
}

TEST(Integration, ParallelAndSerialMeasureAgree)
{
    MeasureOptions serial = fastOptions();
    serial.parallel = false;
    MeasureOptions parallel = fastOptions();
    parallel.parallel = true;
    const DataPoint a = measure(presets::baseSmt(2), serial);
    const DataPoint b = measure(presets::baseSmt(2), parallel);
    EXPECT_EQ(a.stats.committedInstructions,
              b.stats.committedInstructions);
    EXPECT_EQ(a.stats.issuedInstructions, b.stats.issuedInstructions);
}

TEST(Integration, ThroughputGrowsWithThreads)
{
    MeasureOptions opts = fastOptions();
    const double ipc1 = measure(presets::baseSmt(1), opts).ipc();
    const double ipc4 = measure(presets::baseSmt(4), opts).ipc();
    const double ipc8 = measure(presets::baseSmt(8), opts).ipc();
    EXPECT_GT(ipc4, ipc1 * 1.25);
    // Fig. 3: throughput peaks before 8 threads; the 8-thread point may
    // dip below the 4-thread one but must not collapse.
    EXPECT_GE(ipc8, ipc4 * 0.6);
    EXPECT_GT(ipc8, ipc1);
}

TEST(Integration, InfiniteFunctionalUnitsChangeLittle)
{
    MeasureOptions opts = fastOptions();
    SmtConfig base = presets::icount28(8);
    SmtConfig inf = base;
    inf.infiniteFunctionalUnits = true;
    const double base_ipc = measure(base, opts).ipc();
    const double inf_ipc = measure(inf, opts).ipc();
    EXPECT_GE(inf_ipc, base_ipc * 0.97);
    EXPECT_LT(inf_ipc, base_ipc * 1.30);
}

TEST(Integration, InfiniteCacheBandwidthChangesLittle)
{
    MeasureOptions opts = fastOptions();
    SmtConfig base = presets::icount28(8);
    SmtConfig inf = base;
    inf.infiniteCacheBandwidth = true;
    const double base_ipc = measure(base, opts).ipc();
    const double inf_ipc = measure(inf, opts).ipc();
    EXPECT_GE(inf_ipc, base_ipc * 0.97);
    EXPECT_LT(inf_ipc, base_ipc * 1.30);
}

TEST(Integration, SpeculationRestrictionsCostSingleThreadMore)
{
    MeasureOptions opts = fastOptions();
    SmtConfig full1 = presets::icount28(1);
    SmtConfig slow1 = full1;
    slow1.speculation = SpeculationMode::NoWrongPathIssue;
    const double cost1 =
        measure(full1, opts).ipc() / measure(slow1, opts).ipc();

    SmtConfig full8 = presets::icount28(8);
    SmtConfig slow8 = full8;
    slow8.speculation = SpeculationMode::NoWrongPathIssue;
    const double cost8 =
        measure(full8, opts).ipc() / measure(slow8, opts).ipc();

    EXPECT_GT(cost1, cost8);
    EXPECT_GT(cost1, 1.05);
}

TEST(Integration, NoPassBranchIsMilderThanNoWrongPathIssue)
{
    MeasureOptions opts = fastOptions();
    SmtConfig full = presets::icount28(8);
    SmtConfig no_pass = full;
    no_pass.speculation = SpeculationMode::NoPassBranch;
    SmtConfig no_wrong = full;
    no_wrong.speculation = SpeculationMode::NoWrongPathIssue;
    const double ipc_full = measure(full, opts).ipc();
    const double ipc_no_pass = measure(no_pass, opts).ipc();
    const double ipc_no_wrong = measure(no_wrong, opts).ipc();
    EXPECT_GE(ipc_full * 1.02, ipc_no_pass);
    EXPECT_GE(ipc_no_pass, ipc_no_wrong * 0.98);
}

TEST(Integration, IssuePoliciesAreCloseToOldestFirst)
{
    // Table 5: all four issue policies land within a whisker.
    MeasureOptions opts = fastOptions();
    SmtConfig base = presets::icount28(4);
    const double oldest = measure(base, opts).ipc();
    for (const char *p : {"OPT_LAST", "SPEC_LAST", "BRANCH_FIRST"}) {
        SmtConfig cfg = base;
        cfg.issuePolicy = p;
        const double ipc = measure(cfg, opts).ipc();
        EXPECT_GT(ipc, oldest * 0.9) << p;
        EXPECT_LT(ipc, oldest * 1.1) << p;
    }
}

TEST(Integration, BigqBuffersWithoutSearchGrowth)
{
    MeasureOptions opts = fastOptions();
    SmtConfig bigq = presets::icount28(8);
    bigq.intQueueEntries = 64;
    bigq.fpQueueEntries = 64;
    bigq.iqSearchWindow = 32;
    const double base_ipc = measure(presets::icount28(8), opts).ipc();
    const double bigq_ipc = measure(bigq, opts).ipc();
    EXPECT_GT(bigq_ipc, base_ipc * 0.85);
    EXPECT_LT(bigq_ipc, base_ipc * 1.15);
}

TEST(Integration, ItagRunsAndStaysInBand)
{
    MeasureOptions opts = fastOptions();
    SmtConfig itag = presets::icount28(8);
    itag.itagEarlyLookup = true;
    const double base_ipc = measure(presets::icount28(8), opts).ipc();
    const double itag_ipc = measure(itag, opts).ipc();
    EXPECT_GT(itag_ipc, base_ipc * 0.85);
    EXPECT_LT(itag_ipc, base_ipc * 1.2);
}

TEST(Integration, FewerExcessRegistersNeverHelp)
{
    MeasureOptions opts = fastOptions();
    SmtConfig r100 = presets::icount28(8);
    SmtConfig r40 = r100;
    r40.excessRegisters = 40;
    EXPECT_GE(measure(r100, opts).ipc() * 1.03,
              measure(r40, opts).ipc());
}

TEST(Integration, GatedPaperOrderingsHold)
{
    // The ordering claims that pass at this budget. A change that makes
    // another ordering pass adds it here.
    const std::set<std::string> gated = {
        "fig3.flattens",
        "fig4.rr24-trails-rr18-below-4t",
        "fig5.count-gains-need-threads",
        "fig6.itag-hurts-at-1t",
        "table3.icache-miss-rate-grows",
        "table3.dcache-miss-rate-grows",
        "table3.branch-mispredict-rate-grows",
        "table3.wrong-path-fetched-shrinks",
        "table3.wrong-path-issued-shrinks",
        "table4.int-iq-full-icount8-below-rr8",
        "table4.fp-iq-full-icount8-below-rr8",
        "table4.queue-population-icount8-below-rr8",
        "table4.fp-iq-full-icount8-below-1t",
        "table4.icount-beats-rr",
        "table5.opt-last-trims-optimistic",
        "sec7-branch.no-pass-branch-costs-less-with-threads",
        "sec7-branch.no-wrong-path-issue-costs-less-with-threads",
        "sec7-branch.no-pass-branch-milder.1t",
        "sec7-branch.no-pass-branch-milder.8t",
        "sec7-registers.graceful-degradation.8t",
    };
    sweep::RunnerOptions ropts;
    ropts.measure = fastOptions();
    std::size_t checked = 0;
    for (const sweep::NamedExperiment &e : sweep::allExperiments()) {
        bool holds_gated = false;
        for (const sweep::PaperClaim &c : e.claims)
            holds_gated = holds_gated || gated.count(c.id) != 0;
        if (!holds_gated)
            continue;
        const sweep::SweepOutcome outcome = sweep::runSweep(e.spec, ropts);
        for (const sweep::ClaimVerdict &v :
             sweep::evaluateClaims(e.claims, outcome)) {
            if (gated.count(v.claim->id) == 0)
                continue;
            ++checked;
            EXPECT_EQ(v.claim->kind, sweep::ClaimKind::Ordering)
                << v.claim->id;
            EXPECT_TRUE(v.pass)
                << v.claim->id << ": margin " << v.measured;
        }
    }
    EXPECT_EQ(checked, gated.size()); // every gated id is registered.
}

TEST(QuickstartCli, MalformedArgumentsExitTwoBeforeAnyMachineIsBuilt)
{
    for (const char *args : {"abc", "0", "9", "-1", "4x", "2 abc"}) {
        const std::string command = std::string(QUICKSTART_BINARY) + " "
                                    + args + " > /dev/null 2>&1";
        const int status = std::system(command.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << args;
        EXPECT_EQ(WEXITSTATUS(status), 2) << args;
    }
}

} // namespace
} // namespace smt
