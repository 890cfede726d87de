/**
 * @file
 * Property-based sweeps: invariants that must hold for *every* machine
 * configuration and workload, checked across the paper's whole
 * configuration space with parameterized gtest. The policy axes iterate
 * the PolicyRegistry's names, so every registered builtin (the
 * ICOUNT+MISSCOUNT hybrid included) is covered.
 *
 * Invariants:
 *  - determinism: identical (config, mix, seed) -> identical statistics;
 *  - register conservation: free + architectural + in-flight = total,
 *    at any point in execution (validateInvariants);
 *  - program order: committed instructions of each thread are exactly
 *    the oracle's correct-path stream (asserted inside commit);
 *  - accounting sanity: committed <= issued <= fetched bounds, fractions
 *    within [0,1], queue population <= capacity.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>

#include "policy/registry.hh"
#include "sim/simulator.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

/** (threads, fetch policy, fetch partitioning index, issue policy). */
using ConfigPoint =
    std::tuple<unsigned, std::string, unsigned, std::string>;

SmtConfig
makeConfig(const ConfigPoint &point)
{
    const auto &[threads, fetch_policy, partition, issue_policy] = point;
    SmtConfig cfg = presets::baseSmt(threads);
    cfg.fetchPolicy = fetch_policy;
    cfg.issuePolicy = issue_policy;
    switch (partition) {
      case 0: presets::setFetchPartition(cfg, 1, 8); break;
      case 1: presets::setFetchPartition(cfg, 2, 4); break;
      case 2: presets::setFetchPartition(cfg, 2, 8); break;
      default: presets::setFetchPartition(cfg, 4, 2); break;
    }
    return cfg;
}

/** A policy name as a gtest parameter name ([A-Za-z0-9_] only). */
std::string
paramSafe(std::string name)
{
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

std::string
pointName(const ::testing::TestParamInfo<ConfigPoint> &info)
{
    const auto &[threads, fp, part, ip] = info.param;
    return std::to_string(threads) + "T_" + paramSafe(fp) + "_p" +
           std::to_string(part) + "_" + paramSafe(ip);
}

const policy::PolicyRegistry &
registry()
{
    return policy::PolicyRegistry::instance();
}

class ConfigSweep : public ::testing::TestWithParam<ConfigPoint>
{
};

TEST_P(ConfigSweep, RunsWithInvariantsIntact)
{
    const SmtConfig cfg = makeConfig(GetParam());
    Simulator sim(cfg, mixForRun(cfg.numThreads, 1));
    for (int chunk = 0; chunk < 8; ++chunk) {
        sim.run(800);
        sim.core().validateInvariants();
    }
    const SimStats &s = sim.stats();
    EXPECT_GT(s.committedInstructions, 0u);
    EXPECT_LE(s.committedInstructions, s.fetchedInstructions);
    EXPECT_LE(s.wrongPathFetchedFraction(), 1.0);
    EXPECT_LE(s.uselessIssueFraction(), 1.0);
    EXPECT_LE(s.intIQFullFraction(), 1.0);
    EXPECT_LE(s.avgQueuePopulation(),
              cfg.intQueueEntries + cfg.fpQueueEntries);
}

TEST_P(ConfigSweep, Deterministic)
{
    const SmtConfig cfg = makeConfig(GetParam());
    Simulator a(cfg, mixForRun(cfg.numThreads, 2));
    Simulator b(cfg, mixForRun(cfg.numThreads, 2));
    a.run(4000);
    b.run(4000);
    EXPECT_EQ(a.stats().committedInstructions,
              b.stats().committedInstructions);
    EXPECT_EQ(a.stats().issuedInstructions, b.stats().issuedInstructions);
    EXPECT_EQ(a.stats().fetchedWrongPath, b.stats().fetchedWrongPath);
    EXPECT_EQ(a.stats().optimisticSquashes, b.stats().optimisticSquashes);
    EXPECT_EQ(a.stats().dcache.misses, b.stats().dcache.misses);
    EXPECT_EQ(a.stats().icache.misses, b.stats().icache.misses);
}

INSTANTIATE_TEST_SUITE_P(
    FetchPolicySpace, ConfigSweep,
    ::testing::Combine(::testing::Values(1u, 3u, 8u),
                       ::testing::ValuesIn(registry().listFetchPolicies()),
                       ::testing::Values(0u, 2u),
                       ::testing::Values(std::string("OLDEST_FIRST"))),
    pointName);

INSTANTIATE_TEST_SUITE_P(
    IssuePolicySpace, ConfigSweep,
    ::testing::Combine(::testing::Values(2u, 6u),
                       ::testing::Values(std::string("ICOUNT")),
                       ::testing::Values(1u, 3u),
                       ::testing::ValuesIn(registry().listIssuePolicies())),
    pointName);

// ---- Structural knob sweeps ------------------------------------------------

class KnobSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(KnobSweep, TinyRegisterFilesNeverBreakInvariants)
{
    // Squeeze the renaming pool hard: correctness must be unaffected.
    SmtConfig cfg = presets::baseSmt(4);
    cfg.excessRegisters = GetParam();
    Simulator sim(cfg, mixForRun(4, 3));
    sim.run(5000);
    sim.core().validateInvariants();
    EXPECT_GT(sim.stats().committedInstructions, 100u);
}

INSTANTIATE_TEST_SUITE_P(ExcessRegisters, KnobSweep,
                         ::testing::Values(4u, 12u, 40u, 100u, 300u));

class QueueSweep : public ::testing::TestWithParam<std::pair<unsigned,
                                                             unsigned>>
{
};

TEST_P(QueueSweep, QueueGeometryVariantsRun)
{
    const auto [entries, window] = GetParam();
    SmtConfig cfg = presets::icount28(4);
    cfg.intQueueEntries = entries;
    cfg.fpQueueEntries = entries;
    cfg.iqSearchWindow = window;
    Simulator sim(cfg, mixForRun(4, 4));
    sim.run(5000);
    sim.core().validateInvariants();
    EXPECT_GT(sim.stats().committedInstructions, 500u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, QueueSweep,
    ::testing::Values(std::pair<unsigned, unsigned>{8, 8},
                      std::pair<unsigned, unsigned>{32, 16},
                      std::pair<unsigned, unsigned>{64, 32},
                      std::pair<unsigned, unsigned>{64, 64},
                      std::pair<unsigned, unsigned>{128, 32}));

class SpeculationSweep
    : public ::testing::TestWithParam<std::tuple<SpeculationMode, bool,
                                                 bool>>
{
};

TEST_P(SpeculationSweep, RestrictionCombinationsStaySound)
{
    const auto [mode, itag, perfect] = GetParam();
    SmtConfig cfg = presets::icount28(3);
    cfg.speculation = mode;
    cfg.itagEarlyLookup = itag;
    cfg.perfectBranchPrediction = perfect;
    Simulator sim(cfg, mixForRun(3, 5));
    sim.run(6000);
    sim.core().validateInvariants();
    EXPECT_GT(sim.stats().committedInstructions, 200u);
    if (perfect) {
        EXPECT_EQ(sim.stats().fetchedWrongPath, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Restrictions, SpeculationSweep,
    ::testing::Combine(::testing::Values(SpeculationMode::Full,
                                         SpeculationMode::NoPassBranch,
                                         SpeculationMode::NoWrongPathIssue),
                       ::testing::Bool(), ::testing::Bool()));

// ---- Seed robustness ----------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, EveryProgramSeedExecutesSoundly)
{
    SmtConfig cfg = presets::baseSmt(2);
    cfg.seed = GetParam();
    Simulator sim(cfg, {Benchmark::Xlisp, Benchmark::Tomcatv});
    sim.run(6000);
    sim.core().validateInvariants();
    EXPECT_GT(sim.stats().committedInstructions, 500u);
    EXPECT_GT(sim.stats().condBranches, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u,
                                           0xDEADBEEFu));

} // namespace
} // namespace smt
