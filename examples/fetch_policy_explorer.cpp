/**
 * @file
 * Fetch-policy explorer: compare every registered fetch priority
 * policy — the paper's five plus any registry extensions — on a
 * workload mix of your choosing, at one thread count.
 *
 * Usage: fetch_policy_explorer [threads] [benchmark ...]
 *   e.g. fetch_policy_explorer 4 xlisp tomcatv espresso fpppp
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "policy/registry.hh"
#include "sim/simulator.hh"
#include "stats/table.hh"
#include "workload/mix.hh"

int
main(int argc, char **argv)
{
    const unsigned threads =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;

    std::vector<smt::Benchmark> mix;
    for (int a = 2; a < argc; ++a)
        mix.push_back(smt::benchmarkByName(argv[a]));
    if (mix.empty())
        mix = smt::mixForRun(threads, 0);
    const std::size_t given = mix.size();
    while (mix.size() < threads)
        mix.push_back(mix[mix.size() % given]);
    mix.resize(threads);

    std::printf("mix:");
    for (smt::Benchmark b : mix)
        std::printf(" %s", smt::benchmarkName(b));
    std::printf("\n\n");

    smt::Table table("fetch policies on a custom mix (2.8 partitioning)");
    table.setHeader({"policy", "IPC", "int IQ-full", "fp IQ-full",
                     "wrong-path fetched"});
    const auto &registry = smt::policy::PolicyRegistry::instance();
    for (const std::string &name : registry.listFetchPolicies()) {
        smt::SmtConfig cfg = smt::presets::baseSmt(threads);
        cfg.fetchPolicy = name;
        smt::presets::setFetchPartition(cfg, 2, 8);
        smt::Simulator sim(cfg, mix);
        sim.warmup(5000);
        const smt::SimStats &stats = sim.run(40000);
        table.addRow({name, smt::fmtDouble(stats.ipc(), 2),
                      smt::fmtPercent(stats.intIQFullFraction()),
                      smt::fmtPercent(stats.fpIQFullFraction()),
                      smt::fmtPercent(stats.wrongPathFetchedFraction())});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
