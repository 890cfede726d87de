/**
 * @file
 * Quickstart: build the paper's improved machine (ICOUNT.2.8), run a
 * 4-thread multiprogrammed mix, and print throughput plus the low-level
 * statistics the simulator gathers.
 *
 * Usage: quickstart [threads] [cycles]
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "sim/mix_runner.hh"
#include "sim/simulator.hh"
#include "workload/mix.hh"

namespace
{

/** `text` as a whole number in [min, max]; anything else exits 2 with
 *  the usage line before a machine is built. */
std::uint64_t
countArg(const char *text, std::uint64_t min, std::uint64_t max)
{
    const std::optional<std::uint64_t> n = smt::parseWholeNumber(text);
    if (!n || *n < min || *n > max) {
        std::fprintf(stderr,
                     "usage: quickstart [threads 1-%u] [cycles >= 1]\n",
                     smt::kMaxThreads);
        std::exit(2);
    }
    return *n;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned threads =
        argc > 1 ? static_cast<unsigned>(
                       countArg(argv[1], 1, smt::kMaxThreads))
                 : 4;
    const std::uint64_t cycles =
        argc > 2 ? countArg(argv[2], 1, UINT64_MAX) : 50000;

    // The improved architecture of Section 7: ICOUNT.2.8 fetch on the
    // base hardware sizes.
    smt::SmtConfig cfg = smt::presets::icount28(threads);

    // Thread t runs benchmark t of the paper's 8-benchmark rotation.
    smt::Simulator sim(cfg, smt::mixForRun(threads, 0));

    std::printf("machine: %s, %u hardware context(s)\n",
                cfg.fetchSchemeName().c_str(), threads);
    std::printf("running %llu cycles...\n\n",
                static_cast<unsigned long long>(cycles));

    sim.warmup(20000);
    const smt::SimStats &stats = sim.run(cycles);

    std::printf("%s\n", stats.report().c_str());
    std::printf("throughput: %.2f useful instructions per cycle\n",
                stats.ipc());
    return 0;
}
