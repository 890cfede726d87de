/**
 * @file
 * MixRunner: the paper's measurement methodology (Section 3). One data
 * point is the aggregate of 8 runs; run r assigns benchmark (r+t) mod 8
 * to thread t, so every benchmark visits every thread slot. Runs are
 * independent machines and execute in parallel worker threads.
 */

#ifndef SMT_SIM_MIX_RUNNER_HH
#define SMT_SIM_MIX_RUNNER_HH

#include <cstdint>
#include <optional>

#include "config/config.hh"
#include "stats/stats.hh"

namespace smt
{

namespace obs
{
class PipeTrace;
} // namespace obs

/** One measured data point (the aggregate of the 8 rotation runs). */
struct DataPoint
{
    SimStats stats;

    double ipc() const { return stats.ipc(); }
};

/** Knobs for a data-point measurement. */
struct MeasureOptions
{
    std::uint64_t cyclesPerRun = 40000; ///< post-warmup measured cycles.
    std::uint64_t warmupCycles = 30000; ///< cold-start ramp, discarded.
    unsigned runs = 8;                  ///< rotation length.
    bool parallel = true;               ///< use worker threads.

    /**
     * The field list: calls `f("key", s.field...)` for every
     * result-affecting field, in the digest's byte order. `parallel`
     * never enters the digest: a parallel measurement is
     * bit-identical to a serial one.
     */
    template <class F, class... S>
    static void
    fields(F &&f, S &...s)
    {
        f("cyclesPerRun", s.cyclesPerRun...);
        f("warmupCycles", s.warmupCycles...);
        f("runs", s.runs...);
    }
};

/**
 * Measure one configuration (cfg.numThreads defines the mix width).
 * Parallel measurements schedule their rotation runs on the shared
 * sweep::ThreadPool.
 */
DataPoint measure(const SmtConfig &cfg, const MeasureOptions &opts);

/**
 * Simulate one rotation run of a data point (run r of opts.runs).
 * The unit of work the sweep engine schedules; measure() aggregates
 * runs 0..opts.runs-1 in run order.
 *
 * A non-null `pipe` attaches a pipeline microscope for the whole run
 * (warmup included — windows are absolute cycles). Tracing is
 * observation-only: the run's statistics are cycle-identical with and
 * without it, and `pipe` never enters the measurement digest.
 */
SimStats measureRun(const SmtConfig &cfg, unsigned run,
                    const MeasureOptions &opts,
                    obs::PipeTrace *pipe = nullptr);

/** `text` as a whole decimal number: digits only (no sign, space or
 *  trailing bytes) and within 64 bits; nullopt otherwise. The one
 *  parser for budget and count flags. */
std::optional<std::uint64_t> parseWholeNumber(const char *text);

/** The longest duration any seconds flag accepts: 1e9 s, about 31
 *  years. A steady_clock deadline that far ahead still fits in
 *  nanoseconds, so no wait built from such a value overflows. */
inline constexpr double kMaxSeconds = 1e9;

/** `text` as seconds: one decimal number and nothing else (no space,
 *  `+`, hex prefix or trailing byte), finite and within [min, max];
 *  nullopt otherwise. The one parser for seconds flags and their
 *  environment twins. */
std::optional<double> parseSeconds(const char *text, double min,
                                   double max);

} // namespace smt

#endif // SMT_SIM_MIX_RUNNER_HH
