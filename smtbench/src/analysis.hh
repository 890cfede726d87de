/**
 * @file
 * The benchmark's pure parts: sample summaries under the percentile
 * rule, the paper-error yardstick, span self time, and the metric
 * schema every result line is checked against. Nothing here touches
 * the clock, the network or the simulator, so the unit tests pin it
 * exactly.
 */

#ifndef SMTBENCH_ANALYSIS_HH
#define SMTBENCH_ANALYSIS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace smtbench
{

/** Median of a sample (the mean of the middle pair when even);
 *  0 for an empty sample. */
double median(std::vector<double> values);

/** The first (q = 1) or third (q = 3) quartile by linear interpolation
 *  between order statistics, as Python's statistics.quantiles(n=4)
 *  computes it; the median of a sample of fewer than two. */
double quartile(std::vector<double> values, int q);

/**
 * The `p` quantile (0 < p < 1) by the nearest-rank rule, reported only
 * when at least ten samples lie beyond it: n * (1 - p) >= 10. A p99
 * therefore needs 1000 samples; with fewer the percentile is not
 * reported at all rather than read off a handful of outliers.
 */
std::optional<double> tailPercentile(std::vector<double> values, double p);

/** What each full window of consecutive churn calls reports. */
struct CallWindows
{
    std::vector<double> perSecond; ///< calls / s, first to last completion.
    std::vector<double> p50Us;     ///< each window's median latency.
    std::vector<double> p99Us;     ///< by tailPercentile()'s rule.
};

/**
 * Split calls, taken in completion order (`done_s`, seconds from the
 * start, beside each call's `latency_us`), into full windows of
 * `window` calls and summarise each. A shared host's interference only
 * ever slows a window, so a run reports the quartile of windows it
 * touched least: the third quartile of the rates, the first of the
 * latencies. A slow stretch of the host covering up to three quarters
 * of the windows leaves that quartile alone; a slower store moves
 * every window.
 */
CallWindows callWindows(const std::vector<double> &latency_us,
                        const std::vector<double> &done_s,
                        std::size_t window);

/**
 * The paper's headline numbers, kept here rather than read from the
 * experiment registry so edits there cannot move the yardstick.
 */
struct PaperReference
{
    double fig3PeakSpeedup = 1.84;  ///< Fig 3: RR.1.8 peak / superscalar.
    double table4Rr28Ipc = 4.2;     ///< Table 4: RR.2.8 at 8 threads.
    double table4Icount28Ipc = 5.3; ///< Table 4: ICOUNT.2.8 at 8 threads.
    double abstractIpc = 5.4;       ///< Abstract: ICOUNT.2.8 at 8 threads.
    double abstractSpeedup = 2.5;   ///< Abstract: that over superscalar.
};

/** The simulated IPCs the yardstick compares. */
struct HeadlineIpc
{
    double superscalar = 0.0;   ///< unmodified superscalar, 1 thread.
    double rr18Peak = 0.0;      ///< best RR.1.8 IPC over 1..8 threads.
    double rr28At8 = 0.0;       ///< RR.2.8 at 8 threads.
    double icount28At8 = 0.0;   ///< ICOUNT.2.8 at 8 threads.
};

/**
 * Mean absolute relative error, in percent, of five claims: Fig 3's
 * peak speedup, Table 4's two 8-thread IPCs, and the abstract's IPC
 * and speedup of ICOUNT.2.8 at 8 threads.
 */
double paperErrorPct(const HeadlineIpc &ipc,
                     const PaperReference &ref = PaperReference{});

/**
 * A host time or rate scaled to the reference host speed: a time is
 * multiplied by reference_ms / index_ms, a rate by index_ms /
 * reference_ms, where index_ms is the run's median reference-kernel
 * time. Unscaled when index_ms is not positive.
 */
double atReferenceSpeed(double raw, double index_ms, double reference_ms,
                        bool is_rate);

/** |parts - whole| / whole in percent: how far per-layer times fall
 *  short of (or overrun) the total they should account for; 0 when the
 *  whole is not positive. */
double closureGapPct(double parts, double whole);

/**
 * The tolerance every closure gap of the traced run is held to. The
 * tightest closure, tickTimed's stage totals plus their timer cost
 * against the sim.run span, leaves 0.5-0.9 % of the run outside the
 * seven stages on the reference host: the per-cycle call into the
 * engine.
 */
inline constexpr double kClosureTolerancePct = 2.0;

/**
 * closureGapPct of the handle time the benchmark's own wrapper measured
 * around `requests` StoreService::handle calls against the total the
 * server keeps itself. The server counts each request in whole µs,
 * truncated, so half a µs per request is added back to its total.
 */
double serverClosureGapPct(double wrapper_us, double server_sum_us,
                           std::uint64_t requests);

/** One recorded span: [start, end) in ns, and its parent (-1 = root). */
struct SpanTimes
{
    std::int64_t parent = -1;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its children cover (children are clipped to the parent and
 * overlapping children count once), in any order of recording.
 */
std::vector<std::uint64_t> selfTimesNs(const std::vector<SpanTimes> &spans);

/** One metric of the result line. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** The end-to-end metrics every untraced run prints, in order. */
const std::vector<MetricDef> &endToEndMetrics();

/** The per-layer metrics every traced run prints, in order. */
const std::vector<MetricDef> &perLayerMetrics();

} // namespace smtbench

#endif // SMTBENCH_ANALYSIS_HH
