/**
 * @file
 * The sweep runner: expands a spec, consults the result cache, and
 * schedules every rotation run of every uncached point onto the shared
 * thread pool at once — a whole figure saturates the machine instead
 * of one data point's eight runs at a time.
 */

#ifndef SMT_SWEEP_RUNNER_HH
#define SMT_SWEEP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "obs/pipe_trace.hh"
#include "obs/trace.hh"
#include "sim/mix_runner.hh"
#include "sweep/json.hh"
#include "sweep/spec.hh"

namespace smt::sweep
{

/** A running sweep's position, reported as each point settles. */
struct RunProgress
{
    std::size_t pointsDone = 0;
    std::size_t pointsTotal = 0;
    std::size_t cacheHits = 0;
};

/** How to execute a sweep. */
struct RunnerOptions
{
    /** Baseline measurement knobs (specs may override cycles/warmup/
     *  runs; `parallel` is always taken from here). */
    MeasureOptions measure;

    /** Cache directory or store URL; empty disables caching. */
    std::string cacheDir;

    /** Bearer token presented to a token-protected remote store
     *  (ignored for directory stores). */
    std::string storeToken;

    /** In-progress marker lease seconds; a heartbeat refreshes every
     *  live marker at ttl/3 while this runner measures. */
    double markerTtlSeconds = 60.0;

    /** Fail (exit 1) on any cache miss — CI's "second pass is all
     *  hits" assertion. */
    bool requireCached = false;

    /** Print per-point scheduling/caching progress to stderr. */
    bool verbose = false;

    /** Worker threads for the shared pool (the --jobs flag); 0 keeps
     *  the pool's own default, the hardware concurrency. */
    unsigned jobs = 0;

    /** Invoked after each point settles (cache hit or measured). */
    std::function<void(const RunProgress &)> onProgress;

    /**
     * Trace-span sink (`--trace-out`): the runner emits one span per
     * digest transition (queued → claimed → run → stored, plus hit)
     * with durations and worker identity, and stamps the writer's
     * trace id on every remote-store request. Not owned; may be null.
     */
    obs::TraceWriter *trace = nullptr;

    /**
     * Pipeline-microscope sink (`--pipe-out`): every rotation run the
     * runner actually measures (cache hits replay no cycles and so
     * trace nothing) streams its per-instruction lifecycle into this
     * shared JSONL file as its own stream, windowed and sampled per
     * `pipeOptions`. Deliberately outside MeasureOptions: tracing
     * must never perturb a measurement digest. Not owned; may be
     * null.
     */
    obs::PipeTraceSink *pipeSink = nullptr;
    obs::PipeTraceOptions pipeOptions;
};

/** One measured (or cache-replayed) grid point. */
struct PointResult
{
    SweepPoint point;
    DataPoint data;
    std::string digest;
    bool cached = false;
};

/** A completed sweep. */
struct SweepOutcome
{
    ExperimentSpec spec;
    std::vector<PointResult> points;
    unsigned cacheHits = 0;
    unsigned cacheMisses = 0;
    double wallSeconds = 0.0;

    /** The result whose point label and thread count match; null
     *  when the grid has no such point. */
    const PointResult *find(const std::string &label,
                            unsigned threads) const;
};

/** Expand and run one experiment. */
SweepOutcome runSweep(const ExperimentSpec &spec,
                      const RunnerOptions &ropts);

/**
 * Measure explicit points through the scheduler+cache: runSweep's grid,
 * or the slice of it a shard worker or the coordinator owns. Results
 * are in point order.
 */
std::vector<PointResult> runPoints(const std::vector<SweepPoint> &points,
                                   const RunnerOptions &ropts);

/**
 * The BENCH_sweep.json artifact body for a set of completed sweeps.
 * Each experiment records the budget its points were measured at and,
 * for a registered experiment, the verdict on each of its paper claims.
 * With `with_stalls`, every point also carries its closed stall
 * ledger as machine-readable JSON (`smtsweep --stall-report --json`):
 * {"threads": [per-thread per-cause counters + "stalled"],
 *  "issueNoCandidatesCycles", "totalStalledSlots"} — the same shape
 * smttrace embeds in its summary under "stalls". A row's "stalled" is
 * the stall report's row total (StallStats::threadStalled).
 */
Json outcomeArtifact(const std::vector<SweepOutcome> &outcomes,
                     bool with_stalls = false);

/** Write a JSON document to a file (fatal on I/O failure). */
void writeJsonFile(const std::string &path, const Json &j);

} // namespace smt::sweep

#endif // SMT_SWEEP_RUNNER_HH
