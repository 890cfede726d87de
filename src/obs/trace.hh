/**
 * @file
 * Structured trace events: one JSON object per line (JSONL), each
 * carrying a wall-clock timestamp, an event name, and the trace id
 * that stitches a sweep's spans together across processes and hosts.
 *
 * The trace id is minted once per sweep (coordinator or tool entry
 * point), handed to workers in the SMTSWEEP_TRACE_ID environment
 * variable, and rides every store request as the `X-Smt-Trace` header
 * so server-side access logs line up with client-side spans. Spans
 * themselves never reach the store: a shard worker streams them to
 * its stdout, and a traced coordinator appends them to its own trace
 * file, the one place a sweep's spans meet.
 */

#ifndef SMT_OBS_TRACE_HH
#define SMT_OBS_TRACE_HH

#include <cstdio>
#include <string>

#include "obs/jsonl.hh"
#include "sweep/json.hh"

namespace smt::obs
{

/** Wire/env names for trace-id propagation. */
inline constexpr const char *kTraceHeader = "X-Smt-Trace";
inline constexpr const char *kTraceEnvVar = "SMTSWEEP_TRACE_ID";

/** A fresh process-unique hex trace id (no RNG dependency). */
std::string newTraceId();

/** Wall-clock seconds since the Unix epoch, to microseconds. */
double nowUnixSeconds();

/**
 * Monotonic seconds (steady clock, arbitrary epoch). Every trace
 * event carries both clocks: wall-clock `ts` places events across
 * hosts, monotonic `mono` + `dur_us` yield durations that survive
 * NTP steps and cross-host clock skew.
 */
double monoSeconds();

/**
 * A thread-safe span emitter over the shared JSONL writer: emit()
 * serializes one event per line and flushes, so a trace is readable
 * while the sweep is still running and survives a crash up to the
 * last event.
 */
class TraceWriter
{
  public:
    /**
     * Opens `path` for append; fatal if the file cannot be opened.
     * An empty `trace_id` falls back to SMTSWEEP_TRACE_ID (a worker
     * joining its coordinator's trace) and then to a fresh id.
     */
    explicit TraceWriter(const std::string &path,
                         std::string trace_id = "");

    /**
     * Streams spans to a borrowed stream (a shard worker's stdout,
     * folded by its coordinator) under exactly `trace_id`. An empty
     * id marks spans that belong to no trace: the runner then stamps
     * no X-Smt-Trace header on its store requests.
     */
    TraceWriter(std::FILE *stream, std::string trace_id);

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /**
     * Write `{"ts": ..., "mono": ..., "event": event, "trace":
     * traceId(), plus every key of `fields`}` as one line. `fields`
     * must be a JSON object (or null for no extra fields). Returns
     * the exact line written (without its newline).
     */
    std::string emit(const std::string &event, sweep::Json fields);

    /** Append a line another process emitted, verbatim (the spans a
     *  coordinator's workers stream back). */
    void append(const std::string &line) { out_.write(line); }

    const std::string &traceId() const { return trace_; }

  private:
    JsonlWriter out_;
    std::string trace_;
};

} // namespace smt::obs

#endif // SMT_OBS_TRACE_HH
