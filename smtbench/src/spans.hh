/**
 * @file
 * In-memory spans for the traced run.
 *
 * Every span records its name, start, end, parent and request id, and
 * stays in memory until the run ends; the Perfetto-loadable export goes
 * through obs::ChromeTraceBuilder. Spans are recorded by the
 * benchmark's own code around its calls into each layer, never from
 * inside the library.
 */

#ifndef SMTBENCH_SPANS_HH
#define SMTBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sweep/json.hh"

namespace smtbench
{

/** One finished span. */
struct Span
{
    std::string name;
    std::int64_t parent = -1; ///< index into the recorder; -1 = root.
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint32_t lane = 0;   ///< recording thread, numbered from 0.
    std::string requestId;    ///< the X-Smt-Trace id, where one applies.

    std::uint64_t durNs() const { return endNs - startNs; }
};

/** A thread-safe append-only span store. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Nanoseconds since the recorder was created (steady clock). */
    std::uint64_t nowNs() const;

    /** Record a finished span; returns its index. */
    std::int64_t add(std::string name, std::int64_t parent,
                     std::uint64_t start_ns, std::uint64_t end_ns,
                     std::string request_id = std::string());

    /** Open a span now; close() stamps its end. */
    std::int64_t open(std::string name, std::int64_t parent,
                      std::string request_id = std::string());
    void close(std::int64_t id);

    /** Attach a span recorded on another thread (a server handler) to
     *  the span that caused it; the child must come later. */
    void setParent(std::int64_t id, std::int64_t parent);

    /** A recorded span's duration so far. */
    std::uint64_t durationNs(std::int64_t id) const;

    /** A copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Self time summed per span name, over spans under `root`
     *  (inclusive); every span when root < 0. */
    std::map<std::string, std::uint64_t>
    selfTimeByName(std::int64_t root = -1) const;

    /** The Chrome trace-event document of every span. */
    smt::sweep::Json chromeTrace() const;

  private:
    std::uint32_t laneOf(std::thread::id id);

    const std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::thread::id, std::uint32_t> lanes_;
};

/** RAII helper: a span open for the lifetime of the object. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::int64_t parent,
               std::string request_id = std::string())
        : rec_(rec), id_(rec.open(std::move(name), parent,
                                  std::move(request_id)))
    {
    }
    ~ScopedSpan() { rec_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    std::int64_t id_;
};

} // namespace smtbench

#endif // SMTBENCH_SPANS_HH
