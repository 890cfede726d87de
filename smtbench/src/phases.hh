/**
 * @file
 * The three measured phases, each driven through the library's public
 * functions only:
 *
 *  - cold:   sweep::runSweep regenerates the paper's headline grid into
 *            an empty local store (the simulator does the work);
 *  - replay: every paper grid, one runSweep per grid, against a warm
 *            store served in-process over loopback (no simulation);
 *  - churn:  closed-loop RemoteResultStore clients replay the measured
 *            per-digest traffic of a sweep worker and its merge pass.
 *
 * Phases never overlap: no simulation runs while a store is timed.
 * Each phase has an untraced form (the end-to-end numbers) and a
 * traced form that records spans around the same public calls.
 */

#ifndef SMTBENCH_PHASES_HH
#define SMTBENCH_PHASES_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis.hh"
#include "net/http_server.hh"
#include "sim/mix_runner.hh"
#include "spans.hh"
#include "sweep/json.hh"
#include "sweep/remote_store.hh"
#include "sweep/runner.hh"
#include "sweep/spec.hh"
#include "sweep/store_service.hh"

namespace smtbench
{

/** Everything a phase needs to know about the run. */
struct Settings
{
    unsigned poolWorkers = 3; ///< sweep pool threads (the caller helps).
    unsigned clients = 3;     ///< churn clients = server dispatch width.
    std::uint64_t seed = 1;
    /** SmtConfig::seed of each cold grid, taken in turn sweep by sweep;
     *  the traced grid uses the first. */
    std::vector<std::uint64_t> configSeeds{1};
    smt::MeasureOptions coldBudget;
    smt::MeasureOptions fillBudget;
    std::string workDir;
};

/** Operations attempted and failed, summed over phases. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(std::uint64_t n_attempted, std::uint64_t n_failed)
    {
        attempted += n_attempted;
        failed += n_failed;
    }
};

/**
 * Confine the store's threads for a scope, then restore the mask the
 * process started with. Every store request hops client -> server loop
 * -> dispatch thread -> loop -> client, and on a shared virtual host
 * each hop to an idle vCPU waits for the hypervisor, which costs more,
 * and varies far more, than the work itself. So a store phase runs on
 * at most two CPUs: with no client threads named, every thread of the
 * process on one CPU (the one-connection replay); with clients named,
 * the clients on one CPU and every other thread (the server loop and
 * its dispatch threads) on the next, so the cross-CPU hop, queueing and
 * contention of a loaded server stay in what churn measures. Which
 * physical core backs a vCPU, and who shares it, changes from minute to
 * minute, so the phases keep rotating over the CPUs. Threads started
 * inside the scope inherit the confinement.
 */
class CpuPin
{
  public:
    /** Confine to the `index`-th CPU (modulo the count) of the mask the
     *  process started with. */
    explicit CpuPin(unsigned index = 0) { moveTo(index); }
    ~CpuPin();
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

    /** Name the client threads (kernel thread ids); takes effect at
     *  the next moveTo(). */
    void setClients(std::vector<int> tids) { clients_ = std::move(tids); }

    /** Move the threads to the `index`-th CPU (clients) and the next
     *  one (everything else). */
    void moveTo(unsigned index);

  private:
    std::vector<int> clients_;
};

/** This thread's kernel thread id, for CpuPin::setClients(). */
int currentThreadId();

/** The `k`-th SmtConfig::seed for a workload seed: the seed salts the
 *  config. */
std::uint64_t configSeedFor(std::uint64_t seed, unsigned k = 0);

/** The paper-cold grid: superscalar 1T, RR.1.8 at 1/2/4/6/8T, RR.2.8
 *  at 8T, ICOUNT.2.8 at 1/2/4/6/8T. */
smt::sweep::ExperimentSpec headlineSpec(std::uint64_t config_seed);

/** The IPCs the paper-error yardstick reads off a headline outcome. */
HeadlineIpc headlineIpc(const smt::sweep::SweepOutcome &outcome);

/**
 * Points of a cold outcome that fail their output check: every point
 * measured (not cached), cycles == runs x budget, and per thread the
 * fetch ledger partitions the cycles.
 */
std::uint64_t coldFailures(const smt::sweep::SweepOutcome &outcome,
                           const smt::MeasureOptions &budget);

/** An in-process store server on loopback. */
class StoreHost
{
  public:
    /** What answers a request: StoreService::handle, unless a test
     *  puts something in front of it. */
    using Handler = std::function<smt::net::HttpResponse(
        smt::sweep::StoreService &, const smt::net::HttpRequest &)>;

    StoreHost(const std::string &dir, unsigned dispatch_threads,
              Handler handler = {});
    ~StoreHost();

    const std::string &url() const { return url_; }
    smt::sweep::StoreService &service() { return *service_; }

    /** Record one span per handled request (traced runs only). */
    void trace(SpanRecorder *rec) { rec_.store(rec); }

    /** The server's /v1/stats document, read over one long-lived probe
     *  connection (so reading it opens no connection); the snapshot
     *  excludes its own request. Empty when unreadable. */
    smt::sweep::Json stats();

    /** One counter of a stats() snapshot (-1 when absent). */
    static std::int64_t counterOf(const smt::sweep::Json &stats,
                                  const std::string &name);

    /** The server's own total of its handle time, in whole µs per
     *  request, for one route of a stats() snapshot (-1 when absent). */
    static std::int64_t latencySumUsOf(const smt::sweep::Json &stats,
                                       const std::string &route);

    /** One request the server answered for a trace id. */
    struct Handled
    {
        int status = 0;
        std::int64_t span = -1; ///< its handler span; -1 untraced.
    };

    /** Requests carrying `trace_id` answered since the last take, in
     *  order. Recorded in untraced runs too, so every call's status is
     *  checked against the one it must return. */
    std::vector<Handled> takeHandled(const std::string &trace_id);

  private:
    std::unique_ptr<smt::sweep::StoreService> service_;
    smt::net::HttpServer server_;
    std::string url_;
    std::unique_ptr<smt::sweep::RemoteResultStore> probe_;
    std::atomic<SpanRecorder *> rec_{nullptr};
    std::mutex mu_;
    std::map<std::string, std::vector<Handled>> pending_;
};

/** A real cache entry: what a sweep stores for one point. */
struct EntrySource
{
    smt::SmtConfig config;
    smt::MeasureOptions options;
    smt::SimStats stats;
    smt::sweep::Json statsJson; ///< toJson(stats), the equality key.
};

/** The warm store paper-replay reads and store-churn writes beside. */
struct WarmStore
{
    std::unique_ptr<StoreHost> host;
    std::vector<smt::sweep::ExperimentSpec> grids;
    std::map<std::string, smt::sweep::Json> expected; ///< digest -> stats.
    std::vector<std::string> digests; ///< unique, in first-seen order.
    std::vector<EntrySource> entries; ///< one per unique digest.
    std::size_t lookupsPerPass = 0;   ///< points over every grid.
};

/** Set-up: start the server on `dir`, fill it with every paper grid at
 *  the fill budget, and run one untimed replay pass. */
WarmStore setUpWarmStore(const Settings &s, const std::string &dir,
                         Tally &tally);

// ---- cold ------------------------------------------------------------------

struct ColdResult
{
    double seconds = 0.0;
    smt::sweep::SweepOutcome outcome;
};

/** One cold regeneration of the headline grid, its machines seeded
 *  with `config_seed`, into an empty store. */
ColdResult coldSweep(const Settings &s, const std::string &dir,
                     std::uint64_t config_seed, Tally &tally);

// ---- replay ----------------------------------------------------------------

/** The X-Smt-Trace id of every replay lookup in a traced run: runSweep
 *  stamps it from SMTSWEEP_TRACE_ID, which the traced run sets before
 *  any thread starts. */
inline constexpr const char *kReplayTraceId = "smtbench-replay";

/**
 * One replay pass: runSweep over every paper grid; seconds of wall.
 * Every lookup must hit and return the stats set-up stored. With a
 * recorder the same pass is traced as it runs: a span per grid (the
 * runSweep call) and per cached point (from one of runSweep's progress
 * reports to the next: digest and lookup), each the parent of the
 * server's handle span for it, which must answer 200.
 */
double replayPass(const Settings &s, const WarmStore &warm, Tally &tally,
                  SpanRecorder *rec = nullptr);

// ---- churn -----------------------------------------------------------------

/** The per-digest call sequence, derived from the committed capture. */
enum class ChurnOp
{
    LookupMiss,
    Mark,
    Put,
    State,
    LookupHit,
};
const char *churnOpName(ChurnOp op);

/** The HTTP status the server must answer a call with, as captured. */
int churnExpectedStatus(ChurnOp op);

/** Parse the capture's per-digest sequence (route/status tokens such
 *  as "GET entries 404"); empty when a token is not a known call. */
std::vector<ChurnOp> churnSequenceFrom(const smt::sweep::Json &capture);

struct ChurnResult
{
    double seconds = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t failed = 0;
    std::vector<double> latencyUs;              ///< every call.
    std::vector<double> doneSeconds; ///< each call's end, from the start.
    std::map<ChurnOp, std::vector<double>> byOp; ///< per call type.
    std::map<ChurnOp, std::uint64_t> failedByOp;
    std::vector<double> waitUs;  ///< traced: call minus server handle.
    std::int64_t requestsDelta = -1; ///< server net.requests delta.
    std::int64_t expectedDelta = 0;  ///< client requests + the probe.
    std::int64_t reconnects = 0;
};

/**
 * Closed-loop churn for `seconds` and at least `min_calls` calls
 * (clients = s.clients). A call fails unless the server answered it
 * with exactly one request of the captured status and the client saw
 * the captured outcome. With a recorder, every call gets a span whose
 * child is the server's. The clients and the server run on a CpuPin
 * pair starting at `first_cpu`, moving on every kRotateSeconds.
 */
ChurnResult runChurn(const Settings &s, WarmStore &warm,
                     const std::vector<ChurnOp> &sequence, double seconds,
                     std::uint64_t min_calls, SpanRecorder *rec,
                     unsigned first_cpu, std::uint64_t &digest_counter,
                     Tally &tally);

/** How long churn stays on one CPU pair before moving to the next. */
inline constexpr double kRotateSeconds = 0.05;

// ---- traced forms ----------------------------------------------------------

/** Per-layer numbers of a traced cold grid. */
struct ColdTrace
{
    double seconds = 0.0;
    smt::sweep::SweepOutcome outcome; ///< stats rebuilt run by run.
    std::map<std::string, double> metrics;
    std::map<std::string, std::size_t> samples; ///< behind each metric.
    /** Stage totals plus the timer's own cost vs the sim.run spans. */
    double selfGapPct = 0.0;
};

/** The headline grid again, repeating runSweep's miss path and
 *  measureRun's steps with tickTimed stage totals. */
ColdTrace tracedColdSweep(const Settings &s, const std::string &dir,
                          SpanRecorder &rec, Tally &tally);

struct ReplayTrace
{
    double passSeconds = 0.0;  ///< median traced pass.
    double plainSeconds = 0.0; ///< median untraced pass beside them.
    std::map<std::string, double> metrics;
    std::map<std::string, std::size_t> samples; ///< behind each metric.
    double selfGapPct = 0.0;   ///< self times vs each pass.
    double serverGapPct = 0.0; ///< handle spans vs the server's clock.
};

/**
 * Untraced and traced replay passes in turn, for at least `min_seconds`
 * and until the traced ones hold `min_lookups` points past each grid's
 * first; after each traced pass, one round of a cached GET's anatomy,
 * timed part by part on every warm entry.
 */
ReplayTrace tracedReplay(const Settings &s, WarmStore &warm,
                         SpanRecorder &rec, std::size_t min_lookups,
                         double min_seconds, Tally &tally);

/** Passes over every warm entry the write-path anatomy takes. */
inline constexpr std::size_t kAnatomyReps = 3;

/** Write-path anatomy of the churn PUT (client build, server verify,
 *  entry write), medians in µs. */
std::map<std::string, double> writePathAnatomy(const WarmStore &warm,
                                               const std::string &dir);

/** Largest |Σ self − root| / root over the subtrees of `roots`, in %. */
double selfTimeGapPct(const SpanRecorder &rec,
                      const std::vector<std::int64_t> &roots);

} // namespace smtbench

#endif // SMTBENCH_PHASES_HH
