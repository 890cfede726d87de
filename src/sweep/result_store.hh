/**
 * @file
 * The shared result store: the ResultCache hardened for concurrent
 * multi-process writers, behind the interface the remote backend
 * (sweep/remote_store.hh) implements too. The interface holds what
 * the sweep tools call and nothing more.
 *
 * On top of the cache's atomic temp+rename entry writes, the store
 * adds two pieces of coordinator-visible state:
 *
 *  - crash-safe in-progress markers: a worker about to measure digest
 *    D atomically writes D.inprogress ({pid, host, deadline});
 *    finishing the measurement stores the entry and removes the
 *    marker. The deadline is a TTL lease the running worker keeps
 *    refreshing (MarkerHeartbeat), so *any* observer on *any* host
 *    detects a dead worker from the marker alone: an expired deadline
 *    (past a clock-skew slack) is an *orphan*. A pid probe on the
 *    marker's own host catches same-host deaths faster, and a
 *    coordinator that watched the worker die can declare the orphan
 *    immediately — but neither is required anymore. Markers are
 *    advisory observability, not locks.
 *
 *  - a store-level manifest: the coordinator records the full expected
 *    digest set (with shard assignments) and the cost snapshot it
 *    planned with before launching workers. Workers re-plan from that
 *    snapshot (dist/shard.hh); any later process can audit
 *    done/in-progress/orphaned/pending work from the digest list
 *    without re-expanding the experiment.
 */

#ifndef SMT_SWEEP_RESULT_STORE_HH
#define SMT_SWEEP_RESULT_STORE_HH

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "config/config.hh"
#include "sim/mix_runner.hh"
#include "stats/stats.hh"
#include "sweep/json.hh"
#include "sweep/result_cache.hh"

namespace smt::sweep
{

/** What the store knows about one unit of work (one digest). */
enum class WorkState
{
    Done,       ///< a well-formed entry is stored.
    InProgress, ///< marked by a (presumed live) worker.
    Orphaned,   ///< marked, but the marking process is dead.
    Pending,    ///< no entry, no marker.
};

const char *toString(WorkState state);

/** Default marker lease: a live worker refreshes well inside this
 *  (every ttl/3); observers orphan the work once the lease has been
 *  expired for longer than the clock-skew slack. */
inline constexpr double kMarkerTtlSeconds = 60.0;

/** The shortest lease `--marker-ttl` accepts: a millisecond. The
 *  heartbeat refreshes every ttl/3, so a shorter lease would spin. */
inline constexpr double kMinMarkerTtlSeconds = 1e-3;

/** Slack added to a marker deadline before expiry counts as death —
 *  absorbs client/server clock skew and a late heartbeat. Default
 *  10 s; the SMTSWEEP_MARKER_SLACK environment variable (seconds, in
 *  0..kMaxSeconds) overrides it, which tests use to exercise expiry
 *  quickly. An unusable value warns once and keeps the default. */
double markerSkewSlackSeconds();

/** This process's advisory claim document ({pid, host, deadline});
 *  the deadline is now + ttl_seconds on the writer's clock. Every
 *  writer must build markers here so the fields cannot drift. */
Json makeSelfMarker(double ttl_seconds = kMarkerTtlSeconds);

/** True when `marker_text` parses as a marker owned by the same
 *  {pid, host} as `marker` — the claim CAS's idempotence test (a
 *  refreshed deadline must not make a process's own claim look
 *  foreign). */
bool sameMarkerOwner(const std::string &marker_text, const Json &marker);

/** Classify a raw marker document the way every store implementation
 *  must: pid <= 0 or malformed => Orphaned (declared / torn write);
 *  expired deadline (+ skew slack) => Orphaned on any host; dead pid
 *  on `local_host` => Orphaned; else InProgress. */
WorkState classifyMarkerText(const std::string &marker_text,
                             const std::string &local_host);

/** A digest-addressed store of measurement results shared by every
 *  worker of a distributed sweep. */
class ResultStore
{
  public:
    virtual ~ResultStore() = default;

    /** The stats stored under `digest`, if present and well-formed. */
    virtual std::optional<SimStats>
    lookup(const std::string &digest) const = 0;

    /** Persist a measurement and clear any in-progress marker.
     *  `measure_seconds` > 0 records the observed wall cost beside the
     *  entry for the planner's dynamic cost feedback. */
    virtual void store(const std::string &digest, const SmtConfig &cfg,
                       const MeasureOptions &opts, const SimStats &stats,
                       double measure_seconds = 0.0) = 0;

    /** Every stored entry's observed cost, in one pass — what the
     *  coordinator's cost feedback reads (one round trip against a
     *  remote store). */
    virtual std::map<std::string, double> observedCosts() const = 0;

    /** Advisory claim: record that this process is measuring `digest`,
     *  with a lease of `ttl_seconds`. Re-marking refreshes the lease —
     *  the MarkerHeartbeat calls this on a cadence well inside the
     *  TTL. (The default argument binds through the base class, so
     *  every implementation honours it.) */
    virtual void markInProgress(const std::string &digest,
                                double ttl_seconds
                                = kMarkerTtlSeconds) = 0;

    /**
     * Refresh many leases at once — what the MarkerHeartbeat calls
     * every ttl/3. The default loops markInProgress(); the remote
     * store overrides it with one bulk round trip so a large shard's
     * heartbeat does not serialize O(grid) HTTP PUTs against the
     * measurement path.
     */
    virtual void refreshMarkers(const std::vector<std::string> &digests,
                                double ttl_seconds)
    {
        for (const std::string &digest : digests)
            markInProgress(digest, ttl_seconds);
    }

    /**
     * Declare abandoned work: write a marker that every observer
     * classifies as Orphaned (a coordinator that watched this digest's
     * worker die calls this so idle workers on *any* host can adopt
     * it). A no-op once the entry exists.
     */
    virtual void markOrphaned(const std::string &digest) = 0;

    /** The raw marker bytes for `digest` ("" when absent) — the CAS
     *  token tryAdopt() compares against. */
    virtual std::string readMarkerText(const std::string &digest)
        const = 0;

    /**
     * Claim-marker compare-and-swap: atomically replace `digest`'s
     * marker with this process's in-progress marker, but only while
     * the entry is still absent and the current marker bytes equal
     * `expected_marker` (as returned by readMarkerText — "" for no
     * marker). Exactly one of N racing adopters wins; retrying a
     * claim this process already holds also reads as success (a
     * remote claim whose response was torn is resent transparently).
     * False when the marker moved to someone else, the work finished,
     * or the claim could not be taken.
     */
    virtual bool tryAdopt(const std::string &digest,
                          const std::string &expected_marker) = 0;

    /** Classify one digest's work. */
    virtual WorkState state(const std::string &digest) const = 0;

    /** Digests of every stored result, sorted. */
    virtual std::vector<std::string> storedDigests() const = 0;

    /** Record / fetch the coordinator's expected-work manifest. */
    virtual void writeManifest(const Json &manifest) = 0;
    virtual std::optional<Json> readManifest() const = 0;

    /** Human-readable locator, e.g. "dir:.smtsweep-cache". */
    virtual std::string description() const = 0;

    /**
     * Adopt a trace id: a remote store stamps it on every request as
     * the X-Smt-Trace header so the server's access log lines up with
     * this process's trace spans. A no-op for local stores (their
     * operations never leave the process).
     */
    virtual void setTraceContext(const std::string &trace_id)
    {
        (void)trace_id;
    }
};

/**
 * The local-directory implementation: entries via ResultCache, markers
 * as <digest>.inprogress files, the manifest as sweep-manifest.json.
 */
class LocalDirStore final : public ResultStore
{
  public:
    explicit LocalDirStore(const std::string &dir);

    std::optional<SimStats>
    lookup(const std::string &digest) const override;
    void store(const std::string &digest, const SmtConfig &cfg,
               const MeasureOptions &opts, const SimStats &stats,
               double measure_seconds = 0.0) override;
    std::map<std::string, double> observedCosts() const override;
    void markInProgress(const std::string &digest,
                        double ttl_seconds) override;
    void markOrphaned(const std::string &digest) override;
    std::string readMarkerText(const std::string &digest) const override;
    bool tryAdopt(const std::string &digest,
                  const std::string &expected_marker) override;
    WorkState state(const std::string &digest) const override;
    std::vector<std::string> storedDigests() const override;
    void writeManifest(const Json &manifest) override;
    std::optional<Json> readManifest() const override;
    std::string description() const override;

    const std::string &dir() const { return cache_.dir(); }

    /** Raw entry bytes / raw atomic entry write (the wire protocol's
     *  view of the store; see sweep/store_service.hh). */
    const ResultCache &cache() const { return cache_; }

    /** Write an explicit marker document (the wire protocol records
     *  the *client's* {pid, host}, not this process's). */
    void writeMarker(const std::string &digest, const Json &marker);

    /** Drop this digest's marker (store() and the server's entry PUT
     *  do, once the entry is committed). */
    void clearInProgress(const std::string &digest);

  private:
    std::string markerPath(const std::string &digest) const;
    std::string manifestPath() const;

    ResultCache cache_;
};

/**
 * The marker-lease refresher a measuring worker runs: a background
 * thread that re-marks every digest added (and not yet removed) as
 * in-progress every ttl/3 seconds, so a live worker's markers never
 * expire however long its measurements run — and a dead worker's
 * markers expire on their own, visible to every peer. The thread
 * starts with the first add(), so a heartbeat that never has a marker
 * to refresh costs no thread. The store must outlive the heartbeat;
 * its operations must be thread-safe (both implementations are).
 */
class MarkerHeartbeat
{
  public:
    MarkerHeartbeat(ResultStore &store, double ttl_seconds);
    ~MarkerHeartbeat();

    MarkerHeartbeat(const MarkerHeartbeat &) = delete;
    MarkerHeartbeat &operator=(const MarkerHeartbeat &) = delete;

    /** Start refreshing `digest`'s marker (idempotent). */
    void add(const std::string &digest);

    /** Stop refreshing `digest` (its entry was stored, or the work
     *  was handed off). */
    void remove(const std::string &digest);

  private:
    void loop();

    ResultStore &store_;
    const double ttl_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::set<std::string> live_;
    bool stop_ = false;
    std::thread thread_; ///< started by the first add().
};

/**
 * Resolve a store bearer token from the usual three sources, in
 * precedence order: `token` verbatim when non-empty; the contents of
 * `token_file` (whitespace-trimmed; fatal when named but unreadable);
 * the SMTSTORE_TOKEN environment variable. "" means no auth.
 */
std::string resolveStoreToken(const std::string &token = "",
                              const std::string &token_file = "");

/** Open (creating if needed) the local store rooted at `dir`. */
std::unique_ptr<ResultStore> openLocalStore(const std::string &dir);

/**
 * Open the store a locator names: "http://host:port" connects a
 * RemoteResultStore to a running `smtstore` server (presenting
 * `token` as its Authorization bearer when non-empty); anything else
 * is a local directory path, where the token is ignored. Every sweep
 * tool accepts either form wherever it accepts a cache directory.
 */
std::unique_ptr<ResultStore> openStore(const std::string &locator,
                                       const std::string &token = "");

} // namespace smt::sweep

#endif // SMT_SWEEP_RESULT_STORE_HH
