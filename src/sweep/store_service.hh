/**
 * @file
 * The result-store wire protocol, server side.
 *
 * StoreService maps HTTP requests onto a LocalDirStore so remote
 * workers can share one store over the network (`tools/smtstore` is
 * the thin binary around it; tests mount the service on an in-process
 * HttpServer). The full normative spec is docs/PROTOCOL.md; the
 * resources, all under <base>/v1:
 *
 *   GET    /v1/ping                     liveness + schema + the
 *                                       server's encodings and auth
 *                                       mode
 *   GET    /v1/entries                  {"digests": [...]} (chunked)
 *   HEAD   /v1/entries/<digest>         entry exists? (X-Entry-Size
 *                                       advertises its byte count)
 *   GET    /v1/entries/<digest>         raw entry bytes, ETag = its
 *                                       content digest
 *   PUT    /v1/entries/<digest>         store an entry; the mandatory
 *                                       X-Content-Digest header must
 *                                       match the body (rejects torn
 *                                       or corrupted uploads), the
 *                                       body must be a well-formed
 *                                       entry for <digest>; commits
 *                                       atomically (temp + rename)
 *                                       and clears the marker
 *   GET    /v1/state/<digest>           {"state": "done"|...}
 *   GET    /v1/costs                    {"costs": {digest: seconds}}
 *                                       every observed cost, in bulk
 *   GET    /v1/markers/<digest>         raw marker bytes
 *   PUT    /v1/markers/<digest>         write the client's marker
 *   POST   /v1/markers                  bulk lease refresh: {"marker",
 *                                       "digests": [...]} writes the
 *                                       marker on every digest not
 *                                       yet done (one round trip per
 *                                       heartbeat, not per digest)
 *   POST   /v1/markers/<digest>/orphan  declare the work abandoned
 *   POST   /v1/claims/<digest>          claim-marker CAS: body
 *                                       {"expect": "<raw marker>",
 *                                        "marker": {...}}; 200 when
 *                                       the claim wins, 409 when the
 *                                       marker moved or the work is
 *                                       already done
 *   GET    /v1/manifest                 the sweep manifest
 *   PUT    /v1/manifest                 record the manifest
 *   GET    /v1/stats                    live metrics snapshot
 *
 * Nothing else is served: an unknown resource is 404, a known one
 * with the wrong method 405.
 *
 * Marker/claim mutations are serialized under one mutex, which is what
 * makes the claim CAS atomic: of N workers adopting the same orphan,
 * exactly one observes the expected marker bytes and wins. Orphan
 * classification runs on the server: an expired marker deadline (plus
 * clock-skew slack) orphans work from any host, and a pid probe
 * catches deaths on the server's own host early.
 *
 * Hardening for untrusted networks:
 *
 *  - auth: constructed with a bearer token, every /v1 request must
 *    carry `Authorization: Bearer <token>` (compared in constant
 *    time) or it is answered 401 before any dispatch;
 *  - compression: entry GETs honour `Accept-Encoding: x-smt-lz`,
 *    entry PUTs accept `Content-Encoding: x-smt-lz` (the body is
 *    decompressed *before* the X-Content-Digest check, so digests
 *    always cover the true entry bytes). /v1/ping advertises the
 *    supported encodings for client negotiation.
 *
 * Entry reads are memoized: a GET remembers the ETag and the x-smt-lz
 * body it computed, keyed by digest and valid while the entry file is
 * the same file (device, inode, size and mtime, from fstat on the
 * descriptor the GET opened). A GET or HEAD of an unchanged entry is
 * then an open, an fstat and a lookup. Writers replace entries by
 * temp + rename, so a rewrite from any process is a new inode and is
 * read afresh; a deleted entry is a 404.
 */

#ifndef SMT_SWEEP_STORE_SERVICE_HH
#define SMT_SWEEP_STORE_SERVICE_HH

#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "net/http.hh"
#include "obs/jsonl.hh"
#include "obs/metrics.hh"
#include "sweep/result_store.hh"

namespace smt::sweep
{

/** The entry memo's budget, counting each record's strings at their
 *  lengths plus its map node. It holds the paper's eight grids (95
 *  entries, about 240 KB) about twice over. */
inline constexpr std::size_t kEntryMemoBudgetBytes = 512 * 1024;

class StoreService
{
  public:
    /** Serve the store rooted at `dir` (created if needed). A
     *  non-empty `token` demands `Authorization: Bearer <token>` on
     *  every route. */
    explicit StoreService(const std::string &dir, bool verbose = false,
                          std::string token = std::string());

    StoreService(const StoreService &) = delete;
    StoreService &operator=(const StoreService &) = delete;

    /** Handle one request (thread-safe; plug into HttpServer). */
    net::HttpResponse handle(const net::HttpRequest &req);

    /**
     * Start appending one JSONL record per request to `path`
     * (`smtstore --access-log`): ts, mono, route, method, target,
     * status, bytes_in, bytes_out, latency_us, and the client's
     * X-Smt-Trace id — the server half of a sweep profile, joined to
     * client spans by trace id (tools/smttrace). False when the file
     * cannot be opened (`error` says why).
     */
    bool setAccessLog(const std::string &path,
                      std::string *error = nullptr);

    const std::string &dir() const { return store_.dir(); }

    bool requiresAuth() const { return !token_.empty(); }

    /**
     * The service's instrument registry. `GET /v1/stats` snapshots it;
     * the hosting server (tools/smtstore) attaches it to HttpServer so
     * connection-level counters land in the same snapshot.
     */
    obs::Registry &metrics() { return metrics_; }

  private:
    /** What a GET of one unchanged entry file sends. */
    struct MemoRecord
    {
        EntryFile::Identity file;
        std::string etag; ///< the header value, quotes included.
        std::string lz;   ///< x-smt-lz body; empty when no smaller.

        /** Memory held under `digest`, node included. */
        std::size_t cost(const std::string &digest) const;
    };

    net::HttpResponse dispatch(const net::HttpRequest &req);
    bool authorized(const net::HttpRequest &req) const;

    /** GET or HEAD /v1/entries/<digest>. */
    net::HttpResponse serveEntry(const net::HttpRequest &req,
                                 const std::string &digest);
    std::optional<MemoRecord> recall(const std::string &digest,
                                     const EntryFile::Identity &file);
    void remember(const std::string &digest, MemoRecord record);

    void logAccess(const net::HttpRequest &req,
                   const net::HttpResponse &resp, std::uint64_t us,
                   const std::string &route);

    LocalDirStore store_;
    bool verbose_;
    std::string token_;
    std::mutex mu_;

    std::unique_ptr<obs::JsonlWriter> accessLog_;
    std::mutex accessMu_; ///< guards accessLog_ (set while serving).

    std::mutex memoMu_; ///< guards memo_ and memoBytes_.
    std::unordered_map<std::string, MemoRecord> memo_;
    std::size_t memoBytes_ = 0;

    obs::Registry metrics_;
    std::chrono::steady_clock::time_point started_ =
        std::chrono::steady_clock::now();
};

/** The ETag / X-Content-Digest value for a message body. */
std::string contentDigest(const std::string &body);

/** Constant-time string equality: the comparison touches every byte
 *  of both inputs whatever matches, so a token guess learns nothing
 *  from response timing. */
bool tokenEquals(const std::string &a, const std::string &b);

} // namespace smt::sweep

#endif // SMT_SWEEP_STORE_SERVICE_HH
