/**
 * @file
 * The result-store wire protocol, client side.
 *
 * RemoteResultStore implements the ResultStore interface over HTTP
 * against a running `smtstore` server, so shards on different machines
 * share one store by URL instead of one filesystem. Semantics mirror
 * LocalDirStore exactly: corrupt, torn, or unreachable entries are
 * misses (never errors), stores are atomic on the server, markers are
 * advisory. Entry payloads are digest-verified in both directions —
 * GETs check the server's ETag against the received bytes, PUTs
 * declare X-Content-Digest so the server rejects torn uploads — which
 * makes a network flake indistinguishable from a cache miss, the safe
 * failure mode. Trace spans never travel to the store; only a sweep's
 * trace id does, as the X-Smt-Trace header on every request.
 *
 * Two protocol features negotiate per server (docs/PROTOCOL.md):
 *
 *  - auth: constructed with a bearer token, every request carries
 *    `Authorization: Bearer <token>`; a server that rejects it (401)
 *    reads as unreachable — misses, never errors;
 *  - compression: entry GETs always advertise `Accept-Encoding:
 *    x-smt-lz` (old servers ignore it); entry PUTs compress only
 *    after a /v1/ping shows the server lists "x-smt-lz" in its
 *    "encodings", falling back to identity for old peers. Digests
 *    (ETag, X-Content-Digest) always cover the *uncompressed* bytes,
 *    so the bit-identical-merge invariant never depends on the codec.
 */

#ifndef SMT_SWEEP_REMOTE_STORE_HH
#define SMT_SWEEP_REMOTE_STORE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "net/http_client.hh"
#include "sweep/result_store.hh"

namespace smt::sweep
{

/** True when `locator` names a remote store ("http://..."). */
bool isRemoteStoreLocator(const std::string &locator);

class RemoteResultStore final : public ResultStore
{
  public:
    /** Connects lazily; a dead server degrades to all-misses. A
     *  non-empty `token` is presented as the Authorization bearer. */
    explicit RemoteResultStore(const net::Url &url,
                               std::string token = std::string());

    std::optional<SimStats>
    lookup(const std::string &digest) const override;
    void store(const std::string &digest, const SmtConfig &cfg,
               const MeasureOptions &opts, const SimStats &stats,
               double measure_seconds = 0.0) override;
    std::map<std::string, double> observedCosts() const override;
    void markInProgress(const std::string &digest,
                        double ttl_seconds) override;
    void refreshMarkers(const std::vector<std::string> &digests,
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

    /** The server's /v1/ping document, the liveness probe and
     *  capability list (schema, auth mode, encodings, stats
     *  availability); nullopt with `error` set when unreachable. */
    std::optional<Json> pingDocument(std::string *error = nullptr) const;

    /** The server's live metrics snapshot (GET /v1/stats); nullopt
     *  when unreachable or the peer predates the route. */
    std::optional<Json> stats(std::string *error = nullptr) const;

    /** Stamp every subsequent request with this X-Smt-Trace id. */
    void setTraceContext(const std::string &trace_id) override;

  private:
    std::optional<net::HttpResponse>
    exchange(const std::string &method, const std::string &resource,
             const std::string &body = "",
             const std::string &content_digest = "",
             const std::string &content_encoding = "",
             bool accept_lz = false) const;
    std::string resourcePath(const std::string &resource) const;

    /** Lazily probe /v1/ping for "x-smt-lz" in the server's encoding
     *  list; the answer is cached for the store's lifetime. */
    bool serverSupportsLz() const;

    net::Url url_;
    std::string token_;
    std::string traceId_; ///< set before the sweep's workers spin up.
    mutable std::mutex mu_; ///< one connection, serialized exchanges.
    mutable net::HttpClient client_;

    /** -1 unknown (server not yet reached), 0 identity-only, 1 lz. */
    mutable std::atomic<int> lzSupport_{-1};

    /** False once the server 404/405'd the bulk marker-refresh route
     *  (an older peer): fall back to per-digest marker PUTs. */
    mutable std::atomic<bool> bulkMarkers_{true};
};

/** Open a remote store from an "http://host:port" locator (fatal on a
 *  malformed URL or one with a path component — smtstore serves at
 *  the root; user errors, not misses). */
std::unique_ptr<ResultStore>
openRemoteStore(const std::string &locator,
                const std::string &token = "");

} // namespace smt::sweep

#endif // SMT_SWEEP_REMOTE_STORE_HH
