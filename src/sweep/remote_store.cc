#include "sweep/remote_store.hh"

#include <unistd.h>

#include "common/logging.hh"
#include "common/lz.hh"
#include "obs/trace.hh"
#include "sweep/digest.hh"
#include "sweep/result_cache.hh"
#include "sweep/serialize.hh"
#include "sweep/store_service.hh"

namespace smt::sweep
{

namespace
{

/** Strip the optional quotes of an ETag header value. */
std::string
unquoteEtag(const std::string &etag)
{
    if (etag.size() >= 2 && etag.front() == '"' && etag.back() == '"')
        return etag.substr(1, etag.size() - 2);
    return etag;
}

} // namespace

bool
isRemoteStoreLocator(const std::string &locator)
{
    return net::isHttpUrl(locator);
}

RemoteResultStore::RemoteResultStore(const net::Url &url,
                                     std::string token)
    : url_(url), token_(std::move(token)), client_(url.host, url.port)
{
}

std::string
RemoteResultStore::resourcePath(const std::string &resource) const
{
    const std::string base = url_.path == "/" ? "" : url_.path;
    return base + resource;
}

std::optional<net::HttpResponse>
RemoteResultStore::exchange(const std::string &method,
                            const std::string &resource,
                            const std::string &body,
                            const std::string &content_digest,
                            const std::string &content_encoding,
                            bool accept_lz) const
{
    net::HttpRequest req;
    req.method = method;
    req.target = resourcePath(resource);
    req.body = body;
    if (!body.empty())
        req.headers.set("Content-Type", "application/json");
    if (!content_digest.empty())
        req.headers.set("X-Content-Digest", content_digest);
    if (!content_encoding.empty())
        req.headers.set("Content-Encoding", content_encoding);
    if (accept_lz)
        req.headers.set("Accept-Encoding", kLzEncodingName);
    if (!token_.empty())
        req.headers.set("Authorization", "Bearer " + token_);
    if (!traceId_.empty())
        req.headers.set(obs::kTraceHeader, traceId_);

    std::lock_guard<std::mutex> lock(mu_);
    return client_.request(req);
}

void
RemoteResultStore::setTraceContext(const std::string &trace_id)
{
    traceId_ = trace_id;
}

bool
RemoteResultStore::serverSupportsLz() const
{
    int known = lzSupport_.load(std::memory_order_relaxed);
    if (known >= 0)
        return known == 1;
    const std::optional<net::HttpResponse> resp =
        exchange("GET", "/v1/ping");
    if (!resp.has_value() || !resp->ok())
        return false; // unreachable: stay unknown, probe again later.
    // A list of anything but strings, or no list at all, advertises
    // nothing: identity transfers work with every peer.
    bool lz = false;
    Json doc;
    if (Json::parse(resp->body, doc)
        && doc.type() == Json::Type::Object && doc.has("encodings")
        && doc.at("encodings").type() == Json::Type::Array) {
        const Json &encodings = doc.at("encodings");
        for (std::size_t i = 0; i < encodings.size(); ++i) {
            if (encodings[i].type() == Json::Type::String
                && encodings[i].asString() == kLzEncodingName)
                lz = true;
        }
    }
    lzSupport_.store(lz ? 1 : 0, std::memory_order_relaxed);
    return lz;
}

std::optional<SimStats>
RemoteResultStore::lookup(const std::string &digest) const
{
    const std::optional<net::HttpResponse> resp =
        exchange("GET", "/v1/entries/" + digest, "", "", "",
                 /*accept_lz=*/true);
    if (!resp.has_value() || !resp->ok())
        return std::nullopt;

    // Decode first (a compressed body that does not decode is a miss,
    // like any torn transfer), then verify the ETag against the
    // *uncompressed* bytes — transit corruption stays a miss, exactly
    // like a corrupt local entry file.
    std::string body;
    const std::string encoding =
        resp->headers.get("Content-Encoding");
    if (encoding == kLzEncodingName) {
        std::optional<std::string> decoded =
            lzDecompress(resp->body, net::kMaxBodyBytes);
        if (!decoded.has_value())
            return std::nullopt;
        body = std::move(*decoded);
    } else if (encoding.empty() || encoding == "identity") {
        body = resp->body;
    } else {
        return std::nullopt; // an encoding we never asked for.
    }
    const std::string etag = unquoteEtag(resp->headers.get("ETag"));
    if (!etag.empty() && etag != contentDigest(body))
        return std::nullopt;

    Json entry;
    if (!Json::parse(body, entry)
        || entry.type() != Json::Type::Object || !entry.has("digest")
        || !entry.has("stats")
        || entry.at("digest").type() != Json::Type::String
        || entry.at("digest").asString() != digest)
        return std::nullopt;
    SimStats stats;
    if (!simStatsFromJson(entry.at("stats"), stats))
        return std::nullopt;
    return stats;
}

void
RemoteResultStore::store(const std::string &digest, const SmtConfig &cfg,
                         const MeasureOptions &opts,
                         const SimStats &stats, double measure_seconds)
{
    // The exact bytes LocalDirStore would put on disk, so a store
    // directory serves identically whichever side wrote each entry.
    // X-Content-Digest always covers these uncompressed bytes; the
    // codec only dresses them for transit.
    const std::string text =
        makeEntryJson(digest, cfg, opts, stats, measure_seconds).dump(2)
        + "\n";
    std::optional<net::HttpResponse> resp;
    bool compressed = false;
    if (serverSupportsLz()) {
        std::string packed = lzCompress(text);
        if (packed.size() < text.size()) {
            compressed = true;
            resp = exchange("PUT", "/v1/entries/" + digest, packed,
                            contentDigest(text), kLzEncodingName);
        }
    }
    // Identity path: small entries, old servers, or (belt and braces)
    // a server that advertised the codec but rejected the encoding.
    if (!compressed
        || (resp.has_value()
            && (resp->status == 415 || resp->status == 400)))
        resp = exchange("PUT", "/v1/entries/" + digest, text,
                        contentDigest(text));
    if (!resp.has_value() || !resp->ok())
        smt_warn("remote store %s rejected entry %s (%s); the result "
                 "is lost from the cache",
                 description().c_str(), digest.c_str(),
                 resp.has_value() ? std::to_string(resp->status).c_str()
                                  : client_.lastError().c_str());
}

std::map<std::string, double>
RemoteResultStore::observedCosts() const
{
    std::map<std::string, double> costs;
    const std::optional<net::HttpResponse> resp =
        exchange("GET", "/v1/costs");
    if (!resp.has_value() || !resp->ok())
        return costs;
    Json doc;
    if (!Json::parse(resp->body, doc)
        || doc.type() != Json::Type::Object || !doc.has("costs")
        || doc.at("costs").type() != Json::Type::Object)
        return costs;
    for (const auto &[digest, seconds] : doc.at("costs").items()) {
        if (seconds.isNumber() && seconds.asDouble() > 0.0)
            costs.emplace(digest, seconds.asDouble());
    }
    return costs;
}

void
RemoteResultStore::markInProgress(const std::string &digest,
                                  double ttl_seconds)
{
    exchange("PUT", "/v1/markers/" + digest,
             makeSelfMarker(ttl_seconds).dump(2) + "\n");
}

void
RemoteResultStore::refreshMarkers(
    const std::vector<std::string> &digests, double ttl_seconds)
{
    if (digests.empty())
        return;
    if (bulkMarkers_.load(std::memory_order_relaxed)) {
        Json doc = Json::object();
        doc.set("marker", makeSelfMarker(ttl_seconds));
        Json list = Json::array();
        for (const std::string &digest : digests)
            list.push(Json(digest));
        doc.set("digests", std::move(list));
        const std::optional<net::HttpResponse> resp =
            exchange("POST", "/v1/markers", doc.dump() + "\n");
        if (resp.has_value() && resp->ok())
            return;
        // An old server has no bulk route (404/405): remember and
        // fall back. Transport failures stay on the bulk path — the
        // next beat retries it.
        if (!resp.has_value()
            || (resp->status != 404 && resp->status != 405))
            return;
        bulkMarkers_.store(false, std::memory_order_relaxed);
    }
    for (const std::string &digest : digests)
        markInProgress(digest, ttl_seconds);
}

void
RemoteResultStore::markOrphaned(const std::string &digest)
{
    exchange("POST", "/v1/markers/" + digest + "/orphan");
}

std::string
RemoteResultStore::readMarkerText(const std::string &digest) const
{
    const std::optional<net::HttpResponse> resp =
        exchange("GET", "/v1/markers/" + digest);
    if (!resp.has_value() || !resp->ok())
        return "";
    return resp->body;
}

bool
RemoteResultStore::tryAdopt(const std::string &digest,
                            const std::string &expected_marker)
{
    Json claim = Json::object();
    claim.set("expect", Json(expected_marker));
    claim.set("marker", makeSelfMarker());
    const std::optional<net::HttpResponse> resp =
        exchange("POST", "/v1/claims/" + digest, claim.dump() + "\n");
    return resp.has_value() && resp->ok();
}

WorkState
RemoteResultStore::state(const std::string &digest) const
{
    const std::optional<net::HttpResponse> resp =
        exchange("GET", "/v1/state/" + digest);
    if (resp.has_value() && resp->ok()) {
        Json doc;
        if (Json::parse(resp->body, doc)
            && doc.type() == Json::Type::Object && doc.has("state")
            && doc.at("state").type() == Json::Type::String) {
            const std::string &text = doc.at("state").asString();
            if (text == "done")
                return WorkState::Done;
            if (text == "in-progress")
                return WorkState::InProgress;
            if (text == "orphaned")
                return WorkState::Orphaned;
        }
    }
    // Unreachable server: nothing is known to be done or claimed.
    return WorkState::Pending;
}

std::vector<std::string>
RemoteResultStore::storedDigests() const
{
    std::vector<std::string> digests;
    const std::optional<net::HttpResponse> resp =
        exchange("GET", "/v1/entries");
    if (!resp.has_value() || !resp->ok())
        return digests;
    Json doc;
    if (!Json::parse(resp->body, doc)
        || doc.type() != Json::Type::Object || !doc.has("digests")
        || doc.at("digests").type() != Json::Type::Array)
        return digests;
    const Json &list = doc.at("digests");
    for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].type() == Json::Type::String)
            digests.push_back(list[i].asString());
    }
    return digests;
}

void
RemoteResultStore::writeManifest(const Json &manifest)
{
    const std::optional<net::HttpResponse> resp =
        exchange("PUT", "/v1/manifest", manifest.dump(2) + "\n");
    if (!resp.has_value() || !resp->ok())
        smt_warn("cannot record the sweep manifest on %s",
                 description().c_str());
}

std::optional<Json>
RemoteResultStore::readManifest() const
{
    const std::optional<net::HttpResponse> resp =
        exchange("GET", "/v1/manifest");
    if (!resp.has_value() || !resp->ok())
        return std::nullopt;
    Json manifest;
    if (!Json::parse(resp->body, manifest))
        return std::nullopt;
    return manifest;
}

std::string
RemoteResultStore::description() const
{
    std::string desc =
        "http://" + url_.host + ":" + std::to_string(url_.port);
    if (url_.path != "/")
        desc += url_.path;
    return desc;
}

std::optional<Json>
RemoteResultStore::pingDocument(std::string *error) const
{
    const std::optional<net::HttpResponse> resp =
        exchange("GET", "/v1/ping");
    if (!resp.has_value() || !resp->ok()) {
        if (error != nullptr)
            *error = resp.has_value()
                         ? "unexpected status "
                               + std::to_string(resp->status)
                         : client_.lastError();
        return std::nullopt;
    }
    Json doc;
    if (!Json::parse(resp->body, doc)
        || doc.type() != Json::Type::Object) {
        if (error != nullptr)
            *error = "ping response is not a JSON object";
        return std::nullopt;
    }
    return doc;
}

std::optional<Json>
RemoteResultStore::stats(std::string *error) const
{
    const std::optional<net::HttpResponse> resp =
        exchange("GET", "/v1/stats");
    if (!resp.has_value() || !resp->ok()) {
        if (error != nullptr)
            *error = resp.has_value()
                         ? "unexpected status "
                               + std::to_string(resp->status)
                         : client_.lastError();
        return std::nullopt;
    }
    Json doc;
    if (!Json::parse(resp->body, doc)
        || doc.type() != Json::Type::Object) {
        if (error != nullptr)
            *error = "stats response is not a JSON object";
        return std::nullopt;
    }
    return doc;
}

std::unique_ptr<ResultStore>
openRemoteStore(const std::string &locator, const std::string &token)
{
    net::Url url;
    if (!net::parseUrl(locator, url))
        smt_fatal("malformed store URL \"%s\" (expected "
                  "http://host:port)",
                  locator.c_str());
    // smtstore mounts the protocol at /v1, not under a base prefix; a
    // path in the locator would silently 404 every request, so refuse
    // it up front.
    if (url.path != "/")
        smt_fatal("store URL \"%s\" has a path component (\"%s\"); "
                  "smtstore serves at the root — use http://%s:%u",
                  locator.c_str(), url.path.c_str(), url.host.c_str(),
                  static_cast<unsigned>(url.port));
    return std::make_unique<RemoteResultStore>(url, token);
}

} // namespace smt::sweep
