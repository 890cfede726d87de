#include "sweep/store_service.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "common/lz.hh"
#include "obs/trace.hh"
#include "sweep/digest.hh"

namespace smt::sweep
{

namespace
{

net::HttpResponse
plain(int status, const std::string &body = "")
{
    net::HttpResponse resp;
    resp.status = status;
    resp.body = body;
    if (!body.empty())
        resp.headers.set("Content-Type", "text/plain");
    return resp;
}

net::HttpResponse
jsonResponse(int status, const Json &doc)
{
    net::HttpResponse resp;
    resp.status = status;
    resp.body = doc.dump(2) + "\n";
    resp.headers.set("Content-Type", "application/json");
    return resp;
}

/** Split "/v1/entries/abc..." into segments after "/v1". Empty on a
 *  foreign prefix. */
std::vector<std::string>
v1Segments(const std::string &target)
{
    std::vector<std::string> segments;
    if (target.rfind("/v1/", 0) != 0)
        return segments;
    std::size_t pos = 4;
    while (pos <= target.size()) {
        const std::size_t slash = target.find('/', pos);
        const std::size_t end =
            slash == std::string::npos ? target.size() : slash;
        if (end > pos)
            segments.push_back(target.substr(pos, end - pos));
        if (slash == std::string::npos)
            break;
        pos = slash + 1;
    }
    return segments;
}

/** The ETag header value for entry bytes: their quoted content
 *  digest. */
std::string
quotedEtag(const std::string &text)
{
    std::string tag = contentDigest(text);
    tag.insert(tag.begin(), '"');
    tag.push_back('"');
    return tag;
}

/** The metric label for a request: its /v1 resource kind. */
std::string
routeLabel(const std::string &target)
{
    const std::vector<std::string> path = v1Segments(target);
    return path.empty() ? "other" : path[0];
}

} // namespace

std::string
contentDigest(const std::string &body)
{
    return digestHex(body);
}

bool
tokenEquals(const std::string &a, const std::string &b)
{
    // Fold every byte of both strings into the verdict: no early
    // exit, so the comparison's timing is independent of where (or
    // whether) the inputs differ.
    unsigned char diff = a.size() == b.size() ? 0 : 1;
    const std::size_t n = std::max(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned char ca =
            i < a.size() ? static_cast<unsigned char>(a[i]) : 0;
        const unsigned char cb =
            i < b.size() ? static_cast<unsigned char>(b[i]) : 0;
        diff = static_cast<unsigned char>(diff | (ca ^ cb));
    }
    return diff == 0;
}

StoreService::StoreService(const std::string &dir, bool verbose,
                           std::string token)
    : store_(dir), verbose_(verbose), token_(std::move(token))
{
    // Exported from the start, so a snapshot can be diffed from zero.
    metrics_.counter("store.entries.memo_hits");
    metrics_.gauge("store.entries.memo_bytes");
}

std::size_t
StoreService::MemoRecord::cost(const std::string &digest) const
{
    return digest.size() + etag.size() + lz.size()
           + sizeof(std::pair<const std::string, MemoRecord>)
           + 2 * sizeof(void *); // the node's link and cached hash.
}

std::optional<StoreService::MemoRecord>
StoreService::recall(const std::string &digest,
                     const EntryFile::Identity &file)
{
    std::lock_guard<std::mutex> lock(memoMu_);
    const auto it = memo_.find(digest);
    if (it == memo_.end() || !(it->second.file == file))
        return std::nullopt;
    return it->second;
}

void
StoreService::remember(const std::string &digest, MemoRecord record)
{
    record.lz.shrink_to_fit(); // the budget counts lengths.
    const std::size_t cost = record.cost(digest);
    std::lock_guard<std::mutex> lock(memoMu_);
    if (const auto old = memo_.find(digest); old != memo_.end()) {
        memoBytes_ -= old->second.cost(digest);
        memo_.erase(old);
    }
    // No eviction order: replays fit and churn reads each digest once,
    // so a full memo simply starts over.
    if (memoBytes_ + cost > kEntryMemoBudgetBytes) {
        memo_.clear();
        memoBytes_ = 0;
    }
    if (cost <= kEntryMemoBudgetBytes) {
        memo_.emplace(digest, std::move(record));
        memoBytes_ += cost;
    }
    metrics_.gauge("store.entries.memo_bytes")
        .set(static_cast<std::int64_t>(memoBytes_));
}

net::HttpResponse
StoreService::serveEntry(const net::HttpRequest &req,
                         const std::string &digest)
{
    const bool get = req.method == "GET";
    const std::optional<EntryFile> file =
        store_.cache().openEntry(digest);
    std::optional<MemoRecord> memo;
    std::optional<std::string> text;
    bool remembered = false;
    if (file.has_value()) {
        memo = recall(digest, file->identity());
        remembered = memo.has_value();
        if (!remembered && (text = file->read()).has_value()) {
            // The ETag digests the stored (uncompressed) bytes
            // whatever dressing the transfer wears.
            memo = MemoRecord{file->identity(), quotedEtag(*text), ""};
            if (get) {
                std::string packed = lzCompress(*text);
                if (packed.size() < text->size())
                    memo->lz = std::move(packed);
                remember(digest, *memo);
            }
        }
    }
    const bool lz_body =
        get && memo.has_value() && !memo->lz.empty()
        && req.headers.get("Accept-Encoding").find(kLzEncodingName)
               != std::string::npos;
    if (get && memo.has_value() && !lz_body && !text.has_value())
        text = file->read(); // an identity body needs the bytes.
    if (!memo.has_value() || (get && !lz_body && !text.has_value())) {
        metrics_.counter("store.entries.misses").inc();
        return plain(404);
    }
    metrics_.counter("store.entries.hits").inc();
    if (remembered)
        metrics_.counter("store.entries.memo_hits").inc();

    net::HttpResponse resp;
    resp.status = 200;
    resp.headers.set("Content-Type", "application/json");
    resp.headers.set("ETag", memo->etag);
    if (!get) {
        // The serializer owns Content-Length (a HEAD response has no
        // body), so advertise the entry size here.
        resp.headers.set("X-Entry-Size",
                         std::to_string(file->identity().size));
    } else if (lz_body) {
        resp.body = std::move(memo->lz);
        resp.headers.set("Content-Encoding", kLzEncodingName);
    } else {
        resp.body = std::move(*text);
    }
    return resp;
}

bool
StoreService::setAccessLog(const std::string &path, std::string *error)
{
    std::unique_ptr<obs::JsonlWriter> log = obs::JsonlWriter::open(path);
    if (log == nullptr) {
        if (error != nullptr)
            *error = "cannot open access log " + path;
        return false;
    }
    std::lock_guard<std::mutex> lock(accessMu_);
    accessLog_ = std::move(log);
    return true;
}

void
StoreService::logAccess(const net::HttpRequest &req,
                        const net::HttpResponse &resp, std::uint64_t us,
                        const std::string &route)
{
    // Checked first: a service without a log builds no record.
    std::lock_guard<std::mutex> lock(accessMu_);
    if (accessLog_ == nullptr)
        return;
    // One JSONL object per request — the shape tools/smttrace joins
    // with client spans by the trace id (docs/PROTOCOL.md spec).
    Json rec = Json::object();
    rec.set("ts", Json(obs::nowUnixSeconds()));
    rec.set("mono", Json(obs::monoSeconds()));
    rec.set("route", Json(route));
    rec.set("method", Json(req.method));
    rec.set("target", Json(req.target));
    rec.set("status", Json(static_cast<std::int64_t>(resp.status)));
    rec.set("bytes_in", Json(static_cast<std::uint64_t>(
                            req.body.size())));
    rec.set("bytes_out", Json(static_cast<std::uint64_t>(
                             resp.body.size())));
    rec.set("latency_us", Json(us));
    rec.set("trace", Json(req.headers.get(obs::kTraceHeader)));
    accessLog_->write(rec.dump());
}

bool
StoreService::authorized(const net::HttpRequest &req) const
{
    if (token_.empty())
        return true;
    const std::string header = req.headers.get("Authorization");
    const std::string scheme = "Bearer ";
    if (header.rfind(scheme, 0) != 0)
        return false;
    return tokenEquals(header.substr(scheme.size()), token_);
}

net::HttpResponse
StoreService::handle(const net::HttpRequest &req)
{
    const auto t0 = std::chrono::steady_clock::now();
    net::HttpResponse resp;
    if (!authorized(req)) {
        // Rejected before dispatch: an unauthenticated peer can not
        // probe which resources exist, let alone touch them.
        resp = plain(401, "authorization required\n");
        resp.headers.set("WWW-Authenticate", "Bearer");
        metrics_.counter("store.auth.failures").inc();
    } else {
        resp = dispatch(req);
    }

    const std::uint64_t us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const std::string route = routeLabel(req.target);
    metrics_.counter("store.requests." + route).inc();
    metrics_.counter("store.bytes_in." + route).inc(req.body.size());
    metrics_.counter("store.bytes_out." + route).inc(resp.body.size());
    metrics_
        .histogram("store.latency_us." + route,
                   obs::defaultLatencyBoundsUs())
        .observe(us);
    logAccess(req, resp, us, route);

    if (verbose_) {
        // The operator's access log: enough to debug fleet traffic
        // (and line it up with client trace spans) without a rebuild.
        const std::string trace = req.headers.get(obs::kTraceHeader);
        smt_inform("smtstore: %s %s -> %d %zuB %.1fms trace=%s",
                   req.method.c_str(), req.target.c_str(), resp.status,
                   resp.body.size(), us / 1000.0,
                   trace.empty() ? "-" : trace.c_str());
    }
    return resp;
}

net::HttpResponse
StoreService::dispatch(const net::HttpRequest &req)
{
    const std::vector<std::string> path = v1Segments(req.target);
    if (path.empty())
        return plain(404, "unknown resource (expected /v1/...)\n");
    const std::string &kind = path[0];

    if (kind == "ping" && req.method == "GET") {
        Json doc = Json::object();
        doc.set("service", Json("smtstore"));
        doc.set("schema", Json(kDigestSchema));
        doc.set("dir", Json(store_.dir()));
        // Capability advertisement: clients compress entry PUTs only
        // for servers that list the codec here (old clients ignore
        // the fields; old servers never emit them).
        Json encodings = Json::array();
        encodings.push(Json("identity"));
        encodings.push(Json(kLzEncodingName));
        doc.set("encodings", std::move(encodings));
        doc.set("auth", Json(token_.empty() ? "none" : "bearer"));
        // Capability bit for /v1/stats, so clients can tell a server
        // without the route from one that is rejecting them.
        doc.set("stats", Json(true));
        return jsonResponse(200, doc);
    }

    if (kind == "stats" && path.size() == 1) {
        if (req.method != "GET")
            return plain(405);
        // Identity first, then the live registry snapshot. The
        // snapshot excludes this request itself (its counters are
        // recorded after dispatch returns).
        Json doc = Json::object();
        doc.set("service", Json("smtstore"));
        doc.set("schema", Json(kDigestSchema));
        const double uptime =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - started_)
                .count() /
            1e6;
        doc.set("uptimeSeconds", Json(uptime));
        const Json snap = metrics_.snapshot();
        for (const auto &[key, value] : snap.items())
            doc.set(key, value);
        return jsonResponse(200, doc);
    }

    if (kind == "manifest") {
        if (req.method == "GET") {
            const std::optional<Json> manifest = store_.readManifest();
            if (!manifest.has_value())
                return plain(404, "no manifest recorded\n");
            return jsonResponse(200, *manifest);
        }
        if (req.method == "PUT") {
            Json manifest;
            if (!Json::parse(req.body, manifest))
                return plain(400, "manifest body is not JSON\n");
            std::lock_guard<std::mutex> lock(mu_);
            store_.writeManifest(manifest);
            return plain(204);
        }
        return plain(405);
    }

    if (kind == "entries" && path.size() == 1) {
        if (req.method != "GET")
            return plain(405);
        Json doc = Json::object();
        Json digests = Json::array();
        for (std::string &d : store_.storedDigests())
            digests.push(Json(std::move(d)));
        doc.set("digests", std::move(digests));
        net::HttpResponse resp = jsonResponse(200, doc);
        resp.chunked = true; // a listing that can grow unbounded.
        return resp;
    }

    if (kind == "costs" && path.size() == 1) {
        if (req.method != "GET")
            return plain(405);
        Json doc = Json::object();
        Json costs = Json::object();
        for (const auto &[digest, seconds] : store_.observedCosts())
            costs.set(digest, Json(seconds));
        doc.set("costs", std::move(costs));
        net::HttpResponse resp = jsonResponse(200, doc);
        resp.chunked = true;
        return resp;
    }

    // Bulk marker refresh: one request re-leases every digest a
    // worker is responsible for, so heartbeats cost one round trip
    // instead of one per digest.
    if (kind == "markers" && path.size() == 1) {
        if (req.method != "POST")
            return plain(405);
        Json doc;
        if (!Json::parse(req.body, doc)
            || doc.type() != Json::Type::Object || !doc.has("marker")
            || doc.at("marker").type() != Json::Type::Object
            || !doc.has("digests")
            || doc.at("digests").type() != Json::Type::Array)
            return plain(400, "refresh body needs marker + digests\n");
        const Json &digests = doc.at("digests");
        for (std::size_t i = 0; i < digests.size(); ++i) {
            if (digests[i].type() != Json::Type::String
                || !looksLikeDigest(digests[i].asString()))
                return plain(400, "malformed digest in refresh\n");
        }
        std::lock_guard<std::mutex> lock(mu_);
        std::uint64_t refreshed = 0;
        for (std::size_t i = 0; i < digests.size(); ++i) {
            const std::string &digest = digests[i].asString();
            // Done work keeps no lease: a refresh racing the entry
            // commit must not resurrect its marker.
            if (store_.cache().readEntryText(digest).has_value())
                continue;
            store_.writeMarker(digest, doc.at("marker"));
            ++refreshed;
        }
        Json out = Json::object();
        out.set("refreshed", Json(refreshed));
        return jsonResponse(200, out);
    }

    // Everything below addresses one digest.
    if (path.size() < 2 || !looksLikeDigest(path[1]))
        return plain(404, "malformed digest in request path\n");
    const std::string &digest = path[1];

    if (kind == "entries") {
        if (req.method == "HEAD" || req.method == "GET")
            return serveEntry(req, digest);
        if (req.method == "PUT") {
            // Undress the transfer first: digests and entry checks
            // always apply to the true bytes, so compression cannot
            // weaken the bit-identical-merge invariant.
            std::string body;
            const std::string encoding =
                req.headers.get("Content-Encoding");
            if (encoding == kLzEncodingName) {
                std::optional<std::string> decoded =
                    lzDecompress(req.body, net::kMaxBodyBytes);
                if (!decoded.has_value())
                    return plain(400, "compressed body does not "
                                      "decode\n");
                body = std::move(*decoded);
            } else if (encoding.empty() || encoding == "identity") {
                body = req.body;
            } else {
                return plain(415, "unsupported Content-Encoding \""
                                      + encoding + "\"\n");
            }
            const std::string claimed =
                req.headers.get("X-Content-Digest");
            if (claimed.empty())
                return plain(400, "X-Content-Digest is required\n");
            if (claimed != contentDigest(body))
                return plain(400, "body does not match its declared "
                                  "content digest\n");
            Json entry;
            if (!Json::parse(body, entry)
                || entry.type() != Json::Type::Object
                || !entry.has("digest") || !entry.has("stats")
                || entry.at("digest").type() != Json::Type::String
                || entry.at("digest").asString() != digest)
                return plain(400, "body is not an entry for this "
                                  "digest\n");
            std::lock_guard<std::mutex> lock(mu_);
            if (!store_.cache().writeEntryText(digest, body))
                return plain(500, "cannot persist entry\n");
            store_.clearInProgress(digest);
            return plain(204);
        }
        return plain(405);
    }

    if (kind == "state") {
        if (req.method != "GET")
            return plain(405);
        Json doc = Json::object();
        doc.set("state", Json(toString(store_.state(digest))));
        return jsonResponse(200, doc);
    }

    if (kind == "markers") {
        if (path.size() == 3 && path[2] == "orphan") {
            if (req.method != "POST")
                return plain(405);
            std::lock_guard<std::mutex> lock(mu_);
            store_.markOrphaned(digest);
            return plain(204);
        }
        if (req.method == "GET") {
            const std::string text = store_.readMarkerText(digest);
            if (text.empty())
                return plain(404);
            net::HttpResponse resp;
            resp.status = 200;
            resp.headers.set("Content-Type", "application/json");
            resp.body = text;
            return resp;
        }
        if (req.method == "PUT") {
            Json marker;
            if (!Json::parse(req.body, marker)
                || marker.type() != Json::Type::Object)
                return plain(400, "marker body is not a JSON object\n");
            std::lock_guard<std::mutex> lock(mu_);
            store_.writeMarker(digest, marker);
            return plain(204);
        }
        return plain(405);
    }

    if (kind == "claims") {
        if (req.method != "POST")
            return plain(405);
        Json claim;
        if (!Json::parse(req.body, claim)
            || claim.type() != Json::Type::Object
            || !claim.has("expect")
            || claim.at("expect").type() != Json::Type::String
            || !claim.has("marker")
            || claim.at("marker").type() != Json::Type::Object)
            return plain(400, "claim body needs expect + marker\n");

        // The CAS: under the service mutex, the claim wins only while
        // the entry is absent and the marker bytes still read exactly
        // as the claimant observed them. A marker already *owned* by
        // the claimant (same {pid, host} — deadlines refresh, so
        // exact bytes would be too strict) means it won earlier and
        // its response was torn — the client's transparent retry
        // must see success, not a spurious conflict.
        std::lock_guard<std::mutex> lock(mu_);
        if (store_.cache().readEntryText(digest).has_value()) {
            metrics_.counter("store.claims.done").inc();
            return plain(409, "already done\n");
        }
        const std::string current = store_.readMarkerText(digest);
        if (sameMarkerOwner(current, claim.at("marker"))) {
            metrics_.counter("store.claims.retried").inc();
            return plain(200, "already claimed\n");
        }
        if (current != claim.at("expect").asString()) {
            metrics_.counter("store.claims.lost").inc();
            return plain(409, "marker moved\n");
        }
        store_.writeMarker(digest, claim.at("marker"));
        metrics_.counter("store.claims.won").inc();
        return plain(200, "claimed\n");
    }

    return plain(404, "unknown resource\n");
}

} // namespace smt::sweep
