/**
 * @file
 * Tests for the net layer and the store wire protocol: HTTP message
 * round-trips (Content-Length and chunked framing, keep-alive, torn
 * connections), RemoteResultStore semantics matching LocalDirStore
 * (hit / miss / corrupt-entry, markers, claim CAS, manifest, observed
 * costs) against an in-process smtstore service, the worker
 * launcher's ssh command construction and capture path (via a stub
 * ssh), and the acceptance bar — a 2-shard sweep whose workers talk
 * only to the store over loopback HTTP merges bit-identical to a
 * serial run.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>
#include <thread>

#include "common/lz.hh"

#include "dist/shard.hh"
#include "dist/launcher.hh"
#include "net/http.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "obs/trace_analysis.hh"
#include "net/http_client.hh"
#include "net/http_server.hh"
#include "net/socket.hh"
#include "support.hh"
#include "sweep/digest.hh"
#include "sweep/experiments.hh"
#include "sweep/remote_store.hh"
#include "sweep/result_store.hh"
#include "sweep/serialize.hh"
#include "sweep/store_service.hh"

namespace smt
{
namespace
{

namespace fs = std::filesystem;

// ---- URLs and headers ------------------------------------------------------

TEST(Net, UrlParsing)
{
    net::Url url;
    ASSERT_TRUE(net::parseUrl("http://localhost:8377", url));
    EXPECT_EQ(url.host, "localhost");
    EXPECT_EQ(url.port, 8377);
    EXPECT_EQ(url.path, "/");

    ASSERT_TRUE(net::parseUrl("http://10.0.0.7/base/store/", url));
    EXPECT_EQ(url.host, "10.0.0.7");
    EXPECT_EQ(url.port, 80);
    EXPECT_EQ(url.path, "/base/store");

    EXPECT_FALSE(net::parseUrl("ftp://host", url));
    EXPECT_FALSE(net::parseUrl("http://", url));
    EXPECT_FALSE(net::parseUrl("http://host:0", url));
    EXPECT_FALSE(net::parseUrl("http://host:99999", url));
    // The port is digits only: no sign, no space, no 64-bit wrap.
    EXPECT_FALSE(net::parseUrl("http://127.0.0.1:+1", url));
    EXPECT_FALSE(net::parseUrl("http://127.0.0.1: 1", url));
    EXPECT_FALSE(
        net::parseUrl("http://127.0.0.1:-18446744073709551615", url));
    EXPECT_FALSE(net::isHttpUrl("/plain/dir"));
    EXPECT_TRUE(net::isHttpUrl("http://x"));
}

TEST(Net, HeadersAreCaseInsensitive)
{
    net::Headers headers;
    headers.set("Content-Type", "application/json");
    EXPECT_TRUE(headers.has("content-type"));
    EXPECT_EQ(headers.get("CONTENT-TYPE"), "application/json");
    headers.set("content-type", "text/plain");
    EXPECT_EQ(headers.get("Content-Type"), "text/plain");
    EXPECT_EQ(headers.items().size(), 1u);
    EXPECT_EQ(headers.get("absent"), "");
}

// ---- HTTP over a live loopback server --------------------------------------

/** An echo server: responds with the request's method, target, and
 *  body; honours ?chunked and ?close markers in the target. */
class EchoServerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        std::string error;
        ASSERT_TRUE(server_.start(
            "127.0.0.1", 0,
            [](const net::HttpRequest &req) {
                net::HttpResponse resp;
                resp.headers.set("X-Method", req.method);
                resp.headers.set("X-Target", req.target);
                resp.body = req.body;
                if (req.target.find("chunked") != std::string::npos)
                    resp.chunked = true;
                if (req.target.find("close") != std::string::npos)
                    resp.headers.set("Connection", "close");
                return resp;
            },
            &error))
            << error;
    }

    net::HttpServer server_;
};

TEST_F(EchoServerTest, KeepAliveCarriesSequentialExchanges)
{
    net::HttpClient client("127.0.0.1", server_.port());

    // Several exchanges over one connection, bodies of varied size so
    // the framing (not luck) delimits them.
    for (std::size_t len : {0u, 1u, 10u, 100000u, 3u}) {
        net::HttpRequest req;
        req.method = "PUT";
        req.target = "/echo";
        req.body.assign(len, 'x');
        auto resp = client.request(req);
        ASSERT_TRUE(resp.has_value()) << client.lastError();
        EXPECT_EQ(resp->status, 200);
        EXPECT_EQ(resp->body.size(), len);
        EXPECT_EQ(resp->headers.get("X-Method"), "PUT");
    }
}

TEST_F(EchoServerTest, ChunkedBodiesBothDirections)
{
    net::HttpClient client("127.0.0.1", server_.port());

    // > 4096 bytes forces the multi-chunk path on both sides.
    std::string body;
    for (int i = 0; i < 3000; ++i)
        body += std::to_string(i) + ";";

    net::HttpRequest req;
    req.method = "POST";
    req.target = "/echo-chunked";
    req.body = body;
    req.chunked = true;
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->status, 200);
    EXPECT_EQ(resp->headers.get("Transfer-Encoding"), "chunked");
    EXPECT_EQ(resp->body, body);
}

TEST_F(EchoServerTest, HeadResponsesCarryNoBody)
{
    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.method = "HEAD";
    req.target = "/echo";
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->status, 200);
    EXPECT_TRUE(resp->body.empty());

    // The connection must still be usable for a normal exchange.
    req.method = "GET";
    resp = client.request(req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->headers.get("X-Method"), "GET");
}

TEST_F(EchoServerTest, TornRequestDoesNotWedgeTheServer)
{
    {
        // A client that dies mid-request: send half a request line and
        // disconnect.
        net::Socket torn =
            net::connectTcp("127.0.0.1", server_.port());
        ASSERT_TRUE(torn.valid());
        ASSERT_TRUE(torn.sendAll(std::string("GET /ha")));
    } // closed here.

    // The server must keep serving fresh connections.
    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.target = "/still-alive";
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->headers.get("X-Target"), "/still-alive");
}

TEST_F(EchoServerTest, ClientRetriesWhenAKeepAliveConnectionDies)
{
    net::HttpClient client("127.0.0.1", server_.port());

    // The ?close response makes the server drop the connection after
    // answering; the client's next request must transparently
    // reconnect instead of failing on the dead socket.
    net::HttpRequest req;
    req.target = "/first-close";
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->headers.get("Connection"), "close");

    req.target = "/second";
    resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->headers.get("X-Target"), "/second");
}

TEST(Net, ServerRejectsOversizedDeclaredBodies)
{
    net::HttpServer server;
    std::string error;
    ASSERT_TRUE(server.start(
        "127.0.0.1", 0,
        [](const net::HttpRequest &) { return net::HttpResponse(); },
        &error))
        << error;

    // A Content-Length beyond the cap must tear the connection, not
    // allocate; the next well-formed request still works.
    net::Socket sock = net::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(sock.valid());
    ASSERT_TRUE(sock.sendAll(std::string(
        "PUT /x HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n")));
    char byte = 0;
    EXPECT_EQ(sock.recvSome(&byte, 1), 0); // orderly close, no reply.

    net::HttpClient client("127.0.0.1", server.port());
    net::HttpRequest req;
    EXPECT_TRUE(client.request(req).has_value());
}

// ---- The store wire protocol -----------------------------------------------

/** smtstore-in-process: a StoreService mounted on a loopback server,
 *  with a RemoteResultStore client and a LocalDirStore view of the
 *  same directory for cross-checking. */
class RemoteStoreTest : public ::testing::Test
{
  protected:
    RemoteStoreTest() : dir_("store"), service_(dir_.path()) {}

    void SetUp() override
    {
        std::string error;
        ASSERT_TRUE(server_.start(
            "127.0.0.1", 0,
            [this](const net::HttpRequest &req) {
                return service_.handle(req);
            },
            &error))
            << error;
        url_ = "http://127.0.0.1:" + std::to_string(server_.port());
        remote_ = sweep::openStore(url_);
        local_ = sweep::openLocalStore(dir_.path());
    }

    TempDir dir_;
    sweep::StoreService service_;
    net::HttpServer server_;
    std::string url_;
    std::unique_ptr<sweep::ResultStore> remote_;
    std::unique_ptr<sweep::ResultStore> local_;
};

TEST_F(RemoteStoreTest, OpenStoreDispatchesByLocator)
{
    EXPECT_EQ(remote_->description(), url_);
    EXPECT_EQ(local_->description(), "dir:" + dir_.path());
    EXPECT_TRUE(sweep::isRemoteStoreLocator(url_));
    EXPECT_FALSE(sweep::isRemoteStoreLocator(dir_.path()));
}

TEST_F(RemoteStoreTest, HitMissAndBitIdenticalReplay)
{
    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = sweep::measurementDigest(cfg, opts);

    EXPECT_FALSE(remote_->lookup(digest).has_value());

    const DataPoint measured = measure(cfg, opts);
    remote_->store(digest, cfg, opts, measured.stats, 1.25);

    // The remote hit replays bit-identically, and the local view of
    // the same directory agrees — the server wrote a normal entry.
    const std::optional<SimStats> remote_hit = remote_->lookup(digest);
    ASSERT_TRUE(remote_hit.has_value());
    EXPECT_EQ(sweep::toJson(*remote_hit).dump(),
              sweep::toJson(measured.stats).dump());
    const std::optional<SimStats> local_hit = local_->lookup(digest);
    ASSERT_TRUE(local_hit.has_value());
    EXPECT_EQ(sweep::toJson(*local_hit).dump(),
              sweep::toJson(measured.stats).dump());

    EXPECT_EQ(remote_->storedDigests(),
              std::vector<std::string>{digest});

    // Observed cost round-trips through the entry.
    const std::map<std::string, double> costs = remote_->observedCosts();
    ASSERT_EQ(costs.size(), 1u);
    EXPECT_NEAR(costs.at(digest), 1.25, 1e-12);
    EXPECT_EQ(local_->observedCosts(), costs);
}

TEST_F(RemoteStoreTest, RemoteEntriesAreByteIdenticalToLocalOnes)
{
    const SmtConfig cfg = presets::baseSmt(2);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = sweep::measurementDigest(cfg, opts);
    const DataPoint measured = measure(cfg, opts);

    remote_->store(digest, cfg, opts, measured.stats, 0.5);
    const std::string entry_path = dir_.path() + "/" + digest + ".json";
    std::string remote_bytes;
    {
        std::ifstream in(entry_path, std::ios::binary);
        remote_bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_FALSE(remote_bytes.empty());

    fs::remove(entry_path);
    local_->store(digest, cfg, opts, measured.stats, 0.5);
    std::string local_bytes;
    {
        std::ifstream in(entry_path, std::ios::binary);
        local_bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    EXPECT_EQ(remote_bytes, local_bytes);
}

TEST_F(RemoteStoreTest, CorruptEntriesAreMissesNotErrors)
{
    const std::string digest(32, 'c');
    {
        std::ofstream out(dir_.path() + "/" + digest + ".json");
        out << "{\"digest\": \"" << digest << "\", truncated";
    }
    EXPECT_FALSE(remote_->lookup(digest).has_value());
    EXPECT_FALSE(local_->lookup(digest).has_value());
    // A corrupt entry is not done work.
    EXPECT_EQ(remote_->state(digest), sweep::WorkState::Pending);

    // Well-formed JSON with a type-confused digest: a miss on both
    // sides, and the routes that consult the entry keep the server up.
    const std::string confused(32, 'b');
    {
        std::ofstream out(dir_.path() + "/" + confused + ".json");
        out << "{\"digest\": 7, \"stats\": {}}";
    }
    EXPECT_FALSE(remote_->lookup(confused).has_value());
    EXPECT_FALSE(local_->lookup(confused).has_value());
    EXPECT_EQ(remote_->state(confused), sweep::WorkState::Pending);
    EXPECT_EQ(local_->state(confused), sweep::WorkState::Pending);
    remote_->markOrphaned(confused);
    EXPECT_EQ(remote_->state(confused), sweep::WorkState::Orphaned);
    auto *remote = static_cast<sweep::RemoteResultStore *>(remote_.get());
    EXPECT_TRUE(remote->pingDocument().has_value());
}

TEST_F(RemoteStoreTest, ServerRejectsDigestMismatchedUploads)
{
    const std::string digest(32, 'd');
    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.method = "PUT";
    req.target = "/v1/entries/" + digest;
    req.body = "{\"digest\": \"" + digest + "\", \"stats\": {}}";
    // A digest for *different* bytes: the upload must be rejected and
    // nothing committed.
    req.headers.set("X-Content-Digest",
                    sweep::contentDigest("other bytes"));
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 400);
    EXPECT_TRUE(remote_->storedDigests().empty());

    // And a PUT whose body is an entry for some other digest is also
    // rejected, even with a correct content digest.
    req.body = "{\"digest\": \"" + std::string(32, 'e')
               + "\", \"stats\": {}}";
    req.headers.set("X-Content-Digest",
                    sweep::contentDigest(req.body));
    resp = client.request(req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 400);
}

TEST_F(RemoteStoreTest, MarkerStateMachineMatchesLocalSemantics)
{
    const std::string digest(32, 'a');
    EXPECT_EQ(remote_->state(digest), sweep::WorkState::Pending);
    EXPECT_EQ(remote_->readMarkerText(digest), "");

    remote_->markInProgress(digest);
    // This process is alive on the server's host, so both views agree.
    EXPECT_EQ(remote_->state(digest), sweep::WorkState::InProgress);
    EXPECT_EQ(local_->state(digest), sweep::WorkState::InProgress);
    EXPECT_FALSE(remote_->readMarkerText(digest).empty());

    // Only a stored entry clears a marker over the wire; clear it
    // through the directory the server shares.
    static_cast<sweep::LocalDirStore *>(local_.get())
        ->clearInProgress(digest);
    EXPECT_EQ(remote_->state(digest), sweep::WorkState::Pending);

    remote_->markOrphaned(digest);
    EXPECT_EQ(remote_->state(digest), sweep::WorkState::Orphaned);
    EXPECT_EQ(local_->state(digest), sweep::WorkState::Orphaned);
}

TEST_F(RemoteStoreTest, ClaimCasAdmitsExactlyOneAdopter)
{
    const std::string digest(32, 'b');
    remote_->markOrphaned(digest);
    const std::string marker = remote_->readMarkerText(digest);
    ASSERT_FALSE(marker.empty());

    // First adopter wins; the marker now names this process.
    EXPECT_TRUE(remote_->tryAdopt(digest, marker));
    EXPECT_EQ(remote_->state(digest), sweep::WorkState::InProgress);

    // A retry of the same claim (the winner's response was torn and
    // the client resent it) must still read as success.
    EXPECT_TRUE(remote_->tryAdopt(digest, marker));

    // A rival — someone else's marker bytes are on the digest now —
    // holding the stale orphan marker loses.
    sweep::Json rival = sweep::Json::object();
    rival.set("pid", sweep::Json(std::uint64_t{999999999}));
    rival.set("host", sweep::Json("elsewhere"));
    static_cast<sweep::LocalDirStore *>(local_.get())
        ->writeMarker(digest, rival);
    EXPECT_FALSE(remote_->tryAdopt(digest, marker));

    // Done work cannot be claimed at all.
    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string done_digest = sweep::measurementDigest(cfg, opts);
    remote_->store(done_digest, cfg, opts, measure(cfg, opts).stats);
    EXPECT_FALSE(
        remote_->tryAdopt(done_digest,
                          remote_->readMarkerText(done_digest)));
    EXPECT_EQ(remote_->state(done_digest), sweep::WorkState::Done);
}

TEST_F(RemoteStoreTest, ManifestRoundTrips)
{
    EXPECT_FALSE(remote_->readManifest().has_value());
    sweep::Json manifest = sweep::Json::object();
    manifest.set("experiment", sweep::Json("smoke"));
    manifest.set("shardCount", sweep::Json(2u));
    remote_->writeManifest(manifest);

    const std::optional<sweep::Json> read = remote_->readManifest();
    ASSERT_TRUE(read.has_value());
    EXPECT_TRUE(*read == manifest);
    const std::optional<sweep::Json> local_read = local_->readManifest();
    ASSERT_TRUE(local_read.has_value());
    EXPECT_TRUE(*local_read == manifest);

    // The manifest is not an entry.
    EXPECT_TRUE(remote_->storedDigests().empty());
}

TEST(RemoteStore, UnreachableServerDegradesToMisses)
{
    // Nothing listens on this ephemeral port once the server that
    // owned it stops.
    net::HttpServer server;
    ASSERT_TRUE(server.start("127.0.0.1", 0,
                             [](const net::HttpRequest &) {
                                 return net::HttpResponse();
                             }));
    const std::uint16_t dead_port = server.port();
    server.stop();

    std::unique_ptr<sweep::ResultStore> store = sweep::openStore(
        "http://127.0.0.1:" + std::to_string(dead_port));
    const std::string digest(32, 'f');
    EXPECT_FALSE(store->lookup(digest).has_value());
    EXPECT_EQ(store->state(digest), sweep::WorkState::Pending);
    EXPECT_TRUE(store->storedDigests().empty());
    EXPECT_FALSE(store->readManifest().has_value());
}

// ---- Bearer auth -----------------------------------------------------------

TEST(StoreAuth, ConstantTimeEqualityIsCorrect)
{
    EXPECT_TRUE(sweep::tokenEquals("", ""));
    EXPECT_TRUE(sweep::tokenEquals("secret", "secret"));
    EXPECT_FALSE(sweep::tokenEquals("secret", "secreT"));
    EXPECT_FALSE(sweep::tokenEquals("secret", "secret2"));
    EXPECT_FALSE(sweep::tokenEquals("secret", ""));
    EXPECT_FALSE(sweep::tokenEquals("", "secret"));
}

/** A token-protected smtstore on loopback. */
class AuthStoreTest : public ::testing::Test
{
  protected:
    AuthStoreTest()
        : dir_("auth"), token_("s3kr1t-token"),
          service_(dir_.path(), false, token_)
    {
    }

    void SetUp() override
    {
        std::string error;
        ASSERT_TRUE(server_.start(
            "127.0.0.1", 0,
            [this](const net::HttpRequest &req) {
                return service_.handle(req);
            },
            &error))
            << error;
        url_ = "http://127.0.0.1:" + std::to_string(server_.port());
    }

    std::optional<net::HttpResponse>
    raw(const std::string &method, const std::string &target,
        const std::string &auth_header, const std::string &body = "")
    {
        net::HttpClient client("127.0.0.1", server_.port());
        net::HttpRequest req;
        req.method = method;
        req.target = target;
        req.body = body;
        if (!auth_header.empty())
            req.headers.set("Authorization", auth_header);
        return client.request(req);
    }

    std::optional<net::HttpResponse>
    rawGet(const std::string &target, const std::string &auth_header)
    {
        return raw("GET", target, auth_header);
    }

    TempDir dir_;
    std::string token_;
    sweep::StoreService service_;
    net::HttpServer server_;
    std::string url_;
};

TEST_F(AuthStoreTest, MissingOrWrongTokenIs401OnEveryRoute)
{
    for (const std::string &target :
         {std::string("/v1/ping"), std::string("/v1/entries"),
          std::string("/v1/manifest"), std::string("/v1/stats"),
          "/v1/markers/" + std::string(32, 'a')}) {
        // No credentials at all.
        std::optional<net::HttpResponse> resp = rawGet(target, "");
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->status, 401);
        EXPECT_EQ(resp->headers.get("WWW-Authenticate"), "Bearer");

        // A wrong token, and a right token under the wrong scheme.
        resp = rawGet(target, "Bearer not-the-token");
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->status, 401);
        resp = rawGet(target, "Basic " + token_);
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->status, 401);
    }

    // The real token opens the door.
    std::optional<net::HttpResponse> resp =
        rawGet("/v1/ping", "Bearer " + token_);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 200);
}

TEST_F(AuthStoreTest, TokenedClientWorksTokenlessClientDegradesToMisses)
{
    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = sweep::measurementDigest(cfg, opts);
    const DataPoint measured = measure(cfg, opts);

    // An authenticated client has full store semantics...
    std::unique_ptr<sweep::ResultStore> good =
        sweep::openStore(url_, token_);
    good->store(digest, cfg, opts, measured.stats, 0.5);
    ASSERT_TRUE(good->lookup(digest).has_value());
    EXPECT_EQ(good->state(digest), sweep::WorkState::Done);

    // ...while a tokenless (or wrong-token) client sees only misses —
    // never errors, and never data.
    std::unique_ptr<sweep::ResultStore> bad = sweep::openStore(url_);
    EXPECT_FALSE(bad->lookup(digest).has_value());
    EXPECT_EQ(bad->state(digest), sweep::WorkState::Pending);
    EXPECT_TRUE(bad->storedDigests().empty());
    EXPECT_FALSE(bad->readManifest().has_value());

    // The ping probe reports the failure (and the ping document
    // advertises the auth mode to authenticated clients).
    const auto *bad_remote =
        static_cast<sweep::RemoteResultStore *>(bad.get());
    std::string error;
    EXPECT_FALSE(bad_remote->pingDocument(&error).has_value());
    EXPECT_NE(error.find("401"), std::string::npos);
    const std::optional<net::HttpResponse> ping =
        rawGet("/v1/ping", "Bearer " + token_);
    ASSERT_TRUE(ping.has_value());
    EXPECT_NE(ping->body.find("\"auth\": \"bearer\""),
              std::string::npos);
}

TEST_F(AuthStoreTest, StatsRouteServesLiveCountersBehindTheToken)
{
    // The ping document advertises the stats capability.
    const std::optional<net::HttpResponse> ping =
        rawGet("/v1/ping", "Bearer " + token_);
    ASSERT_TRUE(ping.has_value());
    EXPECT_NE(ping->body.find("\"stats\": true"), std::string::npos);

    // Baseline snapshot through the typed client.
    std::unique_ptr<sweep::ResultStore> client =
        sweep::openStore(url_, token_);
    auto *remote = static_cast<sweep::RemoteResultStore *>(client.get());
    std::string error;
    const std::optional<sweep::Json> before = remote->stats(&error);
    ASSERT_TRUE(before.has_value()) << error;
    EXPECT_EQ(before->at("service").asString(), "smtstore");
    ASSERT_TRUE(before->has("counters"));
    const auto counterOf = [](const sweep::Json &snap,
                              const std::string &name) -> std::uint64_t {
        const sweep::Json &counters = snap.at("counters");
        return counters.has(name) ? counters.at(name).asUInt() : 0;
    };

    // Drive real traffic: one miss, one PUT, one hit.
    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = sweep::measurementDigest(cfg, opts);
    EXPECT_FALSE(client->lookup(digest).has_value()); // miss.
    client->store(digest, cfg, opts, measure(cfg, opts).stats, 0.5);
    EXPECT_TRUE(client->lookup(digest).has_value()); // hit.

    const std::optional<sweep::Json> after = remote->stats(&error);
    ASSERT_TRUE(after.has_value()) << error;
    EXPECT_GE(counterOf(*after, "store.requests.entries"),
              counterOf(*before, "store.requests.entries") + 3);
    EXPECT_GE(counterOf(*after, "store.entries.hits"),
              counterOf(*before, "store.entries.hits") + 1);
    EXPECT_GE(counterOf(*after, "store.entries.misses"),
              counterOf(*before, "store.entries.misses") + 1);
    EXPECT_GT(counterOf(*after, "store.bytes_in.entries"), 0u);

    // Latency histograms ride the same snapshot.
    ASSERT_TRUE(after->has("histograms"));
    const sweep::Json &hist = after->at("histograms");
    ASSERT_TRUE(hist.has("store.latency_us.entries"));
    EXPECT_GE(hist.at("store.latency_us.entries").at("samples").asUInt(),
              3u);
}

// ---- Unserved routes and the access log ------------------------------------

TEST_F(RemoteStoreTest, RoutesNoToolSendsAreGone)
{
    // Per-digest costs, span ingest and marker deletion are not
    // routes: every tool reads costs in bulk, spans stay in the
    // coordinator's trace file, and storing an entry clears its
    // marker.
    net::HttpClient client("127.0.0.1", server_.port());
    const auto status = [&client](const std::string &method,
                                  const std::string &target) {
        net::HttpRequest req;
        req.method = method;
        req.target = target;
        const std::optional<net::HttpResponse> resp = client.request(req);
        return resp.has_value() ? resp->status : -1;
    };
    const auto v1 = [](const std::string &path) { return "/v1/" + path; };
    const std::string digest(32, 'a');
    EXPECT_EQ(status("GET", v1("costs/" + digest)), 404);
    EXPECT_EQ(status("POST", v1("trace")), 404);
    EXPECT_EQ(status("DELETE", v1("markers/" + digest)), 405);
    EXPECT_FALSE(fs::exists(dir_.path() + "/traces"));

    // The ping document advertises what is served: no span ingest.
    auto *remote = static_cast<sweep::RemoteResultStore *>(remote_.get());
    const std::optional<sweep::Json> ping = remote->pingDocument();
    ASSERT_TRUE(ping.has_value());
    EXPECT_FALSE(ping->has("trace"));
    EXPECT_TRUE(ping->has("stats"));
}

TEST_F(AuthStoreTest, AccessLogRecordsEveryExchangeWithItsTraceId)
{
    // Without a log the service serves as usual and records nothing:
    // this exchange appears nowhere below.
    const std::string log_path = dir_.path() + "/access.jsonl";
    const std::optional<net::HttpResponse> unlogged =
        rawGet("/v1/ping", "Bearer " + token_);
    ASSERT_TRUE(unlogged.has_value());
    EXPECT_EQ(unlogged->status, 200);
    EXPECT_FALSE(fs::exists(log_path));

    std::string log_error;
    ASSERT_TRUE(service_.setAccessLog(log_path, &log_error))
        << log_error;

    // Three exchanges: an authenticated ping carrying a trace id, an
    // authenticated miss, and a rejected tokenless probe — all three
    // must appear, including the 401 (operators audit those).
    {
        net::HttpClient client("127.0.0.1", server_.port());
        net::HttpRequest req;
        req.target = "/v1/ping";
        req.headers.set("Authorization", "Bearer " + token_);
        req.headers.set(obs::kTraceHeader, "feedface00112233");
        ASSERT_TRUE(client.request(req).has_value());
    }
    ASSERT_TRUE(
        rawGet("/v1/entries/" + std::string(32, 'a'), "Bearer " + token_)
            .has_value());
    ASSERT_TRUE(rawGet("/v1/ping", "").has_value()); // 401.

    // The log parses as an smttrace access-record stream.
    obs::TraceSet set;
    std::string error;
    ASSERT_TRUE(set.addFile(log_path, &error)) << error;
    EXPECT_EQ(set.skipped, 0u);
    ASSERT_EQ(set.access.size(), 3u);

    const obs::AccessRecord &ping = set.access[0];
    EXPECT_EQ(ping.route, "ping");
    EXPECT_EQ(ping.method, "GET");
    EXPECT_EQ(ping.target, "/v1/ping");
    EXPECT_EQ(ping.status, 200);
    EXPECT_EQ(ping.trace, "feedface00112233");
    EXPECT_GT(ping.ts, 0.0);
    EXPECT_GT(ping.bytesOut, 0u);

    const obs::AccessRecord &miss = set.access[1];
    EXPECT_EQ(miss.route, "entries");
    EXPECT_EQ(miss.status, 404);
    EXPECT_EQ(miss.trace, "");

    const obs::AccessRecord &denied = set.access[2];
    EXPECT_EQ(denied.status, 401);
}

// ---- Transfer compression --------------------------------------------------

TEST_F(RemoteStoreTest, PingAdvertisesEncodings)
{
    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.target = "/v1/ping";
    const std::optional<net::HttpResponse> resp = client.request(req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_NE(resp->body.find("x-smt-lz"), std::string::npos);
}

TEST_F(RemoteStoreTest, EntryGetHonoursAcceptEncoding)
{
    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = sweep::measurementDigest(cfg, opts);
    local_->store(digest, cfg, opts, measure(cfg, opts).stats);
    const std::optional<std::string> entry_bytes =
        static_cast<sweep::LocalDirStore *>(local_.get())
            ->cache()
            .readEntryText(digest);
    ASSERT_TRUE(entry_bytes.has_value());

    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.target = "/v1/entries/" + digest;

    // Without Accept-Encoding (an old client): identity bytes.
    std::optional<net::HttpResponse> resp = client.request(req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(resp->headers.get("Content-Encoding").empty());
    EXPECT_EQ(resp->body, *entry_bytes);

    // With it: a smaller body that decodes to the same bytes, under
    // an ETag that still digests the *uncompressed* entry.
    req.headers.set("Accept-Encoding", kLzEncodingName);
    resp = client.request(req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->headers.get("Content-Encoding"), kLzEncodingName);
    EXPECT_LT(resp->body.size(), entry_bytes->size());
    const std::optional<std::string> decoded =
        lzDecompress(resp->body, 1 << 20);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, *entry_bytes);
    EXPECT_EQ(resp->headers.get("ETag"),
              "\"" + sweep::contentDigest(*entry_bytes) + "\"");

    // The RemoteResultStore read path (which asks for compression)
    // replays the stats bit-identically through the codec.
    const std::optional<SimStats> hit = remote_->lookup(digest);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(sweep::toJson(*hit).dump(),
              sweep::toJson(*local_->lookup(digest)).dump());
}

TEST_F(RemoteStoreTest, CompressedPutIsVerifiedAgainstTrueBytes)
{
    const SmtConfig cfg = presets::baseSmt(2);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = sweep::measurementDigest(cfg, opts);
    const DataPoint measured = measure(cfg, opts);

    // The client negotiates x-smt-lz via ping and compresses its PUT;
    // the server must store the *uncompressed* canonical entry, byte-
    // identical to what a local store would write.
    remote_->store(digest, cfg, opts, measured.stats, 0.5);
    const std::optional<std::string> stored =
        static_cast<sweep::LocalDirStore *>(local_.get())
            ->cache()
            .readEntryText(digest);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->substr(0, 1), "{"); // plaintext on disk.
    const std::optional<SimStats> hit = local_->lookup(digest);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(sweep::toJson(*hit).dump(),
              sweep::toJson(measured.stats).dump());

    // A compressed PUT whose stream is corrupt is rejected and
    // nothing is committed.
    const std::string other(32, 'e');
    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.method = "PUT";
    req.target = "/v1/entries/" + other;
    req.body = "this is not an SLZ1 stream";
    req.headers.set("Content-Encoding", kLzEncodingName);
    req.headers.set("X-Content-Digest", sweep::contentDigest("x"));
    std::optional<net::HttpResponse> resp = client.request(req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 400);
    EXPECT_FALSE(local_->lookup(other).has_value());

    // An encoding the server never advertised is refused as such.
    req.headers.set("Content-Encoding", "gzip");
    resp = client.request(req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 415);
}

// ---- The entry memo --------------------------------------------------------

/** One entry request over a fresh connection, optionally asking for
 *  x-smt-lz. */
std::optional<net::HttpResponse>
entryRequest(int port, const std::string &method,
             const std::string &digest, bool lz)
{
    net::HttpClient client("127.0.0.1", port);
    net::HttpRequest req;
    req.method = method;
    req.target = "/v1/entries/" + digest;
    if (lz)
        req.headers.set("Accept-Encoding", kLzEncodingName);
    return client.request(req);
}

TEST_F(RemoteStoreTest, EntryMemoServesUnchangedFilesAndNoticesRewrites)
{
    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = sweep::measurementDigest(cfg, opts);
    const SimStats stats = measure(cfg, opts).stats;
    local_->store(digest, cfg, opts, stats, 0.5);
    const sweep::ResultCache &cache =
        static_cast<sweep::LocalDirStore *>(local_.get())->cache();
    const std::string bytes = *cache.readEntryText(digest);
    const std::string etag = "\"" + sweep::contentDigest(bytes) + "\"";
    obs::Counter &memo_hits =
        service_.metrics().counter("store.entries.memo_hits");

    // The first GET computes and remembers; the second is a memo hit
    // with the same body and ETag.
    const std::optional<net::HttpResponse> first =
        entryRequest(server_.port(), "GET", digest, true);
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->status, 200);
    EXPECT_EQ(first->headers.get("ETag"), etag);
    EXPECT_EQ(lzDecompress(first->body, 1 << 20), bytes);
    const std::uint64_t hits_before = memo_hits.value();
    const std::optional<net::HttpResponse> second =
        entryRequest(server_.port(), "GET", digest, true);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(memo_hits.value(), hits_before + 1);
    EXPECT_EQ(second->body, first->body);
    EXPECT_EQ(second->headers.get("ETag"), etag);
    EXPECT_EQ(second->headers.get("Content-Encoding"), kLzEncodingName);

    // Identity GET and HEAD of a remembered entry are unchanged.
    const std::optional<net::HttpResponse> identity =
        entryRequest(server_.port(), "GET", digest, false);
    ASSERT_TRUE(identity.has_value());
    EXPECT_EQ(identity->body, bytes);
    EXPECT_EQ(identity->headers.get("ETag"), etag);
    EXPECT_TRUE(identity->headers.get("Content-Encoding").empty());
    const std::optional<net::HttpResponse> head =
        entryRequest(server_.port(), "HEAD", digest, false);
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->status, 200);
    EXPECT_EQ(head->headers.get("ETag"), etag);
    EXPECT_EQ(head->headers.get("X-Entry-Size"),
              std::to_string(bytes.size()));

    // Dispatch threads share the memo: concurrent hits all agree.
    std::vector<std::thread> readers;
    std::atomic<int> agreed{0};
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            for (int i = 0; i < 10; ++i) {
                const std::optional<net::HttpResponse> r =
                    entryRequest(server_.port(), "GET", digest, true);
                if (r.has_value() && r->body == first->body
                    && r->headers.get("ETag") == etag)
                    ++agreed;
            }
        });
    }
    for (std::thread &t : readers)
        t.join();
    EXPECT_EQ(agreed.load(), 40);

    // A rewrite by another writer of the directory (temp + rename, so
    // a new inode) is read afresh: new bytes, new ETag, no memo hit.
    local_->store(digest, cfg, opts, stats, 2.5);
    const std::string rewritten = *cache.readEntryText(digest);
    ASSERT_NE(rewritten, bytes);
    const std::uint64_t hits_at_rewrite = memo_hits.value();
    const std::optional<net::HttpResponse> fresh =
        entryRequest(server_.port(), "GET", digest, true);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(memo_hits.value(), hits_at_rewrite);
    EXPECT_EQ(lzDecompress(fresh->body, 1 << 20), rewritten);
    EXPECT_EQ(fresh->headers.get("ETag"),
              "\"" + sweep::contentDigest(rewritten) + "\"");
    const std::optional<SimStats> hit = remote_->lookup(digest);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(memo_hits.value(), hits_at_rewrite + 1);
    EXPECT_EQ(sweep::toJson(*hit).dump(), sweep::toJson(stats).dump());

    // A deleted entry is gone, memo or not.
    fs::remove(dir_.path() + "/" + digest + ".json");
    for (const char *method : {"GET", "HEAD"}) {
        const std::optional<net::HttpResponse> gone =
            entryRequest(server_.port(), method, digest, true);
        ASSERT_TRUE(gone.has_value());
        EXPECT_EQ(gone->status, 404) << method;
    }
    EXPECT_FALSE(remote_->lookup(digest).has_value());
}

TEST_F(RemoteStoreTest, EntryMemoStaysWithinItsBudget)
{
    // More distinct compressible entries than the budget holds, each
    // read once: every GET is still right, and the memo never holds
    // more than its budget.
    const sweep::ResultCache &cache =
        static_cast<sweep::LocalDirStore *>(local_.get())->cache();
    obs::Gauge &memo_bytes =
        service_.metrics().gauge("store.entries.memo_bytes");
    std::size_t served = 0;
    for (int i = 0; served <= 2 * sweep::kEntryMemoBudgetBytes; ++i) {
        const std::string digest = sweep::digestHex(std::to_string(i));
        std::string text = "{\n";
        for (int k = 0; k < 600; ++k)
            text += "  \"counter." + std::to_string(k) + "\": "
                    + std::to_string((i + 1) * 7919u * (k + 13)) + ",\n";
        text += "  \"entry\": " + std::to_string(i) + "\n}\n";
        ASSERT_TRUE(cache.writeEntryText(digest, text));
        const std::optional<net::HttpResponse> resp =
            entryRequest(server_.port(), "GET", digest, true);
        ASSERT_TRUE(resp.has_value());
        ASSERT_EQ(lzDecompress(resp->body, 1 << 20), text);
        ASSERT_EQ(resp->headers.get("ETag"),
                  "\"" + sweep::contentDigest(text) + "\"");
        served += resp->body.size();
        EXPECT_GT(memo_bytes.value(), 0);
        EXPECT_LE(static_cast<std::size_t>(memo_bytes.value()),
                  sweep::kEntryMemoBudgetBytes);
    }
}

TEST(RemoteStore, CorruptCompressedGetBodyIsAMiss)
{
    // A byzantine server: claims x-smt-lz but sends garbage. The
    // client must read it as a miss, exactly like a corrupt entry.
    const std::string digest(32, 'a');
    net::HttpServer server;
    ASSERT_TRUE(server.start(
        "127.0.0.1", 0, [](const net::HttpRequest &) {
            net::HttpResponse resp;
            resp.status = 200;
            resp.headers.set("Content-Encoding", kLzEncodingName);
            resp.body = "decidedly not compressed bytes";
            return resp;
        }));
    std::unique_ptr<sweep::ResultStore> store = sweep::openStore(
        "http://127.0.0.1:" + std::to_string(server.port()));
    EXPECT_FALSE(store->lookup(digest).has_value());
}

// ---- Marker TTL leases over the wire ---------------------------------------

TEST_F(RemoteStoreTest, ExpiredMarkerLeaseOrphansAcrossHosts)
{
    const std::string digest(32, 'a');
    const double now = std::chrono::duration<double>(
                           std::chrono::system_clock::now()
                               .time_since_epoch())
                           .count();
    auto foreign_marker = [&](double deadline) {
        sweep::Json marker = sweep::Json::object();
        marker.set("pid", sweep::Json(std::uint64_t{999999999}));
        marker.set("host", sweep::Json("elsewhere"));
        marker.set("deadline", sweep::Json(deadline));
        static_cast<sweep::LocalDirStore *>(local_.get())
            ->writeMarker(digest, marker);
    };

    // A live lease from an unprobeable foreign host: in progress.
    foreign_marker(now + 60.0);
    EXPECT_EQ(remote_->state(digest), sweep::WorkState::InProgress);

    // Expired, but within the clock-skew slack (default 10 s): still
    // presumed live — skew must not orphan healthy workers.
    foreign_marker(now - 2.0);
    EXPECT_EQ(remote_->state(digest), sweep::WorkState::InProgress);

    // Expired beyond the slack: orphaned for every observer, with no
    // coordinator involved and no pid probe possible.
    foreign_marker(now - 3600.0);
    EXPECT_EQ(remote_->state(digest), sweep::WorkState::Orphaned);
    EXPECT_EQ(local_->state(digest), sweep::WorkState::Orphaned);

    // And adoptable through the ordinary claim CAS.
    EXPECT_TRUE(
        remote_->tryAdopt(digest, remote_->readMarkerText(digest)));
    EXPECT_EQ(remote_->state(digest), sweep::WorkState::InProgress);
}

TEST_F(RemoteStoreTest, TypeConfusedMarkersNeverCrashAnyone)
{
    // Markers come from peers: a {pid: -1} or {host: 7} document must
    // classify as *something* (orphaned / in-progress), never abort
    // the shared server or an observing worker.
    const std::string digest(32, 'c');
    net::HttpClient client("127.0.0.1", server_.port());
    const std::vector<std::string> hostile = {
        "{\"pid\": -1, \"host\": \"h\"}",
        "{\"pid\": 1.5, \"host\": 7}",
        "{\"pid\": \"what\", \"host\": [\"x\"]}",
        "{\"host\": \"h\"}",
    };
    for (const std::string &body : hostile) {
        net::HttpRequest req;
        req.method = "PUT";
        req.target = "/v1/markers/" + digest;
        req.body = body;
        const std::optional<net::HttpResponse> resp =
            client.request(req);
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->status, 204);
        const sweep::WorkState state = remote_->state(digest);
        EXPECT_TRUE(state == sweep::WorkState::Orphaned
                    || state == sweep::WorkState::InProgress);
        remote_->tryAdopt(digest, remote_->readMarkerText(digest));
        static_cast<sweep::LocalDirStore *>(local_.get())
            ->clearInProgress(digest);
    }

    // A type-confused claim body is a 400, not a server abort.
    net::HttpRequest bad;
    bad.method = "POST";
    bad.target = "/v1/claims/" + digest;
    bad.body = "{\"expect\": 5, \"marker\": []}";
    const std::optional<net::HttpResponse> resp = client.request(bad);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 400);
}

TEST_F(RemoteStoreTest, BulkMarkerRefreshLeasesManyDigestsAtOnce)
{
    const std::string a(32, 'a'), b(32, 'b');
    remote_->refreshMarkers({a, b}, 60.0);
    EXPECT_EQ(remote_->state(a), sweep::WorkState::InProgress);
    EXPECT_EQ(remote_->state(b), sweep::WorkState::InProgress);
    EXPECT_TRUE(
        sweep::sameMarkerOwner(remote_->readMarkerText(a),
                               sweep::makeSelfMarker()));

    // Done work keeps no lease: a refresh racing the entry commit
    // must not resurrect the cleared marker.
    const SmtConfig cfg = presets::baseSmt(1);
    const MeasureOptions opts = tinyOptions();
    const std::string done = sweep::measurementDigest(cfg, opts);
    remote_->store(done, cfg, opts, measure(cfg, opts).stats);
    remote_->refreshMarkers({done}, 60.0);
    EXPECT_EQ(remote_->readMarkerText(done), "");
    EXPECT_EQ(remote_->state(done), sweep::WorkState::Done);
}

TEST(RemoteStore, BulkRefreshFallsBackToPutsOnOldServers)
{
    // An "old" server: the store service minus the bulk route.
    TempDir dir("oldserver");
    sweep::StoreService service(dir.path());
    net::HttpServer server;
    ASSERT_TRUE(server.start(
        "127.0.0.1", 0, [&service](const net::HttpRequest &req) {
            if (req.method == "POST" && req.target == "/v1/markers") {
                net::HttpResponse resp;
                resp.status = 404;
                return resp;
            }
            return service.handle(req);
        }));
    std::unique_ptr<sweep::ResultStore> store = sweep::openStore(
        "http://127.0.0.1:" + std::to_string(server.port()));

    const std::string a(32, 'a'), b(32, 'b');
    store->refreshMarkers({a, b}, 60.0);
    EXPECT_EQ(store->state(a), sweep::WorkState::InProgress);
    EXPECT_EQ(store->state(b), sweep::WorkState::InProgress);
}

// ---- The ssh launcher ------------------------------------------------------

TEST(SshLauncher, ShellQuotingAndCommandConstruction)
{
    EXPECT_EQ(dist::shellQuoteArg("plain"), "'plain'");
    EXPECT_EQ(dist::shellQuoteArg("a b"), "'a b'");
    EXPECT_EQ(dist::shellQuoteArg("it's"), "'it'\\''s'");

    const std::vector<std::string> argv =
        dist::sshArgv("ssh", "user@hostA",
                      {"/opt/smtsweep", "--shard", "0/2"});
    ASSERT_EQ(argv.size(), 5u);
    EXPECT_EQ(argv[0], "ssh");
    EXPECT_EQ(argv[1], "-o");
    EXPECT_EQ(argv[2], "BatchMode=yes");
    EXPECT_EQ(argv[3], "user@hostA");
    EXPECT_EQ(argv[4], "exec '/opt/smtsweep' '--shard' '0/2'");

    EXPECT_EQ(dist::parseHostList("a,b,,user@c"),
              (std::vector<std::string>{"a", "b", "user@c"}));
    EXPECT_TRUE(dist::parseHostList("").empty());
}

TEST(SshLauncher, CapturesWorkerOutputAndExitCode)
{
    // A stub ssh that ignores its host and runs the command locally:
    // the whole pipe/capture path works without an sshd.
    TempDir dir("fakessh");
    const std::string stub = dir.path() + "/fake-ssh";
    {
        std::ofstream out(stub);
        out << "#!/bin/sh\n"
               "# args: -o BatchMode=yes HOST COMMAND\n"
               "shift 3\n"
               "exec /bin/sh -c \"$1\"\n";
    }
    ::chmod(stub.c_str(), 0755);

    // stdout and stderr share one capture, tagged with the shard.
    std::map<unsigned, std::string> captured;
    dist::WorkerLauncher launcher(
        {"hostA", "hostB"}, stub,
        [&captured](unsigned shard, std::string_view bytes) {
            captured[shard].append(bytes);
        });
    const long handle = launcher.launch(
        1, {"/bin/sh", "-c", "echo '{\"event\": \"hit\"}'; "
                             "echo not-a-span >&2; exit 7"});

    int exit_code = -1;
    launcher.wait(handle, exit_code);
    EXPECT_EQ(exit_code, 7);
    EXPECT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[1], "{\"event\": \"hit\"}\nnot-a-span\n");
}

TEST(SshLauncher, StoreTokenRidesStdinAndNeverArgv)
{
    const std::string token = "super-secret-store-token";

    // The command construction: with a token, the remote shell reads
    // it from stdin into the environment; nothing token-shaped is in
    // the argv ps would show on either host.
    const std::vector<std::string> argv = dist::sshArgv(
        "ssh", "hostA", {"/opt/smtsweep", "--shard", "0/2"},
        /*token_on_stdin=*/true);
    for (const std::string &arg : argv)
        EXPECT_EQ(arg.find(token), std::string::npos);
    EXPECT_NE(argv.back().find("IFS= read -r SMTSTORE_TOKEN"),
              std::string::npos);
    EXPECT_NE(argv.back().find("export SMTSTORE_TOKEN"),
              std::string::npos);

    // The trace id is exported the same way tokens travel — inside
    // the remote command — because sshd drops arbitrary foreign
    // environment variables. Unlike the token it is not secret, so
    // riding argv is fine.
    const std::vector<std::string> traced = dist::sshArgv(
        "ssh", "hostA", {"/opt/smtsweep", "--shard", "0/2"},
        /*token_on_stdin=*/true, /*trace_id=*/"feedface00112233");
    EXPECT_NE(
        traced.back().find("SMTSWEEP_TRACE_ID='feedface00112233'"),
        std::string::npos);
    EXPECT_NE(traced.back().find("export SMTSWEEP_TRACE_ID"),
              std::string::npos);
    // The export happens before exec so the worker inherits it.
    EXPECT_LT(traced.back().find("SMTSWEEP_TRACE_ID"),
              traced.back().find("exec "));
    // Without a trace id, nothing trace-shaped is in the command.
    EXPECT_EQ(argv.back().find("SMTSWEEP_TRACE_ID"),
              std::string::npos);

    // End to end through a stub ssh: the worker sees the token in
    // SMTSTORE_TOKEN, and the stub's own argv never carried it.
    TempDir dir("sshtoken");
    const std::string stub = dir.path() + "/fake-ssh";
    const std::string argv_log = dir.path() + "/argv.txt";
    const std::string token_out = dir.path() + "/token.txt";
    {
        std::ofstream out(stub);
        out << "#!/bin/sh\n"
               "printf '%s\\n' \"$@\" > " << argv_log << "\n"
               "shift 3\n"
               "exec /bin/sh -c \"$1\"\n";
    }
    ::chmod(stub.c_str(), 0755);

    dist::WorkerLauncher launcher({"ignored-host"}, stub);
    launcher.setStoreToken(token);
    const long handle = launcher.launch(
        0, {"/bin/sh", "-c",
            "printf '%s' \"$SMTSTORE_TOKEN\" > " + token_out});
    int exit_code = -1;
    launcher.wait(handle, exit_code);
    EXPECT_EQ(exit_code, 0);

    std::string delivered;
    {
        std::ifstream in(token_out);
        delivered.assign(std::istreambuf_iterator<char>(in), {});
    }
    EXPECT_EQ(delivered, token);

    std::string logged_argv;
    {
        std::ifstream in(argv_log);
        logged_argv.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_FALSE(logged_argv.empty());
    EXPECT_EQ(logged_argv.find(token), std::string::npos);
}

// ---- The acceptance bar ----------------------------------------------------

TEST(RemoteStore, TwoShardSweepOverLoopbackMergesBitIdenticalToSerial)
{
    const sweep::NamedExperiment *smoke =
        sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    // The reference: a serial, cache-less sweep.
    sweep::RunnerOptions serial;
    serial.measure = tinyOptions();
    serial.measure.parallel = false;
    const sweep::SweepOutcome reference =
        sweep::runSweep(smoke->spec, serial);

    // An in-process smtstore, hardened as it would be on an untrusted
    // network: bearer auth required, compression negotiated (the
    // client always compresses entry PUTs against a server that
    // advertises x-smt-lz).
    TempDir dir("loopback");
    const std::string token = "loopback-acceptance-token";
    sweep::StoreService service(dir.path(), false, token);
    net::HttpServer server;
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1", 0,
                             [&service](const net::HttpRequest &req) {
                                 return service.handle(req);
                             },
                             &error))
        << error;
    const std::string url =
        "http://127.0.0.1:" + std::to_string(server.port());

    // ...backing both workers of a 2-shard run: every result, marker,
    // and heartbeat-visible byte crosses the wire, authenticated and
    // compressed.
    sweep::RunnerOptions shard_opts;
    shard_opts.measure = tinyOptions();
    shard_opts.cacheDir = url;
    shard_opts.storeToken = token;
    const dist::ShardRunResult s0 =
        dist::runShard(smoke->spec, shard_opts, 0, 2);
    const dist::ShardRunResult s1 =
        dist::runShard(smoke->spec, shard_opts, 1, 2);
    EXPECT_EQ(s0.points + s1.points, reference.points.size());
    EXPECT_EQ(s0.cacheHits + s1.cacheHits, 0u);

    // The merge: a pure replay of the remote store.
    sweep::RunnerOptions merge_opts = shard_opts;
    merge_opts.requireCached = true; // would abort on any miss.
    const sweep::SweepOutcome merged =
        sweep::runSweep(smoke->spec, merge_opts);
    EXPECT_EQ(merged.cacheHits, merged.points.size());
    EXPECT_EQ(merged.cacheMisses, 0u);

    ASSERT_EQ(merged.points.size(), reference.points.size());
    for (std::size_t i = 0; i < merged.points.size(); ++i) {
        EXPECT_EQ(merged.points[i].digest, reference.points[i].digest);
        EXPECT_EQ(sweep::toJson(merged.points[i].data.stats).dump(),
                  sweep::toJson(reference.points[i].data.stats).dump());
    }
}

TEST(RemoteStore, TracedShardedSweepClosesTheLedgerOverLoopback)
{
    // The profiling acceptance bar: a 2-shard authed sweep with
    // --trace-out and a server access log yields a merged trace in
    // which every grid digest reaches a terminal state, the worker
    // ledger closes (busy + idle == window), and the Chrome export is
    // valid trace-event JSON.
    const sweep::NamedExperiment *smoke =
        sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    TempDir dir("tracedsweep");
    const std::string token = "traced-sweep-token";
    sweep::StoreService service(dir.path(), false, token);
    const std::string access_path = dir.path() + "/access.jsonl";
    ASSERT_TRUE(service.setAccessLog(access_path));
    net::HttpServer server;
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1", 0,
                             [&service](const net::HttpRequest &req) {
                                 return service.handle(req);
                             },
                             &error))
        << error;
    const std::string url =
        "http://127.0.0.1:" + std::to_string(server.port());

    const std::string trace_path = dir.path() + "/sweep-trace.jsonl";
    std::size_t total_points = 0;
    std::string trace_id;
    {
        // Both shards share one writer, exactly like local dist mode
        // (one append-mode file, one trace id).
        obs::TraceWriter writer(trace_path);
        trace_id = writer.traceId();
        sweep::RunnerOptions opts;
        opts.measure = tinyOptions();
        opts.cacheDir = url;
        opts.storeToken = token;
        opts.trace = &writer;
        const dist::ShardRunResult s0 =
            dist::runShard(smoke->spec, opts, 0, 2);
        const dist::ShardRunResult s1 =
            dist::runShard(smoke->spec, opts, 1, 2);
        total_points = s0.points + s1.points;
    }
    ASSERT_GT(total_points, 0u);

    // Merge the worker-side trace file and the server's access log —
    // the exact file set a cross-host profile hands to smttrace.
    obs::TraceSet set;
    ASSERT_TRUE(set.addFile(trace_path, &error)) << error;
    ASSERT_TRUE(set.addFile(access_path, &error)) << error;
    EXPECT_EQ(set.skipped, 0u);

    const obs::TraceAnalysis analysis =
        obs::analyzeTrace(set, trace_id);
    EXPECT_EQ(analysis.traceId, trace_id);

    // Every grid digest reached a terminal state.
    EXPECT_EQ(analysis.digests.size(), total_points);
    EXPECT_EQ(analysis.nonTerminal, 0u);
    EXPECT_EQ(analysis.terminalStored, total_points);

    // The ledger closes for every worker, and utilization is sane.
    ASSERT_FALSE(analysis.workers.empty());
    for (const obs::WorkerLedger &w : analysis.workers) {
        EXPECT_NEAR(w.busySeconds + w.idleSeconds, w.windowSeconds,
                    1e-6);
        EXPECT_GE(w.utilization(), 0.0);
        EXPECT_LE(w.utilization(), 1.0);
    }

    // The access log joined: store latency percentiles exist for the
    // entries route, and every record carried this sweep's trace id.
    ASSERT_FALSE(analysis.routes.empty());
    bool saw_entries = false;
    for (const obs::RouteLatency &r : analysis.routes)
        if (r.route == "entries") {
            saw_entries = true;
            EXPECT_GT(r.count, 0u);
            EXPECT_GE(r.maxUs, r.p50Us);
        }
    EXPECT_TRUE(saw_entries);

    // The Chrome export is valid trace-event JSON with one complete
    // event per run.
    const sweep::Json chrome = obs::chromeTrace(set, trace_id);
    sweep::Json parsed;
    ASSERT_TRUE(sweep::Json::parse(chrome.dump(2), parsed));
    EXPECT_EQ(parsed.at("displayTimeUnit").asString(), "ms");
    std::size_t completes = 0;
    const sweep::Json &events = parsed.at("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i)
        if (events[i].at("ph").asString() == "X")
            ++completes;
    EXPECT_EQ(completes, total_points);

    // And the machine-readable summary agrees with the analysis.
    const sweep::Json summary = obs::analysisSummary(analysis, set);
    EXPECT_EQ(summary.at("schema").asString(), "smt-trace-v1");
    EXPECT_EQ(summary.at("digests").at("nonTerminal").asUInt(), 0u);
    EXPECT_EQ(summary.at("digests").at("total").asUInt(), total_points);
}

TEST(RemoteStore, UntracedShardSpansStayOffTheStore)
{
    // A shard worker of an untraced sweep still streams its spans (its
    // report to the coordinator), but with no trace id: the store must
    // see neither an X-Smt-Trace header nor a trace request.
    const sweep::NamedExperiment *smoke =
        sweep::findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    TempDir dir("untraced");
    sweep::StoreService service(dir.path() + "/store");
    const std::string access_path = dir.path() + "/access.jsonl";
    ASSERT_TRUE(service.setAccessLog(access_path));
    net::HttpServer server;
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1", 0,
                             [&service](const net::HttpRequest &req) {
                                 return service.handle(req);
                             },
                             &error))
        << error;

    const std::string spans_path = dir.path() + "/spans.jsonl";
    std::FILE *stream = std::fopen(spans_path.c_str(), "w");
    ASSERT_NE(stream, nullptr);
    {
        obs::TraceWriter spans(stream, "");
        sweep::RunnerOptions opts;
        opts.measure = tinyOptions();
        opts.cacheDir =
            "http://127.0.0.1:" + std::to_string(server.port());
        opts.trace = &spans;
        EXPECT_GT(dist::runShard(smoke->spec, opts, 0, 2).points, 0u);
    }
    std::fclose(stream);

    obs::TraceSet streamed;
    ASSERT_TRUE(streamed.addFile(spans_path, &error)) << error;
    EXPECT_FALSE(streamed.events.empty());
    for (const obs::TraceEvent &ev : streamed.events)
        EXPECT_EQ(ev.trace, "");

    EXPECT_FALSE(fs::exists(dir.path() + "/store/traces"));
    obs::TraceSet access;
    ASSERT_TRUE(access.addFile(access_path, &error)) << error;
    ASSERT_FALSE(access.access.empty());
    for (const obs::AccessRecord &rec : access.access) {
        EXPECT_NE(rec.route, "trace");
        EXPECT_EQ(rec.trace, "");
    }
}

} // namespace
} // namespace smt
