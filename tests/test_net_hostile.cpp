/**
 * @file
 * Torture tests for the event-loop server and its incremental request
 * parser: protocol abuse over live sockets (byte-at-a-time delivery,
 * arbitrary split points, pipelining, torn bodies, slow-loris drip),
 * the parser's golden corpora (tests/http_corpus.hh) in both
 * directions at every chunking, smtstore's and smtload's rejection of
 * malformed numeric flags, store clients facing a peer whose capability and
 * listing documents carry the wrong JSON types, and a concurrency soak
 * whose client-side ledger must balance the server's /v1/stats
 * counters exactly.
 *
 * The split from test_net.cpp is deliberate: that file pins the wire
 * protocol's *happy* behavior (and must pass unchanged across server
 * rewrites); this one pins how the server behaves when the peer is
 * broken, malicious, or merely very slow.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "http_corpus.hh"
#include "net/http.hh"
#include "net/http_client.hh"
#include "net/http_server.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "support.hh"
#include "sweep/digest.hh"
#include "sweep/json.hh"
#include "sweep/remote_store.hh"
#include "sweep/serialize.hh"
#include "sweep/store_service.hh"

namespace smt
{
namespace
{

net::HttpServer::Handler
echoHandler()
{
    return [](const net::HttpRequest &req) {
        net::HttpResponse resp;
        resp.headers.set("X-Method", req.method);
        resp.headers.set("X-Target", req.target);
        resp.body = req.body;
        return resp;
    };
}

/** The next response off a raw socket (not via HttpClient); nullopt
 *  when the peer closes first or sends something malformed. */
std::optional<net::HttpResponse>
nextResponse(net::Socket &sock, net::ResponseParser &parser)
{
    char buf[4096];
    while (parser.status() == net::ResponseParser::Status::NeedMore) {
        const long n = sock.recvSome(buf, sizeof buf);
        if (n <= 0)
            return std::nullopt;
        parser.feed(buf, static_cast<std::size_t>(n));
    }
    if (parser.status() != net::ResponseParser::Status::Complete)
        return std::nullopt;
    return parser.take();
}

// ---- The parser against its golden corpora ---------------------------------

/** The cuts for every chunking the corpora are checked at. */
std::vector<std::vector<std::size_t>>
chunkings(const std::string &bytes)
{
    std::vector<std::vector<std::size_t>> all;
    for (const std::size_t chunk : {1, 2, 3, 7, 13, 4096})
        all.push_back(corpus::cutsEvery(bytes.size(), chunk));
    all.push_back({}); // whole.
    return all;
}

template <class Message>
void
expectGoldensAtEveryChunking(
    const std::vector<corpus::Golden<Message>> &goldens)
{
    for (const corpus::Golden<Message> &golden : goldens) {
        for (const std::vector<std::size_t> &cuts : chunkings(golden.bytes)) {
            SCOPED_TRACE("pieces=" + std::to_string(cuts.size() + 1)
                         + " input:\n" + golden.bytes.substr(0, 120));
            const corpus::Parsed<Message> got = corpus::parseAll(
                corpus::parserFor(golden, net::kMaxBodyBytes),
                golden.bytes, cuts);
            ASSERT_EQ(got.messages.size(), golden.expect.size());
            for (std::size_t i = 0; i < got.messages.size(); ++i)
                EXPECT_TRUE(corpus::sameMessage(got.messages[i],
                                                golden.expect[i]))
                    << "message " << i;
            // Nothing buffered behind the last message.
            EXPECT_EQ(got.status,
                      net::MessageParser<Message>::Status::NeedMore);
            EXPECT_EQ(got.buffered, 0u);
        }
    }
}

template <class Message>
void
expectErrorAtEveryChunking(const std::vector<std::string> &hostile)
{
    for (const std::string &bytes : hostile) {
        for (const std::vector<std::size_t> &cuts : chunkings(bytes)) {
            const corpus::Parsed<Message> got = corpus::parseAll(
                net::MessageParser<Message>(), bytes, cuts);
            EXPECT_EQ(got.status, net::MessageParser<Message>::Status::Error)
                << "pieces=" << cuts.size() + 1 << " input:\n"
                << bytes.substr(0, 120);
            EXPECT_TRUE(got.messages.empty()) << bytes.substr(0, 120);
        }
    }
}

TEST(MessageParser, RequestGoldensParseAtEveryChunking)
{
    expectGoldensAtEveryChunking(corpus::validRequests());
}

TEST(MessageParser, ResponseGoldensParseAtEveryChunking)
{
    expectGoldensAtEveryChunking(corpus::validResponses());
}

TEST(MessageParser, HostileRequestsAreErrorAtEveryChunking)
{
    expectErrorAtEveryChunking<net::HttpRequest>(corpus::hostileRequests());
}

TEST(MessageParser, HostileResponsesAreErrorAtEveryChunking)
{
    expectErrorAtEveryChunking<net::HttpResponse>(
        corpus::hostileResponses());
}

TEST(RequestParser, TornPrefixesReadAsNeedMoreNotError)
{
    // The three-way status is the parser's reason to exist: a torn
    // stream is NeedMore (the peer may still finish), only genuinely
    // malformed bytes are Error.
    const std::string bytes =
        "PUT /torn HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789";
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        net::RequestParser parser;
        const net::RequestParser::Status st =
            parser.feed(bytes.data(), cut);
        EXPECT_EQ(st, net::RequestParser::Status::NeedMore)
            << "cut=" << cut;
    }
}

TEST(RequestParser, UnterminatedLineBeyondTheCapIsError)
{
    // 70KB of request line with no newline in sight: hostile, not
    // merely slow — and rejected without waiting for termination.
    const std::string blob = "GET /" + std::string(70 * 1024, 'a');
    EXPECT_EQ(corpus::parseAll(net::RequestParser(), blob,
                               corpus::cutsEvery(blob.size(), 4096))
                  .status,
              net::RequestParser::Status::Error);
}

TEST(RequestParser, TerminatedLineBeyondTheCapIsErrorFedWhole)
{
    // The cap does not depend on the chunking: the same line arriving
    // in one piece, newline included, is just as hostile.
    const std::string bytes =
        "GET /" + std::string(70 * 1024, 'a') + " HTTP/1.1\r\n\r\n";
    EXPECT_EQ(corpus::parseAll(net::RequestParser(), bytes, {}).status,
              net::RequestParser::Status::Error);
}

TEST(RequestParser, ErrorIsSticky)
{
    net::RequestParser parser;
    const std::string bad = "GARBAGE\r\n\r\n";
    ASSERT_EQ(parser.feed(bad.data(), bad.size()),
              net::RequestParser::Status::Error);
    const std::string good = "GET / HTTP/1.1\r\n\r\n";
    EXPECT_EQ(parser.feed(good.data(), good.size()),
              net::RequestParser::Status::Error);
}

TEST(RequestParser, PipelinedMessagesComeOutInOrder)
{
    net::HttpRequest one;
    one.method = "PUT";
    one.target = "/first";
    one.body = "alpha";
    net::HttpRequest two;
    two.target = "/second";
    const std::string bytes =
        net::serialize(one) + net::serialize(two);

    net::RequestParser parser;
    for (const char byte : bytes)
        parser.feed(&byte, 1);
    ASSERT_EQ(parser.status(), net::RequestParser::Status::Complete);
    net::HttpRequest got = parser.take();
    EXPECT_EQ(got.target, "/first");
    EXPECT_EQ(got.body, "alpha");
    // take() resumed on the buffered tail.
    ASSERT_EQ(parser.status(), net::RequestParser::Status::Complete);
    got = parser.take();
    EXPECT_EQ(got.target, "/second");
    EXPECT_EQ(parser.status(), net::RequestParser::Status::NeedMore);
}

// ---- Live-socket torture ---------------------------------------------------

class HostileServerTest : public ::testing::Test
{
  protected:
    void
    startServer(double idle_timeout = 30.0,
                net::HttpServer::Handler handler = echoHandler())
    {
        server_.setMetrics(&metrics_);
        server_.setIdleTimeout(idle_timeout);
        std::string error;
        ASSERT_TRUE(server_.start("127.0.0.1", 0, std::move(handler),
                                  &error))
            << error;
    }

    std::int64_t
    counter(const std::string &name)
    {
        return metrics_.counter(name).value();
    }

    obs::Registry metrics_;
    net::HttpServer server_;
};

TEST_F(HostileServerTest, ByteAtATimeRequestStillParses)
{
    startServer();
    net::Socket sock = net::connectTcp("127.0.0.1", server_.port());
    ASSERT_TRUE(sock.valid());
    const std::string bytes =
        "PUT /dribble HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
    for (const char byte : bytes)
        ASSERT_TRUE(sock.sendAll(&byte, 1));
    net::ResponseParser parser;
    const auto resp = nextResponse(sock, parser);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 200);
    EXPECT_EQ(resp->headers.get("X-Target"), "/dribble");
    EXPECT_EQ(resp->body, "hello");
}

TEST_F(HostileServerTest, ArbitrarySplitPointsDoNotConfuseTheServer)
{
    startServer();
    net::HttpRequest req;
    req.method = "POST";
    req.target = "/split";
    req.body = "0123456789abcdef0123456789abcdef";
    req.chunked = true; // chunked framing crosses splits too.
    const std::string bytes = net::serialize(req);

    // Cut the wire bytes at every single boundary, one fresh
    // connection per cut — headers, CRLFs, and chunk frames all get
    // split somewhere.
    for (std::size_t cut = 1; cut < bytes.size(); cut += 3) {
        net::Socket sock =
            net::connectTcp("127.0.0.1", server_.port());
        ASSERT_TRUE(sock.valid());
        ASSERT_TRUE(sock.sendAll(bytes.substr(0, cut)));
        ASSERT_TRUE(sock.sendAll(bytes.substr(cut)));
        net::ResponseParser parser;
        const auto resp = nextResponse(sock, parser);
        ASSERT_TRUE(resp.has_value()) << "cut=" << cut;
        EXPECT_EQ(resp->body, req.body) << "cut=" << cut;
    }
}

TEST_F(HostileServerTest, PipelinedRequestsAnswerInOrder)
{
    startServer();
    net::Socket sock = net::connectTcp("127.0.0.1", server_.port());
    ASSERT_TRUE(sock.valid());

    std::string wire;
    for (int i = 0; i < 3; ++i) {
        net::HttpRequest req;
        req.method = "PUT";
        req.target = "/pipelined/" + std::to_string(i);
        req.body = std::string(1 + i * 100, 'p');
        wire += net::serialize(req);
    }
    // One write carries all three; responses must come back complete,
    // in order, and correctly framed.
    ASSERT_TRUE(sock.sendAll(wire));
    net::ResponseParser parser;
    for (int i = 0; i < 3; ++i) {
        const auto resp = nextResponse(sock, parser);
        ASSERT_TRUE(resp.has_value()) << "response " << i;
        EXPECT_EQ(resp->headers.get("X-Target"),
                  "/pipelined/" + std::to_string(i));
        EXPECT_EQ(resp->body.size(), 1u + i * 100);
    }
}

TEST_F(HostileServerTest, TornMidBodyConnectionLeavesOthersServed)
{
    startServer();
    {
        net::Socket torn =
            net::connectTcp("127.0.0.1", server_.port());
        ASSERT_TRUE(torn.valid());
        ASSERT_TRUE(torn.sendAll(std::string(
            "PUT /torn HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-"
            "this-much")));
    } // dies mid-body.

    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.target = "/alive";
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->headers.get("X-Target"), "/alive");
}

TEST_F(HostileServerTest, SlowLorisIsReapedWithoutStallingOthers)
{
    startServer(/*idle_timeout=*/0.3);

    // The loris: drips one header byte at a time, never completing a
    // request. The idle deadline is armed when the connection starts
    // reading and is NOT extended by partial bytes, so this peer dies
    // at ~0.3s no matter how diligently it drips.
    std::atomic<bool> loris_cut{false};
    std::thread loris([&] {
        net::Socket sock =
            net::connectTcp("127.0.0.1", server_.port());
        if (!sock.valid())
            return;
        const std::string drip = "GET /never HTTP/1.1\r\nX-Slow: ";
        for (std::size_t i = 0; i < drip.size(); ++i) {
            if (!sock.sendAll(&drip[i], 1))
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(40));
        }
        // The server's close surfaces as EOF here (or a send error
        // above, depending on timing).
        char byte = 0;
        loris_cut.store(sock.recvSome(&byte, 1) <= 0);
    });

    // Meanwhile normal clients must sail through, each completing far
    // faster than the reap deadline.
    net::HttpClient client("127.0.0.1", server_.port());
    const auto t0 = std::chrono::steady_clock::now();
    int served = 0;
    while (std::chrono::steady_clock::now() - t0
           < std::chrono::milliseconds(1200)) {
        net::HttpRequest req;
        req.target = "/healthy";
        auto resp = client.request(req);
        ASSERT_TRUE(resp.has_value()) << client.lastError();
        EXPECT_EQ(resp->status, 200);
        ++served;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    loris.join();

    EXPECT_TRUE(loris_cut.load());
    EXPECT_GE(served, 10);
    EXPECT_GE(counter("net.idle_reaped"), 1);
}

TEST_F(HostileServerTest, DispatchedHandlersOutliveTheIdleDeadline)
{
    // A handler slower than the idle timeout must still answer: a
    // Dispatching connection is the handler's problem, not the
    // reaper's.
    startServer(/*idle_timeout=*/0.2,
                [](const net::HttpRequest &) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(600));
                    net::HttpResponse resp;
                    resp.body = "slow but done";
                    return resp;
                });
    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.target = "/slow";
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->body, "slow but done");
    EXPECT_EQ(counter("net.idle_reaped"), 0);
}

TEST_F(HostileServerTest, IdleKeepAliveConnectionsAreReaped)
{
    startServer(/*idle_timeout=*/0.2);
    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    ASSERT_TRUE(client.request(req).has_value());

    // Sit past the deadline; the server reaps the idle keep-alive
    // connection (the loop wakes exactly for it).
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_GE(counter("net.idle_reaped"), 1);

    // The client notices its cached connection is dead and retries
    // transparently — reaping is invisible to well-behaved callers.
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->status, 200);
}

TEST_F(HostileServerTest, ConnectionCapRejectsTheOverflowPeer)
{
    server_.setMaxConnections(2);
    startServer();

    // Two residents, each with a completed exchange so the server has
    // definitely registered them.
    net::HttpClient a("127.0.0.1", server_.port());
    net::HttpClient b("127.0.0.1", server_.port());
    net::HttpRequest req;
    ASSERT_TRUE(a.request(req).has_value());
    ASSERT_TRUE(b.request(req).has_value());

    // The third peer connects (the kernel completes the handshake)
    // but the server accepts-and-closes: no response, just EOF — or
    // RST when the peer's bytes raced ahead of the server's close.
    net::Socket third = net::connectTcp("127.0.0.1", server_.port());
    ASSERT_TRUE(third.valid());
    third.sendAll(std::string("GET / HTTP/1.1\r\n\r\n"));
    char byte = 0;
    EXPECT_LE(third.recvSome(&byte, 1), 0);
    EXPECT_GE(counter("net.connections.rejected"), 1);
}

TEST_F(HostileServerTest, ServesAtTheLongestIdleTimeout)
{
    // The deadline now + kMaxIdleTimeoutSeconds must still lie ahead
    // of now on steady_clock, or every connection would be reaped.
    startServer(net::kMaxIdleTimeoutSeconds);
    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.target = "/patient";
    for (int i = 0; i < 2; ++i) {
        auto resp = client.request(req);
        ASSERT_TRUE(resp.has_value()) << client.lastError();
        EXPECT_EQ(resp->headers.get("X-Target"), "/patient");
    }
    EXPECT_EQ(counter("net.idle_reaped"), 0);
}

#ifdef SMTSTORE_BINARY

/** smtstore's exit status for `args`; a server that starts anyway is
 *  killed after a few seconds (and reads as 137). */
int
smtstoreExit(const std::string &args)
{
    TempDir dir("cli");
    const std::string command = "timeout -s KILL 5 " SMTSTORE_BINARY
                                " --dir " + dir.path() + " " + args
                                + " > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SmtstoreCli, MalformedCountsExitTwoBeforeServing)
{
    // Each bad count rides with a small partner, so a parse that
    // regressed starts at most two threads before it is killed.
    for (const char *args :
         {"--port +80 --max-connections 2",
          "--port -1 --max-connections 2",
          "--port 65536 --max-connections 2",
          "--port 80x --max-connections 2",
          "--port 0 --dispatch-threads 1 --max-connections -1",
          "--port 0 --dispatch-threads 1 --max-connections +2",
          "--port 0 --dispatch-threads 1 --max-connections 0",
          "--port 0 --max-connections 2 --dispatch-threads -1",
          "--port 0 --max-connections 2 --dispatch-threads +1",
          "--port 0 --max-connections 2 --dispatch-threads 0",
          "--port 0 --max-connections 2 --dispatch-threads 3"})
        EXPECT_EQ(smtstoreExit(args), 2) << args;
}

TEST(SmtstoreCli, IdleTimeoutOutsideTheClockRangeExitsTwo)
{
    // Past ~9.2e9 s a steady_clock deadline overflows into the past
    // and reaps every connection; NaN would switch the deadline off.
    for (const char *value :
         {"1e10", "inf", "1e300", "nan", "-inf", "-1", "1e9x"})
        EXPECT_EQ(smtstoreExit(std::string("--port 0 --max-connections 2 "
                                           "--idle-timeout ")
                               + value),
                  2)
            << value;
}

// ---- Type-confused peers: clients degrade instead of aborting ---------------

/** A peer's /v1/ping and /v1/entries documents, each well-formed JSON
 *  with a field of the wrong type. */
struct ConfusedPeer
{
    const char *ping;
    const char *listing;
};

constexpr ConfusedPeer kConfusedPeers[] = {
    {R"({"encodings": "x-smt-lz", "stats": "yes"})",
     R"({"digests": {"a": 1}})"},
    {R"({"encodings": {"x-smt-lz": 1}, "stats": 1})", R"({"digests": 5})"},
    {R"({"encodings": ["x-smt-lz-v0", 7], "stats": null})",
     R"({"digests": [5, null]})"},
};

TEST(ConfusedPeer, StoreClientsAndPingDegradeInsteadOfAborting)
{
    for (const ConfusedPeer &peer : kConfusedPeers) {
        // A real store behind a stub that answers the two documents
        // itself and notes whether any entry was sent compressed.
        TempDir dir("confused");
        sweep::StoreService service(dir.path());
        std::atomic<bool> compressed_put{false};
        net::HttpServer server;
        std::string error;
        ASSERT_TRUE(server.start(
            "127.0.0.1", 0,
            [&](const net::HttpRequest &req) {
                net::HttpResponse resp;
                if (req.method == "GET" && req.target == "/v1/ping") {
                    resp.body = peer.ping;
                    return resp;
                }
                if (req.method == "GET" && req.target == "/v1/entries") {
                    resp.body = peer.listing;
                    return resp;
                }
                if (req.method == "PUT"
                    && !req.headers.get("Content-Encoding").empty())
                    compressed_put = true;
                return service.handle(req);
            },
            &error))
            << error;
        const std::string url =
            "http://127.0.0.1:" + std::to_string(server.port());
        net::Url parsed;
        ASSERT_TRUE(net::parseUrl(url, parsed));
        sweep::RemoteResultStore client(parsed);

        SimStats stats;
        stats.cycles = 4000;
        stats.committedInstructions = 6543;
        stats.fetchedInstructions = 7001;
        const SmtConfig cfg = presets::baseSmt(1);
        const MeasureOptions opts;
        const std::string digest = sweep::measurementDigest(cfg, opts);
        client.store(digest, cfg, opts, stats);
        EXPECT_FALSE(compressed_put) << peer.ping;
        const std::optional<SimStats> hit = client.lookup(digest);
        ASSERT_TRUE(hit.has_value()) << peer.ping;
        EXPECT_EQ(sweep::toJson(*hit).dump(), sweep::toJson(stats).dump());

        EXPECT_TRUE(client.storedDigests().empty()) << peer.listing;
        EXPECT_EQ(smtstoreExit("--ping " + url), 0) << peer.ping;
    }
}

#endif // SMTSTORE_BINARY

#ifdef SMTLOAD_BINARY

TEST(SmtloadCli, MalformedNumbersExitTwoBeforeAnyLoad)
{
    // Nothing listens on port 1: a value that slipped through reaches
    // the /v1/ping probe and exits 1 there, before any load starts.
    for (const char *args :
         {"--min-connections -1", "--min-connections 4097",
          "--keyspace +5", "--keyspace ' 5'", "--payload-bytes +5",
          "--mix get=+5", "--connections 4,+4", "--connections ' 4'"}) {
        const std::string command =
            std::string("timeout -s KILL 10 " SMTLOAD_BINARY
                        " --url http://127.0.0.1:1 --connections 1 ")
            + args + " > /dev/null 2>&1";
        const int status = std::system(command.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << args;
        EXPECT_EQ(WEXITSTATUS(status), 2) << args;
    }
}

#endif // SMTLOAD_BINARY

// ---- Concurrency soak: the ledger must balance -----------------------------

TEST(HostileSoak, ConcurrentMixedLoadBalancesTheStatsLedger)
{
    TempDir dir("soak");
    sweep::StoreService service(dir.path());
    net::HttpServer server;
    server.setMetrics(&service.metrics());
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1", 0,
                             [&](const net::HttpRequest &req) {
                                 return service.handle(req);
                             },
                             &error))
        << error;

    constexpr int kThreads = 16;
    constexpr int kOpsPerThread = 60;
    // 60 ops/thread = 15 claim ops (one in four); with 15 keys every
    // digest is contested by every thread.
    constexpr int kClaimKeys = 15;

    // Claim targets live in their own keyspace (no entries), so the
    // CAS on an empty marker decides exactly one winner per digest.
    std::vector<std::string> claim_digests;
    for (int i = 0; i < kClaimKeys; ++i)
        claim_digests.push_back(
            sweep::digestHex("soak-claim-" + std::to_string(i)));

    const auto stats_requests = [&](net::HttpClient &client)
        -> std::int64_t {
        net::HttpRequest req;
        req.target = "/v1/stats";
        auto resp = client.request(req);
        if (!resp || resp->status != 200)
            return -1;
        sweep::Json doc;
        if (!sweep::Json::parse(resp->body, doc))
            return -1;
        return doc.at("counters").at("net.requests").asInt();
    };

    net::HttpClient probe("127.0.0.1", server.port());
    const std::int64_t before = stats_requests(probe);
    ASSERT_GE(before, 0);

    std::atomic<std::uint64_t> total_ops{0};
    std::atomic<std::uint64_t> claim_wins{0};
    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            net::HttpClient client("127.0.0.1", server.port());
            sweep::Json marker = sweep::Json::object();
            marker.set("pid", sweep::Json(std::int64_t(t + 1)));
            marker.set("host", sweep::Json("soak"));

            for (int op = 0; op < kOpsPerThread; ++op) {
                const int kind = op % 4;
                const std::string digest = sweep::digestHex(
                    "soak-entry-" + std::to_string(op % 8));
                net::HttpRequest req;
                bool ok = false;
                if (kind == 0) {
                    // Digest-verified PUT.
                    sweep::Json entry = sweep::Json::object();
                    entry.set("digest", sweep::Json(digest));
                    sweep::Json stats = sweep::Json::object();
                    stats.set("t", sweep::Json(std::int64_t(t)));
                    entry.set("stats", std::move(stats));
                    req.method = "PUT";
                    req.target = "/v1/entries/" + digest;
                    req.body = entry.dump();
                    req.headers.set("X-Content-Digest",
                                    sweep::contentDigest(req.body));
                    auto resp = client.request(req);
                    ok = resp && resp->status == 204;
                } else if (kind == 1) {
                    req.target = "/v1/entries/" + digest;
                    auto resp = client.request(req);
                    // 404 races a writer legally; a 200 body must
                    // verify against its own declared digest field.
                    ok = resp
                         && (resp->status == 404
                             || (resp->status == 200
                                 && [&] {
                                        sweep::Json doc;
                                        return sweep::Json::parse(
                                                   resp->body, doc)
                                               && doc.at("digest")
                                                          .asString()
                                                      == digest;
                                    }()));
                } else if (kind == 2) {
                    req.method = "HEAD";
                    req.target = "/v1/entries/" + digest;
                    auto resp = client.request(req);
                    ok = resp
                         && (resp->status == 200
                             || resp->status == 404);
                } else {
                    // Claim CAS: every thread races for the same
                    // digest; exactly one 200 per digest total.
                    const std::string &target =
                        claim_digests[(op / 4) % kClaimKeys];
                    sweep::Json claim = sweep::Json::object();
                    claim.set("expect", sweep::Json(std::string()));
                    claim.set("marker",
                              sweep::Json::parseOrDie(marker.dump()));
                    req.method = "POST";
                    req.target = "/v1/claims/" + target;
                    req.body = claim.dump();
                    auto resp = client.request(req);
                    ok = resp
                         && (resp->status == 200
                             || resp->status == 409);
                    if (resp && resp->status == 200)
                        claim_wins.fetch_add(1);
                }
                total_ops.fetch_add(1);
                if (!ok)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const std::int64_t after = stats_requests(probe);
    ASSERT_GE(after, 0);
    server.stop();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(total_ops.load(),
              std::uint64_t(kThreads) * kOpsPerThread);
    // Exactly one winner per contested digest — no lost or duplicated
    // claims under 16-way contention.
    EXPECT_EQ(claim_wins.load(), std::uint64_t(kClaimKeys));
    // The ledger: the server saw precisely the client ops plus the
    // *before* stats probe (its counter lands inside the window; the
    // after-probe's lands outside, since counters record after the
    // handler returns). Any daylight here means requests were lost,
    // duplicated, or double-counted.
    EXPECT_EQ(after - before,
              std::int64_t(total_ops.load()) + 1);
}

} // namespace
} // namespace smt
