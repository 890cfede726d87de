/**
 * @file
 * smtload: measured load against a live smtstore server.
 *
 *   smtload --url URL [options]
 *       drive N concurrent synthetic workers (a GET/PUT/HEAD/claim/
 *       marker mix over a bounded keyspace) against URL for a fixed
 *       wall-clock window per concurrency level, recording client-side
 *       throughput and latency percentiles plus the server's own
 *       /v1/stats deltas as ground truth;
 *   smtload --self [options]
 *       same, against an in-process server on an ephemeral port — a
 *       self-contained benchmark needing no running daemon (CI's
 *       fallback, and the quickest local smoke).
 *
 * Results land as JSON (--json) in the same shape as BENCH_simspeed:
 * a schema tag, the host fingerprint, the options that produced the
 * numbers, and one record per concurrency level; latency percentiles
 * are nearest-rank, as smttrace and smtpipe report them. The exit
 * status is the gate (--require-zero-errors, --min-connections);
 * bench/BENCH_store.json records a full local run.
 *
 * Workers deliberately reuse keep-alive connections and speak the
 * exact production wire protocol (content-digest-verified PUTs, claim
 * CAS bodies) so the benchmark exercises the same code path a sweep
 * worker does, not a synthetic echo.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "net/http_client.hh"
#include "net/http_server.hh"
#include "obs/trace_analysis.hh"
#include "sim/mix_runner.hh"
#include "sim/simspeed.hh"
#include "sweep/digest.hh"
#include "sweep/json.hh"
#include "sweep/remote_store.hh"
#include "sweep/store_service.hh"

namespace
{

using namespace smt;

int
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: smtload --url URL [options]\n"
        "       smtload --self [options]\n"
        "\n"
        "options:\n"
        "  --url URL       target a running smtstore server\n"
        "  --self          serve an in-process store on an ephemeral\n"
        "                  port and load that (no daemon needed)\n"
        "  --dir DIR       store directory for --self\n"
        "                  (default .smtload-store)\n"
        "  --connections L comma-separated concurrency levels\n"
        "                  (default 4,16,64,256)\n"
        "  --seconds S     measurement window per level (default 2)\n"
        "  --keyspace N    distinct digests the workers touch\n"
        "                  (default 256)\n"
        "  --payload-bytes N\n"
        "                  approximate entry body size (default 2048)\n"
        "  --mix SPEC      op weights, e.g. get=55,put=20,head=15,\n"
        "                  claim=5,marker=5 (the default)\n"
        "  --token-file P  bearer token for an auth-protected server\n"
        "                  ($SMTSTORE_TOKEN also works)\n"
        "  --json PATH     write the result document to PATH\n"
        "  --require-zero-errors\n"
        "                  exit 1 if any level saw a failed request\n"
        "  --min-connections N\n"
        "                  exit 1 unless a level with >= N connections\n"
        "                  completed (the CI concurrency gate)\n"
        "  --help, -h      print this help\n");
    return code;
}

enum class Op { Get, Put, Head, Claim, Marker };

struct Mix
{
    // Cumulative weight table; pick by a roll in [0, total).
    unsigned get = 55, put = 20, head = 15, claim = 5, marker = 5;

    unsigned total() const { return get + put + head + claim + marker; }

    Op
    pick(std::uint64_t roll) const
    {
        unsigned r = static_cast<unsigned>(roll % total());
        if (r < get)
            return Op::Get;
        r -= get;
        if (r < put)
            return Op::Put;
        r -= put;
        if (r < head)
            return Op::Head;
        r -= head;
        if (r < claim)
            return Op::Claim;
        return Op::Marker;
    }
};

bool
parseMix(const std::string &spec, Mix &mix)
{
    Mix parsed{0, 0, 0, 0, 0};
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string item = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string name = item.substr(0, eq);
        const std::optional<std::uint64_t> w =
            parseWholeNumber(item.c_str() + eq + 1);
        if (!w || *w > 1000)
            return false;
        const unsigned weight = static_cast<unsigned>(*w);
        if (name == "get")
            parsed.get = weight;
        else if (name == "put")
            parsed.put = weight;
        else if (name == "head")
            parsed.head = weight;
        else if (name == "claim")
            parsed.claim = weight;
        else if (name == "marker")
            parsed.marker = weight;
        else
            return false;
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (parsed.total() == 0)
        return false;
    mix = parsed;
    return true;
}

/** The most connections one level may open. */
constexpr unsigned kMaxConnections = 4096;

bool
parseLevels(const std::string &spec, std::vector<unsigned> &levels)
{
    levels.clear();
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::optional<std::uint64_t> n = parseWholeNumber(
            spec.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos)
                .c_str());
        if (!n || *n == 0 || *n > kMaxConnections)
            return false;
        levels.push_back(static_cast<unsigned>(*n));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return !levels.empty();
}

/** The synthetic keyspace: digest i is stable across runs/workers. */
std::string
keyDigest(unsigned i)
{
    return sweep::digestHex("smtload-key-" + std::to_string(i));
}

/** A digest-valid entry body of roughly `payload` bytes. */
std::string
entryBody(const std::string &digest, std::size_t payload, Rng &rng)
{
    sweep::Json stats = sweep::Json::object();
    stats.set("cycles", sweep::Json(static_cast<std::int64_t>(
                            rng.next64() % 1000000)));
    std::string pad;
    pad.reserve(payload);
    while (pad.size() < payload)
        pad += "0123456789abcdef";
    pad.resize(payload);
    stats.set("pad", sweep::Json(pad));
    sweep::Json doc = sweep::Json::object();
    doc.set("digest", sweep::Json(digest));
    doc.set("stats", std::move(stats));
    return doc.dump();
}

struct WorkerResult
{
    std::uint64_t ops = 0;
    std::uint64_t errors = 0;
    std::vector<double> latencies_us;
};

struct LevelResult
{
    unsigned connections = 0;
    std::uint64_t ops = 0;
    std::uint64_t errors = 0;
    double seconds = 0;
    double p50 = 0, p90 = 0, p99 = 0, max = 0;
    std::int64_t server_requests_delta = -1;
};

/** One request with the token attached; nullopt on transport error. */
std::optional<net::HttpResponse>
exchange(net::HttpClient &client, const std::string &token,
         const std::string &method, const std::string &target,
         std::string body = "", const std::string &digest_header = "")
{
    net::HttpRequest req;
    req.method = method;
    req.target = target;
    if (!token.empty())
        req.headers.set("Authorization", "Bearer " + token);
    if (!digest_header.empty())
        req.headers.set("X-Content-Digest", digest_header);
    if (!body.empty()) {
        req.headers.set("Content-Type", "application/json");
        req.body = std::move(body);
    }
    return client.request(req);
}

void
worker(const net::Url &url, const std::string &token, const Mix &mix,
       unsigned keyspace, std::size_t payload,
       std::chrono::steady_clock::time_point stop_at,
       std::uint64_t seed, WorkerResult &out)
{
    net::HttpClient client(url.host, url.port);
    Rng rng(seed);
    sweep::Json marker = sweep::Json::object();
    marker.set("pid", sweep::Json(static_cast<std::int64_t>(seed)));
    marker.set("host", sweep::Json("smtload"));
    const std::string marker_text = marker.dump();

    while (std::chrono::steady_clock::now() < stop_at) {
        const std::string digest =
            keyDigest(static_cast<unsigned>(rng.next64() % keyspace));
        const Op op = mix.pick(rng.next64());
        const auto t0 = std::chrono::steady_clock::now();
        std::optional<net::HttpResponse> resp;
        bool ok = false;
        switch (op) {
        case Op::Get:
            resp = exchange(client, token, "GET",
                            "/v1/entries/" + digest);
            ok = resp && (resp->status == 200 || resp->status == 404);
            break;
        case Op::Head:
            resp = exchange(client, token, "HEAD",
                            "/v1/entries/" + digest);
            ok = resp && (resp->status == 200 || resp->status == 404);
            break;
        case Op::Put: {
            std::string body = entryBody(digest, payload, rng);
            const std::string content = sweep::contentDigest(body);
            resp = exchange(client, token, "PUT",
                            "/v1/entries/" + digest, std::move(body),
                            content);
            ok = resp && resp->status == 204;
            break;
        }
        case Op::Claim: {
            sweep::Json claim = sweep::Json::object();
            claim.set("expect", sweep::Json(std::string()));
            claim.set("marker", sweep::Json::parseOrDie(marker_text));
            resp = exchange(client, token, "POST",
                            "/v1/claims/" + digest, claim.dump());
            // Lost CAS races and already-done digests are correct
            // outcomes under contention, not errors.
            ok = resp && (resp->status == 200 || resp->status == 409);
            break;
        }
        case Op::Marker:
            resp = exchange(client, token, "PUT",
                            "/v1/markers/" + digest, marker_text);
            ok = resp && resp->status == 204;
            break;
        }
        const auto t1 = std::chrono::steady_clock::now();
        ++out.ops;
        if (!ok)
            ++out.errors;
        out.latencies_us.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1
                                                                 - t0)
                .count()
            / 1e3);
    }
}

/** The server's cumulative net.requests counter, -1 if unreadable. */
std::int64_t
serverRequests(const net::Url &url, const std::string &token)
{
    net::HttpClient client(url.host, url.port);
    const std::optional<net::HttpResponse> resp =
        exchange(client, token, "GET", "/v1/stats");
    if (!resp || resp->status != 200)
        return -1;
    sweep::Json doc;
    if (!sweep::Json::parse(resp->body, doc) || !doc.has("counters"))
        return -1;
    const sweep::Json &counters = doc.at("counters");
    if (!counters.has("net.requests"))
        return -1;
    return counters.at("net.requests").asInt();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace smt;

    std::string url_text;
    std::string dir = ".smtload-store";
    std::string token_file;
    std::string json_path;
    std::string levels_spec = "4,16,64,256";
    std::string mix_spec;
    bool self = false;
    bool require_zero_errors = false;
    unsigned min_connections = 0;
    double seconds = 2.0;
    unsigned keyspace = 256;
    unsigned long payload_bytes = 2048;
    Mix mix;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "smtload: %s needs a value\n", argv[i]);
            std::exit(usage(2));
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--url") == 0)
            url_text = next_arg(i);
        else if (std::strcmp(arg, "--self") == 0)
            self = true;
        else if (std::strcmp(arg, "--dir") == 0)
            dir = next_arg(i);
        else if (std::strcmp(arg, "--connections") == 0)
            levels_spec = next_arg(i);
        else if (std::strcmp(arg, "--seconds") == 0) {
            // A window shorter than a millisecond measures nothing.
            constexpr double min_window = 1e-3;
            const char *value = next_arg(i);
            const std::optional<double> s =
                parseSeconds(value, min_window, kMaxSeconds);
            if (!s) {
                std::fprintf(stderr,
                             "smtload: --seconds needs seconds in "
                             "%g..%g, got \"%s\"\n",
                             min_window, kMaxSeconds, value);
                return usage(2);
            }
            seconds = *s;
        }
        else if (std::strcmp(arg, "--keyspace") == 0) {
            const char *value = next_arg(i);
            const std::optional<std::uint64_t> n = parseWholeNumber(value);
            if (!n || *n == 0 || *n > 1000000) {
                std::fprintf(stderr,
                             "smtload: --keyspace needs 1..1000000, "
                             "got \"%s\"\n",
                             value);
                return usage(2);
            }
            keyspace = static_cast<unsigned>(*n);
        }
        else if (std::strcmp(arg, "--payload-bytes") == 0) {
            const char *value = next_arg(i);
            const std::optional<std::uint64_t> n = parseWholeNumber(value);
            if (!n || *n > 4 * 1024 * 1024) {
                std::fprintf(stderr,
                             "smtload: --payload-bytes needs 0..4MiB, "
                             "got \"%s\"\n",
                             value);
                return usage(2);
            }
            payload_bytes = static_cast<unsigned long>(*n);
        }
        else if (std::strcmp(arg, "--mix") == 0)
            mix_spec = next_arg(i);
        else if (std::strcmp(arg, "--token-file") == 0)
            token_file = next_arg(i);
        else if (std::strcmp(arg, "--json") == 0)
            json_path = next_arg(i);
        else if (std::strcmp(arg, "--require-zero-errors") == 0)
            require_zero_errors = true;
        else if (std::strcmp(arg, "--min-connections") == 0) {
            const char *value = next_arg(i);
            const std::optional<std::uint64_t> n = parseWholeNumber(value);
            if (!n || *n > kMaxConnections) {
                std::fprintf(stderr,
                             "smtload: --min-connections needs 0..%u, "
                             "got \"%s\"\n",
                             kMaxConnections, value);
                return usage(2);
            }
            min_connections = static_cast<unsigned>(*n);
        }
        else if (std::strcmp(arg, "--help") == 0
                 || std::strcmp(arg, "-h") == 0)
            return usage(0);
        else {
            std::fprintf(stderr, "smtload: unknown option %s\n", arg);
            return usage(2);
        }
    }

    if (!self && url_text.empty()) {
        std::fprintf(stderr, "smtload: need --url URL or --self\n");
        return usage(2);
    }
    if (self && !url_text.empty()) {
        std::fprintf(stderr, "smtload: --url and --self conflict\n");
        return usage(2);
    }
    if (!mix_spec.empty() && !parseMix(mix_spec, mix)) {
        std::fprintf(stderr, "smtload: malformed --mix \"%s\"\n",
                     mix_spec.c_str());
        return usage(2);
    }
    std::vector<unsigned> levels;
    if (!parseLevels(levels_spec, levels)) {
        std::fprintf(stderr, "smtload: malformed --connections \"%s\"\n",
                     levels_spec.c_str());
        return usage(2);
    }

    std::string token = sweep::resolveStoreToken("", token_file);

    // --self: an in-process server; the load then exercises exactly
    // the production stack (event loop, dispatch pool, StoreService)
    // minus the NIC.
    std::optional<sweep::StoreService> service;
    std::optional<net::HttpServer> server;
    if (self) {
        service.emplace(dir, false, token);
        server.emplace();
        server->setMetrics(&service->metrics());
        // Headroom above the largest requested level, so the bench
        // measures the loop, not the cap.
        const unsigned top =
            *std::max_element(levels.begin(), levels.end());
        server->setMaxConnections(top + 64);
        std::string error;
        if (!server->start("127.0.0.1", 0,
                           [&](const net::HttpRequest &req) {
                               return service->handle(req);
                           },
                           &error)) {
            std::fprintf(stderr, "smtload: %s\n", error.c_str());
            return 1;
        }
        url_text = "http://127.0.0.1:" + std::to_string(server->port());
    }

    net::Url url;
    if (!net::parseUrl(url_text, url)) {
        std::fprintf(stderr, "smtload: malformed URL \"%s\"\n",
                     url_text.c_str());
        return 2;
    }

    // A reachability probe before burning the measurement window.
    {
        net::HttpClient probe(url.host, url.port);
        const std::optional<net::HttpResponse> resp =
            exchange(probe, token, "GET", "/v1/ping");
        if (!resp || resp->status != 200) {
            std::fprintf(stderr,
                         "smtload: %s is not answering /v1/ping (%s)\n",
                         url_text.c_str(),
                         resp ? ("status "
                                 + std::to_string(resp->status))
                                   .c_str()
                              : probe.lastError().c_str());
            return 1;
        }
    }

    std::vector<LevelResult> results;
    for (const unsigned conns : levels) {
        const std::int64_t before = serverRequests(url, token);
        std::vector<WorkerResult> partial(conns);
        std::vector<std::thread> threads;
        threads.reserve(conns);
        const auto t0 = std::chrono::steady_clock::now();
        const auto stop_at =
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds));
        for (unsigned w = 0; w < conns; ++w)
            threads.emplace_back([&, w] {
                worker(url, token, mix, keyspace, payload_bytes,
                       stop_at, (static_cast<std::uint64_t>(conns) << 32)
                                    | w,
                       partial[w]);
            });
        for (std::thread &t : threads)
            t.join();
        const auto t1 = std::chrono::steady_clock::now();
        const std::int64_t after = serverRequests(url, token);

        LevelResult level;
        level.connections = conns;
        level.seconds =
            std::chrono::duration_cast<std::chrono::microseconds>(t1
                                                                  - t0)
                .count()
            / 1e6;
        std::vector<double> all;
        for (WorkerResult &w : partial) {
            level.ops += w.ops;
            level.errors += w.errors;
            all.insert(all.end(), w.latencies_us.begin(),
                       w.latencies_us.end());
        }
        std::sort(all.begin(), all.end());
        level.p50 = obs::percentile(all, 50.0);
        level.p90 = obs::percentile(all, 90.0);
        level.p99 = obs::percentile(all, 99.0);
        level.max = all.empty() ? 0 : all.back();
        if (before >= 0 && after >= 0)
            level.server_requests_delta = after - before;
        results.push_back(level);

        std::printf("smtload: %4u conns  %8llu ops  %6.0f ops/s  "
                    "p50 %.0fus  p99 %.0fus  max %.0fus  errors %llu\n",
                    conns,
                    static_cast<unsigned long long>(level.ops),
                    level.ops / level.seconds, level.p50, level.p99,
                    level.max,
                    static_cast<unsigned long long>(level.errors));
        std::fflush(stdout);
    }

    if (server.has_value())
        server->stop();

    if (!json_path.empty()) {
        sweep::Json host = sweep::Json::object();
        host.set("fingerprint",
                 sweep::Json(simspeed::hostFingerprint()));
        host.set("hardware_threads",
                 sweep::Json(static_cast<std::int64_t>(
                     std::thread::hardware_concurrency())));
        sweep::Json options = sweep::Json::object();
        options.set("seconds", sweep::Json(seconds));
        options.set("keyspace",
                    sweep::Json(static_cast<std::int64_t>(keyspace)));
        options.set("payload_bytes",
                    sweep::Json(
                        static_cast<std::int64_t>(payload_bytes)));
        sweep::Json mix_doc = sweep::Json::object();
        mix_doc.set("get", sweep::Json(static_cast<std::int64_t>(
                               mix.get)));
        mix_doc.set("put", sweep::Json(static_cast<std::int64_t>(
                               mix.put)));
        mix_doc.set("head", sweep::Json(static_cast<std::int64_t>(
                                mix.head)));
        mix_doc.set("claim", sweep::Json(static_cast<std::int64_t>(
                                 mix.claim)));
        mix_doc.set("marker", sweep::Json(static_cast<std::int64_t>(
                                  mix.marker)));
        options.set("mix", std::move(mix_doc));
        options.set("self", sweep::Json(self));

        sweep::Json level_list = sweep::Json::array();
        for (const LevelResult &level : results) {
            sweep::Json rec = sweep::Json::object();
            rec.set("connections",
                    sweep::Json(static_cast<std::int64_t>(
                        level.connections)));
            rec.set("ops", sweep::Json(static_cast<std::int64_t>(
                               level.ops)));
            rec.set("errors", sweep::Json(static_cast<std::int64_t>(
                                  level.errors)));
            rec.set("seconds", sweep::Json(level.seconds));
            rec.set("ops_per_sec",
                    sweep::Json(level.ops / level.seconds));
            sweep::Json lat = sweep::Json::object();
            lat.set("p50_us", sweep::Json(level.p50));
            lat.set("p90_us", sweep::Json(level.p90));
            lat.set("p99_us", sweep::Json(level.p99));
            lat.set("max_us", sweep::Json(level.max));
            rec.set("latency_us", std::move(lat));
            rec.set("server_requests_delta",
                    sweep::Json(level.server_requests_delta));
            level_list.push(std::move(rec));
        }

        sweep::Json doc = sweep::Json::object();
        doc.set("schema", sweep::Json("smt-storeload-v1"));
        doc.set("host", std::move(host));
        doc.set("options", std::move(options));
        doc.set("levels", std::move(level_list));
        if (!doc.writeFileAtomic(json_path, 2)) {
            std::fprintf(stderr, "smtload: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("smtload: wrote %s\n", json_path.c_str());
    }

    std::uint64_t total_errors = 0;
    unsigned top_level = 0;
    for (const LevelResult &level : results) {
        total_errors += level.errors;
        top_level = std::max(top_level, level.connections);
    }
    if (require_zero_errors && total_errors != 0) {
        std::fprintf(stderr,
                     "smtload: %llu errors with --require-zero-errors\n",
                     static_cast<unsigned long long>(total_errors));
        return 1;
    }
    if (min_connections != 0 && top_level < min_connections) {
        std::fprintf(stderr,
                     "smtload: highest level %u is below "
                     "--min-connections %u\n",
                     top_level, min_connections);
        return 1;
    }
    return 0;
}
