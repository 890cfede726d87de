/**
 * @file
 * The HTTP parser's golden corpora, shared by test_net_hostile (which
 * checks them at fixed chunkings) and test_fuzz (which mutates them).
 *
 * Each valid case pairs wire bytes with the messages they parse into.
 * The request expectations were recorded from the blocking pull parser
 * that read requests before the incremental parser replaced it; the
 * response expectations follow the same grammar with a status line.
 * Every hostile case must be Error at every chunking, with no message
 * taken before it.
 */

#ifndef SMT_TESTS_HTTP_CORPUS_HH
#define SMT_TESTS_HTTP_CORPUS_HH

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/http.hh"

namespace smt::corpus
{

using Fields = std::vector<std::pair<std::string, std::string>>;

template <class Message>
struct Golden
{
    std::string bytes;
    std::vector<Message> expect; ///< the messages, in wire order.
    std::string method = "GET"; ///< responses: the request's method.
};

inline net::HttpRequest
request(std::string method, std::string target, const Fields &headers,
        std::string body = "")
{
    net::HttpRequest req;
    req.method = std::move(method);
    req.target = std::move(target);
    for (const auto &[name, value] : headers)
        req.headers.add(name, value);
    req.body = std::move(body);
    return req;
}

inline net::HttpResponse
response(int status, std::string reason, const Fields &headers,
         std::string body = "")
{
    net::HttpResponse resp;
    resp.status = status;
    resp.reason = std::move(reason);
    for (const auto &[name, value] : headers)
        resp.headers.add(name, value);
    resp.body = std::move(body);
    return resp;
}

inline bool
sameMessage(const net::HttpRequest &a, const net::HttpRequest &b)
{
    return a.method == b.method && a.target == b.target
           && a.headers.items() == b.headers.items() && a.body == b.body;
}

inline bool
sameMessage(const net::HttpResponse &a, const net::HttpResponse &b)
{
    return a.status == b.status && a.reason == b.reason
           && a.headers.items() == b.headers.items() && a.body == b.body;
}

inline std::vector<Golden<net::HttpRequest>>
validRequests()
{
    std::vector<Golden<net::HttpRequest>> c;
    c.push_back({"GET /plain HTTP/1.1\r\nHost: x\r\n\r\n",
                 {request("GET", "/plain", {{"Host", "x"}})}});
    c.push_back({"GET / HTTP/1.0\r\n\r\n", {request("GET", "/", {})}});
    // Header whitespace trimming on both sides of the colon.
    c.push_back({"GET /ws HTTP/1.1\r\nX-Pad:   spaced out   \r\n"
                 "X-Tight:tight\r\n\r\n",
                 {request("GET", "/ws",
                          {{"X-Pad", "spaced out"}, {"X-Tight", "tight"}})}});
    // Bare-LF line endings are tolerated.
    c.push_back({"GET /barelf HTTP/1.1\nHost: x\n\n",
                 {request("GET", "/barelf", {{"Host", "x"}})}});
    // Content-Length framing, including a zero-length body.
    c.push_back({"PUT /cl HTTP/1.1\r\nContent-Length: 11\r\n\r\n"
                 "hello world",
                 {request("PUT", "/cl", {{"Content-Length", "11"}},
                          "hello world")}});
    c.push_back({"PUT /empty HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                 {request("PUT", "/empty", {{"Content-Length", "0"}})}});
    // Chunked framing: multiple chunks, a chunk extension, trailers.
    c.push_back({"POST /chunked HTTP/1.1\r\n"
                 "Transfer-Encoding: chunked\r\n\r\n"
                 "4\r\nwiki\r\n5;ext=1\r\npedia\r\n0\r\n"
                 "X-Trailer: t\r\n\r\n",
                 {request("POST", "/chunked",
                          {{"Transfer-Encoding", "chunked"}},
                          "wikipedia")}});
    c.push_back({"POST /chunked2 HTTP/1.1\r\n"
                 "transfer-encoding: chunked\r\n\r\n"
                 "0\r\n\r\n",
                 {request("POST", "/chunked2",
                          {{"transfer-encoding", "chunked"}})}});
    // A chunked body longer than the fuzzer's 64-byte body cap.
    c.push_back({"POST /chunked-long HTTP/1.1\r\n"
                 "Transfer-Encoding: chunked\r\n\r\n"
                 "40\r\n" + std::string(64, 'a') + "\r\n24\r\n"
                     + std::string(36, 'z') + "\r\n0\r\n\r\n",
                 {request("POST", "/chunked-long",
                          {{"Transfer-Encoding", "chunked"}},
                          std::string(64, 'a') + std::string(36, 'z'))}});
    // A body large enough to span many feed() chunks.
    c.push_back({"PUT /big HTTP/1.1\r\nContent-Length: 70000\r\n\r\n"
                     + std::string(70000, 'b'),
                 {request("PUT", "/big", {{"Content-Length", "70000"}},
                          std::string(70000, 'b'))}});
    return c;
}

inline std::vector<Golden<net::HttpResponse>>
validResponses()
{
    std::vector<Golden<net::HttpResponse>> c;
    c.push_back({"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-A: b\r\n\r\n"
                 "hello",
                 {response(200, "OK",
                           {{"Content-Length", "5"}, {"X-A", "b"}},
                           "hello")}});
    c.push_back({"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                 "4;name=v\r\nwiki\r\n5\r\npedia\r\n0\r\n"
                 "X-Trailer: t\r\n\r\n",
                 {response(200, "OK", {{"Transfer-Encoding", "chunked"}},
                           "wikipedia")}});
    // A chunked body longer than the fuzzer's 64-byte body cap.
    c.push_back({"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                 "40\r\n" + std::string(64, 'a') + "\r\n24\r\n"
                     + std::string(36, 'z') + "\r\n0\r\n\r\n",
                 {response(200, "OK", {{"Transfer-Encoding", "chunked"}},
                           std::string(64, 'a') + std::string(36, 'z'))}});
    c.push_back({"HTTP/1.0 404 Not Found\r\nContent-Length: 3\r\n\r\nnah",
                 {response(404, "Not Found", {{"Content-Length", "3"}},
                           "nah")}});
    c.push_back({"HTTP/1.1 201 Created\nContent-Length: 2\n\nok",
                 {response(201, "Created", {{"Content-Length", "2"}},
                           "ok")}});
    // No reason phrase; no framing headers means no body.
    c.push_back({"HTTP/1.1 200\r\n\r\n", {response(200, "", {})}});
    // A 204 and a 304 never carry a body, whatever their headers say.
    c.push_back({"HTTP/1.1 204 No Content\r\nContent-Length: 7\r\n\r\n",
                 {response(204, "No Content", {{"Content-Length", "7"}})}});
    c.push_back({"HTTP/1.1 304 Not Modified\r\nContent-Length: 7\r\n\r\n",
                 {response(304, "Not Modified",
                           {{"Content-Length", "7"}})}});
    // Nor does the reply to a HEAD: its Content-Length describes the
    // entity, and the next pipelined reply starts right after it.
    c.push_back({"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n"
                 "HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n\r\n",
                 {response(200, "OK", {{"Content-Length", "5"}}),
                  response(404, "Not Found", {{"Content-Length", "9"}})},
                 "HEAD"});
    // Two pipelined responses, differently framed.
    c.push_back({"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\none"
                 "HTTP/1.1 500 Internal Server Error\r\n"
                 "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                 "3\r\ntwo\r\n0\r\n\r\n",
                 {response(200, "OK", {{"Content-Length", "3"}}, "one"),
                  response(500, "Internal Server Error",
                           {{"Transfer-Encoding", "chunked"},
                            {"Connection", "close"}},
                           "two")}});
    return c;
}

/** Framing that could let a peer smuggle a second message past the
 *  first, shared by both directions behind their start lines. The
 *  pull parser accepted every one of these. */
inline std::vector<std::string>
ambiguousFraming()
{
    return {
        // Two lengths: the first framed an empty body, and the "body"
        // bytes parsed as the next message.
        "Content-Length: 0\r\nContent-Length: 5\r\n\r\nhello",
        "Content-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
        "Content-Length: +5\r\n\r\nhello",
        // Chunk sizes that strtoull read as 4.
        "Transfer-Encoding: chunked\r\n\r\n4zz\r\nwiki\r\n0\r\n\r\n",
        "Transfer-Encoding: chunked\r\n\r\n0x4\r\nwiki\r\n0\r\n\r\n",
        "Transfer-Encoding: chunked\r\n\r\n 4\r\nwiki\r\n0\r\n\r\n",
        // A coding list counted as unframed, so its chunks became the
        // next message.
        "Transfer-Encoding: gzip, chunked\r\n\r\n4\r\nwiki\r\n0\r\n\r\n",
        "Transfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n"
        "4\r\nwiki\r\n0\r\n\r\n",
        // Both framings at once (RFC 9112 section 6.3).
        "Transfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\n"
        "4\r\nwiki\r\n0\r\n\r\n",
        "Content-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n"
        "4\r\nwiki\r\n0\r\n\r\n",
    };
}

inline std::vector<std::string>
hostileRequests()
{
    std::vector<std::string> c;
    // Request-line abuse.
    c.push_back("\r\nGET / HTTP/1.1\r\n\r\n"); // empty first line.
    c.push_back("GARBAGE\r\n\r\n");            // one-word line.
    c.push_back("GET /missing-version\r\n\r\n");
    c.push_back("GET / FTP/1.0\r\n\r\n");
    c.push_back("GET / HTTP/2.0\r\n\r\n"); // not our major.
    c.push_back("GET  / HTTP/1.1\r\n\r\n"); // empty target.
    // Header abuse.
    c.push_back("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n");
    {
        std::string many = "GET /many HTTP/1.1\r\n";
        for (int i = 0; i < 600; ++i)
            many += "X-H" + std::to_string(i) + ": v\r\n";
        many += "\r\n";
        c.push_back(std::move(many));
    }
    // Content-Length abuse.
    c.push_back("PUT / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n");
    c.push_back("PUT / HTTP/1.1\r\nContent-Length: -5\r\n\r\n");
    c.push_back("PUT / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n");
    c.push_back("PUT / HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n");
    // Chunked abuse.
    c.push_back("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                "\r\nzz\r\ndata\r\n0\r\n\r\n");
    c.push_back("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                "\r\nffffffffffffffff\r\n");
    c.push_back("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                "\r\n4\r\nwikiXX0\r\n\r\n"); // data not CRLF-ended.
    for (const std::string &framing : ambiguousFraming())
        c.push_back("POST /smuggle HTTP/1.1\r\n" + framing);
    return c;
}

inline std::vector<std::string>
hostileResponses()
{
    std::vector<std::string> c;
    c.push_back("HTTP/2 200 OK\r\n\r\n");
    c.push_back("ICY 200 OK\r\n\r\n");
    c.push_back("200 OK\r\n\r\n");
    c.push_back("HTTP/1.1 99 Too Low\r\n\r\n");
    c.push_back("HTTP/1.1 600 Too High\r\n\r\n");
    c.push_back("HTTP/1.1 2000 Four Digits\r\n\r\n");
    c.push_back("HTTP/1.1\r\n\r\n");       // no status at all.
    c.push_back("HTTP/1.1 \r\n\r\n");      // an empty one.
    c.push_back("HTTP/1.1 OK\r\n\r\n");    // a reason without one.
    for (const std::string &framing : ambiguousFraming())
        c.push_back("HTTP/1.1 200 OK\r\n" + framing);
    return c;
}

template <class Message>
struct Parsed
{
    std::vector<Message> messages;
    typename net::MessageParser<Message>::Status status =
        net::MessageParser<Message>::Status::NeedMore;
    std::size_t buffered = 0;
};

/** A parser in the state a golden case starts from. */
template <class Message>
net::MessageParser<Message>
parserFor(const Golden<Message> &golden, std::size_t max_body)
{
    if constexpr (std::is_same_v<Message, net::HttpResponse>)
        return net::ResponseParser(golden.method, max_body);
    else
        return net::RequestParser(max_body);
}

/** Feed `bytes` cut at the ascending offsets `cuts`, taking every
 *  message as it completes. */
template <class Message>
Parsed<Message>
parseAll(net::MessageParser<Message> parser, const std::string &bytes,
         const std::vector<std::size_t> &cuts)
{
    Parsed<Message> out;
    std::size_t from = 0;
    for (std::size_t i = 0; i <= cuts.size(); ++i) {
        const std::size_t to = i < cuts.size() ? cuts[i] : bytes.size();
        parser.feed(bytes.data() + from, to - from);
        from = to;
        while (parser.status() == net::MessageParser<Message>::Status::Complete)
            out.messages.push_back(parser.take());
    }
    out.status = parser.status();
    out.buffered = parser.bufferedBytes();
    return out;
}

/** The cuts that feed `size` bytes `chunk` at a time. */
inline std::vector<std::size_t>
cutsEvery(std::size_t size, std::size_t chunk)
{
    std::vector<std::size_t> cuts;
    for (std::size_t at = chunk; at < size; at += chunk)
        cuts.push_back(at);
    return cuts;
}

} // namespace smt::corpus

#endif // SMT_TESTS_HTTP_CORPUS_HH
