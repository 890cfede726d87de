/**
 * @file
 * HTTP/1.1 messages: one incremental parser for both directions, and
 * serialization.
 *
 * Deliberately the useful subset and nothing more: request line +
 * status line, case-insensitive headers, bodies framed by
 * Content-Length or chunked transfer encoding (both directions), and
 * HTTP/1.1 keep-alive semantics (persistent unless either side says
 * `Connection: close`). No TLS, no compression, no HTTP/2 — the sweep
 * store speaks digest-verified JSON over loopback or a trusted LAN,
 * where this is exactly enough.
 *
 * Reading is tolerant of torn peers (a connection dropped mid-message
 * reads as failure, never a crash or a half-parsed message); writing
 * always emits one complete, correctly framed message.
 */

#ifndef SMT_NET_HTTP_HH
#define SMT_NET_HTTP_HH

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace smt::net
{

/** Ordered header list with case-insensitive lookup. */
class Headers
{
  public:
    void set(const std::string &name, const std::string &value);
    void add(const std::string &name, const std::string &value);
    bool has(const std::string &name) const;
    /** First value of `name`, or "" when absent. */
    std::string get(const std::string &name) const;

    const std::vector<std::pair<std::string, std::string>> &
    items() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, std::string>> items_;
};

struct HttpRequest
{
    std::string method = "GET";
    std::string target = "/";
    Headers headers;
    std::string body;

    /** Send the body chunked instead of Content-Length framed. */
    bool chunked = false;
};

struct HttpResponse
{
    int status = 200;
    std::string reason; ///< filled from `status` when empty.
    Headers headers;
    std::string body;
    bool chunked = false;

    bool ok() const { return status >= 200 && status < 300; }
};

/** The largest message body either side accepts, declared or
 *  chunked. The store layer's decompression caps reuse this, so a
 *  body cannot be acceptable to one layer and oversized for
 *  another. */
inline constexpr std::size_t kMaxBodyBytes = 256 * 1024 * 1024;

/** The standard reason phrase for a status code ("OK", "Not Found"). */
const char *reasonPhrase(int status);

/** True when this message's `Connection` header asks to drop the
 *  connection after the exchange (HTTP/1.1 defaults to keep-alive). */
bool wantsClose(const Headers &headers);

/** Serialize a complete message (adds Content-Length or chunked
 *  framing; never mutates the input). */
std::string serialize(const HttpRequest &req);
std::string serialize(const HttpResponse &resp);

/**
 * Incremental HTTP/1.1 message parser — the only HTTP grammar here.
 * The event-loop server reads requests with it (RequestParser) and
 * HttpClient reads responses with it (ResponseParser); the start line
 * is the only part that differs between the two.
 *
 * feed() bytes exactly as they arrive off a socket, in any chunking;
 * the parser reports three-way status: a complete message,
 * need-more-bytes, or malformed. A torn stream is NeedMore (the peer
 * may still finish); only bytes no continuation can repair are Error.
 *
 * Framing (RFC 9112 section 6) admits no ambiguity a peer could
 * smuggle a second message through: `Transfer-Encoding` must be
 * exactly `chunked`, `Content-Length` must appear once and be all
 * digits, the two never appear together, and a chunk size is hex
 * digits optionally followed by `;ext`. A message with neither header
 * has no body — a response is never delimited by connection close.
 * Bodies above `max_body` bytes, lines above 64 KiB and header blocks
 * above 512 lines are Error as well.
 *
 * Pipelining: bytes past one complete message stay buffered; take()
 * hands the message out and immediately resumes on the leftover, so
 * status() afterwards already describes the next one.
 */
template <class Message>
class MessageParser
{
  public:
    enum class Status { NeedMore, Complete, Error };

    explicit MessageParser(std::size_t max_body = kMaxBodyBytes)
        : maxBody_(max_body)
    {
    }

    /** A parser for the responses to a request made with
     *  `request_method`: the reply to a HEAD has no body, whatever its
     *  framing headers say (as do a 204 and a 304). */
    explicit MessageParser(const std::string &request_method,
                           std::size_t max_body = kMaxBodyBytes)
        requires std::is_same_v<Message, HttpResponse>
        : maxBody_(max_body), headResponse_(request_method == "HEAD")
    {
    }

    /** Append bytes and advance the machine. Error is sticky; bytes
     *  fed after Complete buffer for the next message. */
    Status feed(const char *data, std::size_t n);

    Status status() const { return status_; }

    /** Bytes buffered beyond what parsed messages consumed. */
    std::size_t bufferedBytes() const { return buf_.size() - pos_; }

    /** Move out the parsed message (status() must be Complete) and
     *  resume parsing any pipelined bytes already buffered. */
    Message take();

  private:
    enum class State {
        StartLine,
        Headers,
        FixedBody,
        ChunkSize,
        ChunkData,
        ChunkDataEnd,
        Trailers,
    };

    /** Extract one terminated line; false = need more bytes (or the
     *  line blew the line cap, which sets Error). */
    bool nextLine(std::string &line);
    void advance();
    void enterBodyPhase();
    /** Move buffered bytes into the body, up to bodyRemaining_; true
     *  once none remain. */
    bool takeBodyBytes();

    std::size_t maxBody_;
    bool headResponse_ = false;
    Status status_ = Status::NeedMore;
    State state_ = State::StartLine;
    std::string buf_;
    std::size_t pos_ = 0;
    Message msg_;
    std::size_t bodyRemaining_ = 0;
    int headerLines_ = 0;
};

extern template class MessageParser<HttpRequest>;
extern template class MessageParser<HttpResponse>;

/** The event-loop server's front end. */
using RequestParser = MessageParser<HttpRequest>;
/** HttpClient's reader; one per exchange. */
using ResponseParser = MessageParser<HttpResponse>;

} // namespace smt::net

#endif // SMT_NET_HTTP_HH
