#include "net/http.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string_view>

#include "common/logging.hh"

namespace smt::net
{

namespace
{

bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i]))
            != std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** `text` as a whole number in `base`: one or more digits and nothing
 *  else (no sign, space, prefix or trailing bytes). */
bool
parseDigits(std::string_view text, int base, std::uint64_t &out)
{
    const char *const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
    return ec == std::errc() && ptr == end;
}

/** How many times `name` appears; `value` receives the last one. */
int
countHeader(const Headers &headers, std::string_view name,
            std::string &value)
{
    int count = 0;
    for (const auto &[n, v] : headers.items()) {
        if (iequals(n, name)) {
            ++count;
            value = v;
        }
    }
    return count;
}

/** "METHOD target HTTP/1.x" */
bool
parseStartLine(const std::string &line, HttpRequest &req)
{
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos)
        return false;
    req.method = line.substr(0, sp1);
    req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    return line.compare(sp2 + 1, 7, "HTTP/1.") == 0 && !req.target.empty();
}

/** "HTTP/1.x NNN[ reason]" with NNN in 100..599. */
bool
parseStartLine(const std::string &line, HttpResponse &resp)
{
    const std::size_t sp = line.find(' ');
    std::uint64_t status = 0;
    if (line.rfind("HTTP/1.", 0) != 0 || sp == std::string::npos
        || !parseDigits(std::string_view(line).substr(sp + 1, 3), 10,
                        status)
        || status < 100 || status > 599)
        return false;
    const std::size_t after = sp + 4;
    if (after < line.size() && line[after] != ' ')
        return false;
    resp.status = static_cast<int>(status);
    resp.reason = after < line.size() ? line.substr(after + 1) : "";
    return true;
}

void
appendChunked(std::string &out, const std::string &body)
{
    // Several moderate chunks rather than one, so peers exercise the
    // real multi-chunk path.
    constexpr std::size_t kChunk = 4096;
    char size_line[32];
    for (std::size_t off = 0; off < body.size(); off += kChunk) {
        const std::size_t n = std::min(kChunk, body.size() - off);
        std::snprintf(size_line, sizeof size_line, "%zx\r\n", n);
        out += size_line;
        out.append(body, off, n);
        out += "\r\n";
    }
    out += "0\r\n\r\n";
}

void
appendHeaders(std::string &out, const Headers &headers,
              std::size_t body_size, bool chunked)
{
    for (const auto &[name, value] : headers.items()) {
        // Framing is ours to emit consistently from the actual body;
        // caller-set framing headers are dropped, not trusted.
        if (iequals(name, "Content-Length")
            || iequals(name, "Transfer-Encoding"))
            continue;
        out += name;
        out += ": ";
        out += value;
        out += "\r\n";
    }
    if (chunked)
        out += "Transfer-Encoding: chunked\r\n";
    else
        out += "Content-Length: " + std::to_string(body_size) + "\r\n";
    out += "\r\n";
}

} // namespace

void
Headers::set(const std::string &name, const std::string &value)
{
    for (auto &[n, v] : items_) {
        if (iequals(n, name)) {
            v = value;
            return;
        }
    }
    items_.emplace_back(name, value);
}

void
Headers::add(const std::string &name, const std::string &value)
{
    items_.emplace_back(name, value);
}

bool
Headers::has(const std::string &name) const
{
    for (const auto &[n, v] : items_) {
        if (iequals(n, name))
            return true;
    }
    return false;
}

std::string
Headers::get(const std::string &name) const
{
    for (const auto &[n, v] : items_) {
        if (iequals(n, name))
            return v;
    }
    return "";
}

const char *
reasonPhrase(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 201:
        return "Created";
    case 204:
        return "No Content";
    case 400:
        return "Bad Request";
    case 401:
        return "Unauthorized";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 409:
        return "Conflict";
    case 411:
        return "Length Required";
    case 413:
        return "Payload Too Large";
    case 415:
        return "Unsupported Media Type";
    case 500:
        return "Internal Server Error";
    default:
        return "Unknown";
    }
}

bool
wantsClose(const Headers &headers)
{
    return iequals(headers.get("Connection"), "close");
}

std::string
serialize(const HttpRequest &req)
{
    std::string out = req.method + " " + req.target + " HTTP/1.1\r\n";
    appendHeaders(out, req.headers, req.body.size(), req.chunked);
    if (req.chunked)
        appendChunked(out, req.body);
    else
        out += req.body;
    return out;
}

std::string
serialize(const HttpResponse &resp)
{
    const std::string reason =
        resp.reason.empty() ? reasonPhrase(resp.status) : resp.reason;
    std::string out =
        "HTTP/1.1 " + std::to_string(resp.status) + " " + reason + "\r\n";
    appendHeaders(out, resp.headers, resp.body.size(), resp.chunked);
    if (resp.chunked)
        appendChunked(out, resp.body);
    else
        out += resp.body;
    return out;
}

// A line longer than this is hostile, not merely slow.
constexpr std::size_t kMaxLineBytes = 64 * 1024;
constexpr int kMaxHeaderLines = 512;

template <class Message>
bool
MessageParser<Message>::nextLine(std::string &line)
{
    const std::size_t nl = buf_.find('\n', pos_);
    const std::size_t run_end = nl == std::string::npos ? buf_.size() : nl;
    // The cap holds for terminated lines too, so the verdict does not
    // depend on how the bytes were chunked.
    if (run_end - pos_ > kMaxLineBytes) {
        status_ = Status::Error;
        return false;
    }
    if (nl == std::string::npos)
        return false;
    std::size_t end = nl;
    if (end > pos_ && buf_[end - 1] == '\r')
        --end;
    line.assign(buf_, pos_, end - pos_);
    pos_ = nl + 1;
    return true;
}

template <class Message>
bool
MessageParser<Message>::takeBodyBytes()
{
    const std::size_t take = std::min(buf_.size() - pos_, bodyRemaining_);
    msg_.body.append(buf_, pos_, take);
    pos_ += take;
    bodyRemaining_ -= take;
    return bodyRemaining_ == 0;
}

template <class Message>
void
MessageParser<Message>::enterBodyPhase()
{
    if constexpr (std::is_same_v<Message, HttpResponse>) {
        if (headResponse_ || msg_.status == 204 || msg_.status == 304) {
            status_ = Status::Complete;
            return;
        }
    }
    std::string te, cl;
    const int te_count = countHeader(msg_.headers, "Transfer-Encoding", te);
    const int cl_count = countHeader(msg_.headers, "Content-Length", cl);
    std::uint64_t len = 0;
    if (te_count > 0) {
        // Chunked is the only coding spoken here, and a length beside
        // it is the classic request-smuggling ambiguity.
        if (te_count > 1 || cl_count > 0 || !iequals(te, "chunked"))
            status_ = Status::Error;
        else
            state_ = State::ChunkSize;
    } else if (cl_count == 0) {
        status_ = Status::Complete; // unframed: no body.
    } else if (cl_count > 1 || !parseDigits(cl, 10, len) || len > maxBody_) {
        status_ = Status::Error;
    } else {
        bodyRemaining_ = static_cast<std::size_t>(len);
        state_ = State::FixedBody;
    }
}

template <class Message>
void
MessageParser<Message>::advance()
{
    std::string line;
    while (status_ == Status::NeedMore) {
        switch (state_) {
        case State::StartLine:
            if (!nextLine(line))
                return;
            if (!parseStartLine(line, msg_)) {
                status_ = Status::Error;
                return;
            }
            state_ = State::Headers;
            break;
        case State::Headers: {
            if (headerLines_ >= kMaxHeaderLines) {
                status_ = Status::Error; // absurd header count.
                return;
            }
            if (!nextLine(line))
                return;
            ++headerLines_;
            if (line.empty()) {
                enterBodyPhase();
                break;
            }
            const std::size_t colon = line.find(':');
            if (colon == std::string::npos) {
                status_ = Status::Error;
                return;
            }
            msg_.headers.add(trim(line.substr(0, colon)),
                             trim(line.substr(colon + 1)));
            break;
        }
        case State::FixedBody:
            if (!takeBodyBytes())
                return;
            status_ = Status::Complete;
            break;
        case State::ChunkSize: {
            if (!nextLine(line))
                return;
            // Hex digits, then an optional ";ext" that is ignored. The
            // cap check cannot overflow: body size <= maxBody_.
            std::uint64_t size = 0;
            if (!parseDigits(std::string_view(line).substr(
                                 0, line.find(';')),
                             16, size)
                || size > maxBody_ - msg_.body.size()) {
                status_ = Status::Error;
                return;
            }
            bodyRemaining_ = static_cast<std::size_t>(size);
            state_ = size == 0 ? State::Trailers : State::ChunkData;
            break;
        }
        case State::ChunkData:
            if (!takeBodyBytes())
                return;
            state_ = State::ChunkDataEnd;
            break;
        case State::ChunkDataEnd:
            if (!nextLine(line))
                return;
            if (!line.empty()) {
                status_ = Status::Error; // chunk data must end in CRLF.
                return;
            }
            state_ = State::ChunkSize;
            break;
        case State::Trailers:
            if (!nextLine(line))
                return;
            if (line.empty())
                status_ = Status::Complete;
            break;
        }
    }
}

template <class Message>
typename MessageParser<Message>::Status
MessageParser<Message>::feed(const char *data, std::size_t n)
{
    if (status_ == Status::Error)
        return status_;
    // Compact the consumed prefix before it can grow without bound
    // across a long keep-alive connection.
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    } else if (pos_ > kMaxLineBytes) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    buf_.append(data, n);
    if (status_ == Status::NeedMore)
        advance();
    return status_;
}

template <class Message>
Message
MessageParser<Message>::take()
{
    smt_assert(status_ == Status::Complete,
               "take() without a complete message");
    Message out = std::move(msg_);
    msg_ = Message();
    buf_.erase(0, pos_);
    pos_ = 0;
    state_ = State::StartLine;
    status_ = Status::NeedMore;
    bodyRemaining_ = 0;
    headerLines_ = 0;
    advance(); // pipelined bytes may already complete the next one.
    return out;
}

template class MessageParser<HttpRequest>;
template class MessageParser<HttpResponse>;

} // namespace smt::net
