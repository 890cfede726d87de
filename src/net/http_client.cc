#include "net/http_client.hh"

#include "sim/mix_runner.hh"

namespace smt::net
{

bool
isHttpUrl(const std::string &text)
{
    return text.rfind("http://", 0) == 0;
}

bool
parseUrl(const std::string &text, Url &out)
{
    if (!isHttpUrl(text))
        return false;
    std::string rest = text.substr(7);
    if (rest.empty())
        return false;

    Url url;
    const std::size_t slash = rest.find('/');
    std::string authority =
        slash == std::string::npos ? rest : rest.substr(0, slash);
    url.path = slash == std::string::npos ? "/" : rest.substr(slash);
    while (url.path.size() > 1 && url.path.back() == '/')
        url.path.pop_back();

    const std::size_t colon = authority.rfind(':');
    if (colon != std::string::npos) {
        const std::optional<std::uint64_t> port =
            parseWholeNumber(authority.substr(colon + 1).c_str());
        if (!port || *port == 0 || *port > 65535)
            return false;
        url.port = static_cast<std::uint16_t>(*port);
        authority = authority.substr(0, colon);
    }
    if (authority.empty())
        return false;
    url.host = authority;
    out = url;
    return true;
}

std::optional<HttpResponse>
HttpClient::tryOnce(const HttpRequest &req, bool fresh_connection)
{
    if (!conn_.valid()) {
        fresh_connection = true;
        conn_ = connectTcp(host_, port_, &error_);
        if (!conn_.valid())
            return std::nullopt;
    }

    HttpRequest outgoing = req;
    outgoing.headers.set("Host",
                         host_ + ":" + std::to_string(port_));
    if (!conn_.sendAll(serialize(outgoing))) {
        conn_.close();
        error_ = "send failed";
        if (!fresh_connection)
            return tryOnce(req, true); // stale keep-alive: retry once.
        return std::nullopt;
    }

    ResponseParser parser(req.method);
    char buf[16 * 1024];
    while (parser.status() == ResponseParser::Status::NeedMore) {
        const long n = conn_.recvSome(buf, sizeof buf);
        if (n <= 0)
            break;
        parser.feed(buf, static_cast<std::size_t>(n));
    }
    if (parser.status() != ResponseParser::Status::Complete) {
        conn_.close();
        error_ = "connection closed before a complete response";
        if (!fresh_connection)
            return tryOnce(req, true);
        return std::nullopt;
    }
    HttpResponse resp = parser.take();
    if (wantsClose(resp.headers))
        conn_.close();
    error_.clear();
    return resp;
}

std::optional<HttpResponse>
HttpClient::request(const HttpRequest &req)
{
    return tryOnce(req, !conn_.valid());
}

} // namespace smt::net
