#include "sweep/json.hh"

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace fs = std::filesystem;

namespace smt::sweep
{

Json::Json(std::int64_t v)
{
    if (v < 0) {
        type_ = Type::Int;
        uint_ = static_cast<std::uint64_t>(-(v + 1)) + 1;
    } else {
        type_ = Type::UInt;
        uint_ = static_cast<std::uint64_t>(v);
    }
}

bool
Json::asBool() const
{
    smt_assert(type_ == Type::Bool);
    return bool_;
}

std::uint64_t
Json::asUInt() const
{
    smt_assert(type_ == Type::UInt);
    return uint_;
}

std::int64_t
Json::asInt() const
{
    if (type_ == Type::UInt) {
        smt_assert(uint_ <= static_cast<std::uint64_t>(INT64_MAX));
        return static_cast<std::int64_t>(uint_);
    }
    smt_assert(type_ == Type::Int);
    smt_assert(uint_ <= static_cast<std::uint64_t>(INT64_MAX) + 1);
    return -static_cast<std::int64_t>(uint_ - 1) - 1;
}

double
Json::asDouble() const
{
    switch (type_) {
      case Type::UInt: return static_cast<double>(uint_);
      case Type::Int: return -static_cast<double>(uint_);
      case Type::Double: return double_;
      default: smt_panic("Json::asDouble on a non-number");
    }
}

const std::string &
Json::asString() const
{
    smt_assert(type_ == Type::String);
    return string_;
}

void
Json::push(Json v)
{
    smt_assert(type_ == Type::Array);
    array_.push_back(std::move(v));
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    smt_assert(type_ == Type::Object);
    return object_.size();
}

const Json &
Json::operator[](std::size_t idx) const
{
    smt_assert(type_ == Type::Array && idx < array_.size());
    return array_[idx];
}

void
Json::set(std::string key, Json v)
{
    smt_assert(type_ == Type::Object);
    for (auto &[k, old] : object_) {
        if (k == key) {
            old = std::move(v);
            return;
        }
    }
    object_.emplace_back(std::move(key), std::move(v));
}

bool
Json::has(const std::string &key) const
{
    smt_assert(type_ == Type::Object);
    for (const auto &[k, v] : object_)
        if (k == key)
            return true;
    return false;
}

const Json &
Json::at(const std::string &key) const
{
    smt_assert(type_ == Type::Object);
    for (const auto &[k, v] : object_)
        if (k == key)
            return v;
    smt_fatal("Json object has no key \"%s\"", key.c_str());
}

const std::vector<std::pair<std::string, Json>> &
Json::items() const
{
    smt_assert(type_ == Type::Object);
    return object_;
}

bool
Json::operator==(const Json &o) const
{
    if (type_ != o.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return bool_ == o.bool_;
      case Type::UInt:
      case Type::Int: return uint_ == o.uint_;
      case Type::Double: return double_ == o.double_;
      case Type::String: return string_ == o.string_;
      case Type::Array: return array_ == o.array_;
      case Type::Object: return object_ == o.object_;
    }
    return false;
}

namespace
{

void
dumpString(std::string &out, const std::string &s)
{
    out += '"';
    std::size_t run = 0; // start of the pending run of plain bytes.
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
          }
        }
    }
    out.append(s, run, s.size() - run);
    out += '"';
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    char buf[40];
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::UInt:
        out.append(buf, std::to_chars(buf, buf + sizeof buf, uint_).ptr);
        break;
      case Type::Int:
        out += '-';
        out.append(buf, std::to_chars(buf, buf + sizeof buf, uint_).ptr);
        break;
      case Type::Double:
        // Specified as printf's %.17g, which round-trips every finite
        // double exactly.
        out.append(buf, std::to_chars(buf, buf + sizeof buf, double_,
                                      std::chars_format::general, 17)
                            .ptr);
        break;
      case Type::String:
        dumpString(out, string_);
        break;
      case Type::Array: {
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out += ',';
            if (indent >= 0)
                newlineIndent(out, indent, depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Type::Object: {
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i)
                out += ',';
            if (indent >= 0)
                newlineIndent(out, indent, depth + 1);
            dumpString(out, object_[i].first);
            out += ':';
            if (indent >= 0)
                out += ' ';
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace
{

/** Recursive-descent parser over a borrowed string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parseDocument(Json &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    /** The six bytes isspace() accepts in the C locale. */
    static bool
    isSpace(char c)
    {
        return c == ' ' || (c >= '\t' && c <= '\r');
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() && isSpace(text_[pos_]))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(Json &out)
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case 'n': return literal("null") && (out = Json(), true);
          case 't': return literal("true") && (out = Json(true), true);
          case 'f': return literal("false") && (out = Json(false), true);
          case '"': return parseString(out);
          case '[': return parseArray(out);
          case '{': return parseObject(out);
          default: return parseNumber(out);
        }
    }

    bool
    parseString(Json &out)
    {
        std::string s;
        if (!parseRawString(s))
            return false;
        out = Json(std::move(s));
        return true;
    }

    bool
    parseRawString(std::string &s)
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            // Append the run up to the next quote or escape at once.
            const std::size_t run = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"'
                   && text_[pos_] != '\\')
                ++pos_;
            s.append(text_, run, pos_ - run);
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_++] == '"')
                return true;
            if (pos_ >= text_.size())
                return false;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return false;
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // Encode the code point as UTF-8 (surrogate pairs are
                // passed through as two 3-byte sequences; the digester
                // never emits them, this is read-side tolerance only).
                if (cp < 0x80) {
                    s += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    s += static_cast<char>(0xc0 | (cp >> 6));
                    s += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    s += static_cast<char>(0xe0 | (cp >> 12));
                    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    s += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default: return false;
            }
        }
        return false;
    }

    bool
    parseNumber(Json &out)
    {
        const std::size_t start = pos_;
        bool negative = false;
        bool floating = false;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            negative = true;
            ++pos_;
        }
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+'
                       || c == '-') {
                floating = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start + (negative ? 1u : 0u))
            return false;
        // The token is text_[start, pos_), read in place: strtod must
        // stop exactly at its end, and from_chars sees only digits.
        const char *const first = text_.data() + start;
        const char *const last = text_.data() + pos_;
        if (floating) {
            char *end = nullptr;
            errno = 0;
            const double v = std::strtod(first, &end);
            // Reject overflow ("1e999") rather than round-tripping an
            // inf that dump() could never re-emit as valid JSON.
            if (end != last || errno == ERANGE || !std::isfinite(v))
                return false;
            out = Json(v);
            return true;
        }
        std::uint64_t mag = 0;
        const std::from_chars_result res =
            std::from_chars(first + (negative ? 1 : 0), last, mag);
        // An integer beyond 64 bits is malformed, not clamped: exact
        // integer round-tripping is the type's contract.
        if (res.ptr != last || res.ec != std::errc())
            return false;
        if (!negative) {
            out = Json(mag);
        } else if (mag <= static_cast<std::uint64_t>(INT64_MAX)) {
            out = Json(-static_cast<std::int64_t>(mag));
        } else {
            return false;
        }
        return true;
    }

    bool
    parseArray(Json &out)
    {
        ++pos_; // '['
        Json arr = Json::array();
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            out = std::move(arr);
            return true;
        }
        while (true) {
            Json v;
            skipSpace();
            if (!parseValue(v))
                return false;
            arr.push(std::move(v));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                out = std::move(arr);
                return true;
            }
            return false;
        }
    }

    bool
    parseObject(Json &out)
    {
        ++pos_; // '{'
        Json obj = Json::object();
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            out = std::move(obj);
            return true;
        }
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return false;
            std::string key;
            if (!parseRawString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            Json v;
            skipSpace();
            if (!parseValue(v))
                return false;
            obj.set(std::move(key), std::move(v));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                out = std::move(obj);
                return true;
            }
            return false;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

bool
Json::parse(const std::string &text, Json &out)
{
    Json value;
    if (!Parser(text).parseDocument(value))
        return false;
    out = std::move(value);
    return true;
}

Json
Json::parseOrDie(const std::string &text)
{
    Json value;
    if (!parse(text, value))
        smt_fatal("malformed JSON input (%zu bytes)", text.size());
    return value;
}

bool
Json::readFile(const std::string &path, Json &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str(), out);
}

bool
Json::writeFileAtomic(const std::string &path, int indent) const
{
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp." << ::getpid();
    const std::string tmp = tmp_name.str();
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            smt_warn("cannot write %s", tmp.c_str());
            return false;
        }
        out << dump(indent) << '\n';
        if (!out.good()) {
            smt_warn("short write to %s", tmp.c_str());
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        smt_warn("cannot rename %s to %s: %s", tmp.c_str(), path.c_str(),
                 ec.message().c_str());
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace smt::sweep
