/**
 * @file
 * A minimal dependency-free JSON value, writer, and reader.
 *
 * Used by the sweep engine for result-cache entries and BENCH_*.json
 * artifacts. Deliberately small: the seven JSON value kinds (integers
 * kept exactly, separate from doubles, so 64-bit simulation counters
 * round-trip bit-identically), insertion-ordered objects (so a value
 * has exactly one serialization — the property the content digest
 * relies on), and a recursive-descent parser.
 */

#ifndef SMT_SWEEP_JSON_HH
#define SMT_SWEEP_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace smt::sweep
{

/** One JSON value (number, string, bool, null, array, or object). */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        UInt,   ///< non-negative integer, exact to 64 bits.
        Int,    ///< negative integer.
        Double, ///< any number written with '.', 'e', or 'E'.
        String,
        Array,
        Object,
    };

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(std::uint64_t v) : type_(Type::UInt), uint_(v) {}
    Json(std::uint32_t v) : Json(static_cast<std::uint64_t>(v)) {}
    Json(std::int64_t v);
    Json(std::int32_t v) : Json(static_cast<std::int64_t>(v)) {}
    Json(double v) : type_(Type::Double), double_(v) {}
    Json(const char *s) : type_(Type::String), string_(s) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}

    static Json array() { return Json(Type::Array); }
    static Json object() { return Json(Type::Object); }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isNumber() const
    {
        return type_ == Type::UInt || type_ == Type::Int
               || type_ == Type::Double;
    }

    bool asBool() const;
    /** The value as an exact non-negative integer (fatal otherwise). */
    std::uint64_t asUInt() const;
    std::int64_t asInt() const;
    double asDouble() const; ///< any number kind, widened.
    const std::string &asString() const;

    // ---- Arrays ---------------------------------------------------------
    void push(Json v);
    std::size_t size() const;
    const Json &operator[](std::size_t idx) const;

    // ---- Objects (insertion-ordered) ------------------------------------
    /** Set a key (replaces in place if present, else appends). */
    void set(std::string key, Json v);
    bool has(const std::string &key) const;
    /** Fetch a key; fatal if absent (cache files name their digest). */
    const Json &at(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &items() const;

    bool operator==(const Json &o) const;

    /**
     * Serialize. indent < 0 renders compact on one line (the canonical
     * form digests are computed over); indent >= 0 pretty-prints.
     */
    std::string dump(int indent = -1) const;

    /** Parse; returns false (out untouched) on malformed input. */
    static bool parse(const std::string &text, Json &out);

    /** Parse input that must be well-formed (fatal otherwise). */
    static Json parseOrDie(const std::string &text);

    /**
     * Write `dump(indent)` plus a newline to `path` atomically (temp
     * file + rename), so concurrent readers and same-content writers
     * never observe a torn file. False on any I/O failure (the temp
     * file is cleaned up; nothing is ever left half-written at
     * `path`).
     */
    bool writeFileAtomic(const std::string &path, int indent = 2) const;

    /** Slurp and parse a file; false (out untouched) when the file is
     *  unreadable or malformed. */
    static bool readFile(const std::string &path, Json &out);

  private:
    explicit Json(Type t) : type_(t) {}

    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    std::uint64_t uint_ = 0; ///< magnitude for UInt/Int.
    double double_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

} // namespace smt::sweep

#endif // SMT_SWEEP_JSON_HH
