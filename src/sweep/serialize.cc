#include "sweep/serialize.hh"

#include <type_traits>

#include "common/histogram.hh"

namespace smt::sweep
{

namespace
{

/** The JSON form of one field value. A record becomes an object built
 *  from its field list; a per-thread array keeps its first `threads`
 *  slots. */
template <class T>
Json
encode(const T &v, unsigned threads)
{
    if constexpr (std::is_same_v<T, PerThreadCounts>) {
        Json arr = Json::array();
        for (unsigned t = 0; t < threads; ++t)
            arr.push(Json(v[t]));
        return arr;
    } else if constexpr (std::is_same_v<T, Histogram>) {
        Json j = Json::object();
        Json counts = Json::array();
        for (std::size_t b = 0; b < v.buckets(); ++b)
            counts.push(Json(v.bucket(b)));
        j.set("counts", std::move(counts));
        j.set("sum", Json(v.sum()));
        j.set("samples", Json(v.samples()));
        return j;
    } else if constexpr (std::is_same_v<T, SpeculationMode>) {
        return Json(toString(v));
    } else if constexpr (std::is_arithmetic_v<T>
                         || std::is_same_v<T, std::string>) {
        return Json(v);
    } else {
        Json j = Json::object();
        T::fields([&](const char *key, const auto &field) {
            j.set(key, encode(field, threads));
        }, v);
        return j;
    }
}

template <class T> bool decode(const Json &j, T &out);

/** Decode `obj[key]`; false when `obj` is not an object or lacks the
 *  key. */
template <class T>
bool
decodeKey(const Json &obj, const char *key, T &out)
{
    return obj.type() == Json::Type::Object && obj.has(key)
           && decode(obj.at(key), out);
}

// Decoding must degrade, never abort: a malformed or stale cache entry
// (e.g. written before a stats field was added) has to read as a
// cache miss, not kill the sweep. Every field is required.
template <class T>
bool
decode(const Json &j, T &out)
{
    if constexpr (std::is_same_v<T, std::uint64_t>) {
        if (j.type() != Json::Type::UInt)
            return false;
        out = j.asUInt();
        return true;
    } else if constexpr (std::is_same_v<T, PerThreadCounts>) {
        if (j.type() != Json::Type::Array || j.size() != out.size())
            return false;
        for (std::size_t t = 0; t < out.size(); ++t)
            if (!decode(j[t], out[t]))
                return false;
        return true;
    } else if constexpr (std::is_same_v<T, Histogram>) {
        std::uint64_t sum = 0;
        std::uint64_t samples = 0;
        if (!decodeKey(j, "sum", sum) || !decodeKey(j, "samples", samples)
            || !j.has("counts"))
            return false;
        const Json &counts = j.at("counts");
        if (counts.type() != Json::Type::Array || counts.size() == 0)
            return false;
        std::vector<std::uint64_t> buckets(counts.size());
        for (std::size_t b = 0; b < counts.size(); ++b)
            if (!decode(counts[b], buckets[b]))
                return false;
        out.restore(std::move(buckets), sum, samples);
        return true;
    } else {
        bool ok = true;
        T::fields([&](const char *key, auto &field) {
            ok = ok && decodeKey(j, key, field);
        }, out);
        return ok;
    }
}

} // namespace

Json
toJson(const SmtConfig &cfg)
{
    return encode(cfg, kMaxThreads);
}

Json
toJson(const MeasureOptions &opts)
{
    return encode(opts, kMaxThreads);
}

Json
toJson(const SimStats &stats)
{
    return encode(stats, kMaxThreads);
}

Json
toJson(const StallStats &stalls, unsigned threads)
{
    return encode(stalls, threads);
}

bool
simStatsFromJson(const Json &j, SimStats &out)
{
    SimStats stats;
    if (!decode(j, stats))
        return false;
    out = std::move(stats);
    return true;
}

} // namespace smt::sweep
