#include "obs/trace.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>

#include <unistd.h>


namespace smt::obs
{

std::string
newTraceId()
{
    // pid + wall-clock nanoseconds + a process-local counter: unique
    // across the hosts of one sweep without an RNG or /dev/urandom.
    static std::atomic<std::uint64_t> seq{0};
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    const std::uint64_t ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
    std::uint64_t h = 1469598103934665603ull; // FNV-1a over the parts.
    for (std::uint64_t part :
         {static_cast<std::uint64_t>(::getpid()), ns,
          seq.fetch_add(1, std::memory_order_relaxed)}) {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (part >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
nowUnixSeconds()
{
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::microseconds>(now)
               .count() /
           1e6;
}

double
monoSeconds()
{
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::microseconds>(now)
               .count() /
           1e6;
}

TraceWriter::TraceWriter(const std::string &path, std::string trace_id)
    : out_(path), trace_(std::move(trace_id))
{
    if (trace_.empty()) {
        const char *env = std::getenv(kTraceEnvVar);
        trace_ = (env != nullptr && *env != '\0') ? env : newTraceId();
    }
}

TraceWriter::TraceWriter(std::FILE *stream, std::string trace_id)
    : out_(stream), trace_(std::move(trace_id))
{
}

std::string
TraceWriter::emit(const std::string &event, sweep::Json fields)
{
    sweep::Json line = sweep::Json::object();
    line.set("ts", sweep::Json(nowUnixSeconds()));
    line.set("mono", sweep::Json(monoSeconds()));
    line.set("event", sweep::Json(event));
    line.set("trace", sweep::Json(trace_));
    if (fields.type() == sweep::Json::Type::Object)
        for (const auto &[key, value] : fields.items())
            line.set(key, value);

    std::string text = line.dump();
    out_.write(text);
    return text;
}

} // namespace smt::obs
