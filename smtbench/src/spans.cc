#include "spans.hh"

#include <set>

#include "analysis.hh"
#include "obs/chrome_trace.hh"

namespace smtbench
{

using smt::sweep::Json;

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::uint64_t
SpanRecorder::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
}

std::uint32_t
SpanRecorder::laneOf(std::thread::id id)
{
    const auto it = lanes_.find(id);
    if (it != lanes_.end())
        return it->second;
    const auto lane = static_cast<std::uint32_t>(lanes_.size());
    lanes_.emplace(id, lane);
    return lane;
}

std::int64_t
SpanRecorder::add(std::string name, std::int64_t parent,
                  std::uint64_t start_ns, std::uint64_t end_ns,
                  std::string request_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.startNs = start_ns;
    s.endNs = end_ns < start_ns ? start_ns : end_ns;
    s.lane = laneOf(std::this_thread::get_id());
    s.requestId = std::move(request_id);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

std::int64_t
SpanRecorder::open(std::string name, std::int64_t parent,
                   std::string request_id)
{
    const std::uint64_t now = nowNs();
    return add(std::move(name), parent, now, now, std::move(request_id));
}

void
SpanRecorder::close(std::int64_t id)
{
    const std::uint64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].endNs = now;
}

void
SpanRecorder::setParent(std::int64_t id, std::int64_t parent)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].parent = parent;
}

std::uint64_t
SpanRecorder::durationNs(std::int64_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_[static_cast<std::size_t>(id)].durNs();
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, std::uint64_t>
SpanRecorder::selfTimeByName(std::int64_t root) const
{
    const std::vector<Span> all = spans();
    std::vector<SpanTimes> times(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        times[i] = {all[i].parent, all[i].startNs, all[i].endNs};
    const std::vector<std::uint64_t> self = selfTimesNs(times);

    // A child may be recorded before its parent (a server span is added
    // before the client call it belongs to closes), so walk down from
    // the root instead of relying on the order.
    std::vector<std::vector<std::size_t>> children(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].parent >= 0
            && static_cast<std::size_t>(all[i].parent) < all.size())
            children[static_cast<std::size_t>(all[i].parent)].push_back(i);
    }
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (root < 0 ? all[i].parent < 0
                     : i == static_cast<std::size_t>(root))
            todo.push_back(i);
    }
    std::map<std::string, std::uint64_t> by_name;
    while (!todo.empty()) {
        const std::size_t i = todo.back();
        todo.pop_back();
        by_name[all[i].name] += self[i];
        todo.insert(todo.end(), children[i].begin(), children[i].end());
    }
    return by_name;
}

Json
SpanRecorder::chromeTrace() const
{
    const std::vector<Span> all = spans();
    smt::obs::ChromeTraceBuilder builder;
    builder.processName(1, "smtbench");
    std::set<std::uint32_t> lanes;
    for (const Span &s : all)
        lanes.insert(s.lane);
    for (std::uint32_t lane : lanes)
        builder.threadName(1, lane, "thread " + std::to_string(lane));
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        Json args = Json::object();
        args.set("id", Json(static_cast<std::uint64_t>(i)));
        args.set("parent", Json(s.parent));
        if (!s.requestId.empty())
            args.set("request", Json(s.requestId));
        builder.complete(1, s.lane, s.name, "smtbench", s.startNs / 1e3,
                         s.durNs() / 1e3, std::move(args));
    }
    return builder.build();
}

} // namespace smtbench
