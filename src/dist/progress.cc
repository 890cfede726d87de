#include "dist/progress.hh"

#include <cstdio>
#include <sstream>

#include "obs/trace_analysis.hh"
#include "sweep/json.hh"

namespace smt::dist
{

double
ProgressSummary::etaSeconds(double elapsed_seconds) const
{
    if (pointsDone == 0 || pointsTotal == 0)
        return -1.0;
    if (pointsDone >= pointsTotal)
        return 0.0;
    const double rate = static_cast<double>(pointsDone) / elapsed_seconds;
    if (rate <= 0.0)
        return -1.0;
    return static_cast<double>(pointsTotal - pointsDone) / rate;
}

std::string
renderProgressLine(const ProgressSummary &summary, unsigned shard_count,
                   double elapsed_seconds)
{
    std::ostringstream line;
    line << summary.pointsDone << "/" << summary.pointsTotal
         << " points, " << summary.cacheHits << " hits, ";
    if (summary.stolen > 0)
        line << summary.stolen << " stolen, ";
    line << summary.shardsFinished << "/" << shard_count
         << " shards done, ";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1fs elapsed", elapsed_seconds);
    line << buf;
    const double eta = summary.etaSeconds(elapsed_seconds);
    if (eta >= 0.0) {
        std::snprintf(buf, sizeof buf, ", eta %.1fs", eta);
        line << buf;
    }
    return line.str();
}

ProgressFold::ProgressFold(const ShardPlan &plan, LineSink spans,
                           LineSink other)
    : plan_(plan), spans_(std::move(spans)), other_(std::move(other)),
      shards_(plan.shardCount), pending_(plan.shardCount)
{
    for (unsigned s = 0; s < plan.shardCount; ++s)
        shards_[s].points = plan.members[s].size();
    for (const std::string &digest : plan.digests)
        ++pointsOf_[digest];
}

void
ProgressFold::feed(unsigned shard, std::string_view bytes)
{
    std::string &pending = pending_.at(shard);
    pending.append(bytes);
    std::size_t start = 0;
    for (std::size_t nl = pending.find('\n'); nl != std::string::npos;
         nl = pending.find('\n', start)) {
        if (nl > start)
            foldLine(shard, pending.substr(start, nl - start));
        start = nl + 1;
    }
    pending.erase(0, start);
}

void
ProgressFold::foldLine(unsigned shard, const std::string &line)
{
    sweep::Json span;
    if (!sweep::Json::parse(line, span)
        || span.type() != sweep::Json::Type::Object
        || obs::getString(span, "event").empty()) {
        if (other_)
            other_(shard, line);
        return;
    }
    const std::string event = obs::getString(span, "event");
    if (event == "hit" || event == "stored") {
        const std::string digest = obs::getString(span, "digest");
        ShardProgress &p = shards_[shard];
        const auto owner = plan_.shardOfDigest.find(digest);
        if (owner == plan_.shardOfDigest.end() || owner->second != shard) {
            p.stolen.insert(digest);
        } else {
            if (event == "hit")
                ++p.cacheHits;
            if (p.settled.insert(digest).second)
                p.pointsDone += pointsOf_.at(digest);
        }
    }
    if (spans_)
        spans_(shard, line);
}

ProgressSummary
ProgressFold::summary() const
{
    ProgressSummary sum;
    for (const ShardProgress &p : shards_) {
        sum.pointsDone += p.pointsDone;
        sum.pointsTotal += p.points;
        sum.cacheHits += p.cacheHits;
        sum.stolen += p.stolen.size();
        sum.shardsFinished += p.finished ? 1 : 0;
    }
    return sum;
}

} // namespace smt::dist
