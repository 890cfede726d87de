/**
 * @file
 * The coordinator's live view of a sweep, folded from its workers'
 * span streams.
 *
 * A shard worker reports nothing but its runner spans, streamed to
 * stdout (one JSON object per line, see obs/trace.hh). The
 * coordinator captures that stream and folds the `hit` and `stored`
 * spans against its ShardPlan: a digest of the shard's own plan
 * settles its points, a `hit` counts a cache hit, and a digest from
 * outside the plan was stolen from a dead shard. Totals come from the
 * plan, so the progress line knows the sweep's size before the first
 * report. A shard counts as done when its process exits 0.
 */

#ifndef SMT_DIST_PROGRESS_HH
#define SMT_DIST_PROGRESS_HH

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dist/shard.hh"

namespace smt::dist
{

/** Every shard's position, folded together. */
struct ProgressSummary
{
    std::size_t pointsDone = 0;
    std::size_t pointsTotal = 0;
    std::size_t cacheHits = 0;
    std::size_t stolen = 0;
    unsigned shardsFinished = 0;

    /** Remaining seconds extrapolated from `elapsed`; < 0 while no
     *  point has settled yet (no rate to extrapolate from). */
    double etaSeconds(double elapsed_seconds) const;
};

/** One-line human rendering ("12/16 points, 3 hits, 1/2 shards ..."). */
std::string renderProgressLine(const ProgressSummary &summary,
                               unsigned shard_count,
                               double elapsed_seconds);

/** One shard's position, as its spans report it. */
struct ShardProgress
{
    std::size_t points = 0;     ///< planned point count.
    std::size_t pointsDone = 0; ///< points of settled own digests.
    std::size_t cacheHits = 0;  ///< `hit` spans for own digests.
    std::set<std::string> settled; ///< own digests hit or stored.
    std::set<std::string> stolen;  ///< foreign digests it settled.
    bool finished = false;         ///< the process exited 0.
};

class ProgressFold
{
  public:
    using LineSink =
        std::function<void(unsigned shard, const std::string &line)>;

    /** `spans` receives every span line verbatim once folded (the
     *  coordinator's trace, when the sweep is traced); `other` every
     *  other complete line (forwarded to stderr). Either may be
     *  empty. */
    ProgressFold(const ShardPlan &plan, LineSink spans, LineSink other);

    ProgressFold(const ProgressFold &) = delete;
    ProgressFold &operator=(const ProgressFold &) = delete;

    /** Fold a chunk of shard `shard`'s captured output. Only complete
     *  lines count: a trailing partial line waits for the rest, and
     *  is ignored if the worker dies first. */
    void feed(unsigned shard, std::string_view bytes);

    /** The shard's process exited 0. */
    void finish(unsigned shard) { shards_.at(shard).finished = true; }

    const ShardProgress &shard(unsigned shard) const
    {
        return shards_.at(shard);
    }

    ProgressSummary summary() const;

  private:
    void foldLine(unsigned shard, const std::string &line);

    const ShardPlan &plan_;
    LineSink spans_;
    LineSink other_;
    std::vector<ShardProgress> shards_;
    std::vector<std::string> pending_; ///< per shard: a partial line.
    /** Grid points per digest: what settling the digest settles. */
    std::map<std::string, std::size_t> pointsOf_;
};

} // namespace smt::dist

#endif // SMT_DIST_PROGRESS_HH
