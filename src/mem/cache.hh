/**
 * @file
 * BankedCache: one level of the Table 2 hierarchy.
 *
 * The cache is interleaved into single-ported banks (the Sohi & Franklin
 * organisation the paper cites); it is lockup-free via an MSHR table that
 * merges requests to an outstanding line. Timing is computed
 * synchronously: an access returns the cycle its data will be available,
 * with queueing delays modelled by per-bank and per-port busy-until
 * clocks.
 *
 * Core-facing caches (L1 I/D) *reject* an access that loses a bank or
 * port conflict (the core retries, or in the paper's design squashes
 * optimistically issued dependents); lower levels instead queue the
 * access behind the conflict, adding latency.
 */

#ifndef SMT_MEM_CACHE_HH
#define SMT_MEM_CACHE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "config/config.hh"
#include "stats/stats.hh"

namespace smt
{

/** One level of a cache hierarchy. */
class BankedCache
{
  public:
    /** Outcome of a timed access. */
    struct Result
    {
        bool hit = false;      ///< hit at *this* level.
        bool conflict = false; ///< rejected (core-facing caches only).
        Cycle ready = 0;       ///< cycle the data is available here.
    };

    /**
     * @param next the next level, or nullptr when misses go to memory.
     * @param mem_latency / mem_occupancy used when next == nullptr.
     * @param reject_on_conflict core-facing behaviour (see file header).
     */
    BankedCache(const CacheParams &params, BankedCache *next,
                unsigned mem_latency, unsigned mem_occupancy,
                bool reject_on_conflict, bool infinite_bandwidth,
                CacheStats &stats);

    /** Timed access (read or write-allocate write). */
    Result access(Addr addr, Cycle now, bool is_write);

    /**
     * Side-effect-free hit test for the ITAG early-tag-lookup scheme:
     * true when an access at `now` would hit (line present and no
     * outstanding miss on it).
     */
    bool wouldHit(Addr addr) const;

    /** Account a writeback arriving from the level above: occupies a
     *  bank but does not disturb tag state (lines are modelled as
     *  present at every level they pass through). */
    void acceptWriteback(Addr addr, Cycle when);

    const CacheParams &params() const { return params_; }

  private:
    /**
     * One line's tag state in 16 bytes: a line address is below 2^58,
     * so the valid and dirty bits live in the top two bits of its tag
     * word. Every machine value-initializes its lines (the 2 MB
     * direct-mapped L3 alone has 32,768), so their size is part of
     * what building a machine costs.
     */
    struct Line
    {
        static constexpr Addr kValid = Addr{1} << 63;
        static constexpr Addr kDirty = Addr{1} << 62;

        Addr tagWord = 0; ///< line address | kValid | kDirty.
        std::uint64_t lru = 0;

        bool valid() const { return (tagWord & kValid) != 0; }
        bool dirty() const { return (tagWord & kDirty) != 0; }
        Addr tag() const { return tagWord & ~(kValid | kDirty); }
    };
    static_assert(sizeof(Line) == 16);

    Addr lineAddr(Addr addr) const { return addr / params_.lineBytes; }
    std::size_t setIndex(Addr line_addr) const;
    unsigned bankIndex(Addr line_addr) const;

    /** Look up the line; returns the way or nullptr. */
    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;

    /** Install a line, possibly evicting; returns dirty-victim flag. */
    void installLine(Addr line_addr, Cycle ready, bool dirty);

    /** Request the line from below; returns the data-ready cycle at this
     *  level (including our transfer time). */
    Cycle missToBelow(Addr addr, Cycle now);

    CacheParams params_;
    BankedCache *next_;
    unsigned memLatency_;
    unsigned memOccupancy_;
    bool rejectOnConflict_;
    bool infiniteBandwidth_;
    CacheStats &stats_;

    std::size_t sets_ = 0;
    std::vector<Line> lines_;
    std::uint64_t lruClock_ = 0;

    /**
     * Per-bank timing state. Accesses occupy the bank with a short
     * busy-until horizon; line fills occupy it for a bounded *interval*
     * in the future (a lockup-free bank keeps serving other requests
     * until the fill actually arrives).
     */
    struct BankState
    {
        Cycle busyUntil = 0;
        std::vector<std::pair<Cycle, Cycle>> fills; ///< [start, end).
    };

    bool bankBlockedAt(BankState &bank, Cycle now) const;
    Cycle bankQueueStart(const BankState &bank, Cycle now) const;

    std::vector<BankState> banks_;
    Cycle memBusyUntil_ = 0; ///< memory port (only when next_ == nullptr).

    /** Per-cycle port limiter: how many accesses started at curCycle_. */
    Cycle portCycle_ = kCycleNever;
    unsigned portUsed_ = 0;

    /** Outstanding misses: line address -> data-ready cycle. */
    std::unordered_map<Addr, Cycle> mshr_;
};

} // namespace smt

#endif // SMT_MEM_CACHE_HH
