#include "mem/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace smt
{

BankedCache::BankedCache(const CacheParams &params, BankedCache *next,
                         unsigned mem_latency, unsigned mem_occupancy,
                         bool reject_on_conflict, bool infinite_bandwidth,
                         CacheStats &stats)
    : params_(params), next_(next), memLatency_(mem_latency),
      memOccupancy_(mem_occupancy), rejectOnConflict_(reject_on_conflict),
      infiniteBandwidth_(infinite_bandwidth), stats_(stats)
{
    const std::uint64_t lines =
        params_.sizeBytes / params_.lineBytes;
    smt_assert(lines % params_.assoc == 0);
    sets_ = lines / params_.assoc;
    smt_assert((sets_ & (sets_ - 1)) == 0, "%s: sets must be 2^n",
               params_.name.c_str());
    lines_.resize(lines);
    smt_assert(sets_ % params_.banks == 0,
               "%s: sets must be a multiple of banks", params_.name.c_str());
    banks_.resize(params_.banks);
}

bool
BankedCache::bankBlockedAt(BankState &bank, Cycle now) const
{
    if (bank.busyUntil > now)
        return true;
    // Prune finished fills while we are here.
    std::erase_if(bank.fills, [now](const std::pair<Cycle, Cycle> &f) {
        return f.second <= now;
    });
    for (const auto &[start, end] : bank.fills) {
        if (start <= now && now < end)
            return true;
    }
    return false;
}

Cycle
BankedCache::bankQueueStart(const BankState &bank, Cycle now) const
{
    Cycle start = std::max(now, bank.busyUntil);
    bool moved = true;
    while (moved) {
        moved = false;
        for (const auto &[fs, fe] : bank.fills) {
            if (fs <= start && start < fe) {
                start = fe;
                moved = true;
            }
        }
    }
    return start;
}

std::size_t
BankedCache::setIndex(Addr line_addr) const
{
    // Modulo indexing. Since the set count is a multiple of the bank
    // count, bank = set % banks: consecutive lines land in consecutive
    // banks (the Sohi & Franklin interleaving) while the set mapping
    // stays the classic size/assoc modulus.
    return line_addr & (sets_ - 1);
}

unsigned
BankedCache::bankIndex(Addr line_addr) const
{
    return static_cast<unsigned>(line_addr % params_.banks);
}

BankedCache::Line *
BankedCache::findLine(Addr line_addr)
{
    const std::size_t set = setIndex(line_addr);
    const Addr want = line_addr | Line::kValid;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &l = lines_[set * params_.assoc + w];
        if ((l.tagWord & ~Line::kDirty) == want)
            return &l;
    }
    return nullptr;
}

const BankedCache::Line *
BankedCache::findLine(Addr line_addr) const
{
    return const_cast<BankedCache *>(this)->findLine(line_addr);
}

void
BankedCache::installLine(Addr line_addr, Cycle ready, bool dirty)
{
    const std::size_t set = setIndex(line_addr);
    Line *victim = &lines_[set * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &cand = lines_[set * params_.assoc + w];
        if (!cand.valid()) {
            victim = &cand;
            break;
        }
        if (cand.lru < victim->lru)
            victim = &cand;
    }
    if (victim->valid() && victim->dirty()) {
        ++stats_.writebacks;
        if (next_ != nullptr) {
            next_->acceptWriteback(victim->tag() * params_.lineBytes, ready);
        } else if (!infiniteBandwidth_) {
            memBusyUntil_ = std::max(memBusyUntil_, ready) + memOccupancy_;
        }
    }
    smt_assert((line_addr & (Line::kValid | Line::kDirty)) == 0);
    victim->tagWord = line_addr | Line::kValid | (dirty ? Line::kDirty : 0);
    victim->lru = ++lruClock_;

    if (!infiniteBandwidth_) {
        // The fill occupies the destination bank only around its
        // arrival; the bank keeps serving other requests meanwhile.
        banks_[bankIndex(line_addr)].fills.emplace_back(
            ready, ready + params_.fillCycles);
    }
}

Cycle
BankedCache::missToBelow(Addr addr, Cycle now)
{
    const Cycle at_below = now + params_.latencyToNext;
    Cycle below_ready;
    if (next_ != nullptr) {
        below_ready = next_->access(addr, at_below, false).ready;
    } else {
        // Main memory: fixed latency plus a single occupied port.
        Cycle start = at_below;
        if (!infiniteBandwidth_) {
            start = std::max(start, memBusyUntil_);
            memBusyUntil_ = start + memOccupancy_;
        }
        below_ready = start + memLatency_;
    }
    return below_ready + params_.transferCycles;
}

BankedCache::Result
BankedCache::access(Addr addr, Cycle now, bool is_write)
{
    Result res;
    const Addr line_addr = lineAddr(addr);
    BankState &bank = banks_[bankIndex(line_addr)];

    // Port/bank arbitration.
    if (!infiniteBandwidth_) {
        if (portCycle_ != now) {
            portCycle_ = now;
            portUsed_ = 0;
        }
        const bool port_conflict = portUsed_ >= params_.accessesPerCycle;
        const bool bank_conflict = bankBlockedAt(bank, now);
        if (port_conflict || bank_conflict) {
            if (rejectOnConflict_) {
                res.conflict = true;
                ++stats_.bankConflicts;
                return res;
            }
            // Queue behind the conflict.
            now = bankQueueStart(bank, now);
            if (port_conflict)
                now = std::max(now, portCycle_ + 1);
        }
        ++portUsed_;
        bank.busyUntil = std::max(bank.busyUntil, now)
                         + params_.cyclesPerAccess;
    }

    ++stats_.accesses;

    // An outstanding miss on this line? Merge with it.
    if (auto it = mshr_.find(line_addr); it != mshr_.end()) {
        if (it->second > now) {
            ++stats_.mshrMerges;
            res.hit = false;
            res.ready = it->second;
            return res;
        }
        mshr_.erase(it);
    }

    Line *line = findLine(line_addr);
    if (line != nullptr) {
        line->lru = ++lruClock_;
        if (is_write)
            line->tagWord |= Line::kDirty;
        res.hit = true;
        res.ready = now;
        return res;
    }

    // Miss: fetch from below, install, track in the MSHR.
    ++stats_.misses;
    const Cycle ready = missToBelow(addr, now);
    installLine(line_addr, ready, is_write);
    if (mshr_.size() >= params_.mshrs) {
        // MSHR pressure: model as serialisation behind the oldest
        // outstanding miss (cheap approximation of a structural stall).
        Cycle oldest = kCycleNever;
        for (const auto &[la, rc] : mshr_)
            oldest = std::min(oldest, rc);
        mshr_.clear();
        res.ready = std::max(ready, oldest);
    } else {
        res.ready = ready;
    }
    mshr_.emplace(line_addr, res.ready);
    res.hit = false;
    return res;
}

bool
BankedCache::wouldHit(Addr addr) const
{
    const Addr line_addr = lineAddr(addr);
    if (auto it = mshr_.find(line_addr); it != mshr_.end()) {
        // Still in flight counts as a miss for fetch-thread selection.
        return false;
    }
    return findLine(line_addr) != nullptr;
}

void
BankedCache::acceptWriteback(Addr addr, Cycle when)
{
    if (infiniteBandwidth_)
        return;
    ++stats_.accesses;
    BankState &bank = banks_[bankIndex(lineAddr(addr))];
    bank.busyUntil = std::max(bank.busyUntil, when)
                     + params_.cyclesPerAccess;
}

} // namespace smt
