/**
 * @file
 * MemoryHierarchy: the full Table 2 memory subsystem — I-cache, D-cache,
 * shared L2, shared L3, main memory, and the I/D TLBs — behind the two
 * entry points the core uses (instruction fetch and data access).
 *
 * It also tracks the per-thread outstanding D-cache miss counts that the
 * MISSCOUNT fetch policy consumes.
 */

#ifndef SMT_MEM_HIERARCHY_HH
#define SMT_MEM_HIERARCHY_HH

#include <array>
#include <memory>
#include <vector>

#include "config/config.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "stats/stats.hh"

namespace smt
{

/** Outcome of a core-initiated memory access. */
struct MemAccessResult
{
    bool l1Hit = false;
    bool bankConflict = false; ///< rejected at L1; the core retries.
    Cycle ready = 0;           ///< data-available cycle at the core.
};

/** The complete modelled memory subsystem. */
class MemoryHierarchy
{
  public:
    MemoryHierarchy(const SmtConfig &cfg, SimStats &stats);

    /** Fetch a block for thread `tid` at `addr` (one I-cache access). */
    MemAccessResult fetchAccess(ThreadID tid, Addr addr, Cycle now);

    /** Would an I-cache access at `addr` hit? (ITAG early tag probe.) */
    bool icacheWouldHit(Addr addr) const;

    /** I-cache bank an address maps to (fetch-unit conflict checks). */
    unsigned icacheBank(Addr addr) const;

    /** Load/store access from the execute stage. */
    MemAccessResult dataAccess(ThreadID tid, Addr addr, bool is_store,
                               Cycle now);

    /** Outstanding D-cache misses for a thread at `now` (MISSCOUNT). */
    unsigned outstandingDMisses(ThreadID tid, Cycle now);

    /** The full memory-access latency used for TLB-miss penalties. */
    unsigned tlbMissPenalty() const { return tlbMissPenalty_; }

  private:
    void pruneMisses(ThreadID tid, Cycle now);

    const SmtConfig &cfg_;
    SimStats &stats_;

    std::unique_ptr<BankedCache> l3_;
    std::unique_ptr<BankedCache> l2_;
    std::unique_ptr<BankedCache> icache_;
    std::unique_ptr<BankedCache> dcache_;
    Tlb itlb_;
    Tlb dtlb_;

    unsigned tlbMissPenalty_;

    /** Data-ready cycles of outstanding D-misses, per thread. */
    std::array<std::vector<Cycle>, kMaxThreads> outstanding_;
};

} // namespace smt

#endif // SMT_MEM_HIERARCHY_HH
