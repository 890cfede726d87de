/**
 * @file
 * Statistics collection for smtsim.
 *
 * SimStats is a plain aggregate of every counter the paper reports
 * (Tables 3, 4, 5 and the prose of Sections 4-7), with derived-metric
 * accessors (rates, ratios, MPKI). Counters are added by the pipeline and
 * memory models during simulation; benches and tests read the derived
 * metrics.
 */

#ifndef SMT_STATS_STATS_HH
#define SMT_STATS_STATS_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/histogram.hh"
#include "common/types.hh"

namespace smt
{

/** One counter per hardware context. */
using PerThreadCounts = std::array<std::uint64_t, kMaxThreads>;

/*
 * Field lists. Each record below names every field once, with its
 * JSON key, in a static `fields(f, s...)` that calls
 * `f("key", s.field...)` for each field in turn. One list walks one
 * record (the entry codec in sweep/serialize.cc) or several in step
 * (SimStats::add). List order is the cache entry's byte order.
 */

/** Counters for one cache level. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t bankConflicts = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t mshrMerges = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }

    /** Misses per thousand *useful committed* instructions. */
    double
    mpki(std::uint64_t committed) const
    {
        return committed ? 1000.0 * misses / committed : 0.0;
    }

    /** The field list, in the entry's byte order. */
    template <class F, class... S>
    static void
    fields(F &&f, S &...s)
    {
        f("accesses", s.accesses...);
        f("misses", s.misses...);
        f("bankConflicts", s.bankConflicts...);
        f("writebacks", s.writebacks...);
        f("mshrMerges", s.mshrMerges...);
    }
};

/** Counters for one TLB. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }

    /** The field list, in the entry's byte order. */
    template <class F, class... S>
    static void
    fields(F &&f, S &...s)
    {
        f("accesses", s.accesses...);
        f("misses", s.misses...);
    }
};

/**
 * Per-thread, per-cause stall and lost-slot accounting — the lens the
 * paper uses to explain *why* a fetch or issue policy wins (lost fetch
 * slots, IQ-full backpressure, issue slots lost to operand waits).
 *
 * Fetch counters form a partition: every (cycle, thread) pair lands in
 * exactly one of fetchActive / fetchIcacheMiss / fetchFrontEndFull /
 * fetchNoTarget / fetchLostSelection, so per thread the five sum to
 * the run's cycle count. Rename counters record once per cycle that a
 * thread's rename blocked on that resource; issue counters record
 * per-candidate skip events.
 */
struct StallStats
{
    // ---- Fetch (one disposition per cycle per thread) -------------------
    /** The thread fetched at least one instruction this cycle. */
    PerThreadCounts fetchActive{};
    /** I-cache/ITLB miss pending or starting, or lost the bank. */
    PerThreadCounts fetchIcacheMiss{};
    /** Front-end/queue occupancy cap reached (IQ backpressure). */
    PerThreadCounts fetchFrontEndFull{};
    /** Fetch PC has no decoded target (awaiting misfetch resolution). */
    PerThreadCounts fetchNoTarget{};
    /** Fetchable, but lost the slot to higher-priority threads. */
    PerThreadCounts fetchLostSelection{};

    // ---- Rename/dispatch (once per blocked cycle per thread) ------------
    /** Rename blocked: the target instruction queue was full. */
    PerThreadCounts renameIQFull{};
    /** Rename blocked: no free physical register. */
    PerThreadCounts renameNoRegisters{};

    // ---- Issue (per skipped-candidate event) ----------------------------
    /** Candidate skipped: source operands not ready. */
    PerThreadCounts issueOperandWait{};
    /** Candidate skipped: no functional unit left this cycle. */
    PerThreadCounts issueFuBusy{};
    /** Cycles where neither queue offered a single candidate. */
    std::uint64_t issueNoCandidatesCycles = 0;

    /** Fetch cycles thread `t` stalled (everything but fetchActive). */
    std::uint64_t
    fetchStalled(unsigned t) const
    {
        return fetchIcacheMiss[t] + fetchFrontEndFull[t] +
               fetchNoTarget[t] + fetchLostSelection[t];
    }

    /** Every stalled slot of thread `t`: its fetch stalls plus its
     *  rename and issue causes (the `stalled` column of its row). */
    std::uint64_t
    threadStalled(unsigned t) const
    {
        return fetchStalled(t) + renameIQFull[t] + renameNoRegisters[t] +
               issueOperandWait[t] + issueFuBusy[t];
    }

    /** All stalled slots across threads and causes (report total). */
    std::uint64_t
    totalStalledSlots() const
    {
        std::uint64_t total = issueNoCandidatesCycles;
        for (unsigned t = 0; t < kMaxThreads; ++t)
            total += threadStalled(t);
        return total;
    }

    /** The field list, in the entry's byte order. */
    template <class F, class... S>
    static void
    fields(F &&f, S &...s)
    {
        f("fetchActive", s.fetchActive...);
        f("fetchIcacheMiss", s.fetchIcacheMiss...);
        f("fetchFrontEndFull", s.fetchFrontEndFull...);
        f("fetchNoTarget", s.fetchNoTarget...);
        f("fetchLostSelection", s.fetchLostSelection...);
        f("renameIQFull", s.renameIQFull...);
        f("renameNoRegisters", s.renameNoRegisters...);
        f("issueOperandWait", s.issueOperandWait...);
        f("issueFuBusy", s.issueFuBusy...);
        f("issueNoCandidatesCycles", s.issueNoCandidatesCycles...);
    }
};

/** Every simulation-level counter the paper's evaluation reports. */
struct SimStats
{
    // ---- Progress -------------------------------------------------------
    std::uint64_t cycles = 0;
    std::uint64_t committedInstructions = 0; ///< useful instructions only.
    PerThreadCounts committedPerThread{};

    // ---- Fetch ----------------------------------------------------------
    std::uint64_t fetchedInstructions = 0;   ///< includes wrong path.
    std::uint64_t fetchedWrongPath = 0;
    std::uint64_t fetchCyclesIdle = 0;       ///< no thread could fetch.
    std::uint64_t fetchBlockedIQFull = 0;    ///< fetch lost to IQ-full.

    // ---- Issue ----------------------------------------------------------
    std::uint64_t issuedInstructions = 0;    ///< includes useless issue.
    std::uint64_t issuedWrongPath = 0;
    std::uint64_t optimisticSquashes = 0;    ///< issued then squashed on a
                                             ///< D-cache miss/bank conflict.

    // ---- Queues ---------------------------------------------------------
    std::uint64_t intIQFullCycles = 0;
    std::uint64_t fpIQFullCycles = 0;
    Histogram combinedQueuePopulation{129};

    // ---- Renaming -------------------------------------------------------
    std::uint64_t outOfRegistersCycles = 0;

    // ---- Branches -------------------------------------------------------
    std::uint64_t condBranches = 0;          ///< committed.
    std::uint64_t condBranchMispredicts = 0;
    std::uint64_t jumps = 0;                 ///< committed indirect
                                             ///< jumps/returns.
    std::uint64_t jumpMispredicts = 0;
    std::uint64_t misfetches = 0;            ///< BTB-miss target delays.

    // ---- Memory ---------------------------------------------------------
    CacheStats icache;
    CacheStats dcache;
    CacheStats l2;
    CacheStats l3;
    TlbStats itlb;
    TlbStats dtlb;

    // ---- Per-thread, per-cause stall accounting -------------------------
    // (Last on purpose: 584 bytes of cold-ish arrays; keeping it after
    // the scalar counters preserves their cache-line packing.)
    StallStats stalls;

    // ---- Derived metrics --------------------------------------------------
    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedInstructions) / cycles
                      : 0.0;
    }

    double
    wrongPathFetchedFraction() const
    {
        return fetchedInstructions
                   ? static_cast<double>(fetchedWrongPath)
                         / fetchedInstructions
                   : 0.0;
    }

    double
    wrongPathIssuedFraction() const
    {
        return issuedInstructions
                   ? static_cast<double>(issuedWrongPath) / issuedInstructions
                   : 0.0;
    }

    double
    optimisticSquashFraction() const
    {
        return issuedInstructions
                   ? static_cast<double>(optimisticSquashes)
                         / issuedInstructions
                   : 0.0;
    }

    double
    uselessIssueFraction() const
    {
        return wrongPathIssuedFraction() + optimisticSquashFraction();
    }

    double
    intIQFullFraction() const
    {
        return cycles ? static_cast<double>(intIQFullCycles) / cycles : 0.0;
    }

    double
    fpIQFullFraction() const
    {
        return cycles ? static_cast<double>(fpIQFullCycles) / cycles : 0.0;
    }

    double
    outOfRegistersFraction() const
    {
        return cycles ? static_cast<double>(outOfRegistersCycles) / cycles
                      : 0.0;
    }

    double
    branchMispredictRate() const
    {
        return condBranches
                   ? static_cast<double>(condBranchMispredicts) / condBranches
                   : 0.0;
    }

    double
    jumpMispredictRate() const
    {
        return jumps ? static_cast<double>(jumpMispredicts) / jumps : 0.0;
    }

    double
    avgQueuePopulation() const
    {
        return combinedQueuePopulation.mean();
    }

    /** Accumulate another run's counters into this one. */
    void add(const SimStats &o);

    /**
     * The field list, in the entry's byte order. `stalls` follows
     * outOfRegistersCycles here although the struct declares it last:
     * the list keeps the entry's byte order, the declaration the
     * scalar counters' cache-line packing.
     */
    template <class F, class... S>
    static void
    fields(F &&f, S &...s)
    {
        f("cycles", s.cycles...);
        f("committedInstructions", s.committedInstructions...);
        f("committedPerThread", s.committedPerThread...);
        f("fetchedInstructions", s.fetchedInstructions...);
        f("fetchedWrongPath", s.fetchedWrongPath...);
        f("fetchCyclesIdle", s.fetchCyclesIdle...);
        f("fetchBlockedIQFull", s.fetchBlockedIQFull...);
        f("issuedInstructions", s.issuedInstructions...);
        f("issuedWrongPath", s.issuedWrongPath...);
        f("optimisticSquashes", s.optimisticSquashes...);
        f("intIQFullCycles", s.intIQFullCycles...);
        f("fpIQFullCycles", s.fpIQFullCycles...);
        f("combinedQueuePopulation", s.combinedQueuePopulation...);
        f("outOfRegistersCycles", s.outOfRegistersCycles...);
        f("stalls", s.stalls...);
        f("condBranches", s.condBranches...);
        f("condBranchMispredicts", s.condBranchMispredicts...);
        f("jumps", s.jumps...);
        f("jumpMispredicts", s.jumpMispredicts...);
        f("misfetches", s.misfetches...);
        f("icache", s.icache...);
        f("dcache", s.dcache...);
        f("l2", s.l2...);
        f("l3", s.l3...);
        f("itlb", s.itlb...);
        f("dtlb", s.dtlb...);
    }

    /** Multi-line human-readable dump (for examples and debugging). */
    std::string report() const;

    /**
     * Per-thread stall-cause table (`--stall-report`): one row per
     * thread whose cause columns sum to the row total, row totals
     * summing to the printed total stalled slots.
     */
    std::string stallReport(unsigned numThreads) const;
};

} // namespace smt

#endif // SMT_STATS_STATS_HH
