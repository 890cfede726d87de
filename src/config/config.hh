/**
 * @file
 * SmtConfig: every architectural knob evaluated in Tullsen et al. (ISCA'96),
 * with defaults matching the paper's base SMT machine (Section 2).
 *
 * Each experiment in the paper is expressible as a small mutation of the
 * default-constructed config; named presets for the paper's machines live
 * in config.cc. A fetch or issue policy is one field holding its
 * PolicyRegistry name, which the core resolves once at construction.
 */

#ifndef SMT_CONFIG_CONFIG_HH
#define SMT_CONFIG_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace smt
{

/** Speculation restrictions explored in Section 7. */
enum class SpeculationMode : std::uint8_t
{
    Full,            ///< normal operation: fully speculative issue.
    NoPassBranch,    ///< instructions may not issue before an earlier
                     ///< unresolved branch of the same thread.
    NoWrongPathIssue ///< guarantee no wrong-path issue: delay issue until
                     ///< 4 cycles after the preceding branch issued.
};

/** Geometry and timing of one cache level (Table 2). */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 1;            ///< 1 = direct mapped.
    unsigned lineBytes = 64;
    unsigned banks = 8;
    unsigned accessesPerCycle = 1; ///< per-bank issue rate numerator.
    unsigned cyclesPerAccess = 1;  ///< per-bank occupancy per access.
    unsigned transferCycles = 1;   ///< time on the bus from the level below.
    unsigned fillCycles = 2;       ///< bank busy time when a fill arrives.
    unsigned latencyToNext = 6;    ///< request latency to the next level.
    unsigned mshrs = 32;           ///< outstanding-miss capacity.

    /**
     * The field list: calls `f("key", s.field...)` for every field, in
     * the digest's byte order. `name` is a display label and stays out
     * of the digest.
     */
    template <class F, class... S>
    static void
    fields(F &&f, S &...s)
    {
        f("sizeBytes", s.sizeBytes...);
        f("assoc", s.assoc...);
        f("lineBytes", s.lineBytes...);
        f("banks", s.banks...);
        f("accessesPerCycle", s.accessesPerCycle...);
        f("cyclesPerAccess", s.cyclesPerAccess...);
        f("transferCycles", s.transferCycles...);
        f("fillCycles", s.fillCycles...);
        f("latencyToNext", s.latencyToNext...);
        f("mshrs", s.mshrs...);
    }
};

/** The complete machine configuration. */
struct SmtConfig
{
    // ---- Threads and widths -------------------------------------------
    unsigned numThreads = 8;       ///< hardware contexts.
    unsigned fetchWidth = 8;       ///< max total instructions fetched/cycle.
    unsigned fetchThreads = 1;     ///< num1 in alg.num1.num2.
    unsigned fetchPerThread = 8;   ///< num2 in alg.num1.num2.
    unsigned decodeWidth = 8;
    unsigned renameWidth = 8;
    unsigned commitWidth = 8;      ///< shared, retirement in order per
                                   ///< thread.

    // ---- Fetch / issue policy ------------------------------------------
    /**
     * PolicyRegistry names (policy/registry.hh). Fetch: RR, BRCOUNT,
     * MISSCOUNT, ICOUNT or IQPOSN (Section 5.2), the hybrid
     * ICOUNT+MISSCOUNT, or any registered plugin. Issue: OLDEST_FIRST,
     * OPT_LAST, SPEC_LAST or BRANCH_FIRST (Section 6).
     */
    std::string fetchPolicy = "RR";
    std::string issuePolicy = "OLDEST_FIRST";
    SpeculationMode speculation = SpeculationMode::Full;
    bool itagEarlyLookup = false;  ///< ITAG: probe I-cache tags a cycle
                                   ///< early; adds one front-end stage.

    // ---- Instruction queues (Section 2.1 / BIGQ of Section 5.3) --------
    unsigned intQueueEntries = 32;
    unsigned fpQueueEntries = 32;
    unsigned iqSearchWindow = 32;  ///< entries eligible for issue search;
                                   ///< BIGQ doubles entries, keeps this 32.

    // ---- Functional units ----------------------------------------------
    unsigned intUnits = 6;
    unsigned loadStoreUnits = 4;   ///< subset of the integer units.
    unsigned fpUnits = 3;
    bool infiniteFunctionalUnits = false; ///< Section 7 bottleneck probe.

    // ---- Register files --------------------------------------------------
    /**
     * Renaming registers per file beyond the architectural 32 per thread.
     * Physical registers per file = 32 * numThreads + excessRegisters,
     * unless totalPhysRegisters overrides the sum (Figure 7).
     */
    unsigned excessRegisters = 100;
    /** When nonzero: fix the total per-file physical registers (Fig. 7). */
    unsigned totalPhysRegisters = 0;

    // ---- Pipeline ---------------------------------------------------------
    /**
     * True models the SMT pipeline of Figure 2(b): two register-read
     * stages and an extra register-write stage. False models the
     * conventional superscalar pipeline of Figure 2(a).
     */
    bool longRegisterPipeline = true;

    // ---- Branch prediction ----------------------------------------------
    unsigned btbEntries = 256;
    unsigned btbAssoc = 4;
    bool btbThreadIds = true;      ///< tag entries with thread ids to avoid
                                   ///< phantom branches (Section 2).
    unsigned phtEntries = 2048;    ///< 2K x 2-bit pattern history table.
    unsigned phtHistoryBits = 6;   ///< global-history length for gshare.
    unsigned rasEntries = 12;      ///< per-context return stack.
    bool perfectBranchPrediction = false; ///< Section 7 probe.

    // ---- Memory hierarchy (Table 2) --------------------------------------
    CacheParams icache{"ICache", 32 * 1024, 1, 64, 8, 4, 1, 1, 2, 6, 32};
    CacheParams dcache{"DCache", 32 * 1024, 1, 64, 8, 4, 1, 1, 2, 6, 32};
    CacheParams l2{"L2", 256 * 1024, 4, 64, 8, 1, 1, 1, 2, 12, 32};
    CacheParams l3{"L3", 2 * 1024 * 1024, 1, 64, 1, 1, 4, 4, 8, 62, 32};
    bool infiniteCacheBandwidth = false; ///< latencies kept, no bank/bus
                                         ///< conflicts (Section 7 probe).

    unsigned itlbEntries = 64;
    unsigned dtlbEntries = 64;
    unsigned pageBytes = 8 * 1024;

    /** Bits of address used for memory disambiguation (Section 2.1). */
    unsigned disambiguationBits = 10;

    // ---- Simulation control ----------------------------------------------
    std::uint64_t seed = 1;

    // ---- Derived quantities ----------------------------------------------
    /** Physical registers per file implied by this config. */
    unsigned
    physRegsPerFile() const
    {
        if (totalPhysRegisters != 0)
            return totalPhysRegisters;
        return kLogRegsPerFile * numThreads + excessRegisters;
    }

    /** A human-readable fetch-scheme label, e.g. "ICOUNT.2.8". */
    std::string fetchSchemeName() const;

    /** Abort with a description if the configuration is inconsistent. */
    void validate() const;

    /**
     * The field list: calls `f("key", s.field...)` for every field, in
     * the digest's byte order. It is the canonical JSON the
     * measurement digest hashes, and every scalar field is an
     * ExperimentSpec knob under its key.
     */
    template <class F, class... S>
    static void
    fields(F &&f, S &...s)
    {
        f("numThreads", s.numThreads...);
        f("fetchWidth", s.fetchWidth...);
        f("fetchThreads", s.fetchThreads...);
        f("fetchPerThread", s.fetchPerThread...);
        f("decodeWidth", s.decodeWidth...);
        f("renameWidth", s.renameWidth...);
        f("commitWidth", s.commitWidth...);
        f("fetchPolicy", s.fetchPolicy...);
        f("issuePolicy", s.issuePolicy...);
        f("speculation", s.speculation...);
        f("itagEarlyLookup", s.itagEarlyLookup...);
        f("intQueueEntries", s.intQueueEntries...);
        f("fpQueueEntries", s.fpQueueEntries...);
        f("iqSearchWindow", s.iqSearchWindow...);
        f("intUnits", s.intUnits...);
        f("loadStoreUnits", s.loadStoreUnits...);
        f("fpUnits", s.fpUnits...);
        f("infiniteFunctionalUnits", s.infiniteFunctionalUnits...);
        f("excessRegisters", s.excessRegisters...);
        f("totalPhysRegisters", s.totalPhysRegisters...);
        f("longRegisterPipeline", s.longRegisterPipeline...);
        f("btbEntries", s.btbEntries...);
        f("btbAssoc", s.btbAssoc...);
        f("btbThreadIds", s.btbThreadIds...);
        f("phtEntries", s.phtEntries...);
        f("phtHistoryBits", s.phtHistoryBits...);
        f("rasEntries", s.rasEntries...);
        f("perfectBranchPrediction", s.perfectBranchPrediction...);
        f("icache", s.icache...);
        f("dcache", s.dcache...);
        f("l2", s.l2...);
        f("l3", s.l3...);
        f("infiniteCacheBandwidth", s.infiniteCacheBandwidth...);
        f("itlbEntries", s.itlbEntries...);
        f("dtlbEntries", s.dtlbEntries...);
        f("pageBytes", s.pageBytes...);
        f("disambiguationBits", s.disambiguationBits...);
        f("seed", s.seed...);
    }
};

/** Named machine presets used throughout tests, examples, and benches. */
namespace presets
{

/** The base SMT machine of Section 2 (RR.1.8 fetch). */
SmtConfig baseSmt(unsigned threads);

/** The unmodified superscalar: one thread, short register pipeline. */
SmtConfig unmodifiedSuperscalar();

/**
 * The improved machine of Section 7: ICOUNT.2.8 fetch with the base
 * hardware sizes.
 */
SmtConfig icount28(unsigned threads);

/** Set the fetch partitioning scheme (num1 x num2, total width 8). */
void setFetchPartition(SmtConfig &cfg, unsigned threads_per_cycle,
                       unsigned width_per_thread);

} // namespace presets

/** Short display name of a speculation mode. */
const char *toString(SpeculationMode m);

} // namespace smt

#endif // SMT_CONFIG_CONFIG_HH
