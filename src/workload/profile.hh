/**
 * @file
 * BenchmarkProfile: the statistical parameters from which a synthetic
 * program is generated.
 *
 * The paper's workload is SPEC92 (alvinn, doduc, espresso, fpppp, ora,
 * tomcatv, xlisp) plus TeX; those binaries are proprietary, so smtsim
 * substitutes generated programs whose *statistical* properties (mix,
 * block sizes, branch predictability, footprints, dependence distances)
 * match published characterisations of each benchmark.
 */

#ifndef SMT_WORKLOAD_PROFILE_HH
#define SMT_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace smt
{

/** Generation parameters for one synthetic benchmark. */
struct BenchmarkProfile
{
    std::string name = "generic";

    // ---- Code shape -----------------------------------------------------
    unsigned numFuncs = 12;        ///< functions besides main.
    unsigned blocksPerFunc = 40;   ///< structural budget per function.
    double avgBlockLen = 6.0;      ///< mean instructions per basic block.
    unsigned maxLoopDepth = 2;     ///< nesting limit.
    double loopFraction = 0.25;    ///< structural choice weights; the
    double diamondFraction = 0.35; ///< remainder generates plain blocks
    double callFraction = 0.08;    ///< and call sites.
    double indirectFraction = 0.0; ///< switch-style dispatch regions.
    unsigned indirectTargets = 8;  ///< arms per dispatch.
    std::uint32_t minTrip = 4;     ///< loop trip-count bounds.
    std::uint32_t maxTrip = 40;

    // ---- Branch predictability -------------------------------------------
    /** Fraction of non-loop branches that are data-dependent (hard). */
    double hardBranchFraction = 0.10;
    /** Taken probability of an easy branch (or 1 - that, mirrored). */
    double easyBias = 0.04;

    // ---- Instruction mix (within-block, non-control slots) ---------------
    double loadFrac = 0.26;
    double storeFrac = 0.12;
    double fpFrac = 0.0;   ///< FP compute fraction.
    double imulFrac = 0.01;
    double cmovFrac = 0.02;
    double fpLoadFrac = 0.0; ///< fraction of loads filling FP registers.

    // ---- Dependences -------------------------------------------------------
    /** Mean register dependence distance (higher = more ILP). */
    double depMean = 3.0;
    /** Probability a source reads a far (loop-invariant) register. */
    double farSrcFraction = 0.15;

    // ---- Memory behaviour --------------------------------------------------
    /**
     * Number of distinct strided regions ("arrays") in the program;
     * static memory instructions share them, which is what creates
     * temporal reuse and bounds the data footprint.
     */
    unsigned numStreams = 10;
    std::uint64_t streamRegionBytes = 64 * 1024; ///< per strided stream.
    std::uint64_t heapBytes = 512 * 1024;        ///< random-access heap.
    double randomFrac = 0.25;  ///< memory ops with random addresses.
    double stackFrac = 0.20;   ///< memory ops hitting the hot stack page.
    unsigned strideBytes = 8;
    /** log2 upper bound on per-instruction element reuse (repeat factor
     *  drawn from {1, 2, ..., 2^max}). */
    unsigned strideRepeatLog2Max = 1;
    /** Random-access locality: fraction of heap accesses inside a hot
     *  subset of `randomHotBytes`. */
    double randomHotFraction = 0.985;
    std::uint64_t randomHotBytes = 2 * 1024;

    /** Total data segment bytes needed (streams + heap), computed lazily
     *  by the generator; stored here for tests. */
    std::uint64_t dataFootprint() const;

    /** Field-wise: the program cache keys on the whole profile. */
    bool operator==(const BenchmarkProfile &) const = default;
};

/** The paper's eight workloads, in the order used by the mix rotation. */
enum class Benchmark : std::uint8_t
{
    Alvinn,
    Doduc,
    Espresso,
    Fpppp,
    Ora,
    Tomcatv,
    Xlisp,
    Tex,
    NumBenchmarks
};

constexpr unsigned kNumBenchmarks =
    static_cast<unsigned>(Benchmark::NumBenchmarks);

/** Profile for one of the paper's benchmarks. */
const BenchmarkProfile &benchmarkProfile(Benchmark b);

/** All eight, in rotation order. */
const std::vector<Benchmark> &allBenchmarks();

/** Name lookup ("alvinn", ...); fatal on unknown names. */
Benchmark benchmarkByName(const std::string &name);

const char *benchmarkName(Benchmark b);

} // namespace smt

#endif // SMT_WORKLOAD_PROFILE_HH
