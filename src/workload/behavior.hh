/**
 * @file
 * Behaviour annotations attached to static instructions of a generated
 * program. The `annot` field of a StaticInst indexes one of these tables
 * in its CodeImage; the oracle (ThreadProgram) interprets them when it
 * executes the correct path.
 */

#ifndef SMT_WORKLOAD_BEHAVIOR_HH
#define SMT_WORKLOAD_BEHAVIOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace smt
{

/** How a conditional branch decides its direction. */
struct BranchBehavior
{
    enum class Kind : std::uint8_t
    {
        Biased,  ///< independent Bernoulli with takenProb.
        LoopBack ///< taken while the current loop entry has trips left.
    };

    Kind kind = Kind::Biased;
    double takenProb = 0.5; ///< for Biased.
    std::uint32_t minTrip = 1;  ///< for LoopBack: inclusive trip bounds.
    std::uint32_t maxTrip = 1;
};

/** How a load/store generates its effective addresses. */
struct MemBehavior
{
    enum class Kind : std::uint8_t
    {
        Stride, ///< sequential walk: base + (n * stride) % regionBytes.
        Random, ///< uniform within [base, base + regionBytes).
        Stack   ///< fixed hot address in the thread's stack page.
    };

    Kind kind = Kind::Stride;
    Addr regionOffset = 0;        ///< offset within the thread data segment.
    std::uint64_t regionBytes = 4096;
    std::uint32_t strideBytes = 8;
    /** Element reuse: the address advances every `repeat` executions
     *  (loops touch each element more than once). */
    std::uint32_t repeat = 1;
    /** For Random: fraction of accesses falling in a small hot subset
     *  (pointer-chasing locality); hotBytes = the subset size. */
    double hotFraction = 0.0;
    std::uint64_t hotBytes = 0;
};

/** Possible targets of an indirect jump (switch-style dispatch). */
struct IndirectBehavior
{
    /** Absolute code addresses of the arms: the oracle takes them as
     *  next PCs, so relocating an image shifts them with its code. */
    std::vector<Addr> targets;
};

} // namespace smt

#endif // SMT_WORKLOAD_BEHAVIOR_HH
