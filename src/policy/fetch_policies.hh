/**
 * @file
 * The concrete fetch policies of Section 5.2 (plus the hybrid
 * ICOUNT+MISSCOUNT).
 *
 * The PolicyRegistry registers each of them by name, and the fetch
 * stage sees them only through the FetchPolicy interface. They stay
 * visible in a header so tests and plugins can instantiate one
 * directly, e.g. to restore a builtin after replacing its name.
 */

#ifndef SMT_POLICY_FETCH_POLICIES_HH
#define SMT_POLICY_FETCH_POLICIES_HH

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "core/pipeline_state.hh"
#include "mem/hierarchy.hh"
#include "policy/fetch_policy.hh"

namespace smt::policy
{

/** RR: no key; selection falls back to the round-robin tiebreak. */
class RoundRobinPolicy final : public FetchPolicy
{
  public:
    const char *name() const override { return "RR"; }

    double
    priorityKey(const PipelineState &, ThreadID) const override
    {
        return 0.0;
    }
};

/** BRCOUNT: fewest unresolved branches in decode/rename/IQ first. */
class BrCountPolicy final : public FetchPolicy
{
  public:
    const char *name() const override { return "BRCOUNT"; }

    double
    priorityKey(const PipelineState &st, ThreadID tid) const override
    {
        return static_cast<double>(st.branchCount[tid]);
    }
};

/** MISSCOUNT: fewest outstanding D-cache misses first. */
class MissCountPolicy final : public FetchPolicy
{
  public:
    const char *name() const override { return "MISSCOUNT"; }

    double
    priorityKey(const PipelineState &st, ThreadID tid) const override
    {
        return static_cast<double>(
            st.mem.outstandingDMisses(tid, st.cycle));
    }
};

/** ICOUNT: fewest instructions in decode/rename/IQ first. */
class ICountPolicy final : public FetchPolicy
{
  public:
    const char *name() const override { return "ICOUNT"; }

    double
    priorityKey(const PipelineState &st, ThreadID tid) const override
    {
        return static_cast<double>(st.frontAndQueueCount[tid]);
    }
};

/** IQPOSN: threads whose oldest queue entry sits farthest from a queue
 *  head first (they are least at risk of clogging a queue). */
class IQPosnPolicy final : public FetchPolicy
{
  public:
    const char *name() const override { return "IQPOSN"; }

    void
    beginCycle(const PipelineState &st) const override
    {
        posInt_.resize(st.numThreads);
        posFp_.resize(st.numThreads);
        st.intQueue.oldestPositions(posInt_);
        st.fpQueue.oldestPositions(posFp_);
    }

    double
    priorityKey(const PipelineState &, ThreadID tid) const override
    {
        smt_assert(tid < posInt_.size(),
                   "IQPOSN queried for thread %u before beginCycle sized "
                   "%zu slots",
                   tid, posInt_.size());
        const std::size_t closest = std::min(posInt_[tid], posFp_[tid]);
        // Instructions near a queue head mean low priority.
        return -static_cast<double>(closest);
    }

  private:
    // This cycle's oldest-entry position per thread, per queue.
    mutable std::vector<std::size_t> posInt_;
    mutable std::vector<std::size_t> posFp_;
};

/**
 * ICOUNT+MISSCOUNT (beyond the paper): ICOUNT's occupancy ranking with
 * a penalty per outstanding D-cache miss, so a thread whose queue
 * occupancy is low *because* it is blocked on memory does not hog fetch
 * slots it cannot use.
 */
class ICountMissCountPolicy final : public FetchPolicy
{
  public:
    static constexpr double kMissWeight = 4.0;

    const char *name() const override { return "ICOUNT+MISSCOUNT"; }

    double
    priorityKey(const PipelineState &st, ThreadID tid) const override
    {
        return static_cast<double>(st.frontAndQueueCount[tid]) +
               kMissWeight * st.mem.outstandingDMisses(tid, st.cycle);
    }
};

} // namespace smt::policy

#endif // SMT_POLICY_FETCH_POLICIES_HH
