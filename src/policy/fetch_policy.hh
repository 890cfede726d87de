/**
 * @file
 * FetchPolicy: the thread-selection strategy of the fetch unit
 * (Section 5.2 of Tullsen et al., ISCA'96).
 *
 * Each cycle the fetch stage ranks the fetchable threads by
 * priorityKey() (lower key = higher priority; round-robin order breaks
 * ties) and fetches from the best `fetchThreads` of them. The paper's
 * policies — RR, BRCOUNT, MISSCOUNT, ICOUNT, IQPOSN — are implemented
 * in fetch_policies.hh and registered by name in the PolicyRegistry;
 * new policies only need a subclass and a registry entry, never a core
 * change.
 */

#ifndef SMT_POLICY_FETCH_POLICY_HH
#define SMT_POLICY_FETCH_POLICY_HH

#include <vector>

#include "common/types.hh"

namespace smt
{

struct PipelineState;

namespace policy
{

class PolicyRegistry;

/** Thread-priority strategy consulted by the fetch stage. */
class FetchPolicy
{
  public:
    virtual ~FetchPolicy() = default;

    /** Registry name, e.g. "ICOUNT". */
    virtual const char *name() const = 0;

    /**
     * Called once per cycle before any priorityKey() query; policies
     * that rank against whole-machine structures (IQPOSN) snapshot
     * them here instead of rescanning per candidate thread. The
     * snapshot is a cache of `st`, not policy state, hence const.
     */
    virtual void beginCycle(const PipelineState &) const {}

    /** Priority of `tid` this cycle; lower is fetched first. */
    virtual double priorityKey(const PipelineState &st,
                               ThreadID tid) const = 0;
};

/** Install RR, BRCOUNT, MISSCOUNT, ICOUNT, IQPOSN, and the hybrid
 *  ICOUNT+MISSCOUNT into `reg`. */
void registerBuiltinFetchPolicies(PolicyRegistry &reg);

} // namespace policy
} // namespace smt

#endif // SMT_POLICY_FETCH_POLICY_HH
