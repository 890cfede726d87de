/**
 * @file
 * The concrete issue policies of Section 6.
 *
 * The PolicyRegistry registers each by name, and the issue stage sees
 * them only through the IssuePolicy interface. Header-visible, like
 * fetch_policies.hh, so tests and plugins can instantiate one
 * directly.
 */

#ifndef SMT_POLICY_ISSUE_POLICIES_HH
#define SMT_POLICY_ISSUE_POLICIES_HH

#include <algorithm>
#include <vector>

#include "core/pipeline_state.hh"
#include "policy/issue_policy.hh"

namespace smt::policy
{

/** OLDEST_FIRST: deepest-in-queue (lowest sequence number) first. */
class OldestFirstPolicy final : public IssuePolicy
{
  public:
    const char *name() const override { return "OLDEST_FIRST"; }

    void
    order(const PipelineState &,
          std::vector<DynInst *> &cands) const override
    {
        // Insertion sort: the ready set is a handful of entries in
        // near-queue (near-seq) order, where this beats introsort
        // every cycle. Sequence numbers are unique, so the result is
        // the same permutation std::sort would produce.
        for (std::size_t i = 1; i < cands.size(); ++i) {
            DynInst *c = cands[i];
            std::size_t j = i;
            while (j > 0 && c->seq < cands[j - 1]->seq) {
                cands[j] = cands[j - 1];
                --j;
            }
            cands[j] = c;
        }
    }
};

/** OPT_LAST: dependents of unverified (optimistic) load hits last. */
class OptLastPolicy final : public IssuePolicy
{
  public:
    const char *name() const override { return "OPT_LAST"; }

    void
    order(const PipelineState &st,
          std::vector<DynInst *> &cands) const override
    {
        std::sort(cands.begin(), cands.end(),
                  [&st](const DynInst *a, const DynInst *b) {
                      const bool oa = st.isOptimisticNow(a);
                      const bool ob = st.isOptimisticNow(b);
                      if (oa != ob)
                          return !oa;
                      return a->seq < b->seq;
                  });
    }
};

/** SPEC_LAST: instructions behind an unresolved same-thread branch
 *  last. */
class SpecLastPolicy final : public IssuePolicy
{
  public:
    const char *name() const override { return "SPEC_LAST"; }

    void
    order(const PipelineState &st,
          std::vector<DynInst *> &cands) const override
    {
        auto speculative = [&st](const DynInst *inst) {
            for (const DynInst *br :
                 st.threads[inst->tid].unresolvedBranches) {
                if (br->seq < inst->seq &&
                    br->stage != InstStage::Executed)
                    return true;
            }
            return false;
        };
        std::sort(cands.begin(), cands.end(),
                  [&](const DynInst *a, const DynInst *b) {
                      const bool sa = speculative(a);
                      const bool sb = speculative(b);
                      if (sa != sb)
                          return !sa;
                      return a->seq < b->seq;
                  });
    }
};

/** BRANCH_FIRST: branches as early as possible. */
class BranchFirstPolicy final : public IssuePolicy
{
  public:
    const char *name() const override { return "BRANCH_FIRST"; }

    void
    order(const PipelineState &,
          std::vector<DynInst *> &cands) const override
    {
        std::sort(cands.begin(), cands.end(),
                  [](const DynInst *a, const DynInst *b) {
                      const bool ca = a->isControl();
                      const bool cb = b->isControl();
                      if (ca != cb)
                          return ca;
                      return a->seq < b->seq;
                  });
    }
};

} // namespace smt::policy

#endif // SMT_POLICY_ISSUE_POLICIES_HH
