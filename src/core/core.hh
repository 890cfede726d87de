/**
 * @file
 * SmtCore: the simultaneous multithreading pipeline of Section 2.
 *
 * The core owns the shared PipelineState, the two policy objects and
 * the seven stage objects, and walks the stages back to front so each
 * stage consumes state the previous cycle produced:
 *   squash-apply -> commit -> execute -> issue -> rename/dispatch ->
 *   decode -> fetch
 *
 * The fetch and issue policies are resolved once, at construction, from
 * the registry names the config carries (policy/registry.hh); the fetch
 * and issue stages then consult them through the policy interfaces, so
 * every policy, builtin or plugin, runs on the same stage code.
 *
 * Pipeline shape (Figure 2b): fetch, decode, rename, queue, regread x2,
 * exec, regwrite, commit. An instruction issued at cycle t reaches the
 * execute stage at t + execOffset (3 on the SMT pipeline, 2 on the
 * conventional superscalar pipeline of Figure 2a). Mispredict, misfetch,
 * and misqueue penalties all emerge from the stage distances rather than
 * being hard-coded constants.
 *
 * Wrong paths are fetched, renamed, issued and executed for real, using
 * the actual code image; they are squashed one cycle after the
 * mispredicted branch executes (Section 3).
 */

#ifndef SMT_CORE_CORE_HH
#define SMT_CORE_CORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/pipeline_state.hh"
#include "core/stages/commit.hh"
#include "core/stages/decode.hh"
#include "core/stages/execute.hh"
#include "core/stages/fetch.hh"
#include "core/stages/issue.hh"
#include "core/stages/rename_dispatch.hh"
#include "core/stages/squash.hh"
#include "policy/fetch_policy.hh"
#include "policy/issue_policy.hh"

namespace smt
{

/** Wall-clock nanoseconds accumulated per pipeline stage
 *  (SmtCore::tickTimed instrumentation for the simspeed benchmarks). */
struct StageTimes
{
    enum Stage : unsigned
    {
        Squash,
        Commit,
        Execute,
        Issue,
        Rename,
        Decode,
        Fetch,
        kNumStages,
    };

    std::array<std::uint64_t, kNumStages> ns{};

    static const char *stageName(unsigned stage);

    std::uint64_t
    totalNs() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : ns)
            sum += v;
        return sum;
    }
};

/** The SMT processor core. */
class SmtCore
{
  public:
    /**
     * @param programs one oracle per hardware context; size() defines
     *        the live thread count (<= cfg.numThreads).
     */
    SmtCore(const SmtConfig &cfg, MemoryHierarchy &mem,
            BranchPredictor &bp, std::vector<ThreadProgram *> programs,
            SimStats &stats);

    // The stage objects hold references into state_ and the policies:
    // moving or copying a core would leave them aimed at the source.
    SmtCore(const SmtCore &) = delete;
    SmtCore &operator=(const SmtCore &) = delete;

    /** Advance the machine one cycle. */
    void tick();

    /** tick() with per-stage wall-clock accumulation (benchmarks). */
    void tickTimed(StageTimes &out);

    Cycle cycle() const { return state_.cycle; }

    /** Committed useful instructions so far (all threads). */
    std::uint64_t
    committed() const
    {
        return state_.stats.committedInstructions;
    }

    /** Pool high-water mark (steady-state allocation audits). */
    std::size_t poolAllocated() const { return state_.pool.allocated(); }

    /** The resolved policy objects (introspection for tests/tools). */
    const policy::FetchPolicy &fetchPolicy() const { return *fetchPolicy_; }
    const policy::IssuePolicy &issuePolicy() const { return *issuePolicy_; }

    /** Attach (or with nullptr detach) a pipeline microscope; the
     *  stages consult the pointer, tick() drives its sample channel.
     *  See obs/pipe_trace.hh. */
    void setPipeTrace(obs::PipeTrace *pipe) { state_.pipe = pipe; }

    /**
     * Check structural invariants (register conservation, program-order
     * ROBs, queue capacities). Panics on violation; for tests.
     */
    void validateInvariants() const;

  private:
    /** Close the cycle the stages just ran. */
    void endCycle();

    PipelineState state_;
    std::unique_ptr<const policy::FetchPolicy> fetchPolicy_;
    std::unique_ptr<const policy::IssuePolicy> issuePolicy_;

    // Stage objects, declared in tick() order; each holds a reference
    // to state_.
    SquashStage squash_;
    CommitStage commit_;
    ExecuteStage execute_;
    IssueStage issue_;
    RenameDispatchStage rename_;
    DecodeStage decode_;
    FetchStage fetch_;
};

} // namespace smt

#endif // SMT_CORE_CORE_HH
