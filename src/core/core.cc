#include "core/core.hh"

#include <chrono>

#include "common/logging.hh"
#include "obs/pipe_trace.hh"
#include "policy/registry.hh"

namespace smt
{

const char *
StageTimes::stageName(unsigned stage)
{
    switch (stage) {
      case Squash:
        return "squash";
      case Commit:
        return "commit";
      case Execute:
        return "execute";
      case Issue:
        return "issue";
      case Rename:
        return "rename";
      case Decode:
        return "decode";
      case Fetch:
        return "fetch";
      default:
        return "?";
    }
}

SmtCore::SmtCore(const SmtConfig &cfg, MemoryHierarchy &mem,
                 BranchPredictor &bp, std::vector<ThreadProgram *> programs,
                 SimStats &stats)
    : state_(cfg, mem, bp, stats),
      fetchPolicy_(
          policy::PolicyRegistry::instance().makeFetchPolicy(cfg.fetchPolicy)),
      issuePolicy_(
          policy::PolicyRegistry::instance().makeIssuePolicy(cfg.issuePolicy)),
      squash_(state_), commit_(state_), execute_(state_),
      issue_(state_, *issuePolicy_), rename_(state_), decode_(state_),
      fetch_(state_, *fetchPolicy_)
{
    smt_assert(programs.size() == cfg.numThreads,
               "need one program per hardware context (%zu vs %u)",
               programs.size(), cfg.numThreads);
    for (unsigned t = 0; t < state_.numThreads; ++t) {
        state_.threads[t].program = programs[t];
        state_.threads[t].fetchPc = programs[t]->entryPc();
    }
}

void
SmtCore::tick()
{
    squash_.tick();
    commit_.tick();
    execute_.tick();
    issue_.tick();
    rename_.tick();
    decode_.tick();
    fetch_.tick();
    endCycle();
}

namespace
{

template <StageTimes::Stage S, typename StageT>
void
timed(StageTimes &out, StageT &stage)
{
    const auto t0 = std::chrono::steady_clock::now();
    stage.tick();
    const auto t1 = std::chrono::steady_clock::now();
    out.ns[S] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

} // namespace

void
SmtCore::tickTimed(StageTimes &out)
{
    timed<StageTimes::Squash>(out, squash_);
    timed<StageTimes::Commit>(out, commit_);
    timed<StageTimes::Execute>(out, execute_);
    timed<StageTimes::Issue>(out, issue_);
    timed<StageTimes::Rename>(out, rename_);
    timed<StageTimes::Decode>(out, decode_);
    timed<StageTimes::Fetch>(out, fetch_);
    endCycle();
}

void
SmtCore::endCycle()
{
    // Pipetrace sample channel: after the walk, with `cycle` still
    // naming the tick the stages just executed.
    if (obs::PipeTrace *pipe = state_.pipe)
        pipe->endCycle(state_);
    state_.sampleOccupancy();
    ++state_.cycle;
    ++state_.stats.cycles;
}

// --------------------------------------------------------------------------
// Invariant checking (tests)
// --------------------------------------------------------------------------

void
SmtCore::validateInvariants() const
{
    // Register conservation: every physical register is exactly one of
    // free, an architectural mapping, or a pending commit-time free held
    // by an in-flight instruction with a destination.
    unsigned in_flight_int = 0;
    unsigned in_flight_fp = 0;
    for (const ThreadState &ts : state_.threads) {
        InstSeqNum prev_seq = 0;
        for (const DynInst *inst : ts.rob) {
            smt_assert(inst->seq > prev_seq, "ROB not in program order");
            prev_seq = inst->seq;
            if (inst->si->dest.valid()) {
                if (inst->si->dest.file == RegFile::Int)
                    ++in_flight_int;
                else
                    ++in_flight_fp;
            }
        }
        prev_seq = 0;
        for (const DynInst *inst : ts.frontEnd) {
            smt_assert(inst->seq > prev_seq,
                       "front end not in program order");
            prev_seq = inst->seq;
            smt_assert(inst->stage == InstStage::Fetched ||
                       inst->stage == InstStage::Decoded);
        }
    }
    const unsigned arch = kLogRegsPerFile * state_.numThreads;
    smt_assert(state_.intRegs.freeCount() + arch + in_flight_int ==
                   state_.intRegs.physRegs(),
               "integer register leak: %u free + %u arch + %u in-flight "
               "!= %u",
               state_.intRegs.freeCount(), arch, in_flight_int,
               state_.intRegs.physRegs());
    smt_assert(state_.fpRegs.freeCount() + arch + in_flight_fp ==
                   state_.fpRegs.physRegs(),
               "FP register leak: %u free + %u arch + %u in-flight != %u",
               state_.fpRegs.freeCount(), arch, in_flight_fp,
               state_.fpRegs.physRegs());

    smt_assert(state_.intQueue.size() <= state_.intQueue.capacity());
    smt_assert(state_.fpQueue.size() <= state_.fpQueue.capacity());
}

} // namespace smt
