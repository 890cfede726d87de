/**
 * @file
 * Simulator: assembles one complete machine — generated programs for
 * each hardware context, the memory hierarchy, the branch predictor, and
 * the SMT core — and runs it for a cycle or instruction budget.
 */

#ifndef SMT_SIM_SIMULATOR_HH
#define SMT_SIM_SIMULATOR_HH

#include <memory>
#include <vector>

#include "branch/predictor.hh"
#include "config/config.hh"
#include "core/core.hh"
#include "mem/hierarchy.hh"
#include "stats/stats.hh"
#include "workload/code_image.hh"
#include "workload/oracle.hh"
#include "workload/profile.hh"

namespace smt
{

/** One assembled machine instance. */
class Simulator
{
  public:
    /**
     * @param cfg machine configuration (cfg.numThreads contexts).
     * @param mix benchmark per context; size must equal cfg.numThreads.
     * @param seed_salt combined with cfg.seed so distinct runs of a data
     *        point see distinct program/oracle randomness.
     */
    Simulator(const SmtConfig &cfg, const std::vector<Benchmark> &mix,
              std::uint64_t seed_salt = 0);

    // The core holds references into this object: not copyable or
    // movable (construct in place; guaranteed elision covers factory
    // returns).
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Run until `max_cycles` have elapsed or `max_instructions` have
     * been committed (whichever comes first; 0 disables a limit, but at
     * least one limit must be set).
     */
    const SimStats &run(std::uint64_t max_cycles,
                        std::uint64_t max_instructions = 0);

    /** Run `cycles` then discard all statistics gathered so far.
     *  Note the *cycle counter* is not reset — pipetrace windows are
     *  absolute machine cycles and include warmup. */
    void warmup(std::uint64_t cycles);

    /** Attach a pipeline microscope for subsequent run()/warmup()
     *  cycles (nullptr detaches). Caller keeps ownership and must
     *  outlive the attachment. */
    void
    attachPipeTrace(obs::PipeTrace *pipe)
    {
        core_->setPipeTrace(pipe);
    }

    const SimStats &stats() const { return stats_; }
    SmtCore &core() { return *core_; }
    MemoryHierarchy &memory() { return *mem_; }
    const SmtConfig &config() const { return cfg_; }

  private:
    SmtConfig cfg_;
    SimStats stats_;
    std::vector<std::unique_ptr<CodeImage>> images_;
    std::vector<std::unique_ptr<ThreadProgram>> programs_;
    std::unique_ptr<MemoryHierarchy> mem_;
    std::unique_ptr<BranchPredictor> bp_;
    std::unique_ptr<SmtCore> core_;
};

} // namespace smt

#endif // SMT_SIM_SIMULATOR_HH
