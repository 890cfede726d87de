/**
 * @file
 * The pipeline microscope: an opt-in per-instruction lifecycle
 * tracer hooked into the core's stage walk, plus a cycle-sampled
 * occupancy/stall timeline channel.
 *
 * Where the sweep trace (`obs/trace.hh`) records *measurements* —
 * one span per multi-thousand-cycle run — the pipetrace records what
 * happens *inside* one run: every fetch, decode, rename, issue,
 * completion, commit, and squash of every instruction whose fetch
 * falls inside a bounded cycle window, and (optionally) a periodic
 * sample of per-thread IQ occupancy, fetch/issue progress, and the
 * per-cause stall ledger. That is the per-cycle evidence the paper's
 * fetch-policy arguments are made of.
 *
 * Output is JSONL in the same shape the sweep-trace reader already
 * ingests (`ts`/`mono`/`event`/`trace` per line, extra fields
 * preserved), so `obs::TraceSet` parses pipe files unchanged and one
 * sink file can interleave the streams of many runs — each
 * `PipeTrace` mints its own 16-hex stream id, and `tools/smtpipe`
 * demultiplexes by it.
 *
 * Cost discipline: the hook is a single nullable pointer in
 * `PipelineState`. Stages hoist it into a local once per tick (the
 * same aliasing lesson as the stall tallies, see
 * `src/core/stages/issue.cc`) and test it before every call, so a
 * run without a tracer attached executes no pipetrace code beyond
 * those null checks — pinned by the simspeed gate and by the
 * cycle-identity tests in `tests/test_pipe.cpp`.
 */

#ifndef SMT_OBS_PIPE_TRACE_HH
#define SMT_OBS_PIPE_TRACE_HH

#include <array>
#include <cstdint>
#include <set>
#include <string>

#include "common/types.hh"
#include "obs/jsonl.hh"
#include "sweep/json.hh"

namespace smt
{
struct PipelineState;
class DynInst;
} // namespace smt

namespace smt::obs
{

/** What to trace. Deliberately *not* part of `MeasureOptions`: the
 *  microscope must never perturb a measurement digest. */
struct PipeTraceOptions
{
    /** First cycle of the admission window (absolute machine cycles,
     *  warmup included — `Simulator::warmup()` does not reset the
     *  cycle counter). An instruction is traced iff it was *fetched*
     *  inside the window; its later lifecycle events follow it out
     *  of the window so every traced instruction closes. */
    Cycle windowFirst = 0;
    /** Last admitted fetch cycle, inclusive. */
    Cycle windowLast = kCycleNever;
    /** Emit a `sample` timeline event every N cycles (cycles where
     *  `cycle % N == 0`, within the window); 0 disables sampling. */
    std::uint64_t samplePeriod = 0;
};

/** The sink every run's stream appends to: the shared JSONL writer,
 *  so streams on pool threads interleave whole lines. */
using PipeTraceSink = JsonlWriter;

/**
 * One run's pipetrace stream. Attach to a core via
 * `Simulator::attachPipeTrace()` (or `SmtCore::setPipeTrace()`)
 * before the run; call `finish()` (or destroy) after it. The stages
 * call the `on*` hooks as instructions move; the engine calls
 * `endCycle()` once per tick after the stage walk.
 *
 * Event catalog (every line also carries `ts`, `mono`, `event`, and
 * the stream's `trace` id):
 *
 *  - `pipe_start`: window/sample options + caller metadata
 *    (digest/label/run/threads when launched by the sweep runner).
 *  - `fetch`: `cyc`, `t`, `seq`, `pc`, `op`, `wp` (wrong-path).
 *  - `decode`, `rename`, `exec`, `commit`: `cyc`, `seq`.
 *  - `issue`: `cyc`, `seq`, `opt` (optimistically scheduled load).
 *  - `requeue`: `cyc`, `seq`, `cause` (`bank_conflict` |
 *    `stale_wakeup`) — the instruction returns to the queue.
 *  - `squash`: `cyc`, `seq`, `cause` (`mispredict` | `misfetch` |
 *    `drain`), `stage` (pipeline stage it died in; absent for
 *    `drain`).
 *  - `rename_blocked`: `cyc`, `t`, `cause` (`iq_full` | `no_regs`)
 *    — at most one per thread per cycle, mirroring the stall ledger.
 *  - `sample`: `cyc` plus per-thread arrays `iq` (IQ entries held),
 *    `fe` (front-end + queue occupancy, the ICOUNT metric),
 *    `fetched`/`issued` (cumulative instruction counts), scalar
 *    `intq`/`fpq` totals, and `stalls` (cumulative per-cause
 *    per-thread counters from the PR-7 ledger).
 *  - `pipe_done`: `cyc`, `traced`, `drained` — the closing line;
 *    its absence is how `smtpipe --check` detects a truncated file.
 */
class PipeTrace
{
  public:
    PipeTrace(PipeTraceSink &sink, const PipeTraceOptions &opts,
              sweep::Json meta = sweep::Json());
    ~PipeTrace();

    PipeTrace(const PipeTrace &) = delete;
    PipeTrace &operator=(const PipeTrace &) = delete;

    const PipeTraceOptions &options() const { return opts_; }

    // ---- stage hooks -------------------------------------------------
    void onFetch(const PipelineState &st, const DynInst *inst);
    void onDecode(const PipelineState &st, const DynInst *inst);
    void onRename(const PipelineState &st, const DynInst *inst);
    void onRenameBlocked(const PipelineState &st, ThreadID tid,
                         const char *cause);
    void onIssue(const PipelineState &st, const DynInst *inst);
    void onExecComplete(const PipelineState &st, const DynInst *inst);
    void onRequeue(const PipelineState &st, const DynInst *inst,
                   const char *cause);
    void onCommit(const PipelineState &st, const DynInst *inst);
    void onSquash(const PipelineState &st, const DynInst *inst,
                  const char *cause);

    /** Called by the engine after the stage walk, once per tick:
     *  emits the `sample` timeline line when due. */
    void endCycle(const PipelineState &st);

    /** Close the stream: emit `drain` squashes for instructions
     *  still in flight (the run budget expired under them) and the
     *  `pipe_done` line. Idempotent; the destructor calls it. */
    void finish();

  private:
    bool inWindow(Cycle c) const
    {
        return c >= opts_.windowFirst && c <= opts_.windowLast;
    }
    bool traced(const DynInst *inst) const;
    void emit(const char *event, sweep::Json fields);
    void emitInstEvent(const char *event, Cycle cyc,
                       const DynInst *inst);

    PipeTraceSink &sink_;
    PipeTraceOptions opts_;
    std::string stream_;
    /** Seqs admitted at fetch and not yet committed/squashed. */
    std::set<InstSeqNum> live_;
    /** Cumulative per-thread progress, fed to `sample` lines;
     *  counted for *every* instruction, traced or not. */
    std::array<std::uint64_t, kMaxThreads> fetched_{};
    std::array<std::uint64_t, kMaxThreads> issued_{};
    Cycle lastCycle_ = 0;
    std::uint64_t tracedCount_ = 0;
    bool finished_ = false;
};

} // namespace smt::obs

#endif // SMT_OBS_PIPE_TRACE_HH
