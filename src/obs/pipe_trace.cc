#include "obs/pipe_trace.hh"

#include <utility>

#include "core/dyn_inst.hh"
#include "core/pipeline_state.hh"
#include "isa/static_inst.hh"
#include "obs/trace.hh"
#include "stats/stats.hh"
#include "sweep/serialize.hh"

namespace smt::obs
{

namespace
{

const char *
stageName(InstStage s)
{
    switch (s) {
    case InstStage::Fetched:
        return "fetched";
    case InstStage::Decoded:
        return "decoded";
    case InstStage::InQueue:
        return "inqueue";
    case InstStage::Issued:
        return "issued";
    case InstStage::Executed:
        return "executed";
    }
    return "?";
}

/** Per-thread counter array → JSON array of numThreads entries. */
template <typename T>
sweep::Json
threadArray(const T &counts, unsigned threads)
{
    sweep::Json arr = sweep::Json::array();
    for (unsigned t = 0; t < threads; ++t)
        arr.push(sweep::Json(static_cast<std::uint64_t>(counts[t])));
    return arr;
}

} // namespace

// ---- PipeTrace ---------------------------------------------------------

PipeTrace::PipeTrace(PipeTraceSink &sink, const PipeTraceOptions &opts,
                     sweep::Json meta)
    : sink_(sink), opts_(opts), stream_(newTraceId())
{
    sweep::Json fields = sweep::Json::object();
    fields.set("window_first", sweep::Json(opts_.windowFirst));
    if (opts_.windowLast != kCycleNever)
        fields.set("window_last", sweep::Json(opts_.windowLast));
    fields.set("sample_period", sweep::Json(opts_.samplePeriod));
    if (meta.type() == sweep::Json::Type::Object)
        for (const auto &[key, value] : meta.items())
            fields.set(key, value);
    emit("pipe_start", std::move(fields));
}

PipeTrace::~PipeTrace()
{
    finish();
}

bool
PipeTrace::traced(const DynInst *inst) const
{
    return live_.count(inst->seq) != 0;
}

void
PipeTrace::emit(const char *event, sweep::Json fields)
{
    sweep::Json line = sweep::Json::object();
    line.set("ts", sweep::Json(nowUnixSeconds()));
    line.set("mono", sweep::Json(monoSeconds()));
    line.set("event", sweep::Json(event));
    line.set("trace", sweep::Json(stream_));
    if (fields.type() == sweep::Json::Type::Object)
        for (const auto &[key, value] : fields.items())
            line.set(key, value);
    sink_.write(line.dump());
}

void
PipeTrace::emitInstEvent(const char *event, Cycle cyc,
                         const DynInst *inst)
{
    sweep::Json fields = sweep::Json::object();
    fields.set("cyc", sweep::Json(cyc));
    fields.set("seq", sweep::Json(inst->seq));
    emit(event, std::move(fields));
}

void
PipeTrace::onFetch(const PipelineState &st, const DynInst *inst)
{
    const Cycle cyc = st.cycle;
    lastCycle_ = cyc;
    ++fetched_[inst->tid];
    if (!inWindow(cyc))
        return;
    live_.insert(inst->seq);
    ++tracedCount_;

    sweep::Json fields = sweep::Json::object();
    fields.set("cyc", sweep::Json(cyc));
    fields.set("t", sweep::Json(std::uint64_t(inst->tid)));
    fields.set("seq", sweep::Json(inst->seq));
    fields.set("pc", sweep::Json(inst->pc));
    fields.set("op", sweep::Json(opClassName(inst->si->op)));
    if (inst->wrongPath)
        fields.set("wp", sweep::Json(true));
    emit("fetch", std::move(fields));
}

void
PipeTrace::onDecode(const PipelineState &st, const DynInst *inst)
{
    if (traced(inst))
        emitInstEvent("decode", st.cycle, inst);
}

void
PipeTrace::onRename(const PipelineState &st, const DynInst *inst)
{
    if (traced(inst))
        emitInstEvent("rename", st.cycle, inst);
}

void
PipeTrace::onRenameBlocked(const PipelineState &st, ThreadID tid,
                           const char *cause)
{
    if (!inWindow(st.cycle))
        return;
    sweep::Json fields = sweep::Json::object();
    fields.set("cyc", sweep::Json(st.cycle));
    fields.set("t", sweep::Json(std::uint64_t(tid)));
    fields.set("cause", sweep::Json(cause));
    emit("rename_blocked", std::move(fields));
}

void
PipeTrace::onIssue(const PipelineState &st, const DynInst *inst)
{
    ++issued_[inst->tid];
    if (!traced(inst))
        return;
    sweep::Json fields = sweep::Json::object();
    fields.set("cyc", sweep::Json(st.cycle));
    fields.set("seq", sweep::Json(inst->seq));
    if (inst->optimistic)
        fields.set("opt", sweep::Json(true));
    emit("issue", std::move(fields));
}

void
PipeTrace::onExecComplete(const PipelineState &st, const DynInst *inst)
{
    if (traced(inst))
        emitInstEvent("exec", st.cycle, inst);
}

void
PipeTrace::onRequeue(const PipelineState &st, const DynInst *inst,
                     const char *cause)
{
    if (!traced(inst))
        return;
    sweep::Json fields = sweep::Json::object();
    fields.set("cyc", sweep::Json(st.cycle));
    fields.set("seq", sweep::Json(inst->seq));
    fields.set("cause", sweep::Json(cause));
    emit("requeue", std::move(fields));
}

void
PipeTrace::onCommit(const PipelineState &st, const DynInst *inst)
{
    if (!traced(inst))
        return;
    live_.erase(inst->seq);
    emitInstEvent("commit", st.cycle, inst);
}

void
PipeTrace::onSquash(const PipelineState &st, const DynInst *inst,
                    const char *cause)
{
    if (!traced(inst))
        return;
    live_.erase(inst->seq);
    sweep::Json fields = sweep::Json::object();
    fields.set("cyc", sweep::Json(st.cycle));
    fields.set("seq", sweep::Json(inst->seq));
    fields.set("cause", sweep::Json(cause));
    fields.set("stage", sweep::Json(stageName(inst->stage)));
    emit("squash", std::move(fields));
}

void
PipeTrace::endCycle(const PipelineState &st)
{
    lastCycle_ = st.cycle;
    if (opts_.samplePeriod == 0 || !inWindow(st.cycle)
        || st.cycle % opts_.samplePeriod != 0)
        return;

    // Per-thread IQ residency: one pass over both queues.
    std::array<std::uint64_t, kMaxThreads> iq{};
    for (const InstructionQueue *q : {&st.intQueue, &st.fpQueue})
        for (std::size_t i = 0; i < q->size(); ++i)
            ++iq[q->at(i)->tid];

    const unsigned threads = st.numThreads;
    sweep::Json fields = sweep::Json::object();
    fields.set("cyc", sweep::Json(st.cycle));
    fields.set("iq", threadArray(iq, threads));
    fields.set("fe", threadArray(st.frontAndQueueCount, threads));
    fields.set("fetched", threadArray(fetched_, threads));
    fields.set("issued", threadArray(issued_, threads));
    fields.set("intq",
               sweep::Json(std::uint64_t(st.intQueue.size())));
    fields.set("fpq", sweep::Json(std::uint64_t(st.fpQueue.size())));

    // Cumulative stall ledger (PR-7 vocabulary). Deltas between
    // samples attribute lost slots per cause; note `warmup()` zeroes
    // these counters, so windows spanning the warmup boundary see
    // one negative delta (smtpipe clamps it).
    fields.set("stalls", sweep::toJson(st.stats.stalls, threads));

    emit("sample", std::move(fields));
}

void
PipeTrace::finish()
{
    if (finished_)
        return;
    finished_ = true;

    // The run budget expired with these still in flight: close their
    // lifecycles so a *complete* file always balances (and a
    // truncated one detectably does not).
    const std::uint64_t drained = live_.size();
    for (InstSeqNum seq : live_) {
        sweep::Json fields = sweep::Json::object();
        fields.set("cyc", sweep::Json(lastCycle_));
        fields.set("seq", sweep::Json(seq));
        fields.set("cause", sweep::Json("drain"));
        emit("squash", std::move(fields));
    }
    live_.clear();

    sweep::Json fields = sweep::Json::object();
    fields.set("cyc", sweep::Json(lastCycle_));
    fields.set("traced", sweep::Json(tracedCount_));
    fields.set("drained", sweep::Json(drained));
    emit("pipe_done", std::move(fields));
}

} // namespace smt::obs
