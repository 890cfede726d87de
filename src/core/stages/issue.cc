#include "core/stages/issue.hh"

#include <algorithm>
#include <array>
#include <cstdint>

#include "isa/latency.hh"
#include "obs/pipe_trace.hh"

namespace smt
{

bool
IssueStage::issueAllowedBySpeculationMode(const DynInst *inst) const
{
    if (st_.cfg.speculation == SpeculationMode::Full)
        return true;
    const ThreadState &ts = st_.threads[inst->tid];
    for (const DynInst *br : ts.unresolvedBranches) {
        if (br->seq >= inst->seq)
            continue;
        if (st_.cfg.speculation == SpeculationMode::NoPassBranch) {
            if (br->stage != InstStage::Executed)
                return false;
        } else { // NoWrongPathIssue
            if (br->stage == InstStage::InQueue ||
                br->stage == InstStage::Fetched ||
                br->stage == InstStage::Decoded)
                return false;
            if (st_.cycle < br->issueCycle + 4)
                return false;
        }
    }
    return true;
}

bool
IssueStage::loadDisambiguated(const DynInst *inst) const
{
    const Addr mask = (Addr{1} << st_.cfg.disambiguationBits) - 1;
    for (const DynInst *st : st_.threads[inst->tid].pendingStores) {
        if (st->seq < inst->seq && st->stage != InstStage::Executed &&
            (st->memAddr & mask) == (inst->memAddr & mask))
            return false;
    }
    return true;
}

void
IssueStage::collectCandidates(InstructionQueue &queue,
                                      std::vector<DynInst *> &out)
{
    // One walk: release the entries whose hold time expired (issued
    // instructions vacate a cycle after issue; optimistically issued
    // ones once verified; loads once their access actually happened)
    // and gather this cycle's issuable candidates from the search
    // window.
    //
    // Readiness is deliberately NOT checked here: a zero-latency
    // producer (Compare, Table 1) issuing earlier in this same tick
    // makes its dependents ready within the cycle, so the readiness
    // test must stay in the issue loop, after the policy ordering.
    queue.releaseThenScan(
        [&](const DynInst *i) {
            return i->stage != InstStage::InQueue &&
                   i->iqReleaseCycle <= st_.cycle;
        },
        queue.searchWindow(),
        [&](DynInst *inst) {
            if (inst->stage != InstStage::InQueue)
                return;
            if (inst->renameCycle >= st_.cycle)
                return; // entered the queue this cycle.
            if (!issueAllowedBySpeculationMode(inst))
                return;
            if (inst->isLoad() && !loadDisambiguated(inst))
                return;
            out.push_back(inst);
        });
}

void
IssueStage::issueInst(DynInst *inst)
{
    inst->stage = InstStage::Issued;
    inst->issueCycle = st_.cycle;
    inst->optimistic = st_.isOptimisticNow(inst);

    ++st_.stats.issuedInstructions;
    if (inst->wrongPath)
        ++st_.stats.issuedWrongPath;

    Cycle release = st_.cycle + 1;
    if (inst->si->dest.valid()) {
        RegisterFileState &rf = st_.file(inst->si->dest.file);
        if (inst->isLoad()) {
            // Optimistic 1-cycle load-use wakeup; verified at execute.
            rf.setReadyAt(inst->destPhys, st_.cycle + 1);
            rf.setUnverifiedUntil(inst->destPhys,
                                  st_.cycle + st_.execOffset);
        } else {
            rf.setReadyAt(inst->destPhys,
                          st_.cycle + opLatency(inst->si->op));
            // Propagate optimism downstream for OPT_LAST/statistics.
            Cycle unv = 0;
            if (inst->si->src1.valid())
                unv = std::max(unv,
                               st_.file(inst->si->src1.file)
                                   .unverifiedUntil(inst->src1Phys));
            if (inst->si->src2.valid())
                unv = std::max(unv,
                               st_.file(inst->si->src2.file)
                                   .unverifiedUntil(inst->src2Phys));
            rf.setUnverifiedUntil(inst->destPhys, unv);
        }
    }
    if (inst->si->isMemory())
        release = st_.cycle + st_.execOffset; // held until the access
                                              // actually happens
                                              // (bank-conflict retry).
    else if (inst->optimistic)
        release = st_.cycle + st_.execOffset; // held until sources
                                              // verify.
    inst->iqReleaseCycle = release;

    st_.execBucket(st_.cycle + st_.execOffset).push_back(inst);
    st_.inFlight.push_back(inst);

    --st_.frontAndQueueCount[inst->tid];
    if (inst->isControl())
        --st_.branchCount[inst->tid];

    // Cold branch (max issueWidth times per cycle, never in the scan
    // loops) — the stack-local tallies above stay aliasing-free.
    if (st_.pipe != nullptr)
        st_.pipe->onIssue(st_, inst);
}

void
IssueStage::tick()
{
    const unsigned big = 1u << 20;
    unsigned int_units =
        st_.cfg.infiniteFunctionalUnits ? big : st_.cfg.intUnits;
    unsigned ls_units =
        st_.cfg.infiniteFunctionalUnits ? big : st_.cfg.loadStoreUnits;
    unsigned fp_units =
        st_.cfg.infiniteFunctionalUnits ? big : st_.cfg.fpUnits;

    // Per-cause skip tallies for this cycle live on the stack: the scan
    // below runs up to 2x the search window per cycle, and a store into
    // st_.stats there may alias the pipeline state, forcing the
    // compiler to reload everything each iteration (measured ~18%
    // single-thread simspeed). Local arrays never escape, so the loop
    // stays tight; one flush per tick moves them into SimStats.
    std::array<std::uint32_t, kMaxThreads> wait_skips{};
    std::array<std::uint32_t, kMaxThreads> busy_skips{};

    cands_.clear();
    collectCandidates(st_.intQueue, cands_);
    policy_.order(st_, cands_);
    bool had_candidates = !cands_.empty();
    std::size_t c = 0;
    for (; c < cands_.size(); ++c) {
        DynInst *inst = cands_[c];
        if (int_units == 0)
            break;
        if (inst->si->isMemory() && ls_units == 0) {
            ++busy_skips[inst->tid];
            continue;
        }
        if (!st_.operandsReady(inst)) {
            ++wait_skips[inst->tid];
            continue;
        }
        --int_units;
        if (inst->si->isMemory())
            --ls_units;
        issueInst(inst);
    }
    for (; c < cands_.size(); ++c)
        ++busy_skips[cands_[c]->tid]; // lost to the unit budget.

    cands_.clear();
    collectCandidates(st_.fpQueue, cands_);
    policy_.order(st_, cands_);
    had_candidates = had_candidates || !cands_.empty();
    for (c = 0; c < cands_.size(); ++c) {
        DynInst *inst = cands_[c];
        if (fp_units == 0)
            break;
        if (!st_.operandsReady(inst)) {
            ++wait_skips[inst->tid];
            continue;
        }
        --fp_units;
        issueInst(inst);
    }
    for (; c < cands_.size(); ++c)
        ++busy_skips[cands_[c]->tid];

    StallStats &sl = st_.stats.stalls;
    for (unsigned t = 0; t < st_.numThreads; ++t) {
        sl.issueOperandWait[t] += wait_skips[t];
        sl.issueFuBusy[t] += busy_skips[t];
    }
    if (!had_candidates)
        ++sl.issueNoCandidatesCycles;
}

} // namespace smt
