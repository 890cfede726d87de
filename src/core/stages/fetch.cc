#include "core/stages/fetch.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/pipe_trace.hh"

namespace smt
{

unsigned
FetchStage::selectFetchThreads()
{
    unsigned num_cands = 0;

    policy_.beginCycle(st_);

    for (unsigned t = 0; t < st_.numThreads; ++t) {
        const ThreadID tid = static_cast<ThreadID>(t);
        ThreadState &ts = st_.threads[t];
        if (st_.fetchReadyAt[t] > st_.cycle) {
            outcome_[t] = FetchOutcome::IcacheMiss;
            continue;
        }
        if (ts.frontEnd.size() + st_.cfg.fetchPerThread > st_.frontEndCap) {
            ++st_.stats.fetchBlockedIQFull;
            outcome_[t] = FetchOutcome::FrontEndFull;
            continue;
        }
        if (ts.program->image().at(ts.fetchPc) == nullptr) {
            outcome_[t] = FetchOutcome::NoTarget;
            continue; // bogus predicted target; awaiting resolution.
        }
        if (st_.cfg.itagEarlyLookup &&
            !st_.mem.icacheWouldHit(ts.fetchPc)) {
            // ITAG: the probe happened a cycle early, so the miss can
            // start now while another thread takes the fetch slot.
            const auto r = st_.mem.fetchAccess(tid, ts.fetchPc, st_.cycle);
            if (!r.bankConflict && r.ready > st_.cycle)
                st_.fetchReadyAt[t] = r.ready;
            outcome_[t] = FetchOutcome::IcacheMiss;
            continue;
        }
        // Provisionally a lost slot; tick() upgrades the selected.
        outcome_[t] = FetchOutcome::LostSelection;
        const unsigned rr =
            (t + st_.numThreads - st_.rrBase) % st_.numThreads;
        cands_[num_cands++] = {policy_.priorityKey(st_, tid), rr, tid};
    }

    sortFetchCandidates(cands_.data(), num_cands);

    // Take up to fetchThreads threads, skipping I-cache bank conflicts
    // against already chosen ones.
    unsigned num_selected = 0;
    for (unsigned c = 0; c < num_cands; ++c) {
        if (num_selected >= st_.cfg.fetchThreads)
            break;
        const ThreadID tid = cands_[c].tid;
        const unsigned bank = st_.mem.icacheBank(st_.threads[tid].fetchPc);
        const auto banks_end = banks_.begin() + num_selected;
        if (std::find(banks_.begin(), banks_end, bank) != banks_end)
            continue;
        banks_[num_selected] = bank;
        selected_[num_selected++] = tid;
    }
    return num_selected;
}

DynInst *
FetchStage::buildInst(ThreadState &ts, ThreadID tid, Addr pc)
{
    const StaticInst *si = ts.program->image().at(pc);
    smt_assert(si != nullptr);

    DynInst *inst = st_.pool.alloc();
    inst->seq = st_.nextSeq++;
    inst->tid = tid;
    inst->pc = pc;
    inst->si = si;
    inst->fetchCycle = st_.cycle;

    if (!ts.onWrongPath) {
        const OracleEntry &e = ts.program->entryAt(ts.nextStreamIdx);
        if (e.pc == pc) {
            inst->streamIdx = ts.nextStreamIdx++;
            inst->actualTaken = e.taken;
            inst->actualNextPc = e.nextPc;
            inst->memAddr = e.memAddr;
        } else {
            ts.onWrongPath = true;
        }
    }
    if (inst->streamIdx == kNoStreamIdx) {
        inst->wrongPath = true;
        if (si->isMemory())
            inst->memAddr =
                ts.program->image().wrongPathMemAddr(*si, inst->seq);
    }
    return inst;
}

unsigned
FetchStage::fetchFromThread(ThreadID tid, unsigned max_insts)
{
    ThreadState &ts = st_.threads[tid];
    obs::PipeTrace *const pipe = st_.pipe;
    Addr pc = ts.fetchPc;
    // The fetch block: up to the end of the aligned 8-instruction
    // (32-byte) group the PC falls in — the output-bus granularity.
    const Addr block_end = (pc & ~Addr{31}) + 32;
    unsigned fetched = 0;

    while (fetched < max_insts && pc < block_end) {
        const StaticInst *si = ts.program->image().at(pc);
        if (si == nullptr)
            break;
        DynInst *inst = buildInst(ts, tid, pc);
        bool stop = false;

        if (si->isControl()) {
            const FetchPrediction fp =
                st_.bp.predict(tid, pc, *si, inst->actualTaken,
                               inst->actualNextPc);
            inst->predTaken = fp.predTaken;
            inst->historySnapshot = fp.historySnapshot;
            inst->rasCheckpoint = fp.rasCheckpoint;
            Addr next = pc + kInstBytes;
            if (fp.predTaken && fp.predTarget != kNoAddr)
                next = fp.predTarget;
            inst->nextFetchPc = next;
            if (inst->wrongPath) {
                // Wrong-path control resolves as it predicted.
                inst->actualTaken = fp.predTaken;
                inst->actualNextPc = next;
            }
            pc = next;
            stop = fp.predTaken; // no fetching past a taken branch.
        } else {
            inst->nextFetchPc = pc + kInstBytes;
            pc += kInstBytes;
        }

        ts.frontEnd.push_back(inst);
        if (pipe != nullptr)
            pipe->onFetch(st_, inst);
        ++st_.frontAndQueueCount[tid];
        if (inst->isControl())
            ++st_.branchCount[tid];
        ++st_.stats.fetchedInstructions;
        if (inst->wrongPath)
            ++st_.stats.fetchedWrongPath;
        ++fetched;
        if (stop)
            break;
    }

    ts.fetchPc = pc;
    return fetched;
}

void
FetchStage::tick()
{
    const unsigned num_selected = selectFetchThreads();

    unsigned total = 0;
    for (unsigned s = 0; s < num_selected; ++s) {
        const ThreadID tid = selected_[s];
        if (total >= st_.cfg.fetchWidth)
            break;
        ThreadState &ts = st_.threads[tid];
        const unsigned budget =
            std::min(st_.cfg.fetchPerThread, st_.cfg.fetchWidth - total);

        const auto r = st_.mem.fetchAccess(tid, ts.fetchPc, st_.cycle);
        if (r.bankConflict) {
            outcome_[tid] = FetchOutcome::IcacheMiss;
            continue; // lost the bank to fill traffic this cycle.
        }
        if (r.ready > st_.cycle) {
            // I-cache (or ITLB) miss: the thread stalls while it fills.
            st_.fetchReadyAt[tid] = r.ready;
            outcome_[tid] = FetchOutcome::IcacheMiss;
            continue;
        }
        const unsigned fetched = fetchFromThread(tid, budget);
        if (fetched > 0)
            outcome_[tid] = FetchOutcome::Active;
        total += fetched;
    }

    StallStats &sl = st_.stats.stalls;
    for (unsigned t = 0; t < st_.numThreads; ++t) {
        switch (outcome_[t]) {
        case FetchOutcome::Active:
            ++sl.fetchActive[t];
            break;
        case FetchOutcome::IcacheMiss:
            ++sl.fetchIcacheMiss[t];
            break;
        case FetchOutcome::FrontEndFull:
            ++sl.fetchFrontEndFull[t];
            break;
        case FetchOutcome::NoTarget:
            ++sl.fetchNoTarget[t];
            break;
        case FetchOutcome::LostSelection:
            ++sl.fetchLostSelection[t];
            break;
        }
    }

    st_.rrBase = (st_.rrBase + 1) % st_.numThreads;
    if (total == 0)
        ++st_.stats.fetchCyclesIdle;
}

} // namespace smt
