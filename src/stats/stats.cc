#include "stats/stats.hh"

#include <iomanip>
#include <sstream>

namespace smt
{

void
StallStats::add(const StallStats &o)
{
    for (unsigned t = 0; t < kMaxThreads; ++t) {
        fetchActive[t] += o.fetchActive[t];
        fetchIcacheMiss[t] += o.fetchIcacheMiss[t];
        fetchFrontEndFull[t] += o.fetchFrontEndFull[t];
        fetchNoTarget[t] += o.fetchNoTarget[t];
        fetchLostSelection[t] += o.fetchLostSelection[t];
        renameIQFull[t] += o.renameIQFull[t];
        renameNoRegisters[t] += o.renameNoRegisters[t];
        issueOperandWait[t] += o.issueOperandWait[t];
        issueFuBusy[t] += o.issueFuBusy[t];
    }
    issueNoCandidatesCycles += o.issueNoCandidatesCycles;
}

void
SimStats::add(const SimStats &o)
{
    cycles += o.cycles;
    committedInstructions += o.committedInstructions;
    for (unsigned t = 0; t < kMaxThreads; ++t)
        committedPerThread[t] += o.committedPerThread[t];

    fetchedInstructions += o.fetchedInstructions;
    fetchedWrongPath += o.fetchedWrongPath;
    fetchCyclesIdle += o.fetchCyclesIdle;
    fetchBlockedIQFull += o.fetchBlockedIQFull;

    issuedInstructions += o.issuedInstructions;
    issuedWrongPath += o.issuedWrongPath;
    optimisticSquashes += o.optimisticSquashes;

    intIQFullCycles += o.intIQFullCycles;
    fpIQFullCycles += o.fpIQFullCycles;
    for (std::size_t b = 0; b < o.combinedQueuePopulation.buckets(); ++b) {
        const auto count = o.combinedQueuePopulation.bucket(b);
        if (count)
            combinedQueuePopulation.sample(b, count);
    }

    outOfRegistersCycles += o.outOfRegistersCycles;
    stalls.add(o.stalls);

    condBranches += o.condBranches;
    condBranchMispredicts += o.condBranchMispredicts;
    jumps += o.jumps;
    jumpMispredicts += o.jumpMispredicts;
    misfetches += o.misfetches;

    icache.add(o.icache);
    dcache.add(o.dcache);
    l2.add(o.l2);
    l3.add(o.l3);
    itlb.add(o.itlb);
    dtlb.add(o.dtlb);
}

std::string
SimStats::report() const
{
    std::ostringstream os;
    auto pct = [](double v) { return 100.0 * v; };
    os.setf(std::ios::fixed);
    os.precision(2);
    os << "cycles                     " << cycles << '\n'
       << "committed instructions     " << committedInstructions << '\n'
       << "IPC                        " << ipc() << '\n'
       << "fetched (incl. wrong path) " << fetchedInstructions << '\n'
       << "wrong-path fetched         " << pct(wrongPathFetchedFraction())
       << "%\n"
       << "wrong-path issued          " << pct(wrongPathIssuedFraction())
       << "%\n"
       << "optimistic squashed        " << pct(optimisticSquashFraction())
       << "%\n"
       << "int IQ-full cycles         " << pct(intIQFullFraction()) << "%\n"
       << "fp  IQ-full cycles         " << pct(fpIQFullFraction()) << "%\n"
       << "out-of-registers cycles    " << pct(outOfRegistersFraction())
       << "%\n"
       << "avg queue population       " << avgQueuePopulation() << '\n'
       << "branch mispredict rate     " << pct(branchMispredictRate())
       << "%\n"
       << "jump mispredict rate       " << pct(jumpMispredictRate()) << "%\n"
       << "I-cache miss rate          " << pct(icache.missRate()) << "%  ("
       << icache.mpki(committedInstructions) << " MPKI)\n"
       << "D-cache miss rate          " << pct(dcache.missRate()) << "%  ("
       << dcache.mpki(committedInstructions) << " MPKI)\n"
       << "L2 miss rate               " << pct(l2.missRate()) << "%  ("
       << l2.mpki(committedInstructions) << " MPKI)\n"
       << "L3 miss rate               " << pct(l3.missRate()) << "%  ("
       << l3.mpki(committedInstructions) << " MPKI)\n"
       << "ITLB miss rate             " << pct(itlb.missRate()) << "%\n"
       << "DTLB miss rate             " << pct(dtlb.missRate()) << "%\n";
    return os.str();
}

std::string
SimStats::stallReport(unsigned numThreads) const
{
    std::ostringstream os;
    const StallStats &s = stalls;

    os << "stall-cause breakdown (slots; fetch columns partition the "
          "run's cycles per thread)\n";
    os << std::left << std::setw(7) << "thread";
    for (const char *col :
         {"fet.icache", "fet.fefull", "fet.notgt", "fet.lostsel",
          "ren.iqfull", "ren.noregs", "iss.opwait", "iss.fubusy",
          "stalled"})
        os << std::right << std::setw(12) << col;
    os << '\n';

    std::uint64_t grand = 0;
    for (unsigned t = 0; t < numThreads; ++t) {
        const std::uint64_t row = s.fetchStalled(t) + s.renameIQFull[t] +
                                  s.renameNoRegisters[t] +
                                  s.issueOperandWait[t] + s.issueFuBusy[t];
        grand += row;
        os << 'T' << std::left << std::setw(6) << t;
        for (std::uint64_t v :
             {s.fetchIcacheMiss[t], s.fetchFrontEndFull[t],
              s.fetchNoTarget[t], s.fetchLostSelection[t],
              s.renameIQFull[t], s.renameNoRegisters[t],
              s.issueOperandWait[t], s.issueFuBusy[t], row})
            os << std::right << std::setw(12) << v;
        os << '\n';
    }
    grand += s.issueNoCandidatesCycles;
    os << "issue idle cycles (no candidate in either queue)  "
       << s.issueNoCandidatesCycles << '\n';
    os << "total stalled slots                               " << grand
       << '\n';
    return os.str();
}

} // namespace smt
