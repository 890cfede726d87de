#include "stats/stats.hh"

#include <iomanip>
#include <sstream>
#include <type_traits>

namespace smt
{

namespace
{

/** Add `from` into `into`: counters sum, histograms merge exactly,
 *  and a record adds field by field through its field list. */
template <class T>
void
accumulate(T &into, const T &from)
{
    if constexpr (std::is_same_v<T, std::uint64_t>) {
        into += from;
    } else if constexpr (std::is_same_v<T, PerThreadCounts>) {
        for (unsigned t = 0; t < kMaxThreads; ++t)
            into[t] += from[t];
    } else if constexpr (std::is_same_v<T, Histogram>) {
        into.merge(from);
    } else {
        T::fields([](const char *, auto &a, const auto &b) {
            accumulate(a, b);
        }, into, from);
    }
}

} // namespace

void
SimStats::add(const SimStats &o)
{
    accumulate(*this, o);
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
        const std::uint64_t row = s.threadStalled(t);
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
