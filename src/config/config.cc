#include "config/config.hh"

#include <sstream>

#include "common/logging.hh"
#include "policy/registry.hh"

namespace smt
{

const char *
toString(SpeculationMode m)
{
    switch (m) {
      case SpeculationMode::Full: return "full";
      case SpeculationMode::NoPassBranch: return "no-pass-branch";
      case SpeculationMode::NoWrongPathIssue: return "no-wrong-path-issue";
    }
    return "?";
}

std::string
SmtConfig::fetchSchemeName() const
{
    std::ostringstream os;
    os << fetchPolicy << '.' << fetchThreads << '.'
       << fetchPerThread;
    return os.str();
}

void
SmtConfig::validate() const
{
    if (numThreads < 1 || numThreads > kMaxThreads)
        smt_fatal("numThreads must be in [1, %u], got %u", kMaxThreads,
                  numThreads);
    // fetchThreads may exceed numThreads (e.g. a 2.8 scheme run with one
    // thread); the fetch unit clamps to the live thread count.
    if (fetchThreads < 1 || fetchThreads > kMaxThreads)
        smt_fatal("fetchThreads (%u) must be in [1, %u]", fetchThreads,
                  kMaxThreads);
    if (fetchPerThread < 1 || fetchPerThread > fetchWidth)
        smt_fatal("fetchPerThread (%u) must be in [1, fetchWidth=%u]",
                  fetchPerThread, fetchWidth);
    if (iqSearchWindow > intQueueEntries || iqSearchWindow > fpQueueEntries)
        smt_fatal("iqSearchWindow (%u) exceeds a queue size", iqSearchWindow);
    if (loadStoreUnits > intUnits)
        smt_fatal("loadStoreUnits (%u) must not exceed intUnits (%u)",
                  loadStoreUnits, intUnits);
    const unsigned min_regs = kLogRegsPerFile * numThreads + 1;
    if (physRegsPerFile() < min_regs)
        smt_fatal("%u physical registers per file cannot hold %u "
                  "architectural registers plus renaming space",
                  physRegsPerFile(), min_regs - 1);
    for (const CacheParams *cp : {&icache, &dcache, &l2, &l3}) {
        if (cp->sizeBytes == 0 || cp->lineBytes == 0 || cp->banks == 0)
            smt_fatal("%s: zero size, line, or banks", cp->name.c_str());
        if (cp->sizeBytes % (cp->lineBytes * cp->assoc * cp->banks) != 0)
            smt_fatal("%s: size must be divisible by line*assoc*banks",
                      cp->name.c_str());
    }
    if (pageBytes == 0 || (pageBytes & (pageBytes - 1)) != 0)
        smt_fatal("pageBytes must be a power of two");
    const auto &registry = policy::PolicyRegistry::instance();
    if (!registry.hasFetchPolicy(fetchPolicy))
        smt_fatal("unregistered fetch policy \"%s\"", fetchPolicy.c_str());
    if (!registry.hasIssuePolicy(issuePolicy))
        smt_fatal("unregistered issue policy \"%s\"", issuePolicy.c_str());
}

namespace presets
{

SmtConfig
baseSmt(unsigned threads)
{
    SmtConfig cfg;
    cfg.numThreads = threads;
    cfg.fetchPolicy = "RR";
    cfg.fetchThreads = 1;
    cfg.fetchPerThread = 8;
    return cfg;
}

SmtConfig
unmodifiedSuperscalar()
{
    SmtConfig cfg;
    cfg.numThreads = 1;
    cfg.longRegisterPipeline = false;
    return cfg;
}

SmtConfig
icount28(unsigned threads)
{
    SmtConfig cfg = baseSmt(threads);
    cfg.fetchPolicy = "ICOUNT";
    setFetchPartition(cfg, 2, 8);
    return cfg;
}

void
setFetchPartition(SmtConfig &cfg, unsigned threads_per_cycle,
                  unsigned width_per_thread)
{
    cfg.fetchThreads = threads_per_cycle;
    cfg.fetchPerThread = width_per_thread;
}

} // namespace presets

} // namespace smt
