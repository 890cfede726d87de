#include "sweep/experiments.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "common/logging.hh"
#include "stats/table.hh"

namespace smt::sweep
{

namespace
{

// Shorthand for axis-option construction.
AxisOption
opt(std::string label, std::vector<KnobAssignment> knobs,
    std::vector<unsigned> thread_counts = {})
{
    return AxisOption{std::move(label), std::move(knobs),
                      std::move(thread_counts)};
}

/** Fetch partitioning T.W: up to W instructions from each of T threads. */
std::vector<KnobAssignment>
partition(unsigned threads, unsigned width)
{
    return {{"fetchThreads", Json(threads)}, {"fetchPerThread", Json(width)}};
}

const std::vector<unsigned> kPaperThreadCounts = {1, 2, 4, 6, 8};

// ---- Metrics and tables ----------------------------------------------------

using Metric = double (*)(const SimStats &);

/** A per-point metric as the reports and claims name it. */
struct MetricRow
{
    const char *key;  ///< claim-id fragment.
    const char *name; ///< table row label.
    ClaimUnit unit;
    Metric metric;
    double table3[3]; ///< the paper's Table 3 value at 1, 4, 8 threads.
};

enum MetricId
{
    kOutOfRegisters, kIcacheMissRate, kIcacheMpki, kDcacheMissRate,
    kDcacheMpki, kL2MissRate, kL3MissRate, kBranchMispredict,
    kJumpMispredict, kIntIQFull, kFpIQFull, kQueuePopulation,
    kWrongPathFetched, kWrongPathIssued, kIpc,
    kTable3Rows, ///< the rows above are Table 3's.
    kOptimisticSquashed = kTable3Rows,
    kMetricCount,
};

using S = const SimStats &;
constexpr ClaimUnit kPct = ClaimUnit::Percent, kNum = ClaimUnit::Number;
constexpr MetricRow kMetrics[kMetricCount] = {
    {"out-of-registers", "out-of-registers (% cycles)", kPct,
     [](S s) { return s.outOfRegistersFraction(); }, {0.03, 0.07, 0.03}},
    {"icache-miss-rate", "I-cache miss rate", kPct,
     [](S s) { return s.icache.missRate(); }, {0.025, 0.078, 0.141}},
    {"icache-mpki", "I-cache MPKI", kNum,
     [](S s) { return s.icache.mpki(s.committedInstructions); }, {6, 17, 29}},
    {"dcache-miss-rate", "D-cache miss rate", kPct,
     [](S s) { return s.dcache.missRate(); }, {0.031, 0.065, 0.113}},
    {"dcache-mpki", "D-cache MPKI", kNum,
     [](S s) { return s.dcache.mpki(s.committedInstructions); }, {12, 25, 43}},
    {"l2-miss-rate", "L2 miss rate", kPct,
     [](S s) { return s.l2.missRate(); }, {0.176, 0.150, 0.125}},
    {"l3-miss-rate", "L3 miss rate", kPct,
     [](S s) { return s.l3.missRate(); }, {0.551, 0.336, 0.454}},
    {"branch-mispredict-rate", "branch mispredict rate", kPct,
     [](S s) { return s.branchMispredictRate(); }, {0.050, 0.074, 0.091}},
    {"jump-mispredict-rate", "jump mispredict rate", kPct,
     [](S s) { return s.jumpMispredictRate(); }, {0.022, 0.064, 0.129}},
    {"int-iq-full", "integer IQ-full (% cycles)", kPct,
     [](S s) { return s.intIQFullFraction(); }, {0.07, 0.10, 0.09}},
    {"fp-iq-full", "fp IQ-full (% cycles)", kPct,
     [](S s) { return s.fpIQFullFraction(); }, {0.14, 0.09, 0.03}},
    {"queue-population", "avg queue population", kNum,
     [](S s) { return s.avgQueuePopulation(); }, {25, 25, 27}},
    {"wrong-path-fetched", "wrong-path fetched", kPct,
     [](S s) { return s.wrongPathFetchedFraction(); }, {0.24, 0.07, 0.07}},
    {"wrong-path-issued", "wrong-path issued", kPct,
     [](S s) { return s.wrongPathIssuedFraction(); }, {0.09, 0.04, 0.03}},
    {"ipc", "IPC", ClaimUnit::Ipc, [](S s) { return s.ipc(); },
     {2.1, 3.5, 3.9}},
    {"optimistic-squashed", "optimistic issue squashed", kPct,
     [](S s) { return s.optimisticSquashFraction(); }, {}},
};

std::string
formatValue(double v, ClaimUnit unit, bool sign)
{
    // Per unit: the plain format, then the signed one (deltas, margins).
    static const char *const formats[][2] = {
        {"%.2f", "%+.2f"}, {"%.1f%%", "%+.1f%%"}, {"%.3fx", "%+.3f"},
        {"%.1f", "%+.1f"}};
    if (!std::isfinite(v))
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof buf, formats[static_cast<int>(unit)][sign],
                  unit == ClaimUnit::Percent ? 100.0 * v : v);
    return buf;
}

std::string
cell(MetricId id, const SimStats &s)
{
    return formatValue(kMetrics[id].metric(s), kMetrics[id].unit, false);
}

/** A grid point, named as the paper names it: label and threads. */
struct At
{
    std::string label;
    unsigned threads;
};

const SimStats &
stats(const SweepOutcome &o, const At &at)
{
    const PointResult *r = o.find(at.label, at.threads);
    if (r == nullptr)
        smt_fatal("experiment \"%s\" has no point \"%s\" at %u threads",
                  o.spec.name.c_str(), at.label.c_str(), at.threads);
    return r->data.stats;
}

/** One metric at every point: a row per label, a column per thread
 *  count, "-" where the grid has no point. */
void
printGrid(const SweepOutcome &o, MetricId id)
{
    std::vector<std::string> labels;
    std::set<unsigned> threads;
    for (const PointResult &r : o.points) {
        if (std::find(labels.begin(), labels.end(), r.point.label)
            == labels.end())
            labels.push_back(r.point.label);
        threads.insert(r.point.threads);
    }

    Table table(o.spec.title + " (" + kMetrics[id].name + ")");
    std::vector<std::string> header = {""};
    for (unsigned t : threads)
        header.push_back(std::to_string(t) + "T");
    table.setHeader(std::move(header));
    for (const std::string &label : labels) {
        std::vector<std::string> cells = {label};
        for (unsigned t : threads) {
            const PointResult *r = o.find(label, t);
            cells.push_back(r != nullptr ? cell(id, r->data.stats) : "-");
        }
        table.addRow(std::move(cells));
    }
    std::printf("%s\n", table.render().c_str());
}

/** Metrics down, the named points across. */
void
printMetrics(const SweepOutcome &o,
             const std::vector<std::pair<std::string, At>> &columns,
             const std::vector<MetricId> &ids)
{
    Table table(o.spec.title);
    std::vector<std::string> header = {"metric"};
    for (const auto &column : columns)
        header.push_back(column.first);
    table.setHeader(std::move(header));
    for (MetricId id : ids) {
        std::vector<std::string> cells = {kMetrics[id].name};
        for (const auto &column : columns)
            cells.push_back(cell(id, stats(o, column.second)));
        table.addRow(std::move(cells));
    }
    std::printf("%s\n", table.render().c_str());
}

void
ipcAndRegistersReport(const SweepOutcome &o)
{
    printGrid(o, kIpc);
    printGrid(o, kOutOfRegisters);
}

/** Table 4's rows: the paper's RR.2.8 and ICOUNT.2.8 values at 8
 *  threads. Its 1-thread column is Table 3's. */
struct Table4Row
{
    MetricId id;
    double rr8, icount8;
};

constexpr Table4Row kTable4[] = {
    {kIntIQFull, 0.18, 0.06},   {kFpIQFull, 0.08, 0.01},
    {kQueuePopulation, 38, 30}, {kOutOfRegisters, 0.08, 0.05},
    {kIpc, 4.2, 5.3},
};

/** The paper's ICOUNT.2.8 IPC at 8 threads: the base Section 7 probes
 *  measure against. */
constexpr double kPaperIcount28Ipc8 = kTable4[4].icount8;

// ---- Claim helpers ---------------------------------------------------------

using Extract = std::function<double(const SweepOutcome &)>;

/** The paper margin of an ordering it states only as a relation. */
constexpr double kRelationOnly = std::numeric_limits<double>::quiet_NaN();

double
ipc(const SweepOutcome &o, const At &at)
{
    return stats(o, at).ipc();
}

/** IPC(a) / IPC(b). */
double
gain(const SweepOutcome &o, const At &a, const At &b)
{
    return ipc(o, a) / ipc(o, b);
}

/** The smallest f(x) over `xs`: a relation that must hold at each x. */
template <typename T, typename F>
double
minOver(const std::vector<T> &xs, F f)
{
    double m = std::numeric_limits<double>::infinity();
    for (const T &x : xs)
        m = std::min(m, f(x));
    return m;
}

template <typename T, typename F>
double
maxOver(const std::vector<T> &xs, F f)
{
    return -minOver(xs, [&](const T &x) { return -f(x); });
}

PaperClaim
value(std::string id, std::string statement, ClaimUnit unit, double paper,
      Extract measure, double band = kValueTolerance)
{
    return {std::move(id), std::move(statement), ClaimKind::Value, unit,
            paper, band, std::move(measure)};
}

/** A Value claim on IPC(a) / IPC(b). */
PaperClaim
ratio(std::string id, std::string statement, double paper, At a, At b,
      double band = kValueTolerance)
{
    return value(std::move(id), std::move(statement), ClaimUnit::Ratio,
                 paper,
                 [=](const SweepOutcome &o) { return gain(o, a, b); },
                 band);
}

PaperClaim
ordering(std::string id, std::string statement, ClaimUnit unit,
         double paper_margin, Extract margin)
{
    return {std::move(id), std::move(statement), ClaimKind::Ordering, unit,
            paper_margin, kOrderingSlack, std::move(margin)};
}

/** A Value claim on metric `m` at one point. */
PaperClaim
metricValue(std::string id, std::string statement, MetricId m, double paper,
            At at)
{
    const Metric metric = kMetrics[m].metric;
    return value(std::move(id), std::move(statement), kMetrics[m].unit,
                 paper, [=](const SweepOutcome &o) {
                     return metric(stats(o, at));
                 });
}

/** An Ordering claim that metric `m` is higher at each pair's first
 *  point than at its second: the margin is the smallest difference. */
PaperClaim
above(std::string id, std::string statement,
      std::vector<std::pair<At, At>> pairs, double paper = kRelationOnly,
      MetricId m = kIpc)
{
    const Metric metric = kMetrics[m].metric;
    return ordering(std::move(id), std::move(statement), kMetrics[m].unit,
                    paper, [=](const SweepOutcome &o) {
                        return minOver(pairs, [&](const auto &p) {
                            return metric(stats(o, p.first))
                                   - metric(stats(o, p.second));
                        });
                    });
}

// ---- Verdicts --------------------------------------------------------------

void
printVerdicts(const std::vector<ClaimVerdict> &verdicts)
{
    if (verdicts.empty())
        return;
    std::size_t passed = 0;
    int width = 0;
    for (const ClaimVerdict &v : verdicts) {
        passed += v.pass ? 1 : 0;
        width = std::max(width, static_cast<int>(v.claim->id.size()));
    }
    std::printf("== Paper claims: %zu of %zu pass ==\n", passed,
                verdicts.size());
    std::printf("verdict %-*s %9s %9s %9s  statement\n", width, "claim",
                "measured", "paper", "delta");
    for (const ClaimVerdict &v : verdicts) {
        const PaperClaim &c = *v.claim;
        const bool margin = c.kind == ClaimKind::Ordering;
        std::printf("%-7s %-*s %9s %9s %9s  %s\n", v.pass ? "PASS" : "FAIL",
                    width, c.id.c_str(),
                    formatValue(v.measured, c.unit, margin).c_str(),
                    formatValue(c.paper, c.unit, margin).c_str(),
                    formatValue(v.delta, c.unit, true).c_str(),
                    c.statement.c_str());
    }
    std::printf("\n");
}

// ---- Figures 3-7 -----------------------------------------------------------

ExperimentSpec
fig3Spec()
{
    ExperimentSpec spec;
    spec.name = "fig3";
    spec.title = "Figure 3: base hardware throughput";
    spec.basePreset = "base";
    spec.threadCounts = kPaperThreadCounts;
    spec.axes = {{"machine",
                  {
                      opt("SMT RR.1.8", {}),
                      // The superscalar reference machine exists only
                      // at one thread and uses the short pipeline.
                      opt("unmodified superscalar",
                          {{"longRegisterPipeline", Json(false)}}, {1}),
                  }}};
    return spec;
}

std::vector<PaperClaim>
fig3Claims()
{
    const At ss{"unmodified superscalar", 1};
    const auto smt = [](const SweepOutcome &o, unsigned t) {
        return ipc(o, {"SMT RR.1.8", t});
    };
    return {
        ratio("single-thread-vs-superscalar",
              "1-thread SMT within 2% of the superscalar", 1.0,
              {"SMT RR.1.8", 1}, ss, 0.02),
        value("peak-speedup", "peak SMT throughput over the superscalar",
              ClaimUnit::Ratio, 1.84,
              [=](const SweepOutcome &o) {
                  return maxOver(kPaperThreadCounts,
                                 [&](unsigned t) { return smt(o, t); })
                         / ipc(o, ss);
              }),
        value("superscalar-ipc", "the superscalar's IPC", ClaimUnit::Ipc, 2.1,
              [=](const SweepOutcome &o) { return ipc(o, ss); }),
        ordering("flattens",
                 "SMT gains more IPC from 1 to 4 threads than from 4 to 8",
                 ClaimUnit::Ipc, kRelationOnly, [=](const SweepOutcome &o) {
                     return 2 * smt(o, 4) - smt(o, 1) - smt(o, 8);
                 }),
    };
}

ExperimentSpec
fig4Spec()
{
    ExperimentSpec spec;
    spec.name = "fig4";
    spec.title = "Figure 4: fetch partitioning under round-robin";
    spec.basePreset = "base";
    spec.threadCounts = kPaperThreadCounts;
    spec.axes = {{"scheme",
                  {
                      opt("RR.1.8", partition(1, 8)),
                      opt("RR.2.4", partition(2, 4)),
                      opt("RR.4.2", partition(4, 2)),
                      opt("RR.2.8", partition(2, 8)),
                  }}};
    return spec;
}

std::vector<PaperClaim>
fig4Claims()
{
    std::vector<std::pair<At, At>> trails, never_catches;
    for (unsigned t : kPaperThreadCounts) {
        if (t < 4)
            trails.push_back({{"RR.1.8", t}, {"RR.2.4", t}});
        for (const char *scheme : {"RR.2.4", "RR.2.8"})
            never_catches.push_back({{scheme, t}, {"RR.4.2", t}});
    }
    return {
        ratio("rr24-over-rr18.8t", "RR.2.4 beats RR.1.8 at 8 threads", 1.09,
              {"RR.2.4", 8}, {"RR.1.8", 8}),
        ratio("rr28-over-rr18.8t", "RR.2.8 beats RR.1.8 at 8 threads", 1.10,
              {"RR.2.8", 8}, {"RR.1.8", 8}),
        above("rr24-trails-rr18-below-4t",
              "RR.2.4 trails RR.1.8 at 1 and 2 threads", trails),
        above("rr42-never-catches-2-thread-schemes",
              "RR.4.2 stays below RR.2.4 and RR.2.8 at every thread count",
              never_catches),
        ratio("rr28-matches-rr18.2t", "RR.2.8 matches RR.1.8 at 2 threads",
              1.0, {"RR.2.8", 2}, {"RR.1.8", 2}),
        ratio("rr28-matches-rr24.8t", "RR.2.8 matches RR.2.4 at 8 threads",
              1.0, {"RR.2.8", 8}, {"RR.2.4", 8}),
    };
}

ExperimentSpec
fig5Spec()
{
    ExperimentSpec spec;
    spec.name = "fig5";
    spec.title = "Figure 5: fetch thread-priority policies";
    spec.basePreset = "base";
    spec.threadCounts = {2, 4, 6, 8};

    Axis split{"partition",
               {
                   opt("1.8", partition(1, 8)),
                   opt("2.8", partition(2, 8)),
               }};
    Axis policy{"policy", {}};
    for (const char *p : {"RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN"})
        policy.options.push_back(opt(p, {{"fetchPolicy", Json(p)}}));
    spec.axes = {std::move(split), std::move(policy)};
    return spec;
}

std::vector<PaperClaim>
fig5Claims()
{
    const std::vector<unsigned> threads = {2, 4, 6, 8};
    std::vector<PaperClaim> claims;
    std::vector<std::pair<At, At>> heuristics;
    for (const std::string p : {"1.8", "2.8"}) {
        std::vector<std::pair<At, At>> icount_best;
        for (const char *q : {"RR", "BRCOUNT", "MISSCOUNT", "IQPOSN"})
            for (unsigned t : threads)
                icount_best.push_back({{p + ".ICOUNT", t}, {p + "." + q, t}});
        for (const char *q : {"BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN"})
            heuristics.push_back({{p + "." + q, 8}, {p + ".RR", 8}});
        claims.push_back(above("icount-best." + p,
                               "ICOUNT." + p + " beats every other policy "
                                               "at every thread count",
                               icount_best));
        claims.push_back(value(
            "iqposn-tracks-icount." + p,
            "IQPOSN." + p + " within 4% of ICOUNT." + p
                + " where they differ most",
            ClaimUnit::Ratio, 1.0,
            [=](const SweepOutcome &o) {
                const auto r = [&](unsigned t) {
                    return gain(o, {p + ".IQPOSN", t}, {p + ".ICOUNT", t});
                };
                const double lo = minOver(threads, r);
                const double hi = maxOver(threads, r);
                return 1.0 - lo > hi - 1.0 ? lo : hi;
            },
            0.04));
    }
    claims.push_back(above(
        "heuristics-beat-rr.8t",
        "every heuristic beats RR at 8 threads on both partitionings",
        heuristics));
    claims.push_back(value(
        "icount-over-best-rr", "ICOUNT's best result over RR's best result",
        ClaimUnit::Ratio, 1.23, [=](const SweepOutcome &o) {
            const auto best = [&](const std::string &policy) {
                return maxOver(threads, [&](unsigned t) {
                    return std::max(ipc(o, {"1.8." + policy, t}),
                                    ipc(o, {"2.8." + policy, t}));
                });
            };
            return best("ICOUNT") / best("RR");
        }));
    claims.push_back(ordering(
        "count-gains-need-threads",
        "BRCOUNT and MISSCOUNT gain more over RR at 8 threads than at 2",
        ClaimUnit::Ratio, kRelationOnly, [](const SweepOutcome &o) {
            double margin = std::numeric_limits<double>::infinity();
            for (const std::string p : {"1.8.", "2.8."})
                for (const char *q : {"BRCOUNT", "MISSCOUNT"})
                    margin = std::min(
                        margin, gain(o, {p + q, 8}, {p + "RR", 8})
                                    - gain(o, {p + q, 2}, {p + "RR", 2}));
            return margin;
        }));
    return claims;
}

ExperimentSpec
fig6Spec()
{
    ExperimentSpec spec;
    spec.name = "fig6";
    spec.title = "Figure 6: BIGQ and ITAG fetch unblocking";
    spec.basePreset = "base";
    spec.threadCounts = kPaperThreadCounts;
    spec.axes = {
        {"partition",
         {
             opt("1.8", partition(1, 8)),
             opt("2.8", partition(2, 8)),
         }},
        {"variant",
         {
             opt("ICOUNT", {{"fetchPolicy", Json("ICOUNT")}}),
             opt("BIGQ,ICOUNT", {{"fetchPolicy", Json("ICOUNT")},
                                 {"intQueueEntries", Json(64u)},
                                 {"fpQueueEntries", Json(64u)},
                                 {"iqSearchWindow", Json(32u)}}),
             opt("ITAG,ICOUNT", {{"fetchPolicy", Json("ICOUNT")},
                                 {"itagEarlyLookup", Json(true)}}),
         }},
    };
    return spec;
}

std::vector<PaperClaim>
fig6Claims()
{
    const auto itag = [](const SweepOutcome &o, const std::string &p,
                         unsigned t) {
        return gain(o, {p + ".ITAG,ICOUNT", t}, {p + ".ICOUNT", t});
    };
    std::vector<PaperClaim> claims;
    for (const std::string p : {"1.8", "2.8"})
        claims.push_back(ratio("bigq-no-gain." + p,
                               "BIGQ adds no significant improvement over "
                               "ICOUNT." + p + " at 8 threads",
                               1.0, {p + ".BIGQ,ICOUNT", 8},
                               {p + ".ICOUNT", 8}));
    claims.push_back(ratio("itag-gain.1.8",
                           "ITAG helps ICOUNT.1.8 at 8 threads", 1.08,
                           {"1.8.ITAG,ICOUNT", 8}, {"1.8.ICOUNT", 8}));
    claims.push_back(ratio("itag-gain.2.8",
                           "ITAG changes ICOUNT.2.8 by under 2% at 8 threads",
                           1.0, {"2.8.ITAG,ICOUNT", 8}, {"2.8.ICOUNT", 8},
                           0.02));
    claims.push_back(ordering(
        "itag-helps-1.8-more",
        "ITAG gains more on ICOUNT.1.8 than on ICOUNT.2.8 at 8 threads",
        ClaimUnit::Ratio, kRelationOnly, [=](const SweepOutcome &o) {
            return itag(o, "1.8", 8) - itag(o, "2.8", 8);
        }));
    claims.push_back(above(
        "itag-hurts-at-1t", "ITAG costs IPC at 1 thread on both partitionings",
        {{{"1.8.ICOUNT", 1}, {"1.8.ITAG,ICOUNT", 1}},
         {{"2.8.ICOUNT", 1}, {"2.8.ITAG,ICOUNT", 1}}}));
    return claims;
}

ExperimentSpec
fig7Spec()
{
    ExperimentSpec spec;
    spec.name = "fig7";
    spec.title = "Figure 7: fixed 200-register file, 1-5 contexts";
    spec.basePreset = "icount28";
    spec.threadCounts = {1, 2, 3, 4, 5};
    spec.axes = {{"registers",
                  {opt("200 total", {{"totalPhysRegisters", Json(200u)}})}}};
    return spec;
}

std::vector<PaperClaim>
fig7Claims()
{
    // A tie goes to the fewest contexts: the maximum the paper calls
    // clear is not there when an earlier point matches it.
    return {{"max-at-4",
             "IPC has a clear maximum at 4 contexts with 200 registers",
             ClaimKind::MaxAt, kNum, 4, kMaxAtSlack,
             [](const SweepOutcome &o) {
                 unsigned best = 1;
                 for (unsigned t = 2; t <= 5; ++t)
                     if (ipc(o, {"200 total", t})
                         > ipc(o, {"200 total", best}))
                         best = t;
                 return static_cast<double>(best);
             }}};
}

// ---- Tables 3-5 ------------------------------------------------------------

ExperimentSpec
table3Spec()
{
    ExperimentSpec spec;
    spec.name = "table3";
    spec.title = "Table 3: base architecture low-level metrics";
    spec.basePreset = "base";
    spec.threadCounts = {1, 4, 8};
    return spec;
}

void
table3Report(const SweepOutcome &o)
{
    std::vector<MetricId> ids;
    for (int i = 0; i < kTable3Rows; ++i)
        ids.push_back(static_cast<MetricId>(i));
    printMetrics(o,
                 {{"1T", {"table3", 1}}, {"4T", {"table3", 4}},
                  {"8T", {"table3", 8}}},
                 ids);
}

std::vector<PaperClaim>
table3Claims()
{
    std::vector<PaperClaim> claims;
    const At at[3] = {{"table3", 1}, {"table3", 4}, {"table3", 8}};
    for (int i = 0; i < kTable3Rows; ++i) {
        const MetricRow &row = kMetrics[i];
        for (unsigned c = 0; c < 3; ++c) {
            const std::string t = std::to_string(at[c].threads);
            claims.push_back(metricValue(
                row.key + ("." + t + "t"),
                row.name + (" at " + t) + (c == 0 ? " thread" : " threads"),
                static_cast<MetricId>(i), row.table3[c], at[c]));
        }
    }
    // "Cache and predictor pressure grow with threads; wrong-path
    // fractions shrink": each as a margin between 1 and 8 threads.
    for (MetricId id : {kIcacheMissRate, kDcacheMissRate, kBranchMispredict})
        claims.push_back(above(
            kMetrics[id].key + std::string("-grows"),
            kMetrics[id].name + std::string(" grows from 1 to 8 threads"),
            {{at[2], at[0]}}, kMetrics[id].table3[2] - kMetrics[id].table3[0],
            id));
    for (MetricId id : {kWrongPathFetched, kWrongPathIssued})
        claims.push_back(above(
            kMetrics[id].key + std::string("-shrinks"),
            kMetrics[id].name + std::string(" shrinks from 1 to 8 threads"),
            {{at[0], at[2]}}, kMetrics[id].table3[0] - kMetrics[id].table3[2],
            id));
    return claims;
}


ExperimentSpec
table4Spec()
{
    ExperimentSpec spec;
    spec.name = "table4";
    spec.title = "Table 4: RR vs ICOUNT low-level metrics";
    spec.basePreset = "base";
    spec.threadCounts = {8};
    spec.axes = {{"machine",
                  {
                      opt("1 thread", partition(2, 8), {1}),
                      opt("RR @8T", partition(2, 8)),
                      opt("ICOUNT @8T", {{"fetchPolicy", Json("ICOUNT")},
                                         {"fetchThreads", Json(2u)},
                                         {"fetchPerThread", Json(8u)}}),
                  }}};
    return spec;
}

void
table4Report(const SweepOutcome &o)
{
    std::vector<MetricId> ids;
    for (const Table4Row &r : kTable4)
        ids.push_back(r.id);
    printMetrics(o,
                 {{"1 thread", {"1 thread", 1}},
                  {"RR @8T", {"RR @8T", 8}},
                  {"ICOUNT @8T", {"ICOUNT @8T", 8}}},
                 ids);
}

std::vector<PaperClaim>
table4Claims()
{
    const At one{"1 thread", 1}, rr{"RR @8T", 8}, icount{"ICOUNT @8T", 8};
    std::vector<PaperClaim> claims;
    for (const Table4Row &r : kTable4) {
        const std::string key = kMetrics[r.id].key, name = kMetrics[r.id].name;
        claims.push_back(metricValue(key + ".rr8",
                                     name + " of RR.2.8 at 8 threads", r.id,
                                     r.rr8, rr));
        claims.push_back(metricValue(key + ".icount8",
                                     name + " of ICOUNT.2.8 at 8 threads",
                                     r.id, r.icount8, icount));
    }
    const Table4Row &ipc_row = kTable4[4];
    claims.push_back(ratio("icount-over-rr",
                           "ICOUNT.2.8 over RR.2.8 at 8 threads",
                           ipc_row.icount8 / ipc_row.rr8, icount, rr));
    claims.push_back(above("icount-beats-rr",
                           "ICOUNT.2.8 beats RR.2.8 at 8 threads",
                           {{icount, rr}}, ipc_row.icount8 - ipc_row.rr8));

    // "ICOUNT sharply reduces IQ-full conditions and queue population
    // relative to RR at 8 threads; less [IQ-full] pressure with 8
    // threads than with 1."
    for (int i = 0; i < 3; ++i) {
        const Table4Row &r = kTable4[i];
        const std::string key = kMetrics[r.id].key, name = kMetrics[r.id].name;
        claims.push_back(above(key + "-icount8-below-rr8",
                               name + ": ICOUNT.2.8 below RR.2.8 at 8 threads",
                               {{rr, icount}}, r.rr8 - r.icount8, r.id));
        if (r.id != kQueuePopulation)
            claims.push_back(above(
                key + "-icount8-below-1t",
                name + ": ICOUNT.2.8 at 8 threads below 1 thread",
                {{one, icount}}, kMetrics[r.id].table3[0] - r.icount8, r.id));
    }
    return claims;
}

const std::vector<std::string> kTable5Policies = {
    "OLDEST_FIRST", "OPT_LAST", "SPEC_LAST", "BRANCH_FIRST",
};

ExperimentSpec
table5Spec()
{
    ExperimentSpec spec;
    spec.name = "table5";
    spec.title = "Table 5: issue priority schemes";
    spec.basePreset = "icount28";
    spec.threadCounts = {1, 2, 4, 6, 8};
    Axis policy{"issue policy", {}};
    for (const std::string &p : kTable5Policies)
        policy.options.push_back(opt(p, {{"issuePolicy", Json(p)}}));
    spec.axes = {std::move(policy)};
    return spec;
}

void
table5Report(const SweepOutcome &o)
{
    printGrid(o, kIpc);
    std::vector<std::pair<std::string, At>> at8;
    for (const std::string &p : kTable5Policies)
        at8.push_back({p + " @8T", {p, 8}});
    printMetrics(o, at8, {kWrongPathIssued, kOptimisticSquashed});
}

std::vector<PaperClaim>
table5Claims()
{
    const At oldest{"OLDEST_FIRST", 8}, opt_last{"OPT_LAST", 8},
        branch_first{"BRANCH_FIRST", 8};
    // Optimistic issue squashed at 8 threads, in the paper.
    const double squashed_oldest = 0.03, squashed_opt_last = 0.02,
                 squashed_branch_first = 0.06;
    return {
        value("policies-nearly-identical.8t",
              "the slowest issue policy over the fastest at 8 threads",
              ClaimUnit::Ratio, 5.28 / 5.29,
              [](const SweepOutcome &o) {
                  const auto at8 = [&](const std::string &p) {
                      return ipc(o, {p, 8});
                  };
                  return minOver(kTable5Policies, at8)
                         / maxOver(kTable5Policies, at8);
              }),
        metricValue("wrong-path.OLDEST_FIRST",
                    "OLDEST_FIRST issue slots on the wrong path at 8 threads",
                    kWrongPathIssued, 0.04, oldest),
        metricValue("optimistic.OLDEST_FIRST",
                    "OLDEST_FIRST optimistic issue squashed at 8 threads",
                    kOptimisticSquashed, squashed_oldest, oldest),
        metricValue("optimistic.OPT_LAST",
                    "OPT_LAST optimistic issue squashed at 8 threads",
                    kOptimisticSquashed, squashed_opt_last, opt_last),
        metricValue("optimistic.BRANCH_FIRST",
                    "BRANCH_FIRST optimistic issue squashed at 8 threads",
                    kOptimisticSquashed, squashed_branch_first, branch_first),
        above("opt-last-trims-optimistic",
              "OPT_LAST squashes less optimistic issue than OLDEST_FIRST",
              {{oldest, opt_last}}, squashed_oldest - squashed_opt_last,
              kOptimisticSquashed),
        above("branch-first-inflates-optimistic",
              "BRANCH_FIRST squashes more optimistic issue than OLDEST_FIRST",
              {{branch_first, oldest}},
              squashed_branch_first - squashed_oldest, kOptimisticSquashed),
    };
}

// ---- Section 7 -------------------------------------------------------------

ExperimentSpec
sec7BottlenecksSpec()
{
    const std::vector<KnobAssignment> iq64 = {
        {"intQueueEntries", Json(64u)},
        {"fpQueueEntries", Json(64u)},
        {"iqSearchWindow", Json(64u)}, // fully searchable, unlike BIGQ.
    };
    std::vector<KnobAssignment> wide_iq64_regs = iq64;
    wide_iq64_regs.push_back({"fetchWidth", Json(16u)});
    wide_iq64_regs.push_back({"excessRegisters", Json(140u)});

    ExperimentSpec spec;
    spec.name = "sec7-bottlenecks";
    spec.title = "Section 7: bottleneck probes on ICOUNT.2.8";
    spec.basePreset = "icount28";
    spec.threadCounts = {8};
    spec.axes = {{"probe",
                  {
                      opt("ICOUNT.2.8 base", {}),
                      opt("infinite functional units",
                          {{"infiniteFunctionalUnits", Json(true)}}),
                      opt("64-entry searchable queues", iq64),
                      opt("fetch 2.16 (16-wide)", {{"fetchWidth", Json(16u)}}),
                      opt("2.16 + IQ64 + 140 excess regs", wide_iq64_regs),
                      opt("infinite cache bandwidth",
                          {{"infiniteCacheBandwidth", Json(true)}}),
                  }}};
    return spec;
}

std::vector<PaperClaim>
sec7BottlenecksClaims()
{
    const At base{"ICOUNT.2.8 base", 8}, wide{"fetch 2.16 (16-wide)", 8};
    const At fus{"infinite functional units", 8};
    const At iq64{"64-entry searchable queues", 8};
    const At cache_bw{"infinite cache bandwidth", 8};
    // The paper's IPC of each probe over the base.
    const double fus_gain = 1.005, iq64_gain = 1.0, wide_gain = 1.08,
                 cache_bw_gain = 1.03;
    return {
        ratio("infinite-fus", "infinite functional units over the base",
              fus_gain, fus, base),
        ratio("iq64", "64-entry searchable queues change IPC by under 1%",
              iq64_gain, iq64, base, 0.01),
        ratio("fetch-2.16", "16-wide fetch (2.16) over the base", wide_gain,
              wide, base),
        ratio("fetch-2.16-iq64-regs",
              "2.16 fetch, 64-entry queues and 140 excess registers over "
              "the base",
              1.15, {"2.16 + IQ64 + 140 excess regs", 8}, base),
        ratio("infinite-cache-bandwidth",
              "infinite cache bandwidth over the base", cache_bw_gain,
              cache_bw, base),
        above("fetch-is-the-lever",
              "16-wide fetch gains more than infinite FUs, 64-entry queues "
              "or infinite cache bandwidth",
              {{wide, fus}, {wide, iq64}, {wide, cache_bw}},
              kPaperIcount28Ipc8
                  * (wide_gain
                     - std::max({fus_gain, iq64_gain, cache_bw_gain}))),
    };
}

ExperimentSpec
sec7BranchSpec()
{
    ExperimentSpec spec;
    spec.name = "sec7-branch";
    spec.title = "Section 7: branch prediction and speculation on ICOUNT.2.8";
    spec.basePreset = "icount28";
    spec.threadCounts = {1, 4, 8};
    spec.axes = {{"machine",
                  {
                      opt("full", {}),
                      opt("perfect BP",
                          {{"perfectBranchPrediction", Json(true)}}),
                      opt("doubled BTB+PHT",
                          {{"btbEntries", Json(512u)},
                           {"phtEntries", Json(4096u)}},
                          {8}),
                      opt("no-pass-branch",
                          {{"speculation", Json("no-pass-branch")}}, {1, 8}),
                      opt("no-wrong-path-issue",
                          {{"speculation", Json("no-wrong-path-issue")}},
                          {1, 8}),
                  }}};
    return spec;
}

std::vector<PaperClaim>
sec7BranchClaims()
{
    // The paper's IPC of each machine over full speculation with the
    // real predictor, at the same thread count.
    struct Gain
    {
        const char *key, *machine;
        unsigned threads;
        double paper;
    };
    const Gain gains[] = {
        {"perfect-bp", "perfect BP", 1, 1.25},
        {"perfect-bp", "perfect BP", 4, 1.15},
        {"perfect-bp", "perfect BP", 8, 1.09},
        {"doubled-btb-pht", "doubled BTB+PHT", 8, 1.02},
        {"no-pass-branch", "no-pass-branch", 1, 0.88},
        {"no-pass-branch", "no-pass-branch", 8, 0.985},
        {"no-wrong-path-issue", "no-wrong-path-issue", 1, 0.62},
        {"no-wrong-path-issue", "no-wrong-path-issue", 8, 0.93},
    };
    std::vector<PaperClaim> claims;
    for (const Gain &g : gains) {
        const std::string t = std::to_string(g.threads);
        claims.push_back(ratio(g.key + ("." + t + "t"),
                               g.machine + (" over full speculation at " + t)
                                   + (g.threads == 1 ? " thread" : " threads"),
                               g.paper, {g.machine, g.threads},
                               {"full", g.threads}));
    }
    // Gain a exceeds gain b: SMT is far less sensitive than one thread
    // to prediction quality and to speculation restrictions.
    const auto exceeds = [&](std::string id, std::string statement,
                             const Gain &a, const Gain &b) {
        claims.push_back(ordering(
            std::move(id), std::move(statement), ClaimUnit::Ratio,
            a.paper - b.paper, [=](const SweepOutcome &o) {
                return gain(o, {a.machine, a.threads}, {"full", a.threads})
                       - gain(o, {b.machine, b.threads}, {"full", b.threads});
            }));
    };
    exceeds("perfect-bp-gains-less-with-threads",
            "perfect prediction gains more at 1 thread than at 8", gains[0],
            gains[2]);
    exceeds("no-pass-branch-costs-less-with-threads",
            "NoPassBranch costs more at 1 thread than at 8", gains[5],
            gains[4]);
    exceeds("no-wrong-path-issue-costs-less-with-threads",
            "NoWrongPathIssue costs more at 1 thread than at 8", gains[7],
            gains[6]);
    exceeds("no-pass-branch-milder.1t",
            "NoPassBranch costs less than NoWrongPathIssue at 1 thread",
            gains[4], gains[6]);
    exceeds("no-pass-branch-milder.8t",
            "NoPassBranch costs less than NoWrongPathIssue at 8 threads",
            gains[5], gains[7]);
    return claims;
}

ExperimentSpec
sec7RegistersSpec()
{
    ExperimentSpec spec;
    spec.name = "sec7-registers";
    spec.title = "Section 7: excess renaming registers on ICOUNT.2.8";
    spec.basePreset = "icount28";
    spec.threadCounts = {4, 8};
    Axis excess{"excess registers", {}};
    for (unsigned n : {70u, 80u, 90u, 100u, 140u, 1000u})
        excess.options.push_back(
            opt(n == 1000 ? "inf (1000)" : std::to_string(n),
                {{"excessRegisters", Json(n)}}));
    spec.axes = {std::move(excess)};
    return spec;
}

std::vector<PaperClaim>
sec7RegistersClaims()
{
    // The paper's IPC at 70, 80 and 90 excess registers over 100, at 8
    // threads.
    const std::pair<std::string, double> cuts[] = {
        {"70", 0.94}, {"80", 0.97}, {"90", 0.99}};
    const At full{"100", 8};
    std::vector<PaperClaim> claims;
    for (const auto &[n, paper] : cuts)
        claims.push_back(ratio("excess-" + n + ".8t",
                               n + " excess registers against 100 at 8 "
                                   "threads",
                               paper, {n, 8}, full));
    claims.push_back(ratio("infinite.8t",
                           "effectively infinite registers against 100 at "
                           "8 threads",
                           1.02, {"inf (1000)", 8}, full));
    claims.push_back(above(
        "graceful-degradation.8t",
        "IPC falls step by step from 100 to 90, 80 and 70 excess "
        "registers at 8 threads",
        {{full, {"90", 8}}, {{"90", 8}, {"80", 8}}, {{"80", 8}, {"70", 8}}},
        kPaperIcount28Ipc8
            * std::min({1.0 - cuts[2].second, cuts[2].second - cuts[1].second,
                        cuts[1].second - cuts[0].second})));
    claims.push_back(value(
        "four-threads-match.70",
        "the cut to 70 excess registers costs 4 threads what it costs 8",
        ClaimUnit::Ratio, 1.0, [](const SweepOutcome &o) {
            return gain(o, {"70", 4}, {"100", 4})
                   / gain(o, {"70", 8}, {"100", 8});
        }));
    return claims;
}

// ---- Smoke -----------------------------------------------------------------

ExperimentSpec
smokeSpec()
{
    ExperimentSpec spec;
    spec.name = "smoke";
    spec.title = "engine smoke grid (tiny budgets; exercises the cache)";
    spec.basePreset = "base";
    spec.threadCounts = {1, 2};
    spec.axes = {{"policy",
                  {
                      opt("RR", {}),
                      opt("ICOUNT", {{"fetchPolicy", Json("ICOUNT")}}),
                  }}};
    spec.cyclesPerRun = 1500;
    spec.warmupCycles = 500;
    spec.runs = 2;
    return spec;
}

/** Register an experiment; claim ids gain its name as a prefix. A
 *  null report prints the IPC grid. */
NamedExperiment
named(ExperimentSpec spec, std::vector<PaperClaim> claims,
      void (*report)(const SweepOutcome &) = nullptr)
{
    for (PaperClaim &c : claims)
        c.id = spec.name + "." + c.id;
    return {std::move(spec), report, std::move(claims)};
}

} // namespace

ClaimVerdict
judgeClaim(const PaperClaim &claim, double measured)
{
    ClaimVerdict v{&claim, measured, measured - claim.paper, false};
    switch (claim.kind) {
      case ClaimKind::Value:
        v.pass = std::fabs(v.delta) <= claim.band * std::fabs(claim.paper);
        break;
      case ClaimKind::Ordering:
        v.pass = measured >= -claim.band;
        break;
      case ClaimKind::MaxAt:
        v.pass = std::fabs(v.delta) <= claim.band;
        break;
    }
    return v;
}

std::vector<ClaimVerdict>
evaluateClaims(const std::vector<PaperClaim> &claims,
               const SweepOutcome &outcome)
{
    std::vector<ClaimVerdict> verdicts;
    for (const PaperClaim &claim : claims)
        verdicts.push_back(judgeClaim(claim, claim.measure(outcome)));
    return verdicts;
}

Json
verdictsJson(const std::vector<ClaimVerdict> &verdicts)
{
    const auto number = [](double v) {
        return std::isfinite(v) ? Json(v) : Json();
    };
    Json claims = Json::array();
    for (const ClaimVerdict &v : verdicts) {
        Json j = Json::object();
        j.set("id", Json(v.claim->id));
        j.set("measured", number(v.measured));
        j.set("paper", number(v.claim->paper));
        j.set("delta", number(v.delta));
        j.set("pass", Json(v.pass));
        claims.push(std::move(j));
    }
    return claims;
}

const std::vector<NamedExperiment> &
allExperiments()
{
    static const std::vector<NamedExperiment> experiments = {
        named(fig3Spec(), fig3Claims()),
        named(fig4Spec(), fig4Claims()),
        named(fig5Spec(), fig5Claims()),
        named(fig6Spec(), fig6Claims()),
        named(fig7Spec(), fig7Claims(), ipcAndRegistersReport),
        named(table3Spec(), table3Claims(), table3Report),
        named(table4Spec(), table4Claims(), table4Report),
        named(table5Spec(), table5Claims(), table5Report),
        named(sec7BottlenecksSpec(), sec7BottlenecksClaims()),
        named(sec7BranchSpec(), sec7BranchClaims()),
        named(sec7RegistersSpec(), sec7RegistersClaims(),
              ipcAndRegistersReport),
        named(smokeSpec(), {}),
    };
    return experiments;
}

const NamedExperiment *
findExperiment(const std::string &name)
{
    for (const NamedExperiment &e : allExperiments())
        if (e.spec.name == name)
            return &e;
    return nullptr;
}

void
printReport(const NamedExperiment &experiment, const SweepOutcome &outcome)
{
    if (experiment.report != nullptr)
        experiment.report(outcome);
    else
        printGrid(outcome, kIpc);
    printVerdicts(evaluateClaims(experiment.claims, outcome));
}

} // namespace smt::sweep
