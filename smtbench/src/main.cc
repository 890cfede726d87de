/**
 * @file
 * smtbench: the repository benchmark.
 *
 *   smtbench --workload paper-cold|paper-replay|store-churn --seed N
 *            --seconds S --trace 0|1 [--capture FILE] [--work-dir DIR]
 *            [--trace-out FILE]
 *
 * Every workload runs rounds of the three phases of phases.hh, one
 * after another (cold, then set-up, replay and churn against a fresh
 * store), and prints every end-to-end metric; the workload decides
 * which phase gets most of the measured time. With --trace 1 the same
 * phases run untraced and traced in turn and print the per-layer
 * metrics instead. The last line of stdout is the JSON result;
 * everything before it is the human-readable record of the noise
 * controls, raw medians and sample counts.
 */

#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "phases.hh"
#include "reference.hh"
#include "sim/simspeed.hh"
#include "spans.hh"
#include "sweep/json.hh"
#include "sweep/serialize.hh"
#include "sweep/thread_pool.hh"

namespace
{

using namespace smtbench;
using smt::sweep::Json;
using Clock = std::chrono::steady_clock;

/** The default and held-out workload seeds (the held-out one is kept
 *  for confirming a claimed gain, never for tuning). */
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 1009;

/** Config seeds a workload seed salts: paper_err_pct is their mean, and
 *  sweep_s their common median, so neither hangs on one draw of the
 *  simulated machines. kMinRounds sweeps cover them all. */
constexpr unsigned kConfigSeeds = 3;

/** The fixed per-run budgets. Cold: each of the 8 rotation runs
 *  simulates 10k warm-up plus 20k measured cycles. Fill: the replay
 *  store's entries come from a tiny budget — replay never simulates. */
constexpr std::uint64_t kColdWarmup = 10000, kColdCycles = 20000;
constexpr std::uint64_t kFillWarmup = 100, kFillCycles = 400;

/** A run is rounds of cold, set-up, replay and churn, about this long
 *  each and never fewer than kMinRounds; setup_s is the median of the
 *  rounds' set-ups. */
constexpr double kRoundSeconds = 5.0;
constexpr int kMinRounds = 3;

/** Minimum samples, whatever --seconds says: p99 needs 1000 calls. */
constexpr std::size_t kMinPassesPerRound = 3;
constexpr std::uint64_t kMinChurnCalls = 1000;

/** Calls in the traced churn window: enough that store.put_us_p99 has
 *  ten puts beyond it. */
constexpr std::uint64_t kTracedChurnCalls = 6000;

/** Traced replay points (past each grid's first), enough for a p99. */
constexpr std::size_t kTracedLookups = 1000;

/** Untraced and traced cold grids the traced run alternates. */
constexpr int kTracedColdPairs = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string capture = "smtbench/traffic/fig5-2shard.json";
    std::string workDir = ".smtbench-work";
    std::string traceOut;
};

[[noreturn]] void
usage(const char *error)
{
    std::fprintf(stderr,
                 "smtbench: %s\n"
                 "usage: smtbench --workload paper-cold|paper-replay|"
                 "store-churn --seed N --seconds S --trace 0|1\n"
                 "                [--capture FILE] [--work-dir DIR] "
                 "[--trace-out FILE]\n"
                 "seeds: default %llu, held out %llu\n",
                 error, static_cast<unsigned long long>(kDefaultSeed),
                 static_cast<unsigned long long>(kHeldOutSeed));
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--capture")
            a.capture = v;
        else if (flag == "--work-dir")
            a.workDir = v;
        else if (flag == "--trace-out")
            a.traceOut = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload != "paper-cold" && a.workload != "paper-replay"
        && a.workload != "store-churn")
        usage("unknown --workload");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Share of the measured time each phase gets: the workload's own
 *  phase half, each of the other two a quarter, so every phase has the
 *  same time in the two workloads it is not the point of. */
struct Shares
{
    double cold, replay, churn;
};

Shares
sharesFor(const std::string &workload)
{
    if (workload == "paper-cold")
        return {0.5, 0.25, 0.25};
    if (workload == "paper-replay")
        return {0.25, 0.5, 0.25};
    return {0.25, 0.25, 0.5};
}

std::string
fsTypeOf(const std::string &path)
{
    struct statfs st;
    if (::statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53:
        return "ext4";
    case 0x01021994:
        return "tmpfs";
    case 0x794c7630:
        return "overlayfs";
    default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%lx",
                      static_cast<unsigned long>(st.f_type));
        return buf;
    }
    }
}

/**
 * Mount a private tmpfs over `dir`, a directory inside the checkout, so
 * the stores' file writes land in RAM: the checkout's own filesystem
 * can take 0.5-1 ms per new file and swings run to run. The mount lives
 * in a mount namespace of this process alone and vanishes with it.
 * Must run before any thread starts. False (nothing changed) when the
 * host does not allow it; the run then uses `dir` as it is.
 */
bool
mountPrivateTmpfs(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || ::unshare(CLONE_NEWNS) != 0)
        return false;
    // Keep the new mount out of the parent namespace.
    if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0)
        return false;
    return ::mount("smtbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                   "size=256m,mode=0700")
           == 0;
}

double
peakRssMb()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // Linux reports KiB.
}

/** The result line's metrics, with the sample count behind each. */
class Report
{
  public:
    void
    set(const std::string &name, double value, std::size_t samples)
    {
        values_[name] = value;
        samples_[name] = samples;
    }

    /** Print the sample counts, then the JSON line; false when a
     *  schema metric is missing. */
    bool
    print(const std::vector<MetricDef> &schema, const Tally &tally,
          bool correct) const
    {
        Json metrics = Json::object();
        bool complete = true;
        for (const MetricDef &m : schema) {
            const auto it = values_.find(m.name);
            if (it == values_.end()) {
                std::fprintf(stderr, "smtbench: metric %s missing\n",
                             m.name.c_str());
                complete = false;
                continue;
            }
            std::printf("  %-36s %14.6g %-6s n=%zu\n", m.name.c_str(),
                        it->second, m.unit.c_str(), samples_.at(m.name));
            Json entry = Json::object();
            entry.set("value", Json(it->second));
            entry.set("unit", Json(m.unit));
            metrics.set(m.name, std::move(entry));
        }
        Json doc = Json::object();
        doc.set("correct", Json(correct && complete && tally.failed == 0));
        doc.set("attempted", Json(tally.attempted));
        doc.set("failed", Json(tally.failed));
        doc.set("metrics", std::move(metrics));
        std::printf("%s\n", doc.dump().c_str());
        std::fflush(stdout);
        return complete;
    }

  private:
    std::map<std::string, double> values_;
    std::map<std::string, std::size_t> samples_;
};

void
append(std::vector<double> &all, const std::vector<double> &part)
{
    all.insert(all.end(), part.begin(), part.end());
}

/** Repeat `fn` until `seconds` have passed and at least `min` times. */
template <typename Fn>
void
repeatFor(double seconds, std::size_t min, Fn fn)
{
    const auto t0 = Clock::now();
    for (std::size_t i = 0;
         i < min
         || std::chrono::duration<double>(Clock::now() - t0).count()
                < seconds;
         ++i)
        fn();
}

int
runUntraced(const Args &args, const Settings &s,
            const std::vector<ChurnOp> &sequence)
{
    Tally tally;
    Report report;
    const Shares share = sharesFor(args.workload);
    // Rounds interleave the phases, so each metric's samples span the
    // whole run instead of one slice of it: this host's speed drifts
    // over seconds, and alternating is what steadies the medians.
    const int rounds =
        std::max(kMinRounds,
                 static_cast<int>(std::lround(args.seconds / kRoundSeconds)));
    const double slice = args.seconds / rounds;

    std::vector<double> setup_s, sweep_s, pass_ms;
    CallWindows windows; // every 1000 consecutive churn calls.
    std::map<std::uint64_t, HeadlineIpc> ipc; // per config seed.
    std::size_t sweeps = 0;
    std::uint64_t counter = 0, calls = 0;
    double churn_s = 0.0;
    std::int64_t reconnects = 0;
    bool balanced = true;
    const std::string store_dir = s.workDir + "/store";
    // The reference kernel on every CPU, only while no store server
    // exists (see reference.hh).
    HostSpeed speed;
    for (int r = 0; r < rounds; ++r) {
        speed.sampleEveryCpu();

        // Cold: nothing else runs while the grid regenerates, each
        // sweep with the next of the config seeds.
        repeatFor(share.cold * slice, 1, [&] {
            const std::uint64_t seed =
                s.configSeeds[sweeps++ % s.configSeeds.size()];
            const ColdResult cold =
                coldSweep(s, s.workDir + "/cold", seed, tally);
            sweep_s.push_back(cold.seconds);
            ipc[seed] = headlineIpc(cold.outcome);
        });
        speed.sampleEveryCpu();

        // Set-up: store fill, server start, one untimed warm pass.
        const auto t0 = Clock::now();
        WarmStore warm = setUpWarmStore(s, store_dir, tally);
        setup_s.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());

        // Replay: one sequential client, the cached path only, on one
        // CPU that moves on every pass (see CpuPin).
        {
            CpuPin cpu(static_cast<unsigned>(r));
            unsigned pass = static_cast<unsigned>(r);
            repeatFor(share.replay * slice, kMinPassesPerRound, [&] {
                cpu.moveTo(pass++);
                pass_ms.push_back(1e3 * replayPass(s, warm, tally));
            });
        }

        // Churn: closed-loop writers beside the warm store, the
        // clients on one CPU and the server on the next. Each round
        // makes at least 1000 calls; the rate, p50 and p99 are taken
        // per window of 1000 calls in completion order (so a p99 has
        // ten beyond it).
        const ChurnResult churn =
            runChurn(s, warm, sequence, share.churn * slice, kMinChurnCalls,
                     nullptr, static_cast<unsigned>(r), counter, tally);
        calls += churn.calls;
        churn_s += churn.seconds;
        const CallWindows w =
            callWindows(churn.latencyUs, churn.doneSeconds, kMinChurnCalls);
        append(windows.perSecond, w.perSecond);
        append(windows.p50Us, w.p50Us);
        append(windows.p99Us, w.p99Us);
        reconnects += churn.reconnects;
        balanced = balanced && churn.requestsDelta == churn.expectedDelta;

        // Stop the server, then drop the round's store, untimed.
        warm = WarmStore{};
        std::error_code ec;
        std::filesystem::remove_all(store_dir, ec);
    }
    speed.sampleEveryCpu();

    // Host times at the reference speed; the raw medians print too.
    const double index_ms = speed.indexMs();
    const auto host_time = [&](const char *name, double raw,
                               std::size_t samples, bool is_rate = false) {
        report.set(name, atReferenceSpeed(raw, index_ms, kReferenceMs, is_rate),
                   samples);
        std::printf("  raw %-14s %14.6g\n", name, raw);
    };
    std::printf("host speed: reference kernel %.3f ms (median of %zu, every "
                "CPU, no server alive; %.1f ms at the reference speed); raw "
                "medians:\n",
                index_ms, speed.samples(), kReferenceMs);
    host_time("setup_s", median(setup_s), setup_s.size());
    host_time("sweep_s", median(sweep_s), sweep_s.size());
    host_time("replay_ms", median(pass_ms), pass_ms.size());
    // The quartile of churn windows the host touched least (see
    // callWindows()).
    host_time("ops_per_s", quartile(windows.perSecond, 3), calls, true);
    host_time("lat_p50_us", quartile(windows.p50Us, 1), calls);
    host_time("lat_p99_us", quartile(windows.p99Us, 1), calls);
    // Every config seed's grid ran at least once: a run has at least
    // kMinRounds rounds of at least one sweep each.
    double err_sum = 0.0;
    for (const auto &[seed, at] : ipc) {
        err_sum += paperErrorPct(at);
        std::printf("paper-cold, config seed %llu: superscalar %.3f, RR.1.8 "
                    "peak %.3f, RR.2.8@8 %.3f, ICOUNT.2.8@8 %.3f IPC; error "
                    "%.3f%%\n",
                    static_cast<unsigned long long>(seed), at.superscalar,
                    at.rr18Peak, at.rr28At8, at.icount28At8,
                    paperErrorPct(at));
    }
    tally.add(1, ipc.size() == s.configSeeds.size() ? 0 : 1);
    report.set("paper_err_pct", err_sum / std::max<std::size_t>(1, ipc.size()),
               ipc.size());
    report.set("peak_rss_mb", peakRssMb(), 1);
    std::printf("store-churn: %llu calls in %.3f s over %d rounds, %zu "
                "windows of %llu; server request ledger %s; reconnects "
                "%lld\n",
                static_cast<unsigned long long>(calls), churn_s, rounds,
                windows.p99Us.size(),
                static_cast<unsigned long long>(kMinChurnCalls),
                balanced ? "balanced" : "UNBALANCED",
                static_cast<long long>(reconnects));
    std::printf("metrics (medians: setup over %d rounds, sweeps and passes "
                "over all; churn: the calmest quartile of its windows; n = "
                "samples behind each):\n",
                rounds);
    return report.print(endToEndMetrics(), tally, true) ? 0 : 1;
}

int
runTraced(const Args &args, const Settings &s,
          const std::vector<ChurnOp> &sequence)
{
    Tally tally;
    Report report;
    SpanRecorder rec;
    const Shares share = sharesFor(args.workload);
    std::map<std::string, double> m;
    std::map<std::string, std::size_t> n; // samples; 1 when absent.
    std::map<std::string, double> overhead, gap;
    HostSpeed speed;
    speed.sampleEveryCpu();

    // Cold: untraced sweeps and the traced repeat of their steps in
    // turn; every traced grid must match the untraced stats point for
    // point. No server is alive yet.
    std::vector<double> plain_s, traced_s;
    ColdTrace cold;
    for (int i = 0; i < kTracedColdPairs; ++i) {
        const ColdResult plain = coldSweep(s, s.workDir + "/cold",
                                           s.configSeeds.front(), tally);
        cold = tracedColdSweep(s, s.workDir + "/cold", rec, tally);
        for (std::size_t p = 0; p < plain.outcome.points.size(); ++p) {
            const bool same =
                p < cold.outcome.points.size()
                && smt::sweep::toJson(plain.outcome.points[p].data.stats)
                       == smt::sweep::toJson(
                           cold.outcome.points[p].data.stats);
            tally.add(1, same ? 0 : 1);
        }
        plain_s.push_back(plain.seconds);
        traced_s.push_back(cold.seconds);
        gap["paper-cold"] = std::max(gap["paper-cold"], cold.selfGapPct);
    }
    m.insert(cold.metrics.begin(), cold.metrics.end());
    n.insert(cold.samples.begin(), cold.samples.end());
    overhead["paper-cold"] =
        100.0 * (median(traced_s) / median(plain_s) - 1.0);
    speed.sampleEveryCpu();

    WarmStore warm = setUpWarmStore(s, s.workDir + "/store", tally);

    // Replay: untraced and traced passes in turn, on one CPU, so the
    // overhead compares like with like.
    double server_gap_replay = 0.0;
    {
        CpuPin cpu;
        const ReplayTrace replay =
            tracedReplay(s, warm, rec, kTracedLookups,
                         share.replay * args.seconds / 2, tally);
        m.insert(replay.metrics.begin(), replay.metrics.end());
        n.insert(replay.samples.begin(), replay.samples.end());
        overhead["paper-replay"] =
            100.0 * (replay.passSeconds / replay.plainSeconds - 1.0);
        gap["paper-replay"] = replay.selfGapPct;
        server_gap_replay = replay.serverGapPct;
    }

    // Churn: the traced window between two untraced halves of the
    // same number of calls, the reference rate.
    std::uint64_t counter = 0;
    const ChurnResult plain_a = runChurn(s, warm, sequence, 0.0,
                                         kTracedChurnCalls / 2, nullptr, 0,
                                         counter, tally);
    warm.host->trace(&rec);
    const std::size_t first_churn_span = rec.spans().size();
    const Json before = warm.host->stats();
    // A fixed number of calls, not a time window, so the traced counts
    // (requests, failures) repeat exactly for a seed.
    const ChurnResult churn = runChurn(s, warm, sequence, 0.0,
                                       kTracedChurnCalls, &rec, 0, counter,
                                       tally);
    warm.host->trace(nullptr);
    const Json after = warm.host->stats();
    const ChurnResult plain_b = runChurn(s, warm, sequence, 0.0,
                                         kTracedChurnCalls / 2, nullptr, 0,
                                         counter, tally);
    overhead["store-churn"] =
        100.0
        * (((plain_a.calls + plain_b.calls)
            / (plain_a.seconds + plain_b.seconds))
               / (churn.calls / churn.seconds)
           - 1.0);
    for (ChurnOp op : sequence) {
        const auto it = churn.byOp.find(op);
        const std::string name = std::string("store.") + churnOpName(op)
                                 + "_us";
        m[name] = it == churn.byOp.end() ? 0.0 : median(it->second);
        n[name] = it == churn.byOp.end() ? 0 : it->second.size();
        const auto f = churn.failedByOp.find(op);
        m[std::string("store.failures.") + churnOpName(op)] =
            f == churn.failedByOp.end() ? 0.0 : f->second;
    }
    const auto puts = churn.byOp.find(ChurnOp::Put);
    m["store.put_us_p99"] =
        puts == churn.byOp.end()
            ? 0.0
            : tailPercentile(puts->second, 0.99).value_or(0.0);
    n["store.put_us_p99"] = n["store.put_us"];
    const std::vector<Span> spans = rec.spans();
    std::map<std::string, std::vector<double>> handle_us;
    double handle_total_us = 0.0;
    std::uint64_t handled = 0;
    std::vector<std::int64_t> client_roots;
    for (std::size_t i = first_churn_span; i < spans.size(); ++i) {
        if (spans[i].name.rfind("store.handle.", 0) == 0) {
            handle_us[spans[i].name].push_back(spans[i].durNs() / 1e3);
            handle_total_us += spans[i].durNs() / 1e3;
            ++handled;
        }
        if (spans[i].name == "churn.client")
            client_roots.push_back(static_cast<std::int64_t>(i));
    }
    for (const char *route :
         {"entries_get", "entries_put", "markers_put", "state_get"})
    {
        const std::vector<double> &us =
            handle_us["store.handle." + std::string(route)];
        m[std::string("store.handle_us.") + route] = median(us);
        n[std::string("store.handle_us.") + route] = us.size();
    }
    m["net.wait_us"] = median(churn.waitUs);
    n["net.wait_us"] = churn.waitUs.size();
    m["net.requests_delta"] = static_cast<double>(churn.requestsDelta);
    m["net.reconnects"] = static_cast<double>(churn.reconnects);
    gap["store-churn"] = selfTimeGapPct(rec, client_roots);
    // The handle spans against the server's own clock: what they hold
    // beyond it is StoreService's bookkeeping after its timer stops.
    double server_us = 0.0;
    for (const char *route : {"entries", "markers", "state"})
        server_us += StoreHost::latencySumUsOf(after, route)
                     - StoreHost::latencySumUsOf(before, route);
    const double server_gap_churn =
        serverClosureGapPct(handle_total_us, server_us, handled);

    for (const auto &[name, v] :
         writePathAnatomy(warm, s.workDir + "/write-anatomy")) {
        m[name] = v;
        n[name] = kAnatomyReps * warm.entries.size();
    }
    warm = WarmStore{};
    speed.sampleEveryCpu();

    m["trace.overhead_pct"] = overhead[args.workload];
    double worst_gap = 0.0;
    for (const auto &[workload, g] : gap)
        worst_gap = std::max(worst_gap, g);
    m["trace.self_time_gap_pct"] = worst_gap;
    m["host.reference_ms"] = speed.indexMs();
    n["host.reference_ms"] = speed.samples();

    std::printf("trace overhead: paper-cold %+.1f%%, paper-replay %+.1f%%, "
                "store-churn %+.1f%%\n",
                overhead["paper-cold"], overhead["paper-replay"],
                overhead["store-churn"]);
    std::printf("closure gaps (tolerance %.0f%%): paper-cold %.3f%% (stage "
                "totals + timer cost vs sim.run), paper-replay %.3f%% (self "
                "times vs each pass), store-churn %.3f%% (self times vs "
                "each client)\n",
                kClosureTolerancePct, gap["paper-cold"], gap["paper-replay"],
                gap["store-churn"]);
    std::printf("server handle spans beyond StoreService's own timer "
                "(its bookkeeping after the timer stops): paper-replay "
                "%.1f%%, store-churn %.1f%%\n",
                server_gap_replay, server_gap_churn);
    if (!args.traceOut.empty()) {
        const std::filesystem::path out(args.traceOut);
        std::error_code ec;
        std::filesystem::create_directories(out.parent_path(), ec);
        if (!rec.chromeTrace().writeFileAtomic(args.traceOut, -1))
            smt_warn("smtbench: cannot write %s", args.traceOut.c_str());
        else
            std::printf("chrome trace: %s (%zu spans)\n",
                        args.traceOut.c_str(), rec.spans().size());
    }

    for (const auto &[name, v] : m)
        report.set(name, v, n.count(name) != 0 ? n[name] : 1);
    const bool closed = worst_gap <= kClosureTolerancePct;
    std::printf("metrics:\n");
    return report.print(perLayerMetrics(), tally, closed) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const bool ram_backed = mountPrivateTmpfs(args.workDir);
    // Before any thread starts: runSweep stamps every traced replay
    // lookup with this id, which joins the server's spans to it.
    if (args.trace)
        ::setenv(smt::obs::kTraceEnvVar, kReplayTraceId, 1);

    Json capture;
    if (!Json::readFile(args.capture, capture))
        usage(("cannot read the traffic capture " + args.capture).c_str());
    const std::vector<ChurnOp> sequence = churnSequenceFrom(capture);
    if (sequence.empty())
        usage("the traffic capture has no per-digest sequence");

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    Settings s;
    // The pool plus the waiting caller (which runs tasks too) fit in
    // nproc; churn runs as many clients as the server has dispatch
    // threads.
    s.poolWorkers = std::max(1u, nproc - 1);
    s.clients = std::max(1u, nproc - 1);
    s.seed = args.seed;
    s.configSeeds.clear();
    for (unsigned k = 0; k < kConfigSeeds; ++k)
        s.configSeeds.push_back(configSeedFor(args.seed, k));
    s.coldBudget.warmupCycles = kColdWarmup;
    s.coldBudget.cyclesPerRun = kColdCycles;
    s.fillBudget.warmupCycles = kFillWarmup;
    s.fillBudget.cyclesPerRun = kFillCycles;
    s.workDir = args.workDir + "/run-" + std::to_string(::getpid());
    smt::sweep::ThreadPool::requestGlobalWorkers(s.poolWorkers);

    std::error_code ec;
    std::filesystem::create_directories(s.workDir, ec);
    std::printf("smtbench %s: seed %llu (config seeds", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed));
    for (std::uint64_t seed : s.configSeeds)
        std::printf(" %llu", static_cast<unsigned long long>(seed));
    std::printf("), %.1f s, trace %d\n", args.seconds, args.trace ? 1 : 0);
    std::printf("host %s; pool %u workers + caller; %u churn clients; "
                "store fs %s%s\n",
                smt::simspeed::hostFingerprint().c_str(), s.poolWorkers,
                s.clients, fsTypeOf(s.workDir).c_str(),
                ram_backed ? " (private mount)" : "");
    std::printf("budgets: cold %llu+%llu cycles x 8 runs, fill %llu+%llu "
                "cycles x 8 runs; churn sequence:",
                static_cast<unsigned long long>(kColdWarmup),
                static_cast<unsigned long long>(kColdCycles),
                static_cast<unsigned long long>(kFillWarmup),
                static_cast<unsigned long long>(kFillCycles));
    for (ChurnOp op : sequence)
        std::printf(" %s", churnOpName(op));
    std::printf("\n");

    const int rc = args.trace ? runTraced(args, s, sequence)
                              : runUntraced(args, s, sequence);
    std::filesystem::remove_all(s.workDir, ec);
    return rc;
}
