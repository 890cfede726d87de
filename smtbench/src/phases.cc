#include "phases.hh"

#include <algorithm>
#include <barrier>
#include <latch>
#include <sched.h>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <thread>

#include "common/logging.hh"
#include "common/lz.hh"
#include "common/rng.hh"
#include "net/http_client.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "sweep/digest.hh"
#include "sweep/experiments.hh"
#include "sweep/remote_store.hh"
#include "sweep/result_cache.hh"
#include "sweep/result_store.hh"
#include "sweep/serialize.hh"
#include "sweep/thread_pool.hh"
#include "workload/mix.hh"

namespace smtbench
{

namespace fs = std::filesystem;
using smt::SimStats;
using smt::sweep::Json;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

void
freshDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec)
        smt_fatal("smtbench: cannot create %s: %s", dir.c_str(),
                  ec.message().c_str());
}

smt::sweep::RunnerOptions
runnerOptions(const Settings &s, const std::string &locator,
              const smt::MeasureOptions &budget)
{
    smt::sweep::RunnerOptions ropts;
    ropts.measure = budget;
    ropts.cacheDir = locator;
    ropts.jobs = s.poolWorkers;
    return ropts;
}

/** Apply `clients` to the threads named in `client_tids` and `rest`
 *  to every other thread of this process (best effort: where the host
 *  refuses, the phase simply runs unconfined). */
void
setProcessAffinity(const cpu_set_t &rest,
                   const std::vector<int> &client_tids = {},
                   const cpu_set_t *clients = nullptr)
{
    std::error_code ec;
    for (const auto &task : fs::directory_iterator("/proc/self/task", ec)) {
        const pid_t tid = static_cast<pid_t>(
            std::strtol(task.path().filename().c_str(), nullptr, 10));
        const bool client =
            clients != nullptr
            && std::find(client_tids.begin(), client_tids.end(), tid)
                   != client_tids.end();
        const cpu_set_t &mask = client ? *clients : rest;
        ::sched_setaffinity(tid, sizeof mask, &mask);
    }
}

/** The mask the process started with (read once, before any phase
 *  changes it). */
const cpu_set_t &
startingMask()
{
    static const cpu_set_t mask = [] {
        cpu_set_t m;
        CPU_ZERO(&m);
        if (::sched_getaffinity(0, sizeof m, &m) != 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                CPU_SET(c, &m);
        return m;
    }();
    return mask;
}

/** The mask of only the `index`-th CPU (modulo the count) of the
 *  starting mask; false when that mask is empty. */
bool
nthCpu(unsigned index, cpu_set_t &mask)
{
    const cpu_set_t &start = startingMask();
    const int count = CPU_COUNT(&start);
    if (count <= 0)
        return false;
    const int want = static_cast<int>(index % static_cast<unsigned>(count));
    for (int c = 0, seen = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &start) || seen++ != want)
            continue;
        CPU_ZERO(&mask);
        CPU_SET(c, &mask);
        return true;
    }
    return false;
}

} // namespace

void
CpuPin::moveTo(unsigned index)
{
    cpu_set_t first, second;
    if (!nthCpu(index, first) || !nthCpu(index + 1, second))
        return;
    if (clients_.empty())
        setProcessAffinity(first);
    else
        setProcessAffinity(second, clients_, &first);
}

CpuPin::~CpuPin() { setProcessAffinity(startingMask()); }

int
currentThreadId()
{
    return static_cast<int>(::gettid());
}

std::uint64_t
configSeedFor(std::uint64_t seed, unsigned k)
{
    // Salt rather than replace, and stay inside 32 bits so the value
    // reads the same in every JSON consumer of the digest key.
    return (smt::mix64(seed ^ 0x736d7462656e6368ULL
                       ^ (k * 0x9e3779b97f4a7c15ULL))
            & 0xffffffffULL)
           | 1;
}

smt::sweep::ExperimentSpec
headlineSpec(std::uint64_t config_seed)
{
    using smt::sweep::AxisOption;
    smt::sweep::ExperimentSpec spec;
    spec.name = "paper-cold";
    spec.title = "the machines behind the paper's headline numbers";
    spec.basePreset = "base";
    spec.threadCounts = {1, 2, 4, 6, 8};
    const Json two8_threads(2u), two8_width(8u);
    spec.axes = {
        {"machine",
         {
             AxisOption{"superscalar",
                        {{"longRegisterPipeline", Json(false)}},
                        {1}},
             AxisOption{"RR.1.8", {}, {}},
             AxisOption{"RR.2.8",
                        {{"fetchThreads", two8_threads},
                         {"fetchPerThread", two8_width}},
                        {8}},
             AxisOption{"ICOUNT.2.8",
                        {{"fetchPolicy", Json("ICOUNT")},
                         {"fetchThreads", two8_threads},
                         {"fetchPerThread", two8_width}},
                        {}},
         }},
        {"seed", {AxisOption{"", {{"seed", Json(config_seed)}}, {}}}},
    };
    return spec;
}

HeadlineIpc
headlineIpc(const smt::sweep::SweepOutcome &outcome)
{
    HeadlineIpc ipc;
    for (const smt::sweep::PointResult &r : outcome.points) {
        const double v = r.data.ipc();
        switch (r.point.axisChoice[0]) {
        case 0:
            ipc.superscalar = v;
            break;
        case 1:
            ipc.rr18Peak = std::max(ipc.rr18Peak, v);
            break;
        case 2:
            ipc.rr28At8 = v;
            break;
        case 3:
            if (r.point.threads == 8)
                ipc.icount28At8 = v;
            break;
        }
    }
    return ipc;
}

std::uint64_t
coldFailures(const smt::sweep::SweepOutcome &outcome,
             const smt::MeasureOptions &budget)
{
    std::uint64_t failed = 0;
    for (const smt::sweep::PointResult &r : outcome.points) {
        const SimStats &st = r.data.stats;
        bool ok = !r.cached && st.cycles == budget.runs * budget.cyclesPerRun;
        for (unsigned t = 0; t < r.point.threads; ++t) {
            if (st.stalls.fetchActive[t] + st.stalls.fetchStalled(t)
                != st.cycles)
                ok = false;
        }
        if (!ok)
            ++failed;
    }
    return failed;
}

// ---- StoreHost -------------------------------------------------------------

StoreHost::StoreHost(const std::string &dir, unsigned dispatch_threads,
                     Handler inner)
    : service_(std::make_unique<smt::sweep::StoreService>(dir))
{
    server_.setMetrics(&service_->metrics());
    server_.setDispatchThreads(dispatch_threads);
    if (!inner) {
        inner = [](smt::sweep::StoreService &service,
                   const smt::net::HttpRequest &req) {
            return service.handle(req);
        };
    }
    const auto handler = [this, inner](const smt::net::HttpRequest &req) {
        SpanRecorder *rec = rec_.load(std::memory_order_acquire);
        const std::uint64_t t0 = rec != nullptr ? rec->nowNs() : 0;
        smt::net::HttpResponse resp = inner(*service_, req);
        const std::string id = req.headers.get(smt::obs::kTraceHeader);
        if (id.empty())
            return resp;
        Handled handled;
        handled.status = resp.status;
        if (rec != nullptr) {
            const std::uint64_t t1 = rec->nowNs();
            // "/v1/entries/<d>" -> "entries", named with the method so
            // GET and PUT of one resource stay apart.
            std::string route = req.target.size() > 4 ? req.target.substr(4)
                                                      : req.target;
            route = route.substr(0, route.find('/'));
            std::string method = req.method;
            std::transform(method.begin(), method.end(), method.begin(),
                           [](unsigned char c) { return std::tolower(c); });
            handled.span = rec->add("store.handle." + route + "_" + method,
                                    -1, t0, t1, id);
        }
        std::lock_guard<std::mutex> lock(mu_);
        pending_[id].push_back(handled);
        return resp;
    };
    std::string error;
    if (!server_.start("127.0.0.1", 0, handler, &error))
        smt_fatal("smtbench: cannot start the store server: %s",
                  error.c_str());
    url_ = "http://127.0.0.1:" + std::to_string(server_.port());
    smt::net::Url url;
    smt::net::parseUrl(url_, url);
    probe_ = std::make_unique<smt::sweep::RemoteResultStore>(url);
}

StoreHost::~StoreHost() { server_.stop(); }

Json
StoreHost::stats()
{
    const std::optional<Json> doc = probe_->stats();
    return doc.has_value() && doc->type() == Json::Type::Object
               ? *doc
               : Json::object();
}

std::int64_t
StoreHost::counterOf(const Json &stats, const std::string &name)
{
    if (!stats.has("counters") || !stats.at("counters").has(name))
        return -1;
    return stats.at("counters").at(name).asInt();
}

std::int64_t
StoreHost::latencySumUsOf(const Json &stats, const std::string &route)
{
    const std::string name = "store.latency_us." + route;
    if (!stats.has("histograms") || !stats.at("histograms").has(name)
        || !stats.at("histograms").at(name).has("sum"))
        return -1;
    return stats.at("histograms").at(name).at("sum").asInt();
}

std::vector<StoreHost::Handled>
StoreHost::takeHandled(const std::string &trace_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Handled> out;
    out.swap(pending_[trace_id]);
    return out;
}

// ---- set-up ----------------------------------------------------------------

WarmStore
setUpWarmStore(const Settings &s, const std::string &dir, Tally &tally)
{
    freshDir(dir);
    WarmStore warm;
    warm.host = std::make_unique<StoreHost>(dir, s.clients);
    for (const char *name : {"fig3", "fig4", "fig5", "fig6", "fig7",
                             "table3", "table4", "table5"}) {
        const smt::sweep::NamedExperiment *e =
            smt::sweep::findExperiment(name);
        if (e == nullptr)
            smt_fatal("smtbench: the experiment registry has no %s", name);
        warm.grids.push_back(e->spec);
    }

    const smt::sweep::RunnerOptions ropts =
        runnerOptions(s, warm.host->url(), s.fillBudget);
    for (const smt::sweep::ExperimentSpec &grid : warm.grids) {
        const smt::sweep::SweepOutcome outcome =
            smt::sweep::runSweep(grid, ropts);
        warm.lookupsPerPass += outcome.points.size();
        for (const smt::sweep::PointResult &r : outcome.points) {
            if (warm.expected.count(r.digest) != 0)
                continue;
            Json stats_json = smt::sweep::toJson(r.data.stats);
            warm.expected.emplace(r.digest, stats_json);
            warm.digests.push_back(r.digest);
            warm.entries.push_back({r.point.config, r.point.options,
                                    r.data.stats, std::move(stats_json)});
        }
    }
    // The untimed warm pass: every lookup must already hit.
    replayPass(s, warm, tally);
    return warm;
}

// ---- cold ------------------------------------------------------------------

ColdResult
coldSweep(const Settings &s, const std::string &dir,
          std::uint64_t config_seed, Tally &tally)
{
    freshDir(dir);
    const smt::sweep::ExperimentSpec spec = headlineSpec(config_seed);
    const smt::sweep::RunnerOptions ropts =
        runnerOptions(s, dir, s.coldBudget);
    ColdResult result;
    const auto t0 = Clock::now();
    result.outcome = smt::sweep::runSweep(spec, ropts);
    result.seconds = secondsSince(t0);
    tally.add(result.outcome.points.size(),
              coldFailures(result.outcome, s.coldBudget));
    return result;
}

// ---- replay ----------------------------------------------------------------

double
replayPass(const Settings &s, const WarmStore &warm, Tally &tally,
           SpanRecorder *rec)
{
    smt::sweep::RunnerOptions ropts =
        runnerOptions(s, warm.host->url(), s.fillBudget);
    std::vector<smt::sweep::SweepOutcome> outcomes;
    outcomes.reserve(warm.grids.size());
    // Traced: whether the server answered each point once with 200.
    std::vector<bool> served;
    std::int64_t pass = -1, grid_span = -1;
    std::uint64_t last_ns = 0;
    if (rec != nullptr) {
        warm.host->takeHandled(kReplayTraceId);
        ropts.onProgress = [&](const smt::sweep::RunProgress &progress) {
            const std::uint64_t now = rec->nowNs();
            // The first point of a grid also carries runSweep's set-up.
            const std::int64_t point =
                rec->add(progress.pointsDone == 1 ? "sweep.first_point"
                                                  : "sweep.point",
                         grid_span, last_ns, now, kReplayTraceId);
            last_ns = now;
            const std::vector<StoreHost::Handled> handled =
                warm.host->takeHandled(kReplayTraceId);
            for (const StoreHost::Handled &h : handled)
                rec->setParent(h.span, point);
            served.push_back(handled.size() == 1
                             && handled[0].status == 200);
        };
        pass = rec->open("replay.pass", -1);
    }
    const auto t0 = Clock::now();
    for (const smt::sweep::ExperimentSpec &grid : warm.grids) {
        if (rec != nullptr) {
            grid_span = rec->open("sweep.grid", pass);
            last_ns = rec->nowNs();
        }
        outcomes.push_back(smt::sweep::runSweep(grid, ropts));
        if (rec != nullptr)
            rec->close(grid_span);
    }
    const double seconds = secondsSince(t0);
    if (rec != nullptr)
        rec->close(pass);

    // Checked after the clock stops: every lookup hit and replayed
    // the stats set-up stored, bit for bit.
    std::size_t i = 0;
    for (const smt::sweep::SweepOutcome &o : outcomes) {
        for (const smt::sweep::PointResult &r : o.points) {
            const auto it = warm.expected.find(r.digest);
            const bool ok = r.cached && it != warm.expected.end()
                            && smt::sweep::toJson(r.data.stats) == it->second
                            && (rec == nullptr
                                || (i < served.size() && served[i]));
            tally.add(1, ok ? 0 : 1);
            ++i;
        }
    }
    return seconds;
}

// ---- churn -----------------------------------------------------------------

const char *
churnOpName(ChurnOp op)
{
    switch (op) {
    case ChurnOp::LookupMiss:
        return "lookup_miss";
    case ChurnOp::Mark:
        return "mark";
    case ChurnOp::Put:
        return "put";
    case ChurnOp::State:
        return "state";
    case ChurnOp::LookupHit:
        return "lookup_hit";
    }
    return "?";
}

namespace
{

/** Each call as the access log names it: method, route, status. */
struct CapturedCall
{
    const char *token;
    ChurnOp op;
    int status;
};

constexpr CapturedCall kCapturedCalls[] = {
    {"GET entries 404", ChurnOp::LookupMiss, 404},
    {"PUT markers 204", ChurnOp::Mark, 204},
    {"PUT entries 204", ChurnOp::Put, 204},
    {"GET state 200", ChurnOp::State, 200},
    {"GET entries 200", ChurnOp::LookupHit, 200},
};

} // namespace

int
churnExpectedStatus(ChurnOp op)
{
    for (const CapturedCall &call : kCapturedCalls) {
        if (call.op == op)
            return call.status;
    }
    return 0;
}

std::vector<ChurnOp>
churnSequenceFrom(const Json &capture)
{
    std::map<std::string, ChurnOp> calls;
    for (const CapturedCall &call : kCapturedCalls)
        calls.emplace(call.token, call.op);
    std::vector<ChurnOp> sequence;
    if (capture.type() != Json::Type::Object
        || !capture.has("per_digest_sequence")
        || capture.at("per_digest_sequence").type() != Json::Type::Array)
        return sequence;
    const Json &tokens = capture.at("per_digest_sequence");
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].type() != Json::Type::String)
            return {};
        const auto it = calls.find(tokens[i].asString());
        if (it == calls.end())
            return {};
        sequence.push_back(it->second);
    }
    return sequence;
}

namespace
{

/** One churn client's ledger. */
struct ClientLedger
{
    std::uint64_t calls = 0;
    std::vector<double> latencyUs;
    std::vector<double> doneSeconds;
    std::map<ChurnOp, std::vector<double>> byOp;
    std::map<ChurnOp, std::uint64_t> failedByOp;
    std::vector<double> waitUs;
    double endSeconds = 0.0;
    std::int64_t root = -1;
};

/** Make one call; false when the client sees the wrong outcome. A
 *  marker or entry write returns nothing: the server's status for it
 *  is checked by the caller. */
bool
churnCall(smt::sweep::RemoteResultStore &store, ChurnOp op,
          const std::string &digest, const EntrySource &entry)
{
    switch (op) {
    case ChurnOp::LookupMiss:
        return !store.lookup(digest).has_value();
    case ChurnOp::Mark:
        store.markInProgress(digest, smt::sweep::kMarkerTtlSeconds);
        return true;
    case ChurnOp::Put:
        store.store(digest, entry.config, entry.options, entry.stats, 0.5);
        return true;
    case ChurnOp::State:
        return store.state(digest) == smt::sweep::WorkState::Done;
    case ChurnOp::LookupHit: {
        const std::optional<SimStats> hit = store.lookup(digest);
        return hit.has_value()
               && smt::sweep::toJson(*hit) == entry.statsJson;
    }
    }
    return false;
}

} // namespace

ChurnResult
runChurn(const Settings &s, WarmStore &warm,
         const std::vector<ChurnOp> &sequence, double seconds,
         std::uint64_t min_calls, SpanRecorder *rec, unsigned first_cpu,
         std::uint64_t &digest_counter, Tally &tally)
{
    smt::net::Url url;
    smt::net::parseUrl(warm.host->url(), url);
    const unsigned clients = std::max(1u, s.clients);
    const std::uint64_t min_per_client = (min_calls + clients - 1) / clients;
    const std::uint64_t first_digest = digest_counter;
    std::vector<ClientLedger> ledgers(clients);
    std::vector<std::unique_ptr<smt::sweep::RemoteResultStore>> stores;
    const auto trace_id = [](unsigned c) {
        return "smtbench-client-" + std::to_string(c);
    };
    for (unsigned c = 0; c < clients; ++c) {
        stores.push_back(
            std::make_unique<smt::sweep::RemoteResultStore>(url));
        stores.back()->setTraceContext(trace_id(c));
    }

    // Fresh digests per (seed, client, counter); the entry each one
    // carries follows a seed-salted order over the real entries.
    const auto digest_for = [&](unsigned c, std::uint64_t n) {
        return smt::sweep::digestHex("smtbench-churn/"
                                     + std::to_string(s.seed) + "/"
                                     + std::to_string(c) + "/"
                                     + std::to_string(n));
    };
    const auto entry_for = [&](unsigned c, std::uint64_t n)
        -> const EntrySource & {
        const std::uint64_t h =
            smt::mix64(s.seed ^ (n * 0x9e3779b97f4a7c15ULL) ^ (c + 1));
        return warm.entries[h % warm.entries.size()];
    };
    // One call, checked on both sides: the client's outcome, and the
    // server answered exactly one request with the captured status.
    const auto call = [&](unsigned c, ChurnOp op, const std::string &d,
                          const EntrySource &entry,
                          std::vector<StoreHost::Handled> &handled) {
        const bool seen = churnCall(*stores[c], op, d, entry);
        handled = warm.host->takeHandled(trace_id(c));
        return seen && handled.size() == 1
               && handled[0].status == churnExpectedStatus(op);
    };

    // Untimed warm-up: one full sequence per client opens its
    // connection and settles the codec negotiation, whose requests
    // come before the call's own.
    const std::uint64_t warm_n = first_digest;
    for (unsigned c = 0; c < clients; ++c) {
        const std::string d = digest_for(c, warm_n);
        warm.host->takeHandled(trace_id(c));
        for (ChurnOp op : sequence) {
            const bool seen = churnCall(*stores[c], op, d,
                                        entry_for(c, warm_n));
            const std::vector<StoreHost::Handled> handled =
                warm.host->takeHandled(trace_id(c));
            const bool ok = seen && !handled.empty()
                            && handled.back().status
                                   == churnExpectedStatus(op);
            tally.add(1, ok ? 0 : 1);
        }
    }

    ChurnResult result;
    const Json before = warm.host->stats();

    std::vector<int> tids(clients, 0);
    std::latch ready(static_cast<std::ptrdiff_t>(clients));
    std::barrier start_line(static_cast<std::ptrdiff_t>(clients + 1));
    std::atomic<unsigned> finished{0};
    Clock::time_point t0;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            ClientLedger &led = ledgers[c];
            const std::string id = trace_id(c);
            tids[c] = currentThreadId();
            ready.count_down();
            start_line.arrive_and_wait();
            if (rec != nullptr)
                led.root = rec->open("churn.client", -1, id);
            const auto deadline =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
            std::vector<StoreHost::Handled> handled;
            for (std::uint64_t n = warm_n + 1;
                 Clock::now() < deadline || led.calls < min_per_client;
                 ++n) {
                const std::string d = digest_for(c, n);
                const EntrySource &entry = entry_for(c, n);
                for (ChurnOp op : sequence) {
                    const std::int64_t span =
                        rec != nullptr
                            ? rec->open(std::string("store.")
                                            + churnOpName(op),
                                        led.root, id)
                            : -1;
                    const auto c0 = Clock::now();
                    const bool ok = call(c, op, d, entry, handled);
                    const double us = usSince(c0);
                    if (rec != nullptr) {
                        rec->close(span);
                        std::uint64_t handled_ns = 0;
                        for (const StoreHost::Handled &h : handled) {
                            rec->setParent(h.span, span);
                            handled_ns += rec->durationNs(h.span);
                        }
                        led.waitUs.push_back(us - handled_ns / 1e3);
                    }
                    ++led.calls;
                    led.latencyUs.push_back(us);
                    led.doneSeconds.push_back(secondsSince(t0));
                    led.byOp[op].push_back(us);
                    if (!ok)
                        ++led.failedByOp[op];
                }
            }
            led.endSeconds = secondsSince(t0);
            if (rec != nullptr)
                rec->close(led.root);
            finished.fetch_add(1, std::memory_order_release);
        });
    }
    // The clients on one CPU, the server on the next, moving on.
    ready.wait();
    CpuPin cpu;
    cpu.setClients(tids);
    unsigned pair = first_cpu;
    cpu.moveTo(pair);
    t0 = Clock::now();
    start_line.arrive_and_wait();
    while (finished.load(std::memory_order_acquire) < clients) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kRotateSeconds));
        cpu.moveTo(++pair);
    }
    for (std::thread &t : threads)
        t.join();

    std::uint64_t max_n = 0;
    for (const ClientLedger &led : ledgers) {
        result.seconds = std::max(result.seconds, led.endSeconds);
        result.calls += led.calls;
        result.latencyUs.insert(result.latencyUs.end(),
                                led.latencyUs.begin(), led.latencyUs.end());
        result.doneSeconds.insert(result.doneSeconds.end(),
                                  led.doneSeconds.begin(),
                                  led.doneSeconds.end());
        result.waitUs.insert(result.waitUs.end(), led.waitUs.begin(),
                             led.waitUs.end());
        for (const auto &[op, v] : led.byOp) {
            auto &dst = result.byOp[op];
            dst.insert(dst.end(), v.begin(), v.end());
        }
        for (const auto &[op, n] : led.failedByOp) {
            result.failedByOp[op] += n;
            result.failed += n;
        }
        max_n = std::max<std::uint64_t>(max_n, led.calls / sequence.size());
    }
    digest_counter = warm_n + max_n + 2;

    // The server's ledger must balance the clients': every call is one
    // request, plus the probe that read the "before" snapshot.
    const Json after = warm.host->stats();
    const auto delta = [&](const char *name) {
        return StoreHost::counterOf(after, name)
               - StoreHost::counterOf(before, name);
    };
    result.requestsDelta = delta("net.requests");
    result.expectedDelta = static_cast<std::int64_t>(result.calls) + 1;
    result.reconnects = delta("net.connections");
    if (result.requestsDelta != result.expectedDelta)
        ++result.failed;
    tally.add(result.calls, result.failed);
    return result;
}

// ---- traced cold -----------------------------------------------------------

namespace
{

/** Seven timed empty stages, as SmtCore::tickTimed times its seven. */
[[gnu::noinline]] void
emptyTimedCycle(smt::StageTimes &out)
{
    for (unsigned st = 0; st < smt::StageTimes::kNumStages; ++st) {
        const auto t0 = Clock::now();
        const auto t1 = Clock::now();
        out.ns[st] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
    }
}

/**
 * The time a cycle of tickTimed spends outside its seven stage timers,
 * in ns: the same cycle loop, call and clock reads around empty stages,
 * timed as a whole and stage by stage on the calling thread.
 */
double
timerGapNsPerCycle()
{
    constexpr int kCycles = 5000;
    smt::StageTimes inside;
    const auto t0 = Clock::now();
    for (int c = 0; c < kCycles; ++c)
        emptyTimedCycle(inside);
    const double whole =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    return (whole - static_cast<double>(inside.totalNs())) / kCycles;
}

/** What one traced rotation run hands back. */
struct TracedRun
{
    SimStats stats;
    smt::StageTimes stages;
    unsigned threads = 0;
    double constructMs = 0.0;
    double warmupMs = 0.0;
    double runMs = 0.0;
    double totalMs = 0.0;
    double timerGapNs = 0.0; ///< per cycle, calibrated on this thread.
    std::int64_t span = -1;
};

/** measureRun's steps, one span each, with tickTimed stage totals. */
TracedRun
tracedRotationRun(SpanRecorder &rec, std::int64_t parent,
                  const smt::SmtConfig &cfg, unsigned run,
                  const smt::MeasureOptions &opts)
{
    TracedRun out;
    out.threads = cfg.numThreads;
    out.span = rec.open("sim.rotation_run", parent);
    const std::uint64_t t0 = rec.nowNs();
    smt::Simulator sim(cfg, smt::mixForRun(cfg.numThreads, run),
                       /*seed_salt=*/smt::mix64(run + 1));
    const std::uint64_t t1 = rec.nowNs();
    rec.add("workload.build", out.span, t0, t1);
    if (opts.warmupCycles > 0)
        sim.warmup(opts.warmupCycles);
    const std::uint64_t t2 = rec.nowNs();
    rec.add("sim.warmup", out.span, t1, t2);
    for (std::uint64_t c = 0; c < opts.cyclesPerRun; ++c)
        sim.core().tickTimed(out.stages);
    const std::uint64_t t3 = rec.nowNs();
    rec.add("sim.run", out.span, t2, t3);
    rec.close(out.span);
    out.stats = sim.stats();
    out.constructMs = (t1 - t0) / 1e6;
    out.warmupMs = (t2 - t1) / 1e6;
    out.runMs = (t3 - t2) / 1e6;
    out.totalMs = (t3 - t0) / 1e6;
    out.timerGapNs = timerGapNsPerCycle();
    return out;
}

} // namespace

ColdTrace
tracedColdSweep(const Settings &s, const std::string &dir,
                SpanRecorder &rec, Tally &tally)
{
    freshDir(dir);
    const smt::sweep::ExperimentSpec spec =
        headlineSpec(s.configSeeds.front());
    std::vector<smt::sweep::SweepPoint> points = spec.expand(s.coldBudget);
    std::unique_ptr<smt::sweep::ResultStore> store =
        smt::sweep::openLocalStore(dir);
    smt::sweep::ThreadPool &pool = smt::sweep::ThreadPool::global();

    ColdTrace trace;
    trace.outcome.spec = spec;
    const auto wall0 = Clock::now();
    const std::int64_t grid = rec.open("sweep.grid", -1);

    // runPoints' miss path: digest, lookup (a miss), advisory mark,
    // every rotation run queued at once; then aggregate in order.
    struct Pending
    {
        std::int64_t span;
        std::string digest;
        std::vector<std::future<TracedRun>> runs;
    };
    std::vector<Pending> pending;
    for (const smt::sweep::SweepPoint &point : points) {
        Pending p;
        p.span = rec.open("sweep.point", grid);
        {
            ScopedSpan sp(rec, "sweep.digest", p.span);
            p.digest = smt::sweep::measurementDigest(point.config,
                                                     point.options);
        }
        {
            ScopedSpan sp(rec, "sweep.lookup", p.span);
            if (store->lookup(p.digest).has_value())
                smt_fatal("smtbench: the cold store is not empty");
        }
        {
            ScopedSpan sp(rec, "sweep.mark", p.span);
            store->markInProgress(p.digest, smt::sweep::kMarkerTtlSeconds);
        }
        for (unsigned r = 0; r < point.options.runs; ++r) {
            p.runs.push_back(pool.submit([&rec, &point, r, span = p.span] {
                return tracedRotationRun(rec, span, point.config, r,
                                         point.options);
            }));
        }
        pending.push_back(std::move(p));
    }

    std::vector<TracedRun> runs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        smt::sweep::PointResult result;
        result.point = points[i];
        result.digest = pending[i].digest;
        double seconds = 0.0;
        for (auto &f : pending[i].runs) {
            runs.push_back(pool.wait(std::move(f)));
            result.data.stats.add(runs.back().stats);
            seconds += runs.back().totalMs / 1e3;
        }
        {
            ScopedSpan sp(rec, "sweep.store", pending[i].span);
            store->store(result.digest, result.point.config,
                         result.point.options, result.data.stats, seconds);
        }
        rec.close(pending[i].span);
        trace.outcome.points.push_back(std::move(result));
    }
    rec.close(grid);
    trace.seconds = secondsSince(wall0);
    tally.add(trace.outcome.points.size(),
              coldFailures(trace.outcome, s.coldBudget));

    // Stage totals per simulated cycle, for the 1- and 8-thread runs.
    std::map<std::string, double> &m = trace.metrics;
    for (unsigned width : {1u, 8u}) {
        smt::StageTimes sum;
        std::uint64_t cycles = 0;
        std::size_t n = 0;
        for (const TracedRun &r : runs) {
            if (r.threads != width)
                continue;
            for (unsigned st = 0; st < smt::StageTimes::kNumStages; ++st)
                sum.ns[st] += r.stages.ns[st];
            cycles += r.stats.cycles;
            ++n;
        }
        for (unsigned st = 0; st < smt::StageTimes::kNumStages; ++st) {
            const std::string name =
                std::string("core.") + smt::StageTimes::stageName(st)
                + "_ns_per_cycle.t" + std::to_string(width);
            m[name] =
                cycles > 0 ? static_cast<double>(sum.ns[st]) / cycles : 0.0;
            trace.samples[name] = n;
        }
    }
    for (const char *name : {"sim.warmup_share_pct", "sim.run_ms_p50",
                             "sim.run_ms_max", "workload.build_ms",
                             "sweep.pool_busy_pct"})
        trace.samples[name] = runs.size();

    std::vector<double> total_ms, build_ms;
    double warm_ms = 0.0, run_ms = 0.0, busy_ms = 0.0;
    for (const TracedRun &r : runs) {
        total_ms.push_back(r.totalMs);
        build_ms.push_back(r.constructMs);
        warm_ms += r.warmupMs;
        run_ms += r.runMs;
        busy_ms += r.totalMs;
    }
    m["sim.warmup_share_pct"] =
        warm_ms + run_ms > 0 ? 100.0 * warm_ms / (warm_ms + run_ms) : 0.0;
    m["sim.run_ms_p50"] = median(total_ms);
    m["sim.run_ms_max"] =
        total_ms.empty() ? 0.0
                         : *std::max_element(total_ms.begin(), total_ms.end());
    m["workload.build_ms"] = median(build_ms);
    // The pool's width counts the waiting caller, which runs tasks too.
    m["sweep.pool_busy_pct"] =
        100.0 * busy_ms
        / (trace.seconds * 1e3 * (pool.workerCount() + 1));

    SimStats all;
    std::uint64_t active = 0, stalled = 0;
    for (const smt::sweep::PointResult &r : trace.outcome.points) {
        all.add(r.data.stats);
        for (unsigned t = 0; t < r.point.threads; ++t) {
            active += r.data.stats.stalls.fetchActive[t];
            stalled += r.data.stats.stalls.fetchStalled(t);
        }
    }
    m["core.cycles"] = static_cast<double>(all.cycles);
    m["core.committed_minst"] = all.committedInstructions / 1e6;
    m["core.useful_fetch_pct"] =
        all.fetchedInstructions > 0
            ? 100.0 * all.committedInstructions / all.fetchedInstructions
            : 0.0;
    m["core.stalled_slot_pct"] =
        active + stalled > 0 ? 100.0 * stalled / (active + stalled) : 0.0;
    m["mem.icache_mpki"] = all.icache.mpki(all.committedInstructions);
    m["mem.dcache_mpki"] = all.dcache.mpki(all.committedInstructions);
    m["branch.mispredict_pct"] = 100.0 * all.branchMispredictRate();
    // Closure against a clock the spans do not share: the stage totals
    // tickTimed measured inside each run, plus the cost of its own
    // timer calls, must account for the run's sim.run span; what is
    // left is work outside the seven stages. The median run is taken,
    // so a vCPU descheduled between two stages of one run cannot fail
    // the grid.
    std::vector<double> gaps;
    for (const TracedRun &r : runs) {
        const double timer_ns =
            static_cast<double>(r.stats.cycles) * r.timerGapNs;
        gaps.push_back(closureGapPct(
            (static_cast<double>(r.stages.totalNs()) + timer_ns) / 1e6,
            r.runMs));
    }
    trace.selfGapPct = median(gaps);
    return trace;
}

// ---- traced replay ---------------------------------------------------------

namespace
{

/** One round of a cached GET's anatomy over every warm entry, on the
 *  same entry bytes and with the same public calls StoreService::handle
 *  and RemoteResultStore::lookup make: the server's read, ETag and
 *  compression, the client's digest, decompression, ETag check, JSON
 *  parse and stats decode. */
void
getAnatomy(const WarmStore &warm, const smt::sweep::ResultCache &cache,
           SpanRecorder &rec, std::int64_t parent, Tally &tally,
           std::uint64_t &raw_bytes, std::uint64_t &packed_bytes)
{
    for (std::size_t e = 0; e < warm.digests.size(); ++e) {
        const std::string &digest = warm.digests[e];
        std::string key;
        {
            ScopedSpan sp(rec, "sweep.digest", parent);
            key = smt::sweep::measurementDigest(warm.entries[e].config,
                                                warm.entries[e].options);
        }
        std::optional<std::string> text;
        {
            ScopedSpan sp(rec, "sweep.entry_read", parent);
            text = cache.readEntryText(digest);
        }
        if (!text.has_value()) {
            tally.add(1, 1);
            continue;
        }
        std::string etag, packed;
        {
            ScopedSpan sp(rec, "sweep.etag", parent);
            etag = smt::sweep::contentDigest(*text);
        }
        {
            ScopedSpan sp(rec, "common.lz_compress", parent);
            packed = smt::lzCompress(*text);
        }
        std::optional<std::string> body;
        {
            ScopedSpan sp(rec, "common.lz_decompress", parent);
            body = smt::lzDecompress(packed, text->size());
        }
        Json doc;
        bool parsed = false;
        {
            ScopedSpan sp(rec, "sweep.json_parse", parent);
            parsed = body.has_value() && Json::parse(*body, doc);
        }
        SimStats stats;
        bool decoded = false;
        {
            ScopedSpan sp(rec, "sweep.stats_decode", parent);
            decoded = parsed && doc.has("stats")
                      && smt::sweep::simStatsFromJson(doc.at("stats"),
                                                      stats);
        }
        const bool ok = decoded && key == digest && body == text
                        && etag == smt::sweep::contentDigest(*body)
                        && smt::sweep::toJson(stats)
                               == warm.expected.at(digest);
        tally.add(1, ok ? 0 : 1);
        raw_bytes += text->size();
        packed_bytes += packed.size();
    }
}

} // namespace

ReplayTrace
tracedReplay(const Settings &s, WarmStore &warm, SpanRecorder &rec,
             std::size_t min_lookups, double min_seconds, Tally &tally)
{
    ReplayTrace out;
    const smt::sweep::ResultCache cache(warm.host->service().dir());
    const std::size_t first_span = rec.spans().size();
    std::vector<double> plain_s, pass_s;
    std::int64_t requests = 0, bytes = 0, server_us = 0;
    std::size_t lookups = 0, points = 0, rounds = 0;
    std::uint64_t raw_bytes = 0, packed_bytes = 0;
    // Untraced and traced passes in turn, so host drift hits both
    // alike; after each traced pass, one anatomy round, so the parts
    // are timed in the same stretch as the whole.
    const auto t0 = Clock::now();
    while (points < min_lookups || secondsSince(t0) < min_seconds) {
        plain_s.push_back(replayPass(s, warm, tally));
        const Json before = warm.host->stats();
        warm.host->trace(&rec);
        pass_s.push_back(replayPass(s, warm, tally, &rec));
        warm.host->trace(nullptr);
        const Json after = warm.host->stats();
        // The delta includes the probe that read `before`.
        requests += StoreHost::counterOf(after, "net.requests")
                    - StoreHost::counterOf(before, "net.requests") - 1;
        bytes += StoreHost::counterOf(after, "net.bytes_out")
                 - StoreHost::counterOf(before, "net.bytes_out");
        server_us += StoreHost::latencySumUsOf(after, "entries")
                     - StoreHost::latencySumUsOf(before, "entries");
        lookups += warm.lookupsPerPass;
        points += warm.lookupsPerPass - warm.grids.size();
        ScopedSpan anatomy(rec, "anatomy.get", -1);
        getAnatomy(warm, cache, rec, anatomy.id(), tally, raw_bytes,
                   packed_bytes);
        ++rounds;
    }
    out.passSeconds = median(pass_s);
    out.plainSeconds = median(plain_s);

    // Per cached point: its time in runSweep (digest and lookup), and
    // that less the server's handle span under it.
    const std::vector<Span> spans = rec.spans();
    std::map<std::size_t, std::uint64_t> handled_ns;
    std::vector<double> handle_us;
    double handle_total_us = 0.0;
    std::vector<std::int64_t> roots;
    for (std::size_t i = first_span; i < spans.size(); ++i) {
        const Span &sp = spans[i];
        if (sp.name == "replay.pass")
            roots.push_back(static_cast<std::int64_t>(i));
        if (sp.name != "store.handle.entries_get" || sp.parent < 0)
            continue;
        handle_us.push_back(sp.durNs() / 1e3);
        handle_total_us += sp.durNs() / 1e3;
        handled_ns[static_cast<std::size_t>(sp.parent)] += sp.durNs();
    }
    std::vector<double> point_us, point_minus_handle_us;
    for (std::size_t i = first_span; i < spans.size(); ++i) {
        if (spans[i].name != "sweep.point")
            continue;
        point_us.push_back(spans[i].durNs() / 1e3);
        point_minus_handle_us.push_back(
            (static_cast<double>(spans[i].durNs()) - handled_ns[i]) / 1e3);
    }
    std::map<std::string, double> &m = out.metrics;
    m["sweep.lookup_us_p50"] = median(point_us);
    m["sweep.lookup_us_p99"] = tailPercentile(point_us, 0.99).value_or(0.0);
    m["store.get_hit_us"] = median(handle_us);
    m["net.requests_per_pass"] =
        static_cast<double>(requests) / pass_s.size();
    m["net.bytes_per_lookup"] =
        lookups > 0 ? static_cast<double>(bytes) / lookups : 0.0;
    out.samples["sweep.lookup_us_p50"] = point_us.size();
    out.samples["sweep.lookup_us_p99"] = point_us.size();
    out.samples["store.get_hit_us"] = handle_us.size();
    out.samples["net.overhead_us"] = point_minus_handle_us.size();
    out.samples["net.bytes_per_lookup"] = lookups;
    out.samples["net.requests_per_pass"] = pass_s.size();
    for (const char *name :
         {"sweep.digest", "sweep.entry_read", "sweep.etag",
          "common.lz_compress", "common.lz_decompress", "sweep.json_parse",
          "sweep.stats_decode"})
    {
        std::vector<double> us;
        for (std::size_t i = first_span; i < spans.size(); ++i) {
            if (spans[i].name == name)
                us.push_back(spans[i].durNs() / 1e3);
        }
        m[std::string(name) + "_us"] = median(us);
        out.samples[std::string(name) + "_us"] = us.size();
    }
    m["common.lz_ratio"] =
        raw_bytes > 0 ? static_cast<double>(packed_bytes) / raw_bytes : 0.0;
    // A point's time less the server's handle is the client's digest
    // and decode plus the network between them.
    const double client_us = m["sweep.digest_us"]
                             + m["common.lz_decompress_us"]
                             + m["sweep.etag_us"] + m["sweep.json_parse_us"]
                             + m["sweep.stats_decode_us"];
    m["net.overhead_us"] = median(point_minus_handle_us) - client_us;
    out.selfGapPct = selfTimeGapPct(rec, roots);
    out.serverGapPct = serverClosureGapPct(
        handle_total_us, static_cast<double>(server_us), handle_us.size());
    return out;
}

std::map<std::string, double>
writePathAnatomy(const WarmStore &warm, const std::string &dir)
{
    freshDir(dir);
    const smt::sweep::ResultCache scratch(dir);
    std::vector<double> build_us, verify_us, write_us;
    std::uint64_t n = 0;
    for (std::size_t rep = 0; rep < kAnatomyReps; ++rep) {
        for (const EntrySource &e : warm.entries) {
            const std::string digest =
                smt::sweep::digestHex("smtbench-write/" + std::to_string(n++));
            // Client store(): the entry document, its transfer
            // encoding and its declared digest.
            auto t0 = Clock::now();
            const std::string text =
                smt::sweep::makeEntryJson(digest, e.config, e.options,
                                          e.stats, 0.5)
                    .dump(2)
                + "\n";
            const std::string packed = smt::lzCompress(text);
            const std::string declared = smt::sweep::contentDigest(text);
            build_us.push_back(usSince(t0));
            // Server PUT: decode, verify the digest, parse the entry.
            t0 = Clock::now();
            const std::optional<std::string> body =
                smt::lzDecompress(packed, text.size());
            Json doc;
            const bool ok = body.has_value()
                            && smt::sweep::contentDigest(*body) == declared
                            && Json::parse(*body, doc);
            verify_us.push_back(usSince(t0));
            if (!ok)
                smt_fatal("smtbench: a churn entry does not verify");
            t0 = Clock::now();
            if (!scratch.writeEntryText(digest, text))
                smt_fatal("smtbench: cannot write %s", dir.c_str());
            write_us.push_back(usSince(t0));
        }
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    return {{"sweep.entry_build_us", median(build_us)},
            {"sweep.put_verify_us", median(verify_us)},
            {"sweep.entry_write_us", median(write_us)}};
}

double
selfTimeGapPct(const SpanRecorder &rec, const std::vector<std::int64_t> &roots)
{
    const std::vector<Span> spans = rec.spans();
    double worst = 0.0;
    for (std::int64_t root : roots) {
        const std::uint64_t dur = spans[static_cast<std::size_t>(root)].durNs();
        if (dur == 0)
            continue;
        std::uint64_t sum = 0;
        for (const auto &[name, ns] : rec.selfTimeByName(root))
            sum += ns;
        const double gap =
            100.0 * std::fabs(static_cast<double>(sum) - dur) / dur;
        worst = std::max(worst, gap);
    }
    return worst;
}

} // namespace smtbench
