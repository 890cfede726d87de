#include "obs/trace_analysis.hh"

#include "obs/chrome_trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace smt::obs
{

namespace
{

/** A numeric field as double; `fallback` when absent or non-numeric. */
double
getNumber(const sweep::Json &j, const char *key, double fallback)
{
    if (j.has(key) && j.at(key).isNumber())
        return j.at(key).asDouble();
    return fallback;
}

/** Classify and ingest one JSONL line; false when it is foreign. */
bool
classifyLine(const std::string &line, std::vector<TraceEvent> &events,
             std::vector<AccessRecord> &access)
{
    sweep::Json j;
    if (!sweep::Json::parse(line, j)
        || j.type() != sweep::Json::Type::Object)
        return false;

    // A trace span: {"ts", "event", "trace", ...}.
    if (j.has("event") && j.at("event").type() == sweep::Json::Type::String
        && j.has("trace")
        && j.at("trace").type() == sweep::Json::Type::String
        && j.has("ts") && j.at("ts").isNumber()) {
        TraceEvent ev;
        ev.ts = j.at("ts").asDouble();
        ev.mono = getNumber(j, "mono", -1.0);
        ev.durUs = getNumber(j, "dur_us", -1.0);
        ev.event = j.at("event").asString();
        ev.trace = j.at("trace").asString();
        ev.digest = getString(j, "digest");
        ev.label = getString(j, "label");
        ev.host = getString(j, "host");
        ev.pid = static_cast<std::uint64_t>(
            getNumber(j, "pid", 0.0));
        ev.seconds = getNumber(j, "seconds", -1.0);
        ev.fields = std::move(j);
        events.push_back(std::move(ev));
        return true;
    }

    // An access-log record: {"ts", "route", "method", "status", ...}.
    if (j.has("route") && j.at("route").type() == sweep::Json::Type::String
        && j.has("status") && j.at("status").isNumber()) {
        AccessRecord rec;
        rec.ts = getNumber(j, "ts", 0.0);
        rec.route = j.at("route").asString();
        rec.method = getString(j, "method");
        rec.target = getString(j, "target");
        rec.trace = getString(j, "trace");
        rec.status = static_cast<int>(j.at("status").asDouble());
        rec.bytesIn = static_cast<std::uint64_t>(
            getNumber(j, "bytes_in", 0.0));
        rec.bytesOut = static_cast<std::uint64_t>(
            getNumber(j, "bytes_out", 0.0));
        rec.latencyUs = getNumber(j, "latency_us", 0.0);
        access.push_back(std::move(rec));
        return true;
    }
    return false;
}

/** The trace id to analyze: the requested one, else the id with the
 *  most spans in the corpus ("" when the corpus is empty). */
std::string
pickTraceId(const TraceSet &set, const std::string &requested)
{
    if (!requested.empty())
        return requested;
    std::map<std::string, std::size_t> counts;
    for (const TraceEvent &ev : set.events)
        ++counts[ev.trace];
    std::string best;
    std::size_t best_count = 0;
    for (const auto &[id, count] : counts) {
        if (count > best_count) {
            best = id;
            best_count = count;
        }
    }
    return best;
}

/** A run span's duration in seconds: dur_us when stamped, else the
 *  span's own "seconds" figure, else zero (an instant). */
double
runDurationSeconds(const TraceEvent &ev)
{
    if (ev.durUs >= 0.0)
        return ev.durUs / 1e6;
    if (ev.seconds >= 0.0)
        return ev.seconds;
    return 0.0;
}

/** Total length of the union of [start, end] intervals. */
double
intervalUnionSeconds(std::vector<std::pair<double, double>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0, cur_start = 0.0, cur_end = 0.0;
    bool open = false;
    for (const auto &[start, end] : intervals) {
        if (end <= start)
            continue;
        if (!open || start > cur_end) {
            if (open)
                total += cur_end - cur_start;
            cur_start = start;
            cur_end = end;
            open = true;
        } else if (end > cur_end) {
            cur_end = end;
        }
    }
    if (open)
        total += cur_end - cur_start;
    return total;
}

std::string
workerKey(const TraceEvent &ev)
{
    return ev.host + "/" + std::to_string(ev.pid);
}

} // namespace

std::string
getString(const sweep::Json &j, const char *key)
{
    if (j.has(key) && j.at(key).type() == sweep::Json::Type::String)
        return j.at(key).asString();
    return "";
}

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = std::ceil(p / 100.0 * sorted.size());
    std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

bool
TraceSet::addFile(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        if (error != nullptr)
            *error = "cannot open " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    addText(text.str());
    return true;
}

void
TraceSet::addText(const std::string &text)
{
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const std::size_t end = nl == std::string::npos ? text.size() : nl;
        std::string line = text.substr(pos, end - pos);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty()) {
            ++lines;
            if (!seen_.insert(line).second)
                ++duplicates;
            else if (!classifyLine(line, events, access))
                ++skipped;
        }
        if (nl == std::string::npos)
            break;
        pos = nl + 1;
    }
}

std::string
DigestTimeline::terminal() const
{
    if (stored)
        return "stored";
    if (hit)
        return "hit";
    return "";
}

TraceAnalysis
analyzeTrace(const TraceSet &set, const std::string &trace_id)
{
    TraceAnalysis out;
    out.traceId = pickTraceId(set, trace_id);

    struct WorkerScratch
    {
        std::vector<std::pair<double, double>> runIntervals; ///< mono.
        double monoMin = 0.0, monoMax = 0.0;
        bool hasMono = false;
        WorkerLedger ledger;
        std::vector<std::pair<double, std::string>> runOrder; ///< ts.
    };
    std::map<std::string, WorkerScratch> workers;
    std::map<std::string, DigestTimeline> digests;
    double ts_min = 0.0, ts_max = 0.0;
    bool any = false;

    for (const TraceEvent &ev : set.events) {
        if (ev.trace != out.traceId)
            continue;
        ++out.events;
        if (!any || ev.ts < ts_min)
            ts_min = ev.ts;
        if (!any || ev.ts > ts_max)
            ts_max = ev.ts;
        any = true;

        if (ev.event == "sweep_start") {
            out.hasSweepStart = true;
            out.experiment = getString(ev.fields, "experiment");
        } else if (ev.event == "sweep_done") {
            out.hasSweepDone = true;
            if (out.experiment.empty())
                out.experiment = getString(ev.fields, "experiment");
            out.sweepSeconds = getNumber(ev.fields, "seconds", -1.0);
        }

        if (!ev.digest.empty()) {
            DigestTimeline &d = digests[ev.digest];
            if (d.digest.empty()) {
                d.digest = ev.digest;
                d.firstTs = ev.ts;
                d.lastTs = ev.ts;
            }
            d.firstTs = std::min(d.firstTs, ev.ts);
            d.lastTs = std::max(d.lastTs, ev.ts);
            if (!ev.label.empty())
                d.label = ev.label;
            if (!ev.host.empty())
                d.worker = workerKey(ev);
            if (ev.event == "queued")
                d.queued = true;
            else if (ev.event == "claimed")
                d.claimed = true;
            else if (ev.event == "run") {
                d.run = true;
                d.runSeconds = ev.seconds;
                d.runDurUs = ev.durUs;
            } else if (ev.event == "stored")
                d.stored = true;
            else if (ev.event == "hit")
                d.hit = true;
        }

        if (!ev.host.empty()) {
            WorkerScratch &w = workers[workerKey(ev)];
            if (w.ledger.worker.empty()) {
                w.ledger.worker = workerKey(ev);
                w.ledger.host = ev.host;
                w.ledger.pid = ev.pid;
                w.ledger.firstTs = ev.ts;
                w.ledger.lastTs = ev.ts;
            }
            w.ledger.firstTs = std::min(w.ledger.firstTs, ev.ts);
            w.ledger.lastTs = std::max(w.ledger.lastTs, ev.ts);
            if (ev.event == "hit")
                ++w.ledger.hits;
            if (ev.mono >= 0.0) {
                // A span's mono stamps its *end*; a run span extends
                // back by its duration. The window covers both ends.
                double lo = ev.mono, hi = ev.mono;
                if (ev.event == "run") {
                    const double dur = runDurationSeconds(ev);
                    lo = ev.mono - dur;
                    w.runIntervals.emplace_back(lo, ev.mono);
                }
                if (!w.hasMono) {
                    w.monoMin = lo;
                    w.monoMax = hi;
                    w.hasMono = true;
                } else {
                    w.monoMin = std::min(w.monoMin, lo);
                    w.monoMax = std::max(w.monoMax, hi);
                }
            }
            if (ev.event == "run") {
                ++w.ledger.runs;
                w.runOrder.emplace_back(ev.ts, ev.digest);
            }
        }
    }
    out.wallSeconds = any ? ts_max - ts_min : 0.0;

    for (auto &[digest, timeline] : digests) {
        (void)digest;
        const std::string term = timeline.terminal();
        if (term == "stored")
            ++out.terminalStored;
        else if (term == "hit")
            ++out.terminalHit;
        else
            ++out.nonTerminal;
        out.digests.push_back(timeline);
    }

    for (auto &[key, w] : workers) {
        (void)key;
        if (w.hasMono) {
            w.ledger.windowSeconds = w.monoMax - w.monoMin;
            // Clamp run intervals into the window before the union:
            // a fallback duration (no dur_us, pool-overlapped
            // seconds) may reach before the worker's first event.
            for (auto &[lo, hi] : w.runIntervals) {
                lo = std::max(lo, w.monoMin);
                hi = std::min(hi, w.monoMax);
            }
            w.ledger.busySeconds = intervalUnionSeconds(w.runIntervals);
            w.ledger.idleSeconds =
                w.ledger.windowSeconds - w.ledger.busySeconds;
            if (w.ledger.idleSeconds < 0.0)
                w.ledger.idleSeconds = 0.0;
        }
        out.workers.push_back(w.ledger);
    }

    // The straggler: the worker with measurements whose last event
    // lands latest on the shared wall clock — its run chain bounds
    // the sweep.
    const WorkerScratch *straggler = nullptr;
    for (const auto &[key, w] : workers) {
        (void)key;
        if (w.ledger.runs == 0)
            continue;
        if (straggler == nullptr
            || w.ledger.lastTs > straggler->ledger.lastTs)
            straggler = &w;
    }
    if (straggler != nullptr) {
        out.criticalWorker = straggler->ledger.worker;
        std::vector<std::pair<double, std::string>> order =
            straggler->runOrder;
        std::sort(order.begin(), order.end());
        for (const auto &[ts, digest] : order) {
            (void)ts;
            out.criticalPath.push_back(digest);
        }
    }

    // Store-side joins: only records stamped with this trace id.
    std::map<std::string, std::vector<double>> latencies;
    for (const AccessRecord &rec : set.access) {
        if (rec.trace != out.traceId)
            continue;
        ++out.accessRecords;
        latencies[rec.route].push_back(rec.latencyUs);
        if (rec.route == "claims") {
            ++out.claimRequests;
            if (rec.status == 409)
                ++out.claimConflicts;
        }
    }
    for (auto &[route, samples] : latencies) {
        std::sort(samples.begin(), samples.end());
        RouteLatency lat;
        lat.route = route;
        lat.count = samples.size();
        lat.p50Us = percentile(samples, 50.0);
        lat.p90Us = percentile(samples, 90.0);
        lat.p99Us = percentile(samples, 99.0);
        lat.maxUs = samples.back();
        out.routes.push_back(std::move(lat));
    }
    return out;
}

sweep::Json
analysisSummary(const TraceAnalysis &analysis, const TraceSet &set,
                const sweep::Json *stalls)
{
    sweep::Json doc = sweep::Json::object();
    doc.set("schema", sweep::Json("smt-trace-v1"));
    doc.set("trace", sweep::Json(analysis.traceId));
    doc.set("events", sweep::Json(static_cast<std::uint64_t>(
                          analysis.events)));
    doc.set("accessRecords",
            sweep::Json(static_cast<std::uint64_t>(
                analysis.accessRecords)));
    doc.set("lines",
            sweep::Json(static_cast<std::uint64_t>(set.lines)));
    doc.set("skippedLines",
            sweep::Json(static_cast<std::uint64_t>(set.skipped)));
    doc.set("duplicateLines",
            sweep::Json(static_cast<std::uint64_t>(set.duplicates)));
    if (!analysis.experiment.empty())
        doc.set("experiment", sweep::Json(analysis.experiment));
    doc.set("wallSeconds", sweep::Json(analysis.wallSeconds));
    if (analysis.sweepSeconds >= 0.0)
        doc.set("sweepSeconds", sweep::Json(analysis.sweepSeconds));

    sweep::Json digests = sweep::Json::object();
    digests.set("total", sweep::Json(static_cast<std::uint64_t>(
                             analysis.digests.size())));
    digests.set("stored", sweep::Json(static_cast<std::uint64_t>(
                              analysis.terminalStored)));
    digests.set("hit", sweep::Json(static_cast<std::uint64_t>(
                           analysis.terminalHit)));
    digests.set("nonTerminal",
                sweep::Json(static_cast<std::uint64_t>(
                    analysis.nonTerminal)));
    sweep::Json non_terminal = sweep::Json::array();
    for (const DigestTimeline &d : analysis.digests) {
        if (d.terminal().empty())
            non_terminal.push(sweep::Json(d.digest));
    }
    digests.set("nonTerminalDigests", std::move(non_terminal));
    doc.set("digests", std::move(digests));

    sweep::Json workers = sweep::Json::array();
    for (const WorkerLedger &w : analysis.workers) {
        sweep::Json j = sweep::Json::object();
        j.set("worker", sweep::Json(w.worker));
        j.set("host", sweep::Json(w.host));
        j.set("pid", sweep::Json(w.pid));
        j.set("runs", sweep::Json(static_cast<std::uint64_t>(w.runs)));
        j.set("hits", sweep::Json(static_cast<std::uint64_t>(w.hits)));
        j.set("windowSeconds", sweep::Json(w.windowSeconds));
        j.set("busySeconds", sweep::Json(w.busySeconds));
        j.set("idleSeconds", sweep::Json(w.idleSeconds));
        j.set("utilization", sweep::Json(w.utilization()));
        workers.push(std::move(j));
    }
    doc.set("workers", std::move(workers));

    sweep::Json routes = sweep::Json::array();
    for (const RouteLatency &lat : analysis.routes) {
        sweep::Json j = sweep::Json::object();
        j.set("route", sweep::Json(lat.route));
        j.set("count",
              sweep::Json(static_cast<std::uint64_t>(lat.count)));
        j.set("p50Us", sweep::Json(lat.p50Us));
        j.set("p90Us", sweep::Json(lat.p90Us));
        j.set("p99Us", sweep::Json(lat.p99Us));
        j.set("maxUs", sweep::Json(lat.maxUs));
        routes.push(std::move(j));
    }
    doc.set("storeLatency", std::move(routes));

    sweep::Json claims = sweep::Json::object();
    claims.set("requests", sweep::Json(static_cast<std::uint64_t>(
                               analysis.claimRequests)));
    claims.set("conflicts", sweep::Json(static_cast<std::uint64_t>(
                                analysis.claimConflicts)));
    doc.set("claims", std::move(claims));

    sweep::Json critical = sweep::Json::object();
    critical.set("worker", sweep::Json(analysis.criticalWorker));
    sweep::Json chain = sweep::Json::array();
    for (const std::string &digest : analysis.criticalPath)
        chain.push(sweep::Json(digest));
    critical.set("digests", std::move(chain));
    doc.set("criticalPath", std::move(critical));

    if (stalls != nullptr)
        doc.set("stalls", *stalls);
    return doc;
}

std::string
analysisReport(const TraceAnalysis &analysis, const TraceSet &set)
{
    std::string out;
    char buf[256];
    const auto add = [&out](const char *text) { out += text; };

    std::snprintf(buf, sizeof buf,
                  "trace %s: %zu events, %zu access records "
                  "(%zu lines, %zu skipped, %zu duplicates)\n",
                  analysis.traceId.empty() ? "<none>"
                                           : analysis.traceId.c_str(),
                  analysis.events, analysis.accessRecords, set.lines,
                  set.skipped, set.duplicates);
    add(buf);
    if (!analysis.experiment.empty()) {
        std::snprintf(buf, sizeof buf,
                      "experiment %s, %.2fs wall (sweep_start %s, "
                      "sweep_done %s)\n",
                      analysis.experiment.c_str(), analysis.wallSeconds,
                      analysis.hasSweepStart ? "yes" : "no",
                      analysis.hasSweepDone ? "yes" : "no");
        add(buf);
    }
    std::snprintf(buf, sizeof buf,
                  "digests: %zu total, %zu stored, %zu hit, "
                  "%zu non-terminal\n",
                  analysis.digests.size(), analysis.terminalStored,
                  analysis.terminalHit, analysis.nonTerminal);
    add(buf);

    if (!analysis.workers.empty()) {
        add("\nworker utilization (mono-clock ledger: busy + idle = "
            "window)\n");
        add("  worker                        runs  hits   busy(s)  "
            "idle(s)  window(s)   util\n");
        for (const WorkerLedger &w : analysis.workers) {
            std::snprintf(buf, sizeof buf,
                          "  %-28s %5zu %5zu %9.3f %8.3f %10.3f %5.1f%%\n",
                          w.worker.c_str(), w.runs, w.hits,
                          w.busySeconds, w.idleSeconds, w.windowSeconds,
                          100.0 * w.utilization());
            add(buf);
        }

        // Straggler/skew: how unevenly the measurement work landed.
        double busy_min = -1.0, busy_max = 0.0;
        for (const WorkerLedger &w : analysis.workers) {
            if (w.runs == 0)
                continue;
            if (busy_min < 0.0 || w.busySeconds < busy_min)
                busy_min = w.busySeconds;
            busy_max = std::max(busy_max, w.busySeconds);
        }
        if (busy_min >= 0.0) {
            std::snprintf(buf, sizeof buf,
                          "skew: busiest worker %.3fs vs %.3fs "
                          "(spread %.3fs)\n",
                          busy_max, busy_min, busy_max - busy_min);
            add(buf);
        }
    }

    if (!analysis.routes.empty()) {
        add("\nstore latency by route (us)\n");
        add("  route        count      p50      p90      p99      max\n");
        for (const RouteLatency &lat : analysis.routes) {
            std::snprintf(buf, sizeof buf,
                          "  %-10s %7zu %8.0f %8.0f %8.0f %8.0f\n",
                          lat.route.c_str(), lat.count, lat.p50Us,
                          lat.p90Us, lat.p99Us, lat.maxUs);
            add(buf);
        }
        std::snprintf(buf, sizeof buf,
                      "claim contention: %zu claim request(s), "
                      "%zu conflict(s)\n",
                      analysis.claimRequests, analysis.claimConflicts);
        add(buf);
    }

    if (!analysis.criticalPath.empty()) {
        std::snprintf(buf, sizeof buf,
                      "\ncritical path: %zu measurement(s) on %s\n",
                      analysis.criticalPath.size(),
                      analysis.criticalWorker.c_str());
        add(buf);
        for (const std::string &digest : analysis.criticalPath) {
            std::snprintf(buf, sizeof buf, "  %s\n", digest.c_str());
            add(buf);
        }
    }

    if (analysis.nonTerminal > 0) {
        add("\nWARNING: digests that never reached a terminal state "
            "(stored/hit):\n");
        for (const DigestTimeline &d : analysis.digests) {
            if (!d.terminal().empty())
                continue;
            std::snprintf(buf, sizeof buf, "  %s%s%s\n",
                          d.digest.c_str(),
                          d.label.empty() ? "" : "  ",
                          d.label.c_str());
            add(buf);
        }
    }
    return out;
}

sweep::Json
chromeTrace(const TraceSet &set, const std::string &trace_id)
{
    const std::string id = pickTraceId(set, trace_id);

    // Stable worker → Chrome pid mapping (pid 0 is the coordinator
    // track for host-less sweep-level spans).
    std::map<std::string, std::uint64_t> worker_pid;
    double t0 = 0.0;
    bool any = false;
    for (const TraceEvent &ev : set.events) {
        if (ev.trace != id)
            continue;
        if (!any || ev.ts < t0)
            t0 = ev.ts;
        any = true;
        if (!ev.host.empty()) {
            const std::string key = workerKey(ev);
            if (worker_pid.find(key) == worker_pid.end())
                worker_pid.emplace(key, worker_pid.size() + 1);
        }
    }

    ChromeTraceBuilder chrome;
    chrome.processName(0, "coordinator");
    for (const auto &[key, pid] : worker_pid)
        chrome.processName(pid, key);

    // Runs first, sorted by start, so the per-worker lane allocator
    // sees them in order and pool-parallel runs that overlap in time
    // fan out side by side; instants afterwards.
    struct RunRef
    {
        double startUs = 0.0;
        double durUs = 0.0;
        const TraceEvent *ev = nullptr;
    };
    std::vector<RunRef> runs;
    for (const TraceEvent &ev : set.events) {
        if (ev.trace != id || ev.event != "run" || ev.host.empty())
            continue;
        RunRef ref;
        ref.durUs = runDurationSeconds(ev) * 1e6;
        ref.startUs = (ev.ts - t0) * 1e6 - ref.durUs;
        if (ref.startUs < 0.0)
            ref.startUs = 0.0;
        ref.ev = &ev;
        runs.push_back(ref);
    }
    std::sort(runs.begin(), runs.end(),
              [](const RunRef &a, const RunRef &b) {
                  return a.startUs < b.startUs;
              });
    for (const RunRef &ref : runs) {
        const TraceEvent &ev = *ref.ev;
        const std::uint64_t pid = worker_pid[workerKey(ev)];
        const std::uint64_t lane = chrome.lane(
            workerKey(ev), ref.startUs, ref.startUs + ref.durUs);
        sweep::Json args = sweep::Json::object();
        args.set("digest", sweep::Json(ev.digest));
        if (ev.seconds >= 0.0)
            args.set("seconds", sweep::Json(ev.seconds));
        chrome.complete(pid, lane,
                        ev.label.empty() ? ev.digest : ev.label,
                        "run", ref.startUs, ref.durUs,
                        std::move(args));
    }

    for (const TraceEvent &ev : set.events) {
        if (ev.trace != id || ev.event == "run")
            continue;
        sweep::Json args = sweep::Json::object();
        if (!ev.digest.empty())
            args.set("digest", sweep::Json(ev.digest));
        if (!ev.label.empty())
            args.set("label", sweep::Json(ev.label));
        chrome.instant(ev.host.empty() ? 0 : worker_pid[workerKey(ev)],
                       0, ev.event,
                       ev.host.empty() ? "sweep" : "lifecycle",
                       (ev.ts - t0) * 1e6, std::move(args));
    }

    return chrome.build();
}

} // namespace smt::obs
