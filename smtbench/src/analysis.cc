#include "analysis.hh"

#include <algorithm>
#include <cmath>
#include <utility>

namespace smtbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quartile(std::vector<double> values, int q)
{
    const std::size_t n = values.size();
    if (n < 2)
        return median(std::move(values));
    std::sort(values.begin(), values.end());
    // Exclusive method: position q (n + 1) / 4, counted from 1.
    const double pos = q * (static_cast<double>(n) + 1.0) / 4.0;
    const double lo = std::clamp(std::floor(pos), 1.0,
                                 static_cast<double>(n - 1));
    const double frac = pos - lo;
    const std::size_t i = static_cast<std::size_t>(lo) - 1;
    return values[i] + (values[i + 1] - values[i]) * frac;
}

std::optional<double>
tailPercentile(std::vector<double> values, double p)
{
    const double n = static_cast<double>(values.size());
    // The tolerance keeps 1000 samples enough for p99 despite
    // 1000 * (1 - 0.99) rounding to 9.999...
    if (values.empty() || n * (1.0 - p) < 10.0 - 1e-9)
        return std::nullopt;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least p of the sample
    // at or below it.
    const std::size_t rank = static_cast<std::size_t>(std::ceil(p * n));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

CallWindows
callWindows(const std::vector<double> &latency_us,
            const std::vector<double> &done_s, std::size_t window)
{
    std::vector<std::size_t> order(std::min(latency_us.size(),
                                            done_s.size()));
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return done_s[a] < done_s[b];
                     });
    CallWindows out;
    for (std::size_t lo = 0; window > 1 && lo + window <= order.size();
         lo += window) {
        std::vector<double> us;
        for (std::size_t i = lo; i < lo + window; ++i)
            us.push_back(latency_us[order[i]]);
        const double span =
            done_s[order[lo + window - 1]] - done_s[order[lo]];
        if (span > 0.0)
            out.perSecond.push_back(static_cast<double>(window - 1) / span);
        out.p50Us.push_back(median(us));
        if (const std::optional<double> p99 = tailPercentile(us, 0.99))
            out.p99Us.push_back(*p99);
    }
    return out;
}

double
paperErrorPct(const HeadlineIpc &ipc, const PaperReference &ref)
{
    const double ss = ipc.superscalar;
    const std::pair<double, double> claims[] = {
        {ss > 0.0 ? ipc.rr18Peak / ss : 0.0, ref.fig3PeakSpeedup},
        {ipc.rr28At8, ref.table4Rr28Ipc},
        {ipc.icount28At8, ref.table4Icount28Ipc},
        {ipc.icount28At8, ref.abstractIpc},
        {ss > 0.0 ? ipc.icount28At8 / ss : 0.0, ref.abstractSpeedup},
    };
    double sum = 0.0;
    for (const auto &[measured, paper] : claims)
        sum += std::fabs(measured - paper) / paper;
    return 100.0 * sum / static_cast<double>(std::size(claims));
}

double
atReferenceSpeed(double raw, double index_ms, double reference_ms,
                 bool is_rate)
{
    if (!(index_ms > 0.0) || !(reference_ms > 0.0))
        return raw;
    return is_rate ? raw * index_ms / reference_ms
                   : raw * reference_ms / index_ms;
}

double
closureGapPct(double parts, double whole)
{
    return whole > 0.0 ? 100.0 * std::fabs(parts - whole) / whole : 0.0;
}

double
serverClosureGapPct(double wrapper_us, double server_sum_us,
                    std::uint64_t requests)
{
    return closureGapPct(wrapper_us,
                         server_sum_us + 0.5 * static_cast<double>(requests));
}

std::vector<std::uint64_t>
selfTimesNs(const std::vector<SpanTimes> &spans)
{
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        covered(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        if (p < 0 || static_cast<std::size_t>(p) >= spans.size())
            continue;
        const SpanTimes &parent = spans[static_cast<std::size_t>(p)];
        const std::uint64_t lo = std::max(spans[i].startNs, parent.startNs);
        const std::uint64_t hi = std::min(spans[i].endNs, parent.endNs);
        if (hi > lo)
            covered[static_cast<std::size_t>(p)].emplace_back(lo, hi);
    }

    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::uint64_t dur =
            spans[i].endNs > spans[i].startNs
                ? spans[i].endNs - spans[i].startNs
                : 0;
        auto &iv = covered[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t union_ns = 0, run_lo = 0, run_hi = 0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open)
                union_ns += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
            open = true;
        }
        if (open)
            union_ns += run_hi - run_lo;
        self[i] = dur > union_ns ? dur - union_ns : 0;
    }
    return self;
}

namespace
{

std::vector<MetricDef>
buildPerLayer()
{
    std::vector<MetricDef> m;
    for (const char *stage : {"squash", "commit", "execute", "issue",
                              "rename", "decode", "fetch"}) {
        for (const char *shape : {"t1", "t8"})
            m.push_back({std::string("core.") + stage + "_ns_per_cycle."
                             + shape,
                         "ns"});
    }
    const std::vector<MetricDef> rest = {
        // paper-cold: simulator and sweep pool.
        {"sim.warmup_share_pct", "%"},
        {"sim.run_ms_p50", "ms"},
        {"sim.run_ms_max", "ms"},
        {"workload.build_ms", "ms"},
        {"sweep.pool_busy_pct", "%"},
        // paper-cold: the modelled machine (exact per seed).
        {"core.cycles", "count"},
        {"core.committed_minst", "Minst"},
        {"core.useful_fetch_pct", "%"},
        {"core.stalled_slot_pct", "%"},
        {"mem.icache_mpki", "MPKI"},
        {"mem.dcache_mpki", "MPKI"},
        {"branch.mispredict_pct", "%"},
        // paper-replay: client side of a cached lookup.
        {"sweep.digest_us", "us"},
        {"sweep.lookup_us_p50", "us"},
        {"sweep.lookup_us_p99", "us"},
        {"common.lz_decompress_us", "us"},
        {"sweep.json_parse_us", "us"},
        {"sweep.stats_decode_us", "us"},
        // paper-replay: the server GET.
        {"store.get_hit_us", "us"},
        {"sweep.entry_read_us", "us"},
        {"sweep.etag_us", "us"},
        {"common.lz_compress_us", "us"},
        {"common.lz_ratio", "ratio"},
        {"net.overhead_us", "us"},
        {"net.requests_per_pass", "count"},
        {"net.bytes_per_lookup", "B"},
        // store-churn: per call type, server routes, queueing.
        {"store.lookup_miss_us", "us"},
        {"store.mark_us", "us"},
        {"store.put_us", "us"},
        {"store.state_us", "us"},
        {"store.lookup_hit_us", "us"},
        {"store.put_us_p99", "us"},
        {"store.handle_us.entries_get", "us"},
        {"store.handle_us.entries_put", "us"},
        {"store.handle_us.markers_put", "us"},
        {"store.handle_us.state_get", "us"},
        {"net.wait_us", "us"},
        // store-churn: the write path.
        {"sweep.entry_build_us", "us"},
        {"sweep.put_verify_us", "us"},
        {"sweep.entry_write_us", "us"},
        // Failures and balances.
        {"net.requests_delta", "count"},
        {"net.reconnects", "count"},
        {"store.failures.lookup_miss", "count"},
        {"store.failures.mark", "count"},
        {"store.failures.put", "count"},
        {"store.failures.state", "count"},
        {"store.failures.lookup_hit", "count"},
        // The instrument itself.
        {"trace.overhead_pct", "%"},
        {"trace.self_time_gap_pct", "%"},
        {"host.reference_ms", "ms"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> metrics = {
        {"setup_s", "s"},       {"sweep_s", "s"},
        {"paper_err_pct", "%"}, {"replay_ms", "ms"},
        {"ops_per_s", "1/s"},   {"lat_p50_us", "us"},
        {"lat_p99_us", "us"},   {"peak_rss_mb", "MB"},
    };
    return metrics;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> metrics = buildPerLayer();
    return metrics;
}

} // namespace smtbench
