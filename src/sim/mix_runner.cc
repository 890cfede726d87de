#include "sim/mix_runner.hh"

#include <charconv>
#include <cmath>
#include <cstring>
#include <future>
#include <vector>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "sweep/thread_pool.hh"
#include "workload/mix.hh"

namespace smt
{

SimStats
measureRun(const SmtConfig &cfg, unsigned run, const MeasureOptions &opts,
           obs::PipeTrace *pipe)
{
    Simulator sim(cfg, mixForRun(cfg.numThreads, run),
                  /*seed_salt=*/mix64(run + 1));
    if (pipe != nullptr)
        sim.attachPipeTrace(pipe);
    if (opts.warmupCycles > 0)
        sim.warmup(opts.warmupCycles);
    return sim.run(opts.cyclesPerRun);
}

DataPoint
measure(const SmtConfig &cfg, const MeasureOptions &opts)
{
    smt_assert(opts.runs >= 1);
    DataPoint point;

    if (!opts.parallel || opts.runs == 1) {
        for (unsigned r = 0; r < opts.runs; ++r)
            point.stats.add(measureRun(cfg, r, opts));
        return point;
    }

    // Rotation runs ride the shared pool; aggregation stays in run
    // order, so parallel and serial measurements are bit-identical.
    sweep::ThreadPool &pool = sweep::ThreadPool::global();
    std::vector<std::future<SimStats>> futures;
    futures.reserve(opts.runs);
    for (unsigned r = 0; r < opts.runs; ++r) {
        futures.push_back(
            pool.submit([&cfg, r, &opts] { return measureRun(cfg, r, opts); }));
    }
    for (auto &f : futures)
        point.stats.add(pool.wait(std::move(f)));
    return point;
}

std::optional<std::uint64_t>
parseWholeNumber(const char *text)
{
    const char *end = text + std::strlen(text);
    std::uint64_t n = 0;
    const auto [ptr, ec] = std::from_chars(text, end, n);
    if (text == end || ec != std::errc() || ptr != end)
        return std::nullopt;
    return n;
}

std::optional<double>
parseSeconds(const char *text, double min, double max)
{
    const char *end = text + std::strlen(text);
    double seconds = 0.0;
    const auto [ptr, ec] = std::from_chars(text, end, seconds);
    if (text == end || ec != std::errc() || ptr != end
        || !std::isfinite(seconds) || seconds < min || seconds > max)
        return std::nullopt;
    return seconds;
}

} // namespace smt
