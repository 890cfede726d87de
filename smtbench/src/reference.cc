#include "reference.hh"

#include <sched.h>

#include <chrono>
#include <numeric>
#include <utility>

#include "analysis.hh"

namespace smtbench
{

namespace
{

constexpr std::size_t kTableEntries = std::size_t{1} << 16; // 256 KiB.
constexpr unsigned kSteps = 600000;

} // namespace

HostSpeed::HostSpeed() : next_(kTableEntries)
{
    // A fixed pseudo-random permutation (xorshift64, fixed seed), so
    // every build and every run chases the same pointers.
    std::iota(next_.begin(), next_.end(), 0u);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(next_[i], next_[x % (i + 1)]);
    }
}

void
HostSpeed::sampleEveryCpu()
{
    // One untimed pass first: the steps before have evicted the table,
    // and the index is the host's speed, not the cache's state.
    const std::size_t kept = samples_.size();
    sample();
    samples_.resize(kept);
    cpu_set_t start;
    if (::sched_getaffinity(0, sizeof start, &start) != 0) {
        sample();
        return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &start))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        ::sched_setaffinity(0, sizeof one, &one);
        sample();
    }
    ::sched_setaffinity(0, sizeof start, &start);
}

void
HostSpeed::sample()
{
    // Dependent loads over a table that stays in the core's own cache,
    // so a neighbour's memory traffic moves it little, a multiply-xor
    // hash and a data-dependent branch: the integer and branch work the
    // simulator and the store also do.
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::uint32_t p = static_cast<std::uint32_t>(samples_.size());
    for (unsigned i = 0; i < kSteps; ++i) {
        p = next_[p];
        h ^= p;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 29;
        if (h & 1)
            p ^= 1;
    }
    sink_ += h;
    samples_.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
}

double
HostSpeed::indexMs() const
{
    return median(samples_);
}

} // namespace smtbench
