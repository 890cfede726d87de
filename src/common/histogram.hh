/**
 * @file
 * A tiny fixed-bucket histogram used by the statistics package for
 * occupancy distributions (queue population, registers in use, ...).
 */

#ifndef SMT_COMMON_HISTOGRAM_HH
#define SMT_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace smt
{

/** Histogram over [0, buckets); samples beyond the top land in the last. */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets = 64)
        : counts_(buckets, 0)
    {
        smt_assert(buckets > 0);
    }

    void
    sample(std::uint64_t value, std::uint64_t weight = 1)
    {
        const std::size_t idx =
            value < counts_.size() ? static_cast<std::size_t>(value)
                                   : counts_.size() - 1;
        counts_[idx] += weight;
        sum_ += value * weight;
        samples_ += weight;
    }

    std::uint64_t samples() const { return samples_; }
    std::uint64_t sum() const { return sum_; }

    /** Arithmetic mean of all samples (0 when empty). */
    double
    mean() const
    {
        return samples_ == 0
                   ? 0.0
                   : static_cast<double>(sum_) / static_cast<double>(samples_);
    }

    std::uint64_t
    bucket(std::size_t idx) const
    {
        smt_assert(idx < counts_.size());
        return counts_[idx];
    }

    std::size_t buckets() const { return counts_.size(); }

    /**
     * Add another histogram's samples exactly: bucket counts, raw sum
     * and sample count, so clamped samples keep their true values.
     * Both sides must have the same buckets.
     */
    void
    merge(const Histogram &o)
    {
        smt_assert(o.counts_.size() == counts_.size());
        for (std::size_t b = 0; b < counts_.size(); ++b)
            counts_[b] += o.counts_[b];
        sum_ += o.sum_;
        samples_ += o.samples_;
    }

    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        sum_ = 0;
        samples_ = 0;
    }

    /**
     * Overwrite the full state (bucket counts, raw sum, sample count).
     * Used by the sweep result cache to restore a histogram exactly:
     * replaying sample() per bucket would lose the true values of
     * samples that were clamped into the top bucket.
     */
    void
    restore(std::vector<std::uint64_t> counts, std::uint64_t sum,
            std::uint64_t samples)
    {
        smt_assert(!counts.empty());
        counts_ = std::move(counts);
        sum_ = sum;
        samples_ = samples;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t sum_ = 0;
    std::uint64_t samples_ = 0;
};

} // namespace smt

#endif // SMT_COMMON_HISTOGRAM_HH
