/**
 * @file
 * The host-speed reference: a fixed kernel that belongs to the
 * benchmark, not to the library, timed on every CPU in turn at points
 * of the run where no store server exists (before a round's cold step
 * and set-up, and after its teardown), so no server loop or dispatch
 * thread can run beside it. The only library threads then alive are
 * the sweep pool's, idle between sweeps.
 *
 * The host this benchmark was built on is a shared virtual machine
 * whose speed drifts by 20-30 % over minutes, moving every wall time of
 * a run together. The run's median kernel time is its speed index;
 * host times are reported scaled to the speed at which the kernel takes
 * kReferenceMs (atReferenceSpeed() in analysis.hh). A library change
 * moves the measured steps but never the kernel, so it still shows in
 * full.
 */

#ifndef SMTBENCH_REFERENCE_HH
#define SMTBENCH_REFERENCE_HH

#include <cstdint>
#include <vector>

namespace smtbench
{

/** The kernel's time on the reference host when it is quiet: a 4-vCPU
 *  Intel Xeon virtual machine. */
inline constexpr double kReferenceMs = 6.0;

class HostSpeed
{
  public:
    HostSpeed();

    /** Time one kernel pass on the calling thread, confined to each
     *  CPU it may use in turn, and keep every sample. */
    void sampleEveryCpu();

    /** The median sample, in ms (0 before the first sample). */
    double indexMs() const;

    std::size_t samples() const { return samples_.size(); }

  private:
    void sample();

    std::vector<std::uint32_t> next_; ///< one random cycle, 256 KiB.
    std::vector<double> samples_;
    std::uint64_t sink_ = 0;          ///< keeps the kernel's result live.
};

} // namespace smtbench

#endif // SMTBENCH_REFERENCE_HH
