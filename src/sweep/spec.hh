/**
 * @file
 * Declarative experiment specifications.
 *
 * An ExperimentSpec is data: a base machine preset, a list of thread
 * counts, and named axes whose options assign string-keyed knobs
 * (fetch/issue policy names, queue sizes, register budgets, fetch
 * partitioning, ...). expand() takes the cartesian product of the axes
 * and the thread counts and yields concrete SmtConfig+MeasureOptions
 * points — turning "run a paper figure" into a grid the runner can
 * schedule, digest, and cache point by point.
 */

#ifndef SMT_SWEEP_SPEC_HH
#define SMT_SWEEP_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/config.hh"
#include "sim/mix_runner.hh"
#include "sweep/json.hh"

namespace smt::sweep
{

/** One knob assignment, e.g. {"fetchPolicy", "ICOUNT"}. */
struct KnobAssignment
{
    std::string knob;
    Json value;
};

/**
 * Set one named knob on a config. Every scalar SmtConfig field is a
 * knob under its key in SmtConfig::fields(); the four cache
 * geometries are not. Fatal on an unknown knob name or a value of the
 * wrong type.
 */
void applyKnob(SmtConfig &cfg, const KnobAssignment &assignment);

/** One setting of an axis, e.g. policy axis option "ICOUNT". */
struct AxisOption
{
    std::string label;
    std::vector<KnobAssignment> knobs;
    /** When non-empty, this option sweeps these thread counts instead
     *  of the spec's (e.g. the superscalar reference point of Figure 3
     *  only exists at one thread). */
    std::vector<unsigned> threadCountsOverride;
};

/** One named dimension of the experiment grid. */
struct Axis
{
    std::string name;
    std::vector<AxisOption> options;
};

/** One concrete point of an expanded grid. */
struct SweepPoint
{
    std::string label;                  ///< axis option labels, joined.
    std::vector<std::size_t> axisChoice; ///< option index per axis.
    unsigned threads = 0;
    SmtConfig config;
    MeasureOptions options;
};

/** A declarative grid of measurements. */
struct ExperimentSpec
{
    std::string name;  ///< CLI name, e.g. "fig5".
    std::string title; ///< one-line description.

    /** Base machine: "base" (RR.1.8), "icount28", or "superscalar". */
    std::string basePreset = "base";

    std::vector<unsigned> threadCounts;
    std::vector<Axis> axes;

    /** Per-experiment measurement overrides (unset fields inherit the
     *  runner's options, i.e. the tool's budget flags). */
    std::optional<std::uint64_t> cyclesPerRun;
    std::optional<std::uint64_t> warmupCycles;
    std::optional<unsigned> runs;

    /**
     * Expand to the full grid: axes outermost-first, thread counts
     * innermost, the order the reports print. `base_opts` supplies the
     * measurement knobs the spec doesn't override.
     */
    std::vector<SweepPoint> expand(const MeasureOptions &base_opts) const;

    /** Total points the grid expands to. */
    std::size_t gridSize() const;

    /** The spec itself as JSON (for artifacts and --describe). */
    Json describe() const;
};

} // namespace smt::sweep

#endif // SMT_SWEEP_SPEC_HH
