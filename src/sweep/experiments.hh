/**
 * @file
 * The named experiments: every paper figure, table and Section 7 probe
 * as a declarative ExperimentSpec, paired with the report function that
 * prints its measured tables and with the paper's claims about it.
 * `smtsweep --experiment <name>`, in process or with `--shards N`, runs
 * through this registry; it is the only home of the paper's reference
 * values.
 *
 * A PaperClaim is one result the paper reports: a statement, the
 * paper's value, a band, and an extractor that reads the reproduction's
 * value off a completed sweep. The printed report and the --json
 * artifact both read the verdicts evaluateClaims() returns.
 */

#ifndef SMT_SWEEP_EXPERIMENTS_HH
#define SMT_SWEEP_EXPERIMENTS_HH

#include <functional>
#include <string>
#include <vector>

#include "sweep/json.hh"
#include "sweep/runner.hh"
#include "sweep/spec.hh"

namespace smt::sweep
{

enum class ClaimKind
{
    /** An absolute metric or a ratio to a reference point; passes when
     *  |measured - paper| <= band * |paper|. */
    Value,
    /** "A exceeds B": the margin A - B passes when >= -band. `paper`
     *  is the paper's margin, NaN when it states only the relation. */
    Ordering,
    /** The thread count of a curve's maximum (the first, on a tie);
     *  passes when |measured - paper| <= band. */
    MaxAt,
};

/** Each kind's band where the paper's wording gives none; no band is
 *  fitted to a measurement. */
inline constexpr double kValueTolerance = 0.10; ///< +-10% of the paper.
inline constexpr double kOrderingSlack = 0.0;   ///< the relation holds.
inline constexpr double kMaxAtSlack = 0.0;      ///< the paper's position.

/** How a claim's numbers print (a Percent value is a fraction). */
enum class ClaimUnit { Ipc, Percent, Ratio, Number };

/** One result the paper reports, checkable against a sweep. */
struct PaperClaim
{
    std::string id;        ///< "<experiment>.<name>", unique.
    std::string statement; ///< the relation, in one line.
    ClaimKind kind = ClaimKind::Value;
    ClaimUnit unit = ClaimUnit::Number;
    double paper = 0.0;
    double band = 0.0;
    std::function<double(const SweepOutcome &)> measure;
};

struct ClaimVerdict
{
    const PaperClaim *claim = nullptr;
    double measured = 0.0;
    double delta = 0.0; ///< measured - paper; NaN without a paper value.
    bool pass = false;  ///< never for a non-finite measurement.
};

/** Judge one measured value by its claim's kind and band. */
ClaimVerdict judgeClaim(const PaperClaim &claim, double measured);

/** Measure and judge every claim against `outcome`. */
std::vector<ClaimVerdict> evaluateClaims(const std::vector<PaperClaim> &claims,
                                         const SweepOutcome &outcome);

/** The artifact's "claims" array: id, measured, paper, delta, pass (a
 *  missing or non-finite number is null). */
Json verdictsJson(const std::vector<ClaimVerdict> &verdicts);

/** A spec, the printer for its measured tables (null: its IPC grid),
 *  and its paper claims. */
struct NamedExperiment
{
    ExperimentSpec spec;
    void (*report)(const SweepOutcome &outcome);
    std::vector<PaperClaim> claims;
};

/** Every registered experiment, in presentation order. */
const std::vector<NamedExperiment> &allExperiments();

/** Find by spec name; null when unknown. */
const NamedExperiment *findExperiment(const std::string &name);

/** Print the experiment's measured tables, then one verdict line per
 *  paper claim. */
void printReport(const NamedExperiment &experiment,
                 const SweepOutcome &outcome);

} // namespace smt::sweep

#endif // SMT_SWEEP_EXPERIMENTS_HH
