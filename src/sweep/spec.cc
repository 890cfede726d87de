#include "sweep/spec.hh"

#include <functional>
#include <type_traits>

#include "common/logging.hh"

namespace smt::sweep
{

namespace
{

/** `v` as the value of a scalar config field of type T (fatal when
 *  `v` has the wrong type). */
template <class T>
T
knobValue(const Json &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v.asBool();
    } else if constexpr (std::is_same_v<T, std::string>) {
        return v.asString();
    } else if constexpr (std::is_same_v<T, SpeculationMode>) {
        const std::string &s = v.asString();
        for (SpeculationMode m :
             {SpeculationMode::Full, SpeculationMode::NoPassBranch,
              SpeculationMode::NoWrongPathIssue})
            if (s == toString(m))
                return m;
        smt_fatal("unknown speculation mode \"%s\"", s.c_str());
    } else {
        return static_cast<T>(v.asUInt());
    }
}

SmtConfig
makePreset(const std::string &preset, unsigned threads)
{
    if (preset == "base")
        return presets::baseSmt(threads);
    if (preset == "icount28")
        return presets::icount28(threads);
    if (preset == "superscalar") {
        SmtConfig cfg = presets::unmodifiedSuperscalar();
        cfg.numThreads = threads;
        return cfg;
    }
    smt_fatal("unknown base preset \"%s\" (base, icount28, superscalar)",
              preset.c_str());
}

Json
toJson(const KnobAssignment &a)
{
    Json j = Json::object();
    j.set(a.knob, a.value);
    return j;
}

} // namespace

void
applyKnob(SmtConfig &cfg, const KnobAssignment &assignment)
{
    bool applied = false;
    SmtConfig::fields([&](const char *name, auto &field) {
        using T = std::decay_t<decltype(field)>;
        if constexpr (!std::is_same_v<T, CacheParams>) {
            if (assignment.knob == name) {
                field = knobValue<T>(assignment.value);
                applied = true;
            }
        }
    }, cfg);
    if (!applied)
        smt_fatal("unknown config knob \"%s\"", assignment.knob.c_str());
}

std::vector<SweepPoint>
ExperimentSpec::expand(const MeasureOptions &base_opts) const
{
    MeasureOptions opts = base_opts;
    if (cyclesPerRun)
        opts.cyclesPerRun = *cyclesPerRun;
    if (warmupCycles)
        opts.warmupCycles = *warmupCycles;
    if (runs)
        opts.runs = *runs;

    std::vector<SweepPoint> points;
    std::vector<std::size_t> choice(axes.size(), 0);

    const std::function<void(std::size_t)> walk = [&](std::size_t axis) {
        if (axis < axes.size()) {
            smt_assert(!axes[axis].options.empty());
            for (std::size_t i = 0; i < axes[axis].options.size(); ++i) {
                choice[axis] = i;
                walk(axis + 1);
            }
            return;
        }

        // Innermost: one point per thread count. The last axis option
        // carrying a thread-count override wins (options that pin a
        // reference point to a single width).
        const std::vector<unsigned> *counts = &threadCounts;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const AxisOption &opt = axes[a].options[choice[a]];
            if (!opt.threadCountsOverride.empty())
                counts = &opt.threadCountsOverride;
        }
        smt_assert(!counts->empty(),
                   "experiment \"%s\" has no thread counts", name.c_str());

        for (unsigned t : *counts) {
            SweepPoint point;
            point.axisChoice = choice;
            point.threads = t;
            point.config = makePreset(basePreset, t);
            for (std::size_t a = 0; a < axes.size(); ++a) {
                const AxisOption &opt = axes[a].options[choice[a]];
                for (const KnobAssignment &k : opt.knobs)
                    applyKnob(point.config, k);
                if (!opt.label.empty()) {
                    if (!point.label.empty())
                        point.label += '.';
                    point.label += opt.label;
                }
            }
            if (point.label.empty())
                point.label = name;
            point.options = opts;
            points.push_back(std::move(point));
        }
    };
    walk(0);
    return points;
}

std::size_t
ExperimentSpec::gridSize() const
{
    // Counted via expansion so per-option thread-count overrides are
    // honoured; grids are small, this is not a hot path.
    return expand(MeasureOptions{}).size();
}

Json
ExperimentSpec::describe() const
{
    Json j = Json::object();
    j.set("name", Json(name));
    j.set("title", Json(title));
    j.set("basePreset", Json(basePreset));
    Json counts = Json::array();
    for (unsigned t : threadCounts)
        counts.push(Json(t));
    j.set("threadCounts", std::move(counts));
    Json axes_json = Json::array();
    for (const Axis &axis : axes) {
        Json axis_json = Json::object();
        axis_json.set("name", Json(axis.name));
        Json options = Json::array();
        for (const AxisOption &opt : axis.options) {
            Json opt_json = Json::object();
            opt_json.set("label", Json(opt.label));
            Json knobs = Json::array();
            for (const KnobAssignment &k : opt.knobs)
                knobs.push(toJson(k));
            opt_json.set("knobs", std::move(knobs));
            if (!opt.threadCountsOverride.empty()) {
                Json override_json = Json::array();
                for (unsigned t : opt.threadCountsOverride)
                    override_json.push(Json(t));
                opt_json.set("threadCounts", std::move(override_json));
            }
            options.push(std::move(opt_json));
        }
        axis_json.set("options", std::move(options));
        axes_json.push(std::move(axis_json));
    }
    j.set("axes", std::move(axes_json));
    if (cyclesPerRun)
        j.set("cyclesPerRun", Json(*cyclesPerRun));
    if (warmupCycles)
        j.set("warmupCycles", Json(*warmupCycles));
    if (runs)
        j.set("runs", Json(*runs));
    return j;
}

} // namespace smt::sweep
