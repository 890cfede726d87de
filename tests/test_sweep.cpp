/**
 * @file
 * Tests for the sweep engine: JSON round-trips, digest stability,
 * spec grid expansion, the on-disk result cache, and thread-pool
 * scheduling determinism.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <type_traits>

#include "common/lz.hh"
#include "support.hh"
#include "sweep/digest.hh"
#include "sweep/experiments.hh"
#include "sweep/json.hh"
#include "sweep/result_cache.hh"
#include "sweep/runner.hh"
#include "sweep/serialize.hh"
#include "sweep/spec.hh"
#include "sweep/store_service.hh"
#include "sweep/thread_pool.hh"

namespace smt::sweep
{
namespace
{

// ---- JSON ------------------------------------------------------------------

TEST(Json, RoundTripsNestedValues)
{
    Json obj = Json::object();
    obj.set("uint", Json(std::uint64_t{18446744073709551615ull}));
    obj.set("int", Json(std::int64_t{-42}));
    obj.set("double", Json(3.25));
    obj.set("bool", Json(true));
    obj.set("null", Json());
    obj.set("string", Json("line\nbreak \"quoted\" \\slash\t"));
    Json arr = Json::array();
    arr.push(Json(std::uint64_t{1}));
    arr.push(Json("two"));
    Json inner = Json::object();
    inner.set("empty_array", Json::array());
    inner.set("empty_object", Json::object());
    arr.push(std::move(inner));
    obj.set("array", std::move(arr));

    for (int indent : {-1, 2}) {
        Json parsed;
        ASSERT_TRUE(Json::parse(obj.dump(indent), parsed));
        EXPECT_TRUE(parsed == obj);
    }
    EXPECT_EQ(obj.at("uint").asUInt(), 18446744073709551615ull);
    EXPECT_EQ(obj.at("int").asInt(), -42);
}

TEST(Json, RejectsMalformedInput)
{
    Json out;
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "nul", "\"unterminated",
          "{\"a\":1} trailing", "--1",
          // Out-of-range numbers must be rejected, not clamped.
          "99999999999999999999", "-99999999999999999999", "1e999"})
        EXPECT_FALSE(Json::parse(bad, out)) << bad;
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    Json obj = Json::object();
    obj.set("z", Json(std::uint64_t{1}));
    obj.set("a", Json(std::uint64_t{2}));
    EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":2}");
    obj.set("z", Json(std::uint64_t{3})); // replaces in place.
    EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
}

// ---- SimStats serialization ------------------------------------------------

TEST(Serialize, SimStatsRoundTripsBitIdentically)
{
    const DataPoint measured =
        measure(presets::baseSmt(2), tinyOptions());

    SimStats restored;
    ASSERT_TRUE(simStatsFromJson(toJson(measured.stats), restored));
    // Field-exact: the canonical dumps must be byte-identical, which
    // covers every counter and the histogram's buckets/sum/samples.
    EXPECT_EQ(toJson(restored).dump(), toJson(measured.stats).dump());
    EXPECT_EQ(restored.cycles, measured.stats.cycles);
    EXPECT_EQ(restored.committedInstructions,
              measured.stats.committedInstructions);
    EXPECT_DOUBLE_EQ(restored.avgQueuePopulation(),
                     measured.stats.avgQueuePopulation());
}

TEST(Serialize, SimStatsFromJsonRejectsMissingFields)
{
    Json j = toJson(SimStats{});
    Json incomplete = Json::object();
    incomplete.set("cycles", Json(std::uint64_t{1}));
    SimStats out;
    EXPECT_FALSE(simStatsFromJson(incomplete, out));
    EXPECT_FALSE(simStatsFromJson(Json(std::uint64_t{7}), out));
    EXPECT_TRUE(simStatsFromJson(j, out));

    // A wrong-typed or wrong-shaped value (a stale or hand-edited
    // cache entry) must read as false, never abort the process.
    Json wrong_type = toJson(SimStats{});
    wrong_type.set("cycles", Json("not a number"));
    EXPECT_FALSE(simStatsFromJson(wrong_type, out));
    Json bad_nested = toJson(SimStats{});
    Json icache = Json::object();
    icache.set("accesses", Json(std::uint64_t{1}));
    bad_nested.set("icache", std::move(icache)); // missing counters.
    EXPECT_FALSE(simStatsFromJson(bad_nested, out));
}

// ---- Digests ---------------------------------------------------------------

TEST(Digest, IdenticalKeysDigestIdentically)
{
    const MeasureOptions opts = tinyOptions();
    const SmtConfig a = presets::icount28(4);
    const SmtConfig b = presets::icount28(4);
    EXPECT_EQ(measurementDigest(a, opts), measurementDigest(b, opts));
}

/** Another value for a scalar config field, as a knob value. */
template <class T>
Json
otherValue(const std::string &name, const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return Json(!v);
    } else if constexpr (std::is_arithmetic_v<T>) {
        return Json(static_cast<std::uint64_t>(v) + 1);
    } else {
        // Names: another registered value (a new field of another kind
        // throws here until it is listed).
        static const std::map<std::string, const char *> other = {
            {"fetchPolicy", "ICOUNT"},
            {"issuePolicy", "OPT_LAST"},
            {"speculation", "no-pass-branch"},
        };
        return Json(other.at(name));
    }
}

/** Change the `n`th field of `cfg` (a scalar, or one field of a cache
 *  geometry) to another value, each scalar by name through applyKnob.
 *  Returns the field's name, or "" past the last field. */
std::string
changeField(SmtConfig &cfg, std::size_t n)
{
    std::string changed;
    std::optional<KnobAssignment> knob;
    std::size_t seen = 0;
    SmtConfig::fields([&](const char *name, auto &field) {
        using T = std::decay_t<decltype(field)>;
        if constexpr (std::is_same_v<T, CacheParams>) {
            CacheParams::fields([&](const char *key, auto &geometry) {
                if (seen++ == n) {
                    geometry += 1;
                    changed = std::string(name) + "." + key;
                }
            }, field);
        } else if (seen++ == n) {
            knob = KnobAssignment{name, otherValue(name, field)};
            changed = name;
        }
    }, cfg);
    if (knob)
        applyKnob(cfg, *knob);
    return changed;
}

TEST(Digest, AnyKnobChangeChangesTheDigest)
{
    const MeasureOptions opts = tinyOptions();
    const SmtConfig base = presets::baseSmt(4);
    const std::string base_digest = measurementDigest(base, opts);

    // Every config field, one at a time: each change gives a digest
    // no other config has.
    std::vector<std::string> digests = {base_digest};
    std::size_t fields = 0;
    for (;; ++fields) {
        SmtConfig cfg = base;
        const std::string name = changeField(cfg, fields);
        if (name.empty())
            break;
        const std::string d = measurementDigest(cfg, opts);
        for (const std::string &seen : digests)
            EXPECT_NE(d, seen) << name;
        digests.push_back(d);
    }
    // 34 scalar fields and 4 caches x 10 geometry fields.
    EXPECT_EQ(fields, 74u);

    // Measurement knobs are part of the key too...
    MeasureOptions more_cycles = opts;
    more_cycles.cyclesPerRun += 1;
    EXPECT_NE(measurementDigest(base, more_cycles), base_digest);
    MeasureOptions more_runs = opts;
    more_runs.runs += 1;
    EXPECT_NE(measurementDigest(base, more_runs), base_digest);
    // ...but the execution strategy is not (parallel == serial).
    MeasureOptions serial = opts;
    serial.parallel = !opts.parallel;
    EXPECT_EQ(measurementDigest(base, serial), base_digest);
}

// ---- Golden bytes ----------------------------------------------------------
//
// Stores are keyed by measurement digests and served with content
// digests, so the bytes dump(), lzCompress() and the JSON reader
// produce are a persistent format: a one-byte drift silently orphans
// every existing store. The values below were recorded from the
// snprintf/strtoull JSON implementation and the first SLZ1 codec.

/** A fixed entry-shaped document: a canonical entry whose stats come
 *  from a formula, so these pins follow the entry format and the
 *  codec, not the simulator's timing. */
std::string
goldenEntryText()
{
    SimStats s;
    s.cycles = 123456789;
    s.committedInstructions = 246813579;
    for (std::size_t t = 0; t < kMaxThreads; ++t) {
        s.committedPerThread[t] = 1000003 * (t + 1);
        s.stalls.fetchActive[t] = 4000037 * (t + 1);
    }
    s.fetchedInstructions = 300000007;
    s.fetchedWrongPath = 1234567;
    s.issuedInstructions = 260000003;
    s.condBranches = 9876543;
    s.condBranchMispredicts = 456789;
    s.icache.accesses = 77777777;
    s.icache.misses = 12345;
    s.dcache.accesses = 55555555;
    s.dcache.misses = 234567;
    s.dcache.bankConflicts = 3456;
    s.l2.accesses = 246912;
    s.l2.misses = 8642;
    for (std::uint64_t v = 0; v < 129; v += 3)
        s.combinedQueuePopulation.sample(v, v * 17 + 1);
    const SmtConfig cfg = presets::baseSmt(2);
    return makeEntryJson(measurementDigest(cfg, tinyOptions()), cfg,
                         tinyOptions(), s, 0.75)
               .dump(2)
           + "\n";
}

TEST(GoldenBytes, MeasurementDigestsOfFixedConfigs)
{
    EXPECT_EQ(measurementDigest(presets::baseSmt(2), tinyOptions()),
              "8e0733c19248d4c43b8c423eccfebcb2");
    EXPECT_EQ(measurementDigest(presets::icount28(8), MeasureOptions{}),
              "956dc87ce2d5ce90fcd3139b3dd09108");
}

TEST(GoldenBytes, CompressedEntryDigest)
{
    const std::string text = goldenEntryText();
    EXPECT_EQ(text.size(), 6491u);
    EXPECT_EQ(contentDigest(text), "6e17abf63bfa8c7217482e0f30f49cb9");
    const std::string packed = lzCompress(text);
    EXPECT_EQ(packed.size(), 2231u);
    EXPECT_EQ(contentDigest(packed), "647b15acec140490219c34c099a75cb2");
}

TEST(GoldenBytes, JsonVerdictsAndRedumps)
{
    // Each input's compact re-dump, or nullptr where the reader
    // rejects it.
    const std::vector<std::pair<std::string, const char *>> table = {
        {" \t\n\v\f\r[1 ,\v2\f]\r\n", "[1,2]"},
        {"\"\\u00e9\"", "\"\xc3\xa9\""},
        {"\"\\u00E9\\u0041\\u2603\"", "\"\xc3\xa9" "A\xe2\x98\x83\""},
        {"\"a\\\"b\\\\c\\/d\\n\\r\\t\\b\\f\"",
         "\"a\\\"b\\\\c/d\\n\\r\\t\\b\\f\""},
        {std::string("\"\x01\x1f raw\"", 8), "\"\\u0001\\u001f raw\""},
        {"-0", "0"},
        {"+1", "1"},
        {"1.", "1"},
        {"-.5", "-0.5"},
        {"1E+2", "100"},
        {"1e-7", "9.9999999999999995e-08"},
        {"-1.5e300", "-1.5000000000000001e+300"},
        {"0.1", "0.10000000000000001"},
        {"007", "7"},
        {"18446744073709551615", "18446744073709551615"},
        {"18446744073709551616", nullptr},
        {"9223372036854775807", "9223372036854775807"},
        {"-9223372036854775807", "-9223372036854775807"},
        {"-9223372036854775808", nullptr},
        {"-9223372036854775809", nullptr},
        {"1e-400", nullptr},
        {"4.9e-324", nullptr},
        {"1-2", nullptr},
        {"-", nullptr},
        {"0x10", nullptr},
        {"+inf", nullptr},
        {"{\"a\":1,\"b\":2,\"a\":3}", "{\"a\":3,\"b\":2}"},
        {"{\"k\":{\"x\":[],\"y\":{}},\"k\":null}", "{\"k\":null}"},
        {"\"\\u00g9\"", nullptr},
        {"\"\\u12\"", nullptr},
        {"\"\\x\"", nullptr},
        {"[true,false,null]", "[true,false,null]"},
        {"nulls", nullptr},
        {"{\"a\" 1}", nullptr},
    };
    for (const auto &[in, want] : table) {
        Json j;
        const bool ok = Json::parse(in, j);
        if (want == nullptr) {
            EXPECT_FALSE(ok) << in;
        } else {
            ASSERT_TRUE(ok) << in;
            EXPECT_EQ(j.dump(), want) << in;
        }
    }

    const std::vector<std::pair<double, const char *>> doubles = {
        {0.1, "0.10000000000000001"},
        {1.0 / 3.0, "0.33333333333333331"},
        {-0.0, "-0"},
        {123.0, "123"},
        {1e21, "1e+21"},
        {5e-324, "4.9406564584124654e-324"},
        {1.7976931348623157e308, "1.7976931348623157e+308"},
    };
    for (const auto &[v, want] : doubles)
        EXPECT_EQ(Json(v).dump(), want) << v;
    EXPECT_EQ(Json(std::int64_t{INT64_MIN}).dump(), "-9223372036854775808");
    EXPECT_EQ(Json(std::uint64_t{UINT64_MAX}).dump(), "18446744073709551615");

    Json nested;
    ASSERT_TRUE(Json::parse("{\"a\":[1,{\"b\":-2.5}],\"c\":{}}", nested));
    EXPECT_EQ(nested.dump(2), "{\n  \"a\": [\n    1,\n    {\n"
                              "      \"b\": -2.5\n    }\n  ],\n"
                              "  \"c\": {}\n}");
}

TEST(GoldenBytes, DamagedEntryStreamsDecodeAsBefore)
{
    // Every truncation and every single-byte flip (three masks) of a
    // real entry's stream, folded into one transcript: "-" for a
    // rejection, else the decoded bytes' digest.
    const std::string packed = lzCompress(goldenEntryText());
    std::string transcript;
    std::size_t decoded = 0;
    const auto record = [&](const std::string &stream) {
        const std::optional<std::string> out =
            lzDecompress(stream, 1 << 20);
        if (out.has_value()) {
            ++decoded;
            transcript += digestHex(*out);
        }
        transcript += '-';
    };
    for (std::size_t cut = 0; cut <= packed.size(); ++cut)
        record(packed.substr(0, cut));
    for (std::size_t i = 0; i < packed.size(); ++i) {
        for (const unsigned mask : {0x01u, 0x5au, 0xffu}) {
            std::string bent = packed;
            bent[i] = static_cast<char>(bent[i] ^ mask);
            record(bent);
        }
    }
    EXPECT_EQ(decoded, 3756u);
    EXPECT_EQ(digestHex(transcript), "96de75c4a89cd6dad7bb7902f97708a1");
}

// ---- Spec expansion --------------------------------------------------------

TEST(Spec, Fig5GridExpandsToTheFullCartesianProduct)
{
    const NamedExperiment *fig5 = findExperiment("fig5");
    ASSERT_NE(fig5, nullptr);
    const std::vector<SweepPoint> points =
        fig5->spec.expand(tinyOptions());
    // 2 partitionings x 5 policies x 4 thread counts.
    ASSERT_EQ(points.size(), 40u);

    // Thread counts innermost, axes outermost-first.
    EXPECT_EQ(points[0].label, "1.8.RR");
    EXPECT_EQ(points[0].threads, 2u);
    EXPECT_EQ(points[3].threads, 8u);
    EXPECT_EQ(points[4].label, "1.8.BRCOUNT");

    // The 2.8/ICOUNT/4T point carries exactly the expected machine.
    const SweepPoint &p = points[1 * 5 * 4 + 3 * 4 + 1];
    EXPECT_EQ(p.label, "2.8.ICOUNT");
    EXPECT_EQ(p.threads, 4u);
    EXPECT_EQ(p.config.numThreads, 4u);
    EXPECT_EQ(p.config.fetchThreads, 2u);
    EXPECT_EQ(p.config.fetchPerThread, 8u);
    EXPECT_EQ(p.config.fetchPolicy, "ICOUNT");
    EXPECT_EQ(p.config.fetchSchemeName(), "ICOUNT.2.8");
    EXPECT_EQ(p.options.cyclesPerRun, tinyOptions().cyclesPerRun);
    p.config.validate();
}

TEST(Spec, ThreadCountOverridePinsReferencePoints)
{
    const NamedExperiment *fig3 = findExperiment("fig3");
    ASSERT_NE(fig3, nullptr);
    const std::vector<SweepPoint> points =
        fig3->spec.expand(tinyOptions());
    // 5 SMT thread counts + 1 single-thread superscalar point.
    ASSERT_EQ(points.size(), 6u);
    const SweepPoint &superscalar = points.back();
    EXPECT_EQ(superscalar.threads, 1u);
    EXPECT_FALSE(superscalar.config.longRegisterPipeline);
}

TEST(Spec, EveryNamedExperimentExpandsToValidConfigs)
{
    for (const NamedExperiment &e : allExperiments()) {
        const std::vector<SweepPoint> points =
            e.spec.expand(tinyOptions());
        EXPECT_FALSE(points.empty()) << e.spec.name;
        EXPECT_EQ(points.size(), e.spec.gridSize()) << e.spec.name;
        for (const SweepPoint &p : points)
            p.config.validate();
        EXPECT_FALSE(e.spec.describe().dump().empty());
    }
}

TEST(Spec, WholeNumbersParseStrictly)
{
    EXPECT_EQ(parseWholeNumber("2000"), std::optional<std::uint64_t>(2000));
    for (const char *bad : {"", "abc", "1x", "-5", "+5", " 5", "5 ",
                            "99999999999999999999"})
        EXPECT_FALSE(parseWholeNumber(bad).has_value()) << bad;
}

TEST(Spec, SecondsParseAsWholeFiniteTokensInRange)
{
    const auto seconds = [](const char *text, double min = 0.0,
                            double max = kMaxSeconds) {
        return parseSeconds(text, min, max);
    };
    EXPECT_EQ(seconds("2.5"), std::optional<double>(2.5));
    EXPECT_EQ(seconds("0"), std::optional<double>(0.0));
    EXPECT_EQ(seconds("1e9"), std::optional<double>(kMaxSeconds));
    // The coordinator's %.17g forwarding reads back exactly.
    EXPECT_EQ(seconds("0.30000000000000004"),
              std::optional<double>(0.1 + 0.2));
    for (const char *bad : {"", "abc", "5x", "nan", "inf", "-inf", "-1",
                            "+5", " 5", "5 ", "0x10", "1e400", "2e9"})
        EXPECT_FALSE(seconds(bad).has_value()) << bad;
    EXPECT_FALSE(seconds("0", 1e-3).has_value());
    EXPECT_FALSE(seconds("2", 0.0, 1.0).has_value());
}

TEST(Spec, UnknownKnobsAreFatal)
{
    // Re-exec instead of forking: other tests may have started the
    // global thread pool, and forked children must not inherit it.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    SmtConfig cfg;
    EXPECT_DEATH(applyKnob(cfg, {"no_such_knob", Json(std::uint64_t{1})}),
                 "unknown config knob");
    // A cache geometry is a record, not a knob.
    EXPECT_DEATH(applyKnob(cfg, {"icache", Json::object()}),
                 "unknown config knob");
}

// ---- Paper claims ----------------------------------------------------------

/** An outcome over `spec`'s own grid with made-up statistics (a
 *  distinct, non-zero IPC at every point) — no simulation. */
SweepOutcome
fakeOutcome(const ExperimentSpec &spec)
{
    SweepOutcome outcome;
    outcome.spec = spec;
    std::uint64_t n = 0;
    for (const SweepPoint &point : spec.expand(tinyOptions())) {
        PointResult r;
        r.point = point;
        r.data.stats.cycles = 1000;
        r.data.stats.committedInstructions = 1000 + 7 * ++n;
        outcome.points.push_back(std::move(r));
    }
    return outcome;
}

TEST(Claims, EveryClaimResolvesOnItsOwnGrid)
{
    std::set<std::string> ids;
    for (const NamedExperiment &e : allExperiments()) {
        const SweepOutcome outcome = fakeOutcome(e.spec);
        for (const ClaimVerdict &v : evaluateClaims(e.claims, outcome)) {
            const std::string &id = v.claim->id;
            EXPECT_TRUE(std::isfinite(v.measured)) << id;
            EXPECT_EQ(id.rfind(e.spec.name + ".", 0), 0u) << id;
            EXPECT_TRUE(ids.insert(id).second) << "duplicate " << id;
        }
    }
    EXPECT_GE(ids.size(), 100u);

    // A claim naming a point its grid lacks is fatal, not a zero.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const NamedExperiment *fig7 = findExperiment("fig7");
    const SweepOutcome smoke = fakeOutcome(findExperiment("smoke")->spec);
    EXPECT_DEATH((void)evaluateClaims(fig7->claims, smoke),
                 "smoke\" has no point \"200 total\"");
}

TEST(Claims, BandEdgesPassAndJustOutsideFails)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const PaperClaim value{"t.value", "", ClaimKind::Value,
                           ClaimUnit::Ratio, 2.0, 0.25, {}};
    EXPECT_TRUE(judgeClaim(value, 2.5).pass);
    EXPECT_TRUE(judgeClaim(value, 1.5).pass);
    EXPECT_FALSE(judgeClaim(value, std::nextafter(2.5, 3.0)).pass);
    EXPECT_FALSE(judgeClaim(value, std::nextafter(1.5, 1.0)).pass);
    EXPECT_FALSE(judgeClaim(value, nan).pass);
    EXPECT_EQ(judgeClaim(value, 2.5).delta, 0.5);

    const PaperClaim order{"t.ordering", "", ClaimKind::Ordering,
                           ClaimUnit::Ipc, nan, kOrderingSlack, {}};
    EXPECT_TRUE(judgeClaim(order, 0.0).pass);
    EXPECT_FALSE(judgeClaim(order, -1e-12).pass);
    EXPECT_TRUE(std::isnan(judgeClaim(order, 1.0).delta));

    const PaperClaim peak{"t.max-at", "", ClaimKind::MaxAt,
                          ClaimUnit::Number, 4, kMaxAtSlack, {}};
    EXPECT_TRUE(judgeClaim(peak, 4).pass);
    EXPECT_FALSE(judgeClaim(peak, 3).pass);
    EXPECT_FALSE(judgeClaim(peak, 5).pass);
}

TEST(Claims, MaximumAtTieGoesToTheFirstPosition)
{
    const NamedExperiment *fig7 = findExperiment("fig7");
    ASSERT_NE(fig7, nullptr);
    // Committed instructions per 1000 cycles at 1..5 contexts.
    const auto peak = [&](std::vector<std::uint64_t> committed) {
        SweepOutcome o = fakeOutcome(fig7->spec);
        for (std::size_t i = 0; i < o.points.size(); ++i)
            o.points[i].data.stats.committedInstructions = committed.at(i);
        return evaluateClaims(fig7->claims, o).at(0);
    };
    const ClaimVerdict early = peak({100, 200, 300, 300, 100});
    EXPECT_EQ(early.measured, 3.0);
    EXPECT_FALSE(early.pass);
    const ClaimVerdict late = peak({100, 200, 250, 300, 300});
    EXPECT_EQ(late.measured, 4.0);
    EXPECT_TRUE(late.pass);
}

TEST(Claims, ArtifactRecordsVerdictsAndBudget)
{
    const NamedExperiment *fig3 = findExperiment("fig3");
    ASSERT_NE(fig3, nullptr);
    const Json doc = outcomeArtifact({fakeOutcome(fig3->spec)});
    const Json &e = doc.at("experiments")[0];
    EXPECT_EQ(e.at("budget").at("cyclesPerRun").asUInt(),
              tinyOptions().cyclesPerRun);
    EXPECT_EQ(e.at("budget").at("warmupCycles").asUInt(),
              tinyOptions().warmupCycles);
    EXPECT_EQ(e.at("budget").at("runs").asUInt(), tinyOptions().runs);

    const Json &claims = e.at("claims");
    ASSERT_EQ(claims.size(), fig3->claims.size());
    for (std::size_t i = 0; i < claims.size(); ++i) {
        EXPECT_EQ(claims[i].at("id").asString(), fig3->claims[i].id);
        EXPECT_TRUE(claims[i].at("measured").isNumber());
        EXPECT_TRUE(claims[i].has("pass"));
        // A relation the paper states without a number has no paper
        // value and no delta.
        const bool relation_only = std::isnan(fig3->claims[i].paper);
        EXPECT_EQ(claims[i].at("paper").isNull(), relation_only);
        EXPECT_EQ(claims[i].at("delta").isNull(), relation_only);
    }
    Json reparsed;
    EXPECT_TRUE(Json::parse(doc.dump(), reparsed));

    // An unregistered experiment records its budget but no claims.
    SweepOutcome unit = fakeOutcome(fig3->spec);
    unit.spec.name = "unit";
    EXPECT_FALSE(
        outcomeArtifact({unit}).at("experiments")[0].has("claims"));
}

// ---- Thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(3);
    std::atomic<int> sum{0};
    std::vector<std::future<int>> futures;
    for (int i = 1; i <= 100; ++i)
        futures.push_back(pool.submit([i, &sum] {
            sum += i;
            return i * 2;
        }));
    long long doubled = 0;
    for (auto &f : futures)
        doubled += pool.wait(std::move(f));
    EXPECT_EQ(sum.load(), 5050);
    EXPECT_EQ(doubled, 2 * 5050);
}

TEST(ThreadPool, WaitersHelpSoNestedSubmissionCannotDeadlock)
{
    // One worker; the outer task submits and awaits inner tasks. With
    // a non-helping wait this deadlocks (worker blocked on children
    // that can never be scheduled).
    ThreadPool pool(1);
    auto outer = pool.submit([&pool] {
        std::vector<std::future<int>> inner;
        for (int i = 0; i < 4; ++i)
            inner.push_back(pool.submit([i] { return i; }));
        int total = 0;
        for (auto &f : inner)
            total += pool.wait(std::move(f));
        return total;
    });
    EXPECT_EQ(pool.wait(std::move(outer)), 6);
}

TEST(ThreadPool, ParallelMeasurementMatchesSerialBitForBit)
{
    MeasureOptions parallel_opts = tinyOptions();
    parallel_opts.runs = 4;
    parallel_opts.parallel = true;
    MeasureOptions serial_opts = parallel_opts;
    serial_opts.parallel = false;

    const SmtConfig cfg = presets::icount28(2);
    const DataPoint p = measure(cfg, parallel_opts);
    const DataPoint s = measure(cfg, serial_opts);
    EXPECT_EQ(toJson(p.stats).dump(), toJson(s.stats).dump());
}

// ---- Result cache ----------------------------------------------------------

TEST(ResultCache, HitReplaysStoredStatsBitIdentically)
{
    TempDir dir("cache");
    ResultCache cache(dir.path());

    const SmtConfig cfg = presets::baseSmt(2);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = measurementDigest(cfg, opts);
    EXPECT_FALSE(cache.lookup(digest).has_value());

    const DataPoint measured = measure(cfg, opts);
    cache.store(digest, cfg, opts, measured.stats);
    EXPECT_EQ(cache.entryCount(), 1u);

    const std::optional<SimStats> hit = cache.lookup(digest);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(toJson(*hit).dump(), toJson(measured.stats).dump());
}

TEST(ResultCache, CorruptEntriesAreMisses)
{
    TempDir dir("corrupt");
    ResultCache cache(dir.path());
    const std::string digest(32, 'a');
    {
        std::FILE *f = std::fopen(
            (dir.path() + "/" + digest + ".json").c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"digest\": \"truncated", f);
        std::fclose(f);
    }
    EXPECT_FALSE(cache.lookup(digest).has_value());

    // Well-formed JSON with a type-confused digest is corrupt too.
    const std::string confused(32, 'b');
    {
        std::FILE *f = std::fopen(
            (dir.path() + "/" + confused + ".json").c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"digest\": 7, \"stats\": {}}", f);
        std::fclose(f);
    }
    EXPECT_FALSE(cache.lookup(confused).has_value());
}

// ---- Runner ----------------------------------------------------------------

TEST(Runner, SecondSweepIsAllCacheHitsAndBitIdentical)
{
    TempDir dir("runner");
    const NamedExperiment *smoke = findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    RunnerOptions ropts;
    ropts.measure = tinyOptions();
    ropts.cacheDir = dir.path();

    const SweepOutcome cold = runSweep(smoke->spec, ropts);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, cold.points.size());

    ropts.requireCached = true; // would abort on any miss.
    const SweepOutcome warm = runSweep(smoke->spec, ropts);
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(warm.cacheHits, warm.points.size());

    ASSERT_EQ(cold.points.size(), warm.points.size());
    for (std::size_t i = 0; i < cold.points.size(); ++i) {
        EXPECT_EQ(cold.points[i].digest, warm.points[i].digest);
        EXPECT_EQ(toJson(cold.points[i].data.stats).dump(),
                  toJson(warm.points[i].data.stats).dump());
    }
}

TEST(Runner, ParallelAndSerialSweepsAgreeBitForBit)
{
    const NamedExperiment *smoke = findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    RunnerOptions parallel_opts;
    parallel_opts.measure = tinyOptions();
    RunnerOptions serial_opts = parallel_opts;
    serial_opts.measure.parallel = false;

    const SweepOutcome p = runSweep(smoke->spec, parallel_opts);
    const SweepOutcome s = runSweep(smoke->spec, serial_opts);
    ASSERT_EQ(p.points.size(), s.points.size());
    for (std::size_t i = 0; i < p.points.size(); ++i)
        EXPECT_EQ(toJson(p.points[i].data.stats).dump(),
                  toJson(s.points[i].data.stats).dump());
}

TEST(Runner, DuplicatePointsAreMeasuredOnce)
{
    // Two identical points (no cache): the runner schedules one
    // simulation and shares the result.
    SweepPoint point;
    point.label = "dup";
    point.threads = 1;
    point.config = presets::baseSmt(1);
    point.options = tinyOptions();

    RunnerOptions ropts;
    ropts.measure = tinyOptions();
    const std::vector<PointResult> results =
        runPoints({point, point}, ropts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].digest, results[1].digest);
    EXPECT_EQ(toJson(results[0].data.stats).dump(),
              toJson(results[1].data.stats).dump());
}

TEST(Runner, FindIndexesTheGridByLabelAndThreads)
{
    const NamedExperiment *smoke = findExperiment("smoke");
    RunnerOptions ropts;
    ropts.measure = tinyOptions();
    const SweepOutcome outcome = runSweep(smoke->spec, ropts);

    const PointResult *rr2 = outcome.find("RR", 2);
    ASSERT_NE(rr2, nullptr);
    EXPECT_EQ(rr2->point.threads, 2u);
    EXPECT_EQ(rr2->point.axisChoice, std::vector<std::size_t>{0});
    EXPECT_EQ(outcome.find("ICOUNT", 1)->point.axisChoice,
              std::vector<std::size_t>{1});
    // A typo'd coordinate must not fabricate a data point.
    EXPECT_EQ(outcome.find("RR", 7), nullptr);
    EXPECT_EQ(outcome.find("rr", 2), nullptr);
}

} // namespace
} // namespace smt::sweep
