/**
 * @file
 * A deterministic mutation fuzzer over the parsers that read bytes from
 * outside the program: the HTTP message parser in both directions, the
 * SLZ1 decoder and the JSON reader.
 *
 * Each target starts from real inputs (the HTTP golden corpora, store
 * entries and their SLZ1 streams), applies a few random edits — bit
 * flip, byte set, insert, delete, splice from another seed, truncate —
 * and checks a property that must hold for any input at all. The seed
 * and the iteration counts are fixed, so every run, sanitizer builds
 * included, tries exactly the same inputs and a failure reproduces. No
 * fuzzing engine is needed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/lz.hh"
#include "config/config.hh"
#include "http_corpus.hh"
#include "stats/stats.hh"
#include "sweep/digest.hh"
#include "sweep/json.hh"
#include "sweep/result_cache.hh"

namespace smt
{
namespace
{

constexpr std::uint64_t kSeed = 0x5eed5eed17ull;

/** Bytes that steer edits into the grammars' decisions: line ends,
 *  separators, digits, hex, signs, JSON punctuation. */
constexpr char kDictionary[] = "\r\n:; \t0123456789abcdefxX+-.eE\"\\{}[],";

/** The input with 1..4 random edits applied. Only the raw engine
 *  output is used (no std distributions), so the mutants are the same
 *  under every standard library. */
std::string
mutate(std::string s, const std::vector<std::string> &seeds,
       std::mt19937_64 &rng)
{
    const auto below = [&rng](std::size_t n) {
        return n == 0 ? std::size_t(0) : static_cast<std::size_t>(rng() % n);
    };
    const auto byte = [&]() {
        return rng() % 2 == 0
                   ? kDictionary[below(sizeof kDictionary - 1)]
                   : static_cast<char>(rng() & 0xff);
    };
    const int edits = 1 + static_cast<int>(below(4));
    for (int e = 0; e < edits; ++e) {
        const std::size_t at = below(s.size() + 1);
        switch (below(6)) {
        case 0: // bit flip
            if (!s.empty())
                s[below(s.size())] ^= static_cast<char>(1u << below(8));
            break;
        case 1: // byte set
            if (!s.empty())
                s[below(s.size())] = byte();
            break;
        case 2: { // insert
            const std::size_t n = 1 + below(8);
            for (std::size_t i = 0; i < n; ++i)
                s.insert(at, 1, byte());
            break;
        }
        case 3: // delete
            s.erase(at, 1 + below(8));
            break;
        case 4: { // splice a run of another seed in
            const std::string &other = seeds[below(seeds.size())];
            const std::size_t from = below(other.size() + 1);
            s.insert(at, other, from, 1 + below(64));
            break;
        }
        default: // truncate
            s.resize(at);
            break;
        }
    }
    return s;
}

/** `s` with non-printing bytes escaped, for failure messages. */
std::string
printable(const std::string &s)
{
    std::string out;
    for (const unsigned char c : s) {
        if (c >= 0x20 && c < 0x7f && c != '\\') {
            out += static_cast<char>(c);
        } else {
            char hex[8];
            std::snprintf(hex, sizeof hex, "\\x%02x", c);
            out += hex;
        }
    }
    return out;
}

// ---- HTTP message parser ---------------------------------------------------

constexpr std::size_t kFuzzMaxBody = 64;
constexpr int kParserIterations = 40000; // per direction.

template <class Message>
bool
sameParse(const corpus::Parsed<Message> &a, const corpus::Parsed<Message> &b)
{
    if (a.status != b.status || a.messages.size() != b.messages.size())
        return false;
    for (std::size_t i = 0; i < a.messages.size(); ++i) {
        if (!corpus::sameMessage(a.messages[i], b.messages[i]))
            return false;
    }
    return true;
}

/** Whole, byte by byte and at random split points, every mutant must
 *  parse to the same verdict and messages, and no complete body may
 *  exceed the cap. */
template <class Message>
void
fuzzParser(const std::vector<corpus::Golden<Message>> &goldens,
           std::uint64_t seed)
{
    // Cases small enough to fuzz quickly (at this cap the 70 KB body
    // is Error once its headers end anyway).
    std::vector<corpus::Golden<Message>> cases;
    std::vector<std::string> seeds;
    for (const corpus::Golden<Message> &golden : goldens) {
        if (golden.bytes.size() <= 4096) {
            cases.push_back(golden);
            seeds.push_back(golden.bytes);
        }
    }
    std::mt19937_64 rng(seed);
    for (int i = 0; i < kParserIterations; ++i) {
        const corpus::Golden<Message> &base = cases[rng() % cases.size()];
        const std::string input = mutate(base.bytes, seeds, rng);
        std::vector<std::size_t> split;
        for (std::size_t n = 1 + rng() % 3; n > 0; --n)
            split.push_back(rng() % (input.size() + 1));
        std::sort(split.begin(), split.end());

        const auto parse = [&](const std::vector<std::size_t> &cuts) {
            return corpus::parseAll(corpus::parserFor(base, kFuzzMaxBody),
                                    input, cuts);
        };
        const corpus::Parsed<Message> whole = parse({});
        const bool same =
            sameParse(whole, parse(corpus::cutsEvery(input.size(), 1)))
            && sameParse(whole, parse(split));
        bool capped = true;
        for (const Message &m : whole.messages)
            capped = capped && m.body.size() <= kFuzzMaxBody;
        if (!same || !capped) {
            ADD_FAILURE() << "iteration " << i << (same ? "" : ": chunking "
                                                        "changed the parse")
                          << (capped ? "" : ": body above the cap")
                          << "\ninput: " << printable(input);
            return;
        }
    }
}

TEST(Fuzz, RequestParserIsChunkingInvariantAndCapped)
{
    fuzzParser(corpus::validRequests(), kSeed);
}

TEST(Fuzz, ResponseParserIsChunkingInvariantAndCapped)
{
    fuzzParser(corpus::validResponses(), kSeed + 1);
}

// ---- Store entries: SLZ1 and JSON ------------------------------------------

/** Real store entries of a few machine shapes, as JSON text. */
std::vector<std::string>
entryTexts()
{
    std::vector<std::string> texts;
    MeasureOptions opts;
    opts.cyclesPerRun = 2000;
    opts.runs = 2;
    for (const SmtConfig &cfg : {presets::baseSmt(1), presets::baseSmt(2),
                                 presets::icount28(8)}) {
        SimStats s;
        s.cycles = 40000 + cfg.numThreads;
        s.committedInstructions = 91234 * cfg.numThreads;
        s.fetchedInstructions = 123457;
        s.condBranches = 9876;
        s.condBranchMispredicts = 457;
        s.icache.accesses = 77777;
        s.icache.misses = 123;
        for (std::uint64_t v = 0; v < 40; v += 3)
            s.combinedQueuePopulation.sample(v, v * 7 + 1);
        texts.push_back(sweep::makeEntryJson(sweep::measurementDigest(cfg,
                                                                      opts),
                                             cfg, opts, s, 0.25)
                            .dump());
    }
    return texts;
}

// Below a whole entry (about 3 KB), above its 1500-byte prefix.
constexpr std::size_t kLzMaxSize = 2048;
constexpr int kLzIterations = 30000;

/** The size an SLZ1 stream declares after its magic. */
std::optional<std::uint64_t>
declaredSize(const std::string &stream)
{
    std::uint64_t v = 0;
    for (std::size_t i = 4, shift = 0; i < stream.size() && shift < 64;
         ++i, shift += 7) {
        const auto byte = static_cast<unsigned char>(stream[i]);
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
    }
    return std::nullopt;
}

TEST(Fuzz, LzDecompressReturnsNothingOrTheDeclaredSize)
{
    // Whole entries exceed the cap and must be refused; their
    // prefixes decode, so the mutants also reach the token loop.
    std::vector<std::string> seeds;
    for (const std::string &text : entryTexts()) {
        seeds.push_back(lzCompress(text));
        seeds.push_back(lzCompress(text.substr(0, 1500)));
    }
    seeds.push_back(lzCompress(std::string(300, 'r') + "un-length"));
    seeds.push_back(lzCompress(""));
    for (const std::string &seed : seeds)
        ASSERT_TRUE(lzDecompress(seed, 1 << 20).has_value());

    std::mt19937_64 rng(kSeed + 2);
    for (int i = 0; i < kLzIterations; ++i) {
        const std::string input =
            mutate(seeds[rng() % seeds.size()], seeds, rng);
        const std::optional<std::string> out =
            lzDecompress(input, kLzMaxSize);
        if (!out.has_value())
            continue;
        const std::optional<std::uint64_t> declared = declaredSize(input);
        // Whatever decoded must also survive a round trip.
        if (!declared || out->size() != *declared
            || out->size() > kLzMaxSize
            || lzDecompress(lzCompress(*out), kLzMaxSize) != out) {
            ADD_FAILURE() << "iteration " << i << ": decoded "
                          << out->size() << " bytes\ninput: "
                          << printable(input);
            return;
        }
    }
}

constexpr int kJsonIterations = 8000;

TEST(Fuzz, JsonAcceptedInputsRedumpStably)
{
    std::vector<std::string> seeds = entryTexts();
    seeds.push_back("{\"a\":[1,-2.5e-3,true,false,null,\"\\u00e9\\n\"],"
                    "\"b\":{\"c\":18446744073709551615,"
                    "\"d\":-9223372036854775807}}");
    seeds.push_back("[0.1, 1E+2, \"\\\"q\\\\\", [], {}]");

    std::mt19937_64 rng(kSeed + 3);
    for (int i = 0; i < kJsonIterations; ++i) {
        const std::string input =
            mutate(seeds[rng() % seeds.size()], seeds, rng);
        sweep::Json doc;
        if (!sweep::Json::parse(input, doc))
            continue;
        const std::string dump = doc.dump();
        sweep::Json again;
        if (!sweep::Json::parse(dump, again) || again.dump() != dump) {
            ADD_FAILURE() << "iteration " << i << ": dump " << dump
                          << "\ninput: " << printable(input);
            return;
        }
    }
}

} // namespace
} // namespace smt
