/**
 * @file
 * Tests for the workload substrate: profile table, program generation
 * (structural validity, determinism), the program cache (relocated
 * copies equal direct generation, bounded, thread-safe), the oracle
 * (stream semantics, loop behaviour, rewind support), and the mix
 * rotation.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "workload/code_image.hh"
#include "workload/mix.hh"
#include "workload/oracle.hh"
#include "workload/profile.hh"

namespace smt
{
namespace
{

std::unique_ptr<CodeImage>
makeImage(Benchmark b, std::uint64_t seed = 1)
{
    return generateProgram(benchmarkProfile(b), seed,
                           AddressLayout::codeBase(0),
                           AddressLayout::dataBase(0),
                           AddressLayout::stackBase(0));
}

TEST(Profile, AllEightBenchmarksExist)
{
    EXPECT_EQ(allBenchmarks().size(), 8u);
    std::set<std::string> names;
    for (Benchmark b : allBenchmarks())
        names.insert(benchmarkProfile(b).name);
    EXPECT_EQ(names.size(), 8u);
    EXPECT_TRUE(names.count("alvinn"));
    EXPECT_TRUE(names.count("fpppp"));
    EXPECT_TRUE(names.count("xlisp"));
    EXPECT_TRUE(names.count("tex"));
}

TEST(Profile, LookupByName)
{
    EXPECT_EQ(benchmarkByName("tomcatv"), Benchmark::Tomcatv);
    EXPECT_EQ(benchmarkByName("espresso"), Benchmark::Espresso);
}

TEST(ProfileDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(benchmarkByName("gcc"), ::testing::ExitedWithCode(1),
                "unknown benchmark");
}

TEST(Profile, FpBenchmarksHaveFpMix)
{
    EXPECT_GT(benchmarkProfile(Benchmark::Fpppp).fpFrac, 0.2);
    EXPECT_GT(benchmarkProfile(Benchmark::Tomcatv).fpFrac, 0.2);
    EXPECT_DOUBLE_EQ(benchmarkProfile(Benchmark::Xlisp).fpFrac, 0.0);
    EXPECT_DOUBLE_EQ(benchmarkProfile(Benchmark::Espresso).fpFrac, 0.0);
}

class ImageTest : public ::testing::TestWithParam<Benchmark>
{
};

TEST_P(ImageTest, ControlTargetsStayInImage)
{
    auto image = makeImage(GetParam());
    ASSERT_GT(image->numInsts(), 100u);
    for (std::size_t i = 0; i < image->numInsts(); ++i) {
        const Addr pc = image->codeBase() + i * kInstBytes;
        const StaticInst *si = image->at(pc);
        ASSERT_NE(si, nullptr);
        if (si->op == OpClass::CondBranch || si->op == OpClass::Jump ||
            si->op == OpClass::Call) {
            EXPECT_TRUE(image->contains(si->target))
                << "direct target outside image at pc " << pc;
        }
        if (si->op == OpClass::IndirectJump) {
            const IndirectBehavior &ib = image->indirectBehavior(si->annot);
            EXPECT_FALSE(ib.targets.empty());
            for (Addr t : ib.targets)
                EXPECT_TRUE(image->contains(t));
        }
    }
}

TEST_P(ImageTest, AnnotationsAreValid)
{
    auto image = makeImage(GetParam());
    for (std::size_t i = 0; i < image->numInsts(); ++i) {
        const StaticInst *si =
            image->at(image->codeBase() + i * kInstBytes);
        if (si->isCondBranch()) {
            EXPECT_LT(si->annot, image->numBranchBehaviors());
        }
        if (si->isMemory()) {
            EXPECT_LT(si->annot, image->numMemBehaviors());
        }
    }
}

TEST_P(ImageTest, GenerationIsDeterministic)
{
    auto a = makeImage(GetParam(), 7);
    auto b = makeImage(GetParam(), 7);
    ASSERT_EQ(a->numInsts(), b->numInsts());
    EXPECT_EQ(a->entryPc(), b->entryPc());
    for (std::size_t i = 0; i < a->numInsts(); ++i) {
        const Addr pc = a->codeBase() + i * kInstBytes;
        const StaticInst *x = a->at(pc);
        const StaticInst *y = b->at(pc);
        ASSERT_EQ(x->op, y->op);
        ASSERT_EQ(x->target, y->target);
        ASSERT_EQ(x->annot, y->annot);
    }
}

TEST_P(ImageTest, DifferentSeedsGiveDifferentPrograms)
{
    auto a = makeImage(GetParam(), 1);
    auto b = makeImage(GetParam(), 2);
    bool differs = a->numInsts() != b->numInsts();
    if (!differs) {
        for (std::size_t i = 0; i < a->numInsts() && !differs; ++i) {
            const Addr pc = a->codeBase() + i * kInstBytes;
            differs = a->at(pc)->op != b->at(pc)->op;
        }
    }
    EXPECT_TRUE(differs);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ImageTest, ::testing::ValuesIn(allBenchmarks()),
    [](const ::testing::TestParamInfo<Benchmark> &info) {
        return std::string(benchmarkName(info.param));
    });

TEST(Image, OutsideLookupsReturnNull)
{
    auto image = makeImage(Benchmark::Espresso);
    EXPECT_EQ(image->at(image->codeBase() - 4), nullptr);
    EXPECT_EQ(image->at(image->codeBase() + image->codeBytes()), nullptr);
    EXPECT_FALSE(image->contains(image->codeBase() + 2)); // misaligned.
}

// ---- Program cache -----------------------------------------------------

bool
sameReg(const LogReg &x, const LogReg &y)
{
    return x.index == y.index && x.file == y.file;
}

bool
sameInst(const StaticInst &x, const StaticInst &y)
{
    return x.op == y.op && sameReg(x.dest, y.dest) &&
           sameReg(x.src1, y.src1) && sameReg(x.src2, y.src2) &&
           x.target == y.target && x.annot == y.annot;
}

bool
sameBranch(const BranchBehavior &x, const BranchBehavior &y)
{
    return x.kind == y.kind && x.takenProb == y.takenProb &&
           x.minTrip == y.minTrip && x.maxTrip == y.maxTrip;
}

bool
sameMem(const MemBehavior &x, const MemBehavior &y)
{
    return x.kind == y.kind && x.regionOffset == y.regionOffset &&
           x.regionBytes == y.regionBytes &&
           x.strideBytes == y.strideBytes && x.repeat == y.repeat &&
           x.hotFraction == y.hotFraction && x.hotBytes == y.hotBytes;
}

/** The first field in which two images differ, or "" when every field
 *  matches: bases, entry PC, profile, each StaticInst and the three
 *  behaviour tables (the indirect table through the jumps that index
 *  it, one entry per jump). */
std::string
firstDifference(const CodeImage &a, const CodeImage &b)
{
    if (a.codeBase() != b.codeBase() || a.dataBase() != b.dataBase() ||
        a.stackBase() != b.stackBase())
        return "bases";
    if (a.entryPc() != b.entryPc())
        return "entry pc";
    if (!(a.profile() == b.profile()))
        return "profile";
    if (a.numInsts() != b.numInsts())
        return "instruction count";
    if (a.numBranchBehaviors() != b.numBranchBehaviors() ||
        a.numMemBehaviors() != b.numMemBehaviors())
        return "behaviour table sizes";
    for (std::size_t i = 0; i < a.numInsts(); ++i) {
        const Addr pc = a.codeBase() + i * kInstBytes;
        const StaticInst &x = *a.at(pc);
        if (!sameInst(x, *b.at(pc)))
            return "instruction " + std::to_string(i);
        if (x.op == OpClass::IndirectJump &&
            a.indirectBehavior(x.annot).targets !=
                b.indirectBehavior(x.annot).targets)
            return "indirect targets of instruction " + std::to_string(i);
    }
    for (std::uint32_t i = 0; i < a.numBranchBehaviors(); ++i)
        if (!sameBranch(a.branchBehavior(i), b.branchBehavior(i)))
            return "branch behaviour " + std::to_string(i);
    for (std::uint32_t i = 0; i < a.numMemBehaviors(); ++i)
        if (!sameMem(a.memBehavior(i), b.memBehavior(i)))
            return "mem behaviour " + std::to_string(i);
    return "";
}

std::unique_ptr<CodeImage>
cachedAt(const BenchmarkProfile &prof, std::uint64_t seed, ThreadID tid)
{
    return generateProgram(prof, seed, AddressLayout::codeBase(tid),
                           AddressLayout::dataBase(tid),
                           AddressLayout::stackBase(tid));
}

std::unique_ptr<CodeImage>
directAt(const BenchmarkProfile &prof, std::uint64_t seed, ThreadID tid)
{
    return generateProgramUncached(prof, seed, AddressLayout::codeBase(tid),
                                   AddressLayout::dataBase(tid),
                                   AddressLayout::stackBase(tid));
}

TEST(ProgramCache, RelocatedCopiesEqualDirectGeneration)
{
    for (std::uint64_t seed : {1ull, 0x9e3779b97f4a7c15ull}) {
        for (Benchmark bench : allBenchmarks()) {
            const BenchmarkProfile &prof = benchmarkProfile(bench);
            for (ThreadID tid = 0; tid < kMaxThreads; ++tid) {
                EXPECT_EQ(firstDifference(*cachedAt(prof, seed, tid),
                                          *directAt(prof, seed, tid)),
                          "")
                    << benchmarkName(bench) << " seed " << seed
                    << " context " << tid;
            }
        }
    }
}

TEST(ProgramCache, RepeatedCallReturnsAnEqualImage)
{
    const BenchmarkProfile &prof = benchmarkProfile(Benchmark::Xlisp);
    auto first = cachedAt(prof, 42, 3);
    auto second = cachedAt(prof, 42, 3);
    EXPECT_NE(first.get(), second.get());
    EXPECT_EQ(firstDifference(*first, *second), "");
}

TEST(ProgramCache, KeysOnEveryProfileFieldNotTheName)
{
    // A custom profile that keeps a benchmark's name but changes one
    // field is a different program.
    const BenchmarkProfile &prof = benchmarkProfile(Benchmark::Espresso);
    BenchmarkProfile longer = prof;
    longer.avgBlockLen += 2.0;
    auto base = cachedAt(prof, 5, 0);
    auto custom = cachedAt(longer, 5, 0);
    EXPECT_NE(firstDifference(*base, *custom), "");
    EXPECT_EQ(firstDifference(*custom, *directAt(longer, 5, 0)), "");
    EXPECT_EQ(firstDifference(*base, *directAt(prof, 5, 0)), "");
}

TEST(ProgramCache, ConcurrentCallersGetEqualImages)
{
    // Seeds no other test uses, so the four threads race on misses.
    constexpr unsigned kThreads = 4;
    const std::uint64_t seeds[] = {0xC0FFEE01, 0xC0FFEE02};
    std::vector<std::vector<std::unique_ptr<CodeImage>>> got(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::uint64_t seed : seeds)
                for (Benchmark bench : allBenchmarks())
                    got[t].push_back(cachedAt(benchmarkProfile(bench), seed,
                                              static_cast<ThreadID>(t)));
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (unsigned t = 0; t < kThreads; ++t) {
        std::size_t i = 0;
        for (std::uint64_t seed : seeds) {
            for (Benchmark bench : allBenchmarks()) {
                EXPECT_EQ(firstDifference(
                              *got[t][i++],
                              *directAt(benchmarkProfile(bench), seed,
                                        static_cast<ThreadID>(t))),
                          "")
                    << benchmarkName(bench) << " seed " << seed
                    << " thread " << t;
            }
        }
    }
}

TEST(ProgramCache, HoldsAtMostEightPrograms)
{
    for (std::uint64_t seed : {11ull, 12ull}) {
        for (Benchmark bench : allBenchmarks()) {
            cachedAt(benchmarkProfile(bench), seed, 0);
            EXPECT_LE(cachedProgramCount(), kCachedPrograms);
        }
    }
    EXPECT_EQ(cachedProgramCount(), kCachedPrograms);
}

TEST(Oracle, StreamIsDeterministic)
{
    auto image = makeImage(Benchmark::Doduc);
    ThreadProgram a(*image, 99);
    ThreadProgram b(*image, 99);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const OracleEntry &x = a.entryAt(i);
        const OracleEntry &y = b.entryAt(i);
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.nextPc, y.nextPc);
        ASSERT_EQ(x.memAddr, y.memAddr);
    }
}

TEST(Oracle, StreamFollowsControlFlow)
{
    auto image = makeImage(Benchmark::Tex);
    ThreadProgram p(*image, 5);
    EXPECT_EQ(p.entryAt(0).pc, image->entryPc());
    for (std::uint64_t i = 0; i + 1 < 20000; ++i) {
        const OracleEntry &e = p.entryAt(i);
        const OracleEntry &next = p.entryAt(i + 1);
        ASSERT_EQ(next.pc, e.nextPc) << "discontinuity at index " << i;
        if (!e.si->isControl()) {
            ASSERT_EQ(e.nextPc, e.pc + kInstBytes);
        } else if (!e.taken) {
            ASSERT_EQ(e.nextPc, e.pc + kInstBytes);
        }
    }
}

TEST(Oracle, TakenDirectBranchesGoToStaticTarget)
{
    auto image = makeImage(Benchmark::Alvinn);
    ThreadProgram p(*image, 5);
    unsigned checked = 0;
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const OracleEntry &e = p.entryAt(i);
        if (e.si->isCondBranch() && e.taken) {
            ASSERT_EQ(e.nextPc, e.si->target);
            ++checked;
        }
        if (e.si->op == OpClass::Jump || e.si->op == OpClass::Call) {
            ASSERT_TRUE(e.taken);
            ASSERT_EQ(e.nextPc, e.si->target);
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(Oracle, CallsAndReturnsBalance)
{
    auto image = makeImage(Benchmark::Xlisp);
    ThreadProgram p(*image, 5);
    std::vector<Addr> shadow;
    for (std::uint64_t i = 0; i < 50000; ++i) {
        const OracleEntry &e = p.entryAt(i);
        if (e.si->op == OpClass::Call) {
            shadow.push_back(e.pc + kInstBytes);
        } else if (e.si->op == OpClass::Return) {
            ASSERT_FALSE(shadow.empty());
            ASSERT_EQ(e.nextPc, shadow.back());
            shadow.pop_back();
        }
    }
}

TEST(Oracle, LoopTripsWithinProfileBounds)
{
    auto image = makeImage(Benchmark::Tomcatv);
    const BenchmarkProfile &prof = image->profile();
    ThreadProgram p(*image, 5);
    // Count consecutive taken executions per loop back-edge.
    std::map<std::uint32_t, std::uint64_t> run;
    for (std::uint64_t i = 0; i < 200000; ++i) {
        const OracleEntry &e = p.entryAt(i);
        if (!e.si->isCondBranch())
            continue;
        const BranchBehavior &bb = image->branchBehavior(e.si->annot);
        if (bb.kind != BranchBehavior::Kind::LoopBack)
            continue;
        if (e.taken) {
            ++run[e.si->annot];
        } else {
            // Trip count = taken run + 1 (the exit execution).
            const std::uint64_t trips = run[e.si->annot] + 1;
            EXPECT_GE(trips, prof.minTrip);
            EXPECT_LE(trips, prof.maxTrip);
            run[e.si->annot] = 0;
        }
    }
}

TEST(Oracle, MemAddressesLandInDataSegmentOrStack)
{
    auto image = makeImage(Benchmark::Espresso);
    ThreadProgram p(*image, 5);
    unsigned mem_ops = 0;
    for (std::uint64_t i = 0; i < 30000; ++i) {
        const OracleEntry &e = p.entryAt(i);
        if (!e.si->isMemory())
            continue;
        ++mem_ops;
        const bool in_data = e.memAddr >= image->dataBase() &&
                             e.memAddr < image->dataBase() + (64ull << 20);
        const bool in_stack = e.memAddr >= image->stackBase() &&
                              e.memAddr < image->stackBase() + 8192;
        EXPECT_TRUE(in_data || in_stack)
            << "address " << e.memAddr << " outside thread regions";
    }
    EXPECT_GT(mem_ops, 1000u);
}

TEST(Oracle, StridedStreamsAdvanceByStride)
{
    auto image = makeImage(Benchmark::Tomcatv);
    ThreadProgram p(*image, 5);
    std::map<std::uint32_t, Addr> last;
    unsigned checked = 0;
    for (std::uint64_t i = 0; i < 50000; ++i) {
        const OracleEntry &e = p.entryAt(i);
        if (!e.si->isMemory())
            continue;
        const MemBehavior &mb = image->memBehavior(e.si->annot);
        if (mb.kind != MemBehavior::Kind::Stride)
            continue;
        auto it = last.find(e.si->annot);
        if (it != last.end() && e.memAddr > it->second) {
            EXPECT_EQ(e.memAddr - it->second, mb.strideBytes);
            ++checked;
        }
        last[e.si->annot] = e.memAddr;
    }
    EXPECT_GT(checked, 100u);
}

TEST(Oracle, RetireBeforeReclaimsAndKeepsIndices)
{
    auto image = makeImage(Benchmark::Ora);
    ThreadProgram p(*image, 5);
    const OracleEntry e100 = p.entryAt(100); // copy.
    p.retireBefore(50);
    EXPECT_EQ(p.baseIndex(), 50u);
    // Index 100 still live and identical.
    const OracleEntry &again = p.entryAt(100);
    EXPECT_EQ(again.pc, e100.pc);
    EXPECT_EQ(again.nextPc, e100.nextPc);
}

TEST(Mix, RotationCoversAllBenchmarks)
{
    // Across the 8 runs, thread slot 0 must see all 8 benchmarks.
    std::set<Benchmark> seen;
    for (unsigned r = 0; r < kRunsPerDataPoint; ++r)
        seen.insert(mixForRun(4, r)[0]);
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Mix, MatchesPaperRotation)
{
    const auto mix = mixForRun(4, 2);
    ASSERT_EQ(mix.size(), 4u);
    const auto &all = allBenchmarks();
    EXPECT_EQ(mix[0], all[2]);
    EXPECT_EQ(mix[1], all[3]);
    EXPECT_EQ(mix[2], all[4]);
    EXPECT_EQ(mix[3], all[5]);
}

TEST(Mix, WrapsModuloEight)
{
    const auto mix = mixForRun(8, 5);
    const auto &all = allBenchmarks();
    EXPECT_EQ(mix[7], all[(5 + 7) % 8]);
}

} // namespace
} // namespace smt
