/**
 * @file
 * The synthetic-program generator.
 *
 * A program is a set of functions made of basic blocks. Functions are
 * generated in call order (function i may call only functions j > i, so
 * the call graph is acyclic and the return stack is bounded). main()
 * (function 0) is an infinite loop over calls to the other functions, so
 * a program never terminates — the simulator decides when to stop.
 *
 * Structure within a function is produced by a tiny recursive grammar:
 *   seq    := (plain | loop | diamond | call | dispatch)*
 *   loop   := header seq latch[cond back-edge -> header]
 *   diamond:= head[cond -> join] seq join
 *   dispatch := head[indirect -> arm_k] (arm[jump -> join])^K join
 * Blocks are laid out in creation order, which is also fall-through
 * order, so the only address patching needed is for explicit targets.
 */

#include "workload/code_image.hh"

#include <algorithm>
#include <mutex>

#include "common/logging.hh"
#include "common/rng.hh"

namespace smt
{

namespace
{

/** Mutable build-time view of a basic block. */
struct Block
{
    std::vector<StaticInst> insts;
};

/** A pending control-target fix-up: instruction -> block entry. */
struct Patch
{
    std::size_t block;
    std::size_t inst;
    std::size_t targetBlock;
};

/** A pending call-target fix-up: instruction -> function entry. */
struct CallPatch
{
    std::size_t block;
    std::size_t inst;
    unsigned calleeFunc;
};

class ProgramBuilder
{
  public:
    ProgramBuilder(const BenchmarkProfile &prof, Rng &rng)
        : prof_(prof), rng_(rng)
    {
    }

    void
    build(CodeImage &image)
    {
        // Data-segment layout: the random-access heap first, then the
        // program's fixed set of strided "arrays", which static memory
        // instructions share (that sharing is what creates temporal
        // locality).
        // The 13-line skew keeps stream bases from aliasing to the same
        // direct-mapped cache sets (region sizes are powers of two).
        constexpr Addr skew = 13 * 64;
        for (unsigned s = 0; s < std::max(1u, prof_.numStreams); ++s) {
            streamOffsets_.push_back(prof_.heapBytes +
                                     s * (prof_.streamRegionBytes + skew));
            // Stride and element-reuse are properties of the *array*
            // (region), shared by every instruction that touches it, so
            // the region advances as one coherent walk.
            streamStride_.push_back(
                prof_.strideBytes * (1u << rng_.below(2)));
            streamRepeat_.push_back(
                1u << rng_.below(prof_.strideRepeatLog2Max + 1));
        }

        funcEntry_.resize(prof_.numFuncs + 1);
        for (unsigned f = 0; f <= prof_.numFuncs; ++f) {
            currentFunc_ = f;
            funcEntry_[f] = blocks_.size();
            if (f == 0)
                genMain();
            else
                genFunction();
        }
        finalize(image);
    }

  private:
    // ---- Block plumbing ---------------------------------------------------
    std::size_t
    newBlock()
    {
        blocks_.emplace_back();
        return blocks_.size() - 1;
    }

    Block &cur() { return blocks_.back(); }

    // ---- Operand machinery -------------------------------------------------
    LogReg
    newDest(RegFile file)
    {
        const LogRegIndex idx =
            static_cast<LogRegIndex>(rng_.range(1, kLogRegsPerFile - 2));
        auto &recents = file == RegFile::Int ? intRecents_ : fpRecents_;
        recents.push_back(idx);
        if (recents.size() > 24)
            recents.erase(recents.begin());
        return {idx, file};
    }

    LogReg
    pickSrc(RegFile file)
    {
        auto &recents = file == RegFile::Int ? intRecents_ : fpRecents_;
        if (!recents.empty() && !rng_.chance(prof_.farSrcFraction)) {
            const unsigned d = rng_.geometric(prof_.depMean);
            if (d <= recents.size())
                return {recents[recents.size() - d], file};
        }
        // Far / loop-invariant source.
        return {static_cast<LogRegIndex>(rng_.range(0, kLogRegsPerFile - 1)),
                file};
    }

    // ---- Behaviour tables ---------------------------------------------------
    std::uint32_t
    newBiasedBranch()
    {
        BranchBehavior bb;
        bb.kind = BranchBehavior::Kind::Biased;
        if (rng_.chance(prof_.hardBranchFraction)) {
            bb.takenProb = rng_.uniform() * 0.5 + 0.25; // [0.25, 0.75)
        } else {
            const double p = prof_.easyBias;
            bb.takenProb = rng_.chance(0.5) ? p : 1.0 - p;
        }
        branchTable_.push_back(bb);
        return static_cast<std::uint32_t>(branchTable_.size() - 1);
    }

    std::uint32_t
    newLoopBranch()
    {
        BranchBehavior bb;
        bb.kind = BranchBehavior::Kind::LoopBack;
        bb.minTrip = prof_.minTrip;
        bb.maxTrip = prof_.maxTrip;
        branchTable_.push_back(bb);
        return static_cast<std::uint32_t>(branchTable_.size() - 1);
    }

    std::uint32_t
    newMemBehavior()
    {
        MemBehavior mb;
        const double r = rng_.uniform();
        if (r < prof_.stackFrac) {
            mb.kind = MemBehavior::Kind::Stack;
            mb.regionBytes = 2048;
        } else if (r < prof_.stackFrac + prof_.randomFrac) {
            mb.kind = MemBehavior::Kind::Random;
            mb.regionOffset = 0; // the shared heap.
            mb.regionBytes = prof_.heapBytes;
            mb.hotFraction = prof_.randomHotFraction;
            mb.hotBytes = std::min<std::uint64_t>(prof_.randomHotBytes,
                                                  prof_.heapBytes / 2);
        } else {
            mb.kind = MemBehavior::Kind::Stride;
            const std::size_t region = rng_.below(streamOffsets_.size());
            mb.regionOffset = streamOffsets_[region];
            mb.regionBytes = prof_.streamRegionBytes;
            mb.strideBytes = streamStride_[region];
            mb.repeat = streamRepeat_[region];
        }
        memTable_.push_back(mb);
        return static_cast<std::uint32_t>(memTable_.size() - 1);
    }

    // ---- Instruction emission ------------------------------------------------
    void
    emitBody(std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            cur().insts.push_back(makeBodyInst());
    }

    StaticInst
    makeBodyInst()
    {
        StaticInst si;
        const double r = rng_.uniform();
        double acc = prof_.loadFrac;
        if (r < acc) {
            si.op = OpClass::Load;
            const bool fp = rng_.chance(prof_.fpLoadFrac);
            si.dest = newDest(fp ? RegFile::Fp : RegFile::Int);
            si.src1 = pickSrc(RegFile::Int);
            si.annot = newMemBehavior();
            return si;
        }
        acc += prof_.storeFrac;
        if (r < acc) {
            si.op = OpClass::Store;
            si.src1 = pickSrc(RegFile::Int);
            const bool fp = rng_.chance(prof_.fpLoadFrac);
            si.src2 = pickSrc(fp ? RegFile::Fp : RegFile::Int);
            si.annot = newMemBehavior();
            return si;
        }
        acc += prof_.fpFrac;
        if (r < acc) {
            // FP divide is rare within the FP mix (~3%).
            if (rng_.chance(0.03))
                si.op = rng_.chance(0.5) ? OpClass::FpDiv
                                         : OpClass::FpDivLong;
            else
                si.op = OpClass::FpAlu;
            si.dest = newDest(RegFile::Fp);
            si.src1 = pickSrc(RegFile::Fp);
            si.src2 = pickSrc(RegFile::Fp);
            return si;
        }
        acc += prof_.imulFrac;
        if (r < acc) {
            si.op = rng_.chance(0.3) ? OpClass::IntMultLong
                                     : OpClass::IntMult;
            si.dest = newDest(RegFile::Int);
            si.src1 = pickSrc(RegFile::Int);
            si.src2 = pickSrc(RegFile::Int);
            return si;
        }
        acc += prof_.cmovFrac;
        if (r < acc) {
            si.op = OpClass::CondMove;
            si.dest = newDest(RegFile::Int);
            si.src1 = pickSrc(RegFile::Int);
            si.src2 = pickSrc(RegFile::Int);
            return si;
        }
        si.op = OpClass::IntAlu;
        si.dest = newDest(RegFile::Int);
        si.src1 = pickSrc(RegFile::Int);
        if (rng_.chance(0.6))
            si.src2 = pickSrc(RegFile::Int);
        return si;
    }

    std::size_t
    bodyLen()
    {
        return std::max<std::size_t>(1, rng_.geometric(prof_.avgBlockLen));
    }

    /** Emit compare + conditional branch ending the current block. */
    void
    endWithCondBranch(std::size_t target_block, std::uint32_t annot)
    {
        StaticInst cmp;
        cmp.op = OpClass::Compare;
        cmp.dest = newDest(RegFile::Int);
        cmp.src1 = pickSrc(RegFile::Int);
        cmp.src2 = pickSrc(RegFile::Int);
        cur().insts.push_back(cmp);

        StaticInst br;
        br.op = OpClass::CondBranch;
        br.src1 = cmp.dest;
        br.annot = annot;
        cur().insts.push_back(br);
        patches_.push_back({blocks_.size() - 1, cur().insts.size() - 1,
                            target_block});
    }

    void
    endWithJump(std::size_t target_block)
    {
        StaticInst j;
        j.op = OpClass::Jump;
        cur().insts.push_back(j);
        patches_.push_back({blocks_.size() - 1, cur().insts.size() - 1,
                            target_block});
    }

    void
    endWithCall(unsigned callee)
    {
        StaticInst c;
        c.op = OpClass::Call;
        cur().insts.push_back(c);
        callPatches_.push_back({blocks_.size() - 1, cur().insts.size() - 1,
                                callee});
    }

    void
    endWithReturn()
    {
        StaticInst r;
        r.op = OpClass::Return;
        r.src1 = pickSrc(RegFile::Int);
        cur().insts.push_back(r);
    }

    // ---- Structural grammar ---------------------------------------------------
    /**
     * Generate a sequence of structures totalling ~`budget` blocks;
     * control falls through past the last block created.
     */
    void
    genSeq(unsigned depth, unsigned budget)
    {
        unsigned used = 0;
        bool generated = false;
        while (used < budget || !generated) {
            generated = true;
            const unsigned left = budget > used ? budget - used : 1;
            const double r = rng_.uniform();
            double acc = prof_.loopFraction;
            if (r < acc && depth < prof_.maxLoopDepth && left >= 4) {
                used += genLoop(depth);
                continue;
            }
            acc += prof_.diamondFraction;
            if (r < acc && left >= 3) {
                used += genDiamond(depth);
                continue;
            }
            acc += prof_.callFraction;
            if (r < acc && currentFunc_ < prof_.numFuncs) {
                used += genCall();
                continue;
            }
            acc += prof_.indirectFraction;
            if (r < acc && left >= prof_.indirectTargets + 2) {
                used += genDispatch();
                continue;
            }
            newBlock();
            emitBody(bodyLen());
            used += 1;
        }
    }

    unsigned
    genLoop(unsigned depth)
    {
        const std::size_t header = newBlock();
        emitBody(std::max<std::size_t>(1, bodyLen() / 2));
        // Loop bodies get enough budget to contain diamonds (and nested
        // loops), so data-dependent branches execute per iteration.
        const unsigned body_budget = 2 + static_cast<unsigned>(
                                             rng_.below(4));
        genSeq(depth + 1, body_budget);
        newBlock(); // the latch.
        emitBody(bodyLen());
        endWithCondBranch(header, newLoopBranch());
        return body_budget + 2;
    }

    unsigned
    genDiamond(unsigned depth)
    {
        newBlock(); // the head.
        emitBody(bodyLen());
        const std::size_t patch_idx = patches_.size();
        endWithCondBranch(/*placeholder*/ 0, newBiasedBranch());
        const unsigned then_budget =
            1 + static_cast<unsigned>(rng_.below(2));
        genSeq(depth, then_budget);
        const std::size_t join = newBlock();
        emitBody(bodyLen());
        patches_[patch_idx].targetBlock = join;
        return then_budget + 2;
    }

    unsigned
    genCall()
    {
        newBlock();
        emitBody(std::max<std::size_t>(1, bodyLen() / 2));
        const unsigned callee = static_cast<unsigned>(
            rng_.range(currentFunc_ + 1, prof_.numFuncs));
        endWithCall(callee);
        return 1;
    }

    unsigned
    genDispatch()
    {
        newBlock();
        emitBody(std::max<std::size_t>(1, bodyLen() / 2));
        StaticInst ij;
        ij.op = OpClass::IndirectJump;
        ij.src1 = pickSrc(RegFile::Int);
        ij.annot = static_cast<std::uint32_t>(indirectTable_.size());
        cur().insts.push_back(ij);
        indirectTable_.emplace_back();
        indirectPatches_.push_back(
            {ij.annot, std::vector<std::size_t>{}});

        const unsigned arms = prof_.indirectTargets;
        const std::size_t join_patch_base = patches_.size();
        for (unsigned a = 0; a < arms; ++a) {
            const std::size_t arm = newBlock();
            indirectPatches_.back().second.push_back(arm);
            emitBody(std::max<std::size_t>(1, bodyLen() / 2));
            endWithJump(/*placeholder*/ 0);
        }
        const std::size_t join = newBlock();
        emitBody(bodyLen());
        for (std::size_t p = join_patch_base; p < patches_.size(); ++p)
            patches_[p].targetBlock = join;
        return arms + 2;
    }

    void
    genFunction()
    {
        // Every function is dominated by one function-level loop: the
        // body re-executes many times per call, which is what gives real
        // programs their instruction-cache locality (execution dwells in
        // a few KB of code at a time instead of sweeping the segment).
        const std::size_t header = newBlock();
        emitBody(std::max<std::size_t>(1, bodyLen() / 2));
        genSeq(1, prof_.blocksPerFunc);
        newBlock(); // the latch.
        emitBody(std::max<std::size_t>(1, bodyLen() / 2));
        endWithCondBranch(header, newLoopBranch());
        newBlock();
        emitBody(std::max<std::size_t>(1, bodyLen() / 2));
        endWithReturn();
    }

    void
    genMain()
    {
        // main: an endless loop whose body calls every other function,
        // with generated filler between calls.
        const std::size_t loop_head = newBlock();
        emitBody(bodyLen());
        for (unsigned f = 1; f <= prof_.numFuncs; ++f) {
            newBlock();
            emitBody(std::max<std::size_t>(1, bodyLen() / 2));
            endWithCall(f);
            if (rng_.chance(0.5))
                genSeq(0, 1 + static_cast<unsigned>(rng_.below(2)));
        }
        newBlock();
        emitBody(std::max<std::size_t>(1, bodyLen() / 2));
        endWithJump(loop_head);
    }

    // ---- Finalisation -----------------------------------------------------
    void
    finalize(CodeImage &image)
    {
        // Compute block entry addresses.
        std::vector<Addr> block_addr(blocks_.size());
        Addr pc = image.codeBase();
        for (std::size_t b = 0; b < blocks_.size(); ++b) {
            smt_assert(!blocks_[b].insts.empty());
            block_addr[b] = pc;
            pc += blocks_[b].insts.size() * kInstBytes;
        }

        for (const Patch &p : patches_)
            blocks_[p.block].insts[p.inst].target = block_addr[p.targetBlock];
        for (const CallPatch &p : callPatches_) {
            blocks_[p.block].insts[p.inst].target =
                block_addr[funcEntry_[p.calleeFunc]];
        }
        for (auto &[annot, arm_blocks] : indirectPatches_) {
            for (std::size_t arm : arm_blocks)
                indirectTable_[annot].targets.push_back(block_addr[arm]);
        }

        std::vector<StaticInst> flat;
        for (const Block &b : blocks_)
            for (const StaticInst &si : b.insts)
                flat.push_back(si);
        image.setProgram(std::move(flat), block_addr[funcEntry_[0]],
                         std::move(branchTable_), std::move(memTable_),
                         std::move(indirectTable_));
    }

    const BenchmarkProfile &prof_;
    Rng &rng_;

    std::vector<Block> blocks_;
    std::vector<Patch> patches_;
    std::vector<CallPatch> callPatches_;
    std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>>
        indirectPatches_;
    std::vector<std::size_t> funcEntry_;
    unsigned currentFunc_ = 0;

    std::vector<LogRegIndex> intRecents_;
    std::vector<LogRegIndex> fpRecents_;

    std::vector<BranchBehavior> branchTable_;
    std::vector<MemBehavior> memTable_;
    std::vector<IndirectBehavior> indirectTable_;

    std::vector<Addr> streamOffsets_;
    std::vector<std::uint32_t> streamStride_;
    std::vector<std::uint32_t> streamRepeat_;
};

/**
 * The kCachedPrograms most recently used programs, generated at base 0,
 * least recently used first. Every machine of a paper grid runs the
 * eight benchmarks at one config seed, so after the first rotation run
 * each machine only relocates copies.
 */
class ProgramCache
{
  public:
    std::shared_ptr<const CodeImage>
    get(const BenchmarkProfile &profile, std::uint64_t seed)
    {
        // A miss generates under the lock, so a program is generated
        // once however many threads ask for it; it costs well under a
        // millisecond, about once per (profile, seed) per process.
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry &e) {
                                   return e.seed == seed &&
                                          e.image->profile() == profile;
                               });
        if (it != entries_.end()) {
            std::rotate(it, it + 1, entries_.end());
        } else {
            if (entries_.size() == kCachedPrograms)
                entries_.erase(entries_.begin());
            entries_.push_back(
                {seed, generateProgramUncached(profile, seed, 0, 0, 0)});
        }
        return entries_.back().image;
    }

    std::size_t
    size()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

  private:
    struct Entry
    {
        std::uint64_t seed = 0;
        std::shared_ptr<const CodeImage> image;
    };

    std::mutex mutex_;
    std::vector<Entry> entries_;
};

ProgramCache &
programCache()
{
    static ProgramCache cache;
    return cache;
}

} // namespace

std::unique_ptr<CodeImage>
generateProgramUncached(const BenchmarkProfile &profile, std::uint64_t seed,
                        Addr code_base, Addr data_base, Addr stack_base)
{
    auto image = std::make_unique<CodeImage>(profile, code_base, data_base,
                                             stack_base);
    Rng rng(seed ^ mix64(0x5347454eull /* "NGES" */));
    ProgramBuilder builder(profile, rng);
    builder.build(*image);
    return image;
}

std::unique_ptr<CodeImage>
generateProgram(const BenchmarkProfile &profile, std::uint64_t seed,
                Addr code_base, Addr data_base, Addr stack_base)
{
    return programCache().get(profile, seed)->relocated(code_base,
                                                        data_base,
                                                        stack_base);
}

std::size_t
cachedProgramCount()
{
    return programCache().size();
}

} // namespace smt
