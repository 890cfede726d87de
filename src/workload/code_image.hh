/**
 * @file
 * CodeImage: the static program produced by the workload generator.
 *
 * A code image is a contiguous array of StaticInsts; instruction i lives
 * at address base + 4*i. Control-flow targets are absolute addresses
 * inside the image, so the front end can fetch *any* path — including
 * wrong paths after a misprediction — exactly as a real I-cache would
 * deliver it.
 *
 * The image also owns the behaviour tables (branch bias, loop trip
 * ranges, memory access patterns, indirect-jump target sets) that the
 * per-thread oracle interprets.
 */

#ifndef SMT_WORKLOAD_CODE_IMAGE_HH
#define SMT_WORKLOAD_CODE_IMAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "isa/static_inst.hh"
#include "workload/behavior.hh"
#include "workload/profile.hh"

namespace smt
{

/** An immutable generated program plus its behaviour tables. */
class CodeImage
{
  public:
    CodeImage(BenchmarkProfile profile, Addr code_base, Addr data_base,
              Addr stack_base);

    // Non-copyable (threads keep pointers into it); movable is fine.
    CodeImage(const CodeImage &) = delete;
    CodeImage &operator=(const CodeImage &) = delete;

    /** The instruction at pc, or nullptr when pc is outside the image. */
    const StaticInst *
    at(Addr pc) const
    {
        if (pc < codeBase_ || pc >= codeBase_ + codeBytes())
            return nullptr;
        return &insts_[(pc - codeBase_) / kInstBytes];
    }

    /** True when pc addresses an instruction of this image. */
    bool
    contains(Addr pc) const
    {
        return pc >= codeBase_ && pc < codeBase_ + codeBytes() &&
               (pc - codeBase_) % kInstBytes == 0;
    }

    Addr entryPc() const { return entryPc_; }
    Addr codeBase() const { return codeBase_; }
    Addr dataBase() const { return dataBase_; }
    Addr stackBase() const { return stackBase_; }
    std::uint64_t codeBytes() const { return insts_.size() * kInstBytes; }
    std::size_t numInsts() const { return insts_.size(); }

    const BenchmarkProfile &profile() const { return profile_; }

    const BranchBehavior &
    branchBehavior(std::uint32_t annot) const
    {
        return branchTable_[annot];
    }

    const MemBehavior &
    memBehavior(std::uint32_t annot) const
    {
        return memTable_[annot];
    }

    const IndirectBehavior &
    indirectBehavior(std::uint32_t annot) const
    {
        return indirectTable_[annot];
    }

    /**
     * Deterministic effective address for a *wrong-path* memory
     * instruction: plausible (within the instruction's own region) but
     * decoupled from the correct-path stream.
     */
    Addr wrongPathMemAddr(const StaticInst &si, std::uint64_t salt) const;

    /** Effective address for a correct-path access of this static
     *  instruction, given its per-instruction instance count and a random
     *  draw (used by Random behaviours). */
    Addr memAddrFor(const StaticInst &si, std::uint64_t instance,
                    std::uint64_t random_draw) const;

    std::size_t numBranchBehaviors() const { return branchTable_.size(); }
    std::size_t numMemBehaviors() const { return memTable_.size(); }

    /**
     * A copy of this program at other base addresses. Only code
     * addresses move (each direct target, each indirect-jump arm and the
     * entry PC); data and stack addresses are built from the bases at
     * access time.
     */
    std::unique_ptr<CodeImage> relocated(Addr code_base, Addr data_base,
                                         Addr stack_base) const;

    /**
     * Install the generated program. Called exactly once by the
     * generator; a second call is a bug.
     */
    void setProgram(std::vector<StaticInst> insts, Addr entry_pc,
                    std::vector<BranchBehavior> branch_table,
                    std::vector<MemBehavior> mem_table,
                    std::vector<IndirectBehavior> indirect_table);

  private:
    BenchmarkProfile profile_;
    Addr codeBase_;
    Addr dataBase_;
    Addr stackBase_;
    Addr entryPc_ = 0;

    std::vector<StaticInst> insts_;
    std::vector<BranchBehavior> branchTable_;
    std::vector<MemBehavior> memTable_;
    std::vector<IndirectBehavior> indirectTable_;
};

/**
 * Generate a program for `profile`, deterministically from `seed`, at
 * the given base addresses.
 *
 * A program is a pure function of (profile, seed): the bases only
 * place it. So the program is generated once at code base 0 and kept
 * while it is among the kCachedPrograms most recently used, and each
 * call returns a relocated copy, equal field by field to
 * generateProgramUncached(). Safe to call from several threads.
 */
std::unique_ptr<CodeImage> generateProgram(const BenchmarkProfile &profile,
                                           std::uint64_t seed,
                                           Addr code_base, Addr data_base,
                                           Addr stack_base);

/** Generate directly at the given bases, bypassing the cache: the
 *  reference generateProgram() must reproduce. */
std::unique_ptr<CodeImage>
generateProgramUncached(const BenchmarkProfile &profile, std::uint64_t seed,
                        Addr code_base, Addr data_base, Addr stack_base);

/** Programs generateProgram() keeps: one rotation's worth, the eight
 *  benchmarks at one seed. */
constexpr std::size_t kCachedPrograms = 8;

/** Programs generateProgram() holds now (at most kCachedPrograms). */
std::size_t cachedProgramCount();

/** Standard per-thread address layout used by the simulator. */
struct AddressLayout
{
    static Addr codeBase(ThreadID tid);
    static Addr dataBase(ThreadID tid);
    static Addr stackBase(ThreadID tid);
};

} // namespace smt

#endif // SMT_WORKLOAD_CODE_IMAGE_HH
