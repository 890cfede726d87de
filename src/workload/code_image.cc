#include "workload/code_image.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace smt
{

CodeImage::CodeImage(BenchmarkProfile profile, Addr code_base,
                     Addr data_base, Addr stack_base)
    : profile_(std::move(profile)), codeBase_(code_base),
      dataBase_(data_base), stackBase_(stack_base)
{
}

void
CodeImage::setProgram(std::vector<StaticInst> insts, Addr entry_pc,
                      std::vector<BranchBehavior> branch_table,
                      std::vector<MemBehavior> mem_table,
                      std::vector<IndirectBehavior> indirect_table)
{
    smt_assert(insts_.empty());
    smt_assert(!insts.empty());
    insts_ = std::move(insts);
    entryPc_ = entry_pc;
    branchTable_ = std::move(branch_table);
    memTable_ = std::move(mem_table);
    indirectTable_ = std::move(indirect_table);
}

std::unique_ptr<CodeImage>
CodeImage::relocated(Addr code_base, Addr data_base, Addr stack_base) const
{
    // Unsigned wrap-around makes the shift exact in either direction.
    const Addr shift = code_base - codeBase_;
    std::vector<StaticInst> insts = insts_;
    for (StaticInst &si : insts) {
        if (si.target != kNoAddr)
            si.target += shift;
    }
    std::vector<IndirectBehavior> indirect_table = indirectTable_;
    for (IndirectBehavior &ib : indirect_table) {
        for (Addr &target : ib.targets)
            target += shift;
    }
    auto image = std::make_unique<CodeImage>(profile_, code_base, data_base,
                                             stack_base);
    image->setProgram(std::move(insts), entryPc_ + shift, branchTable_,
                      memTable_, std::move(indirect_table));
    return image;
}

Addr
CodeImage::memAddrFor(const StaticInst &si, std::uint64_t instance,
                      std::uint64_t random_draw) const
{
    const MemBehavior &mb = memBehavior(si.annot);
    switch (mb.kind) {
      case MemBehavior::Kind::Stride: {
        // Each instruction walks its region coherently: the address
        // advances by the stride every `repeat` executions, wrapping at
        // the region end (short laps keep the walk cache-resident).
        const std::uint64_t element = instance / std::max(1u, mb.repeat);
        const Addr off = (element * mb.strideBytes) % mb.regionBytes;
        return dataBase_ + mb.regionOffset + off;
      }
      case MemBehavior::Kind::Random: {
        // Pointer-chasing locality: a slice of accesses stays inside a
        // small hot subset of the region; the rest roam uniformly.
        // All draws are 8-byte aligned.
        const double coin =
            static_cast<double>(random_draw & 0xFFFF) / 65536.0;
        if (mb.hotBytes > 0 && coin < mb.hotFraction) {
            // The hot subset is shared program-wide (the head of the
            // heap): pointer-chasing codes revisit the same hot nodes
            // from many different sites.
            const Addr off =
                ((random_draw >> 16) % (mb.hotBytes / 8)) * 8;
            return dataBase_ + mb.regionOffset + off;
        }
        const Addr off = ((random_draw >> 16) % (mb.regionBytes / 8)) * 8;
        return dataBase_ + mb.regionOffset + off;
      }
      case MemBehavior::Kind::Stack: {
        // A fixed hot location keyed by the behaviour id: stack frames
        // re-touch the same few cache lines.
        const Addr off = (mix64(si.annot * 0x9e37u + 17) % 2048) & ~7ull;
        return stackBase_ + off;
      }
    }
    smt_panic("bad mem behavior kind");
}

Addr
CodeImage::wrongPathMemAddr(const StaticInst &si, std::uint64_t salt) const
{
    const MemBehavior &mb = memBehavior(si.annot);
    if (mb.kind == MemBehavior::Kind::Stack)
        return memAddrFor(si, 0, 0);
    const Addr off = (mix64(salt ^ (si.annot * 0x517cc1b727220a95ull))
                      % (mb.regionBytes / 8)) * 8;
    return dataBase_ + mb.regionOffset + off;
}

Addr
AddressLayout::codeBase(ThreadID tid)
{
    // Segments are placed 16-256 MB apart (disjoint), with an ASLR-style
    // pseudo-random sub-offset within a 2 MB window. Without it, bases
    // that are multiples of a direct-mapped cache's size make every
    // thread's hot lines fight over identical sets in the 32 KB L1 and
    // the 2 MB L3 — a pathology real (OS-randomised) address spaces do
    // not exhibit.
    return 0x1000'0000ull + static_cast<Addr>(tid) * 0x100'0000ull +
           ((mix64(0xC0DE + tid * 4u) % 0x20'0000ull) & ~Addr{63});
}

Addr
AddressLayout::dataBase(ThreadID tid)
{
    return 0x8000'0000ull + static_cast<Addr>(tid) * 0x1000'0000ull +
           ((mix64(0xDA7A + tid * 4u) % 0x20'0000ull) & ~Addr{63});
}

Addr
AddressLayout::stackBase(ThreadID tid)
{
    return 0xF000'0000ull + static_cast<Addr>(tid) * 0x10'0000ull +
           ((mix64(0x57AC + tid * 4u) % 0x8'0000ull) & ~Addr{63});
}

} // namespace smt
