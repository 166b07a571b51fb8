#include "sim/warp_store.hh"

#include <algorithm>

#include "common/errors.hh"

namespace rm {

void
WarpStore::reset(int slots, int num_regs)
{
    fatalIf(slots <= 0, "WarpStore: ", slots, " warp slots");
    fatalIf(num_regs < 0, "WarpStore: ", num_regs, " registers");
    numSlots_ = slots;
    regCount_ = num_regs;
    regStride_ = static_cast<std::size_t>(num_regs);
    // At least one word, so the issue check tests word 0 unconditionally.
    sbStride_ = static_cast<std::size_t>(std::max(num_regs, 1) + 63) / 64;
    slotWords_ = (slots + 63) / 64;

    cold_.assign(static_cast<std::size_t>(slots), SimWarp{});
    for (int slot = 0; slot < slots; ++slot)
        cold_[asIdx(slot)].slot = slot;
    state_.assign(static_cast<std::size_t>(slots),
                  static_cast<std::uint8_t>(WarpState::Unused));
    pc_.assign(static_cast<std::size_t>(slots), 0);
    pendingMem_.assign(static_cast<std::size_t>(slots), 0);
    wakeAt_.assign(static_cast<std::size_t>(slots), 0);
    sb_.assign(static_cast<std::size_t>(slots) * sbStride_, 0);
    regSlab_.assign(static_cast<std::size_t>(slots) * regStride_, 0);

    // New geometry invalidates any prior issue metadata; the owner
    // re-derives it via setIssueMeta().
    maxPendingMem_ = 0;
    readyMask_.assign(static_cast<std::size_t>(slotWords_), 0);
    cleanMask_.assign(static_cast<std::size_t>(slotWords_), 0);
    opMask_.clear();
    globalMem_.clear();
}

void
WarpStore::setIssueMeta(const Program &program, int max_pending)
{
    maxPendingMem_ = max_pending;
    opMask_.assign(program.code.size() * sbStride_, 0);
    globalMem_.assign(program.code.size(), 0);
    for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
        const Instruction &inst = program.code[pc];
        globalMem_[pc] = latClass(inst.op) == LatClass::GlobalMem;
        std::uint64_t *ops = &opMask_[pc * sbStride_];
        const auto add = [&](RegId reg) {
            panicIf(reg >= regCount_, "WarpStore: operand r", reg,
                    " at pc ", pc, " beyond ", regCount_, " registers");
            ops[reg >> 6] |= std::uint64_t{1} << (reg & 63);
        };
        if (inst.hasDst())
            add(inst.dst);
        for (int s = 0; s < inst.numSrcs; ++s)
            add(inst.srcs[s]);
    }
    for (int slot = 0; slot < numSlots_; ++slot) {
        assignBit(readyMask_, slot, state(slot) == WarpState::Ready);
        recomputeClean(slot);
    }
}

Bitmask
WarpStore::sbToBitmask(int slot) const
{
    Bitmask mask(static_cast<std::size_t>(regCount_));
    for (int reg = 0; reg < regCount_; ++reg) {
        if (sbTest(slot, static_cast<RegId>(reg)))
            mask.set(static_cast<std::size_t>(reg));
    }
    return mask;
}

void
WarpStore::sbFromBitmask(int slot, const Bitmask &mask)
{
    sbReset(slot);
    const std::size_t limit =
        mask.size() < static_cast<std::size_t>(regCount_)
            ? mask.size()
            : static_cast<std::size_t>(regCount_);
    for (std::size_t reg = 0; reg < limit; ++reg) {
        if (mask.test(reg))
            sbSet(slot, static_cast<RegId>(reg));
    }
}

} // namespace rm
