#ifndef RM_SIM_WARP_STORE_HH
#define RM_SIM_WARP_STORE_HH

/**
 * @file
 * Structure-of-arrays arena for the per-warp state the scheduler and
 * scoreboard touch every cycle. The earlier engine kept everything in
 * an array of SimWarp structs, each owning a heap `std::vector` of
 * register values and a heap-backed scoreboard Bitmask — so the per-
 * cycle candidate scan chased two pointers per warp. Here the hot
 * fields live in flat parallel arrays indexed by slot:
 *
 *   - state / pc / pendingMem / wakeAt: one contiguous array each, so
 *     the scheduler's slot sweep walks cache lines, not objects;
 *   - the scoreboard: one span of ceil(registers / 64) u64 words per
 *     slot inside a single allocation, so a test is a load + mask with
 *     no Bitmask bounds machinery;
 *   - architected registers: one flat slab, slot-major with stride =
 *     program register count, handed to executeStep() as a raw pointer;
 *   - the issue masks: a ready mask and an issue-clean mask over the
 *     slots (ceil(slots / 64) words each) plus one operand mask per pc
 *     (a scoreboard-width span), kept current by every mutator. The
 *     scheduler iterates their set bits instead of sweeping slots;
 *     every geometry takes this one path.
 *
 * Cold identity and policy fields (CTA coordinates, SRP section, RFV
 * mapping mask, ...) stay in SimWarp (sim/warp.hh); the store owns
 * that array too so one object threads through the allocator and
 * sanitizer seams.
 */

#include <cstdint>
#include <vector>

#include "common/bitmask.hh"
#include "isa/program.hh"
#include "sim/warp.hh"

namespace rm {

class WarpStore
{
  public:
    /** Size for @p slots warp slots of @p num_regs registers each;
     *  drops all previous contents. */
    void reset(int slots, int num_regs);

    int numSlots() const { return numSlots_; }
    int regCount() const { return regCount_; }

    // --- Cold / policy fields ---
    SimWarp &warp(int slot) { return cold_[asIdx(slot)]; }
    const SimWarp &warp(int slot) const { return cold_[asIdx(slot)]; }

    // --- Scheduler-visible state ---
    WarpState state(int slot) const
    {
        return static_cast<WarpState>(state_[asIdx(slot)]);
    }
    void setState(int slot, WarpState s)
    {
        state_[asIdx(slot)] = static_cast<std::uint8_t>(s);
        assignBit(readyMask_, slot, s == WarpState::Ready);
    }
    bool resident(int slot) const
    {
        const WarpState s = state(slot);
        return s != WarpState::Unused && s != WarpState::Finished;
    }

    int pc(int slot) const { return pc_[asIdx(slot)]; }
    void setPc(int slot, int pc)
    {
        pc_[asIdx(slot)] = pc;
        recomputeClean(slot);
    }

    int pendingMem(int slot) const { return pendingMem_[asIdx(slot)]; }
    void setPendingMem(int slot, int n)
    {
        pendingMem_[asIdx(slot)] = n;
        recomputeClean(slot);
    }
    void addPendingMem(int slot, int delta)
    {
        pendingMem_[asIdx(slot)] += delta;
        recomputeClean(slot);
    }

    std::uint64_t wakeAt(int slot) const { return wakeAt_[asIdx(slot)]; }
    void setWakeAt(int slot, std::uint64_t c)
    {
        wakeAt_[asIdx(slot)] = c;
    }

    // --- Architected register slab ---
    std::int64_t *regs(int slot)
    {
        return regSlab_.data() + asIdx(slot) * regStride_;
    }
    const std::int64_t *regs(int slot) const
    {
        return regSlab_.data() + asIdx(slot) * regStride_;
    }
    void clearRegs(int slot)
    {
        std::int64_t *r = regs(slot);
        for (int i = 0; i < regCount_; ++i)
            r[i] = 0;
    }

    // --- Scoreboard (in-flight register writes) ---
    bool sbTest(int slot, RegId reg) const
    {
        return (sbWord(slot, reg) >> (reg & 63)) & 1;
    }
    void sbSet(int slot, RegId reg)
    {
        sbWord(slot, reg) |= std::uint64_t{1} << (reg & 63);
        recomputeClean(slot);
    }
    void sbClear(int slot, RegId reg)
    {
        sbWord(slot, reg) &= ~(std::uint64_t{1} << (reg & 63));
        recomputeClean(slot);
    }
    void sbReset(int slot)
    {
        std::uint64_t *words = &sb_[asIdx(slot) * sbStride_];
        for (std::size_t i = 0; i < sbStride_; ++i)
            words[i] = 0;
        recomputeClean(slot);
    }

    int sbCount(int slot) const
    {
        const std::uint64_t *words = &sb_[asIdx(slot) * sbStride_];
        int n = 0;
        for (std::size_t i = 0; i < sbStride_; ++i)
            n += __builtin_popcountll(words[i]);
        return n;
    }

    /** Scoreboard as a Bitmask (snapshot codec; never the hot path). */
    Bitmask sbToBitmask(int slot) const;
    void sbFromBitmask(int slot, const Bitmask &mask);

    // --- Issue masks ---
    /**
     * Derive the per-pc issue metadata from @p program — for each pc
     * the union of its destination and source scoreboard bits (one
     * scoreboard-width word span) and whether it is a global-memory
     * access — and recompute every slot's mask bits. From then on
     * readyWord() tracks slots in WarpState::Ready and cleanWord()
     * slots whose current instruction passes the scoreboard and the
     * @p max_pending outstanding-memory checks; the mutators above keep
     * both current (a handful of recomputes per cycle). reset() drops
     * the metadata, leaving every slot unclean until the next call.
     * Every operand of @p program must be below regCount().
     */
    void setIssueMeta(const Program &program, int max_pending);

    /** Words per slot mask: ceil(numSlots() / 64). */
    int slotWords() const { return slotWords_; }
    /** Word @p w of the Ready-slot mask (bit = slot & 63). */
    std::uint64_t readyWord(int w) const { return readyMask_[asIdx(w)]; }
    /** Word @p w of the issue-clean mask: slots passing the scoreboard
     *  and memory-structural checks at their current pc. */
    std::uint64_t cleanWord(int w) const { return cleanMask_[asIdx(w)]; }
    /** Slot is Ready and issue-clean (the scheduler's greedy test). */
    bool readyClean(int slot) const
    {
        const std::size_t w = asIdx(slot >> 6);
        return ((readyMask_[w] & cleanMask_[w]) >> (slot & 63) & 1) != 0;
    }
    /** An in-flight write hits an operand of the slot's current
     *  instruction (why an unclean Ready slot is blocked: true for the
     *  scoreboard, false for the outstanding-memory limit). */
    bool sbBlocksIssue(int slot) const
    {
        return sbHitsOperands(slot, static_cast<std::size_t>(pc(slot)));
    }

  private:
    /** Scoreboard of @p slot intersects the operand mask of @p pc. Word
     *  0 is tested outside the loop: it is the whole mask of every
     *  kernel up to 64 registers, and the loop adds only a not-taken
     *  branch for them. */
    bool sbHitsOperands(int slot, std::size_t pc) const
    {
        const std::uint64_t *sb = sb_.data() + asIdx(slot) * sbStride_;
        const std::uint64_t *ops = opMask_.data() + pc * sbStride_;
        std::uint64_t hit = sb[0] & ops[0];
        for (std::size_t w = 1; w < sbStride_; ++w)
            hit |= sb[w] & ops[w];
        return hit != 0;
    }

    /** Re-derive slot's issue-clean bit from (pc, scoreboard,
     *  pendingMem) — the pure function the mask caches. */
    void recomputeClean(int slot)
    {
        // Negative or past-the-end pc (an exited warp's resting state)
        // maps to "not clean"; such slots are never Ready anyway.
        const std::size_t pc = static_cast<std::size_t>(
            static_cast<std::uint32_t>(pc_[asIdx(slot)]));
        assignBit(cleanMask_, slot,
                  pc < globalMem_.size() && !sbHitsOperands(slot, pc) &&
                      !(globalMem_[pc] &&
                        pendingMem_[asIdx(slot)] >= maxPendingMem_));
    }

    void assignBit(std::vector<std::uint64_t> &mask, int slot, bool on)
    {
        std::uint64_t &word = mask[asIdx(slot >> 6)];
        const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
        word = on ? (word | bit) : (word & ~bit);
    }

    std::size_t asIdx(int slot) const
    {
        return static_cast<std::size_t>(slot);
    }
    std::uint64_t &sbWord(int slot, RegId reg)
    {
        return sb_[asIdx(slot) * sbStride_ +
                   static_cast<std::size_t>(reg >> 6)];
    }
    const std::uint64_t &sbWord(int slot, RegId reg) const
    {
        return sb_[asIdx(slot) * sbStride_ +
                   static_cast<std::size_t>(reg >> 6)];
    }

    int numSlots_ = 0;
    int regCount_ = 0;
    std::size_t regStride_ = 0;
    std::size_t sbStride_ = 0;  ///< scoreboard words per slot
    int slotWords_ = 0;

    int maxPendingMem_ = 0;
    std::vector<std::uint64_t> readyMask_;
    std::vector<std::uint64_t> cleanMask_;
    /** Per-pc operand masks, sbStride_ words per pc. */
    std::vector<std::uint64_t> opMask_;
    /** Per-pc global-memory flag; its size is the program length. */
    std::vector<std::uint8_t> globalMem_;

    std::vector<SimWarp> cold_;
    std::vector<std::uint8_t> state_;
    std::vector<std::int32_t> pc_;
    std::vector<std::int32_t> pendingMem_;
    std::vector<std::uint64_t> wakeAt_;
    std::vector<std::uint64_t> sb_;
    std::vector<std::int64_t> regSlab_;
};

} // namespace rm

#endif // RM_SIM_WARP_STORE_HH
