#ifndef RM_BASELINES_OWF_HH
#define RM_BASELINES_OWF_HH

/**
 * @file
 * Resource Sharing with Owner-Warp-First scheduling (Jatala et al.,
 * HPDC 2016) — the paper's first comparison baseline. Pairs of warps
 * share the registers whose architected index is at or above a
 * threshold; the pair's owner warp holds them for its whole lifetime
 * (one-time acquire, no in-kernel release — the shortcoming RegMutex
 * fixes) while the partner stalls on any shared-register access until
 * the owner finishes. The scheduler prefers owner warps (OWF) so the
 * shared registers free up as early as possible.
 *
 * Pairing crosses the warp-slot halves (slot s pairs with s + Nw/2),
 * mirroring Jatala's pairing of fully-allocated warps with the extra
 * warps their scheme admits: partners then never belong to the same
 * CTA, which removes the common lock-vs-barrier deadlock. Rare
 * cross-CTA lock/barrier cycles across three or more CTA generations
 * are broken by the simulator's wedge detector through
 * forceProgress(), which emergency-grants the shared set (modeled as
 * a spill) — counted in the emergency statistic.
 *
 * For an apples-to-apples comparison the threshold equals the RegMutex
 * |Bs| of the same (compacted) kernel, so both techniques share the
 * same registers; RegAcquire/RegRelease directives must be stripped
 * from the input (Jatala's scheme has none).
 */

#include <vector>

#include "sim/allocator.hh"

namespace rm {

/** Pairwise one-shot register-sharing policy. */
class OwfAllocator : public RegisterAllocator
{
  public:
    std::string name() const override { return "owf"; }

    void prepare(const GpuConfig &config, const Program &program) override;
    int maxCtasByRegisters() const override { return maxCtas; }

    bool canIssue(const SimWarp &warp, int pc) const override;
    // Both the pair lock and owner-warp-first only act once the policy
    // is enabled (a kernel that needs no shared set never gates).
    bool gatesIssue() const override { return enabled; }
    bool biasesPriority() const override { return enabled; }
    void onIssued(SimWarp &warp, const Instruction &inst, int pc) override;
    void onWarpExit(SimWarp &warp) override;
    bool consumeFreedFlag() override;
    int schedPriority(const SimWarp &warp) const override;
    int forceProgress(SimWarp &warp, int pc) override;
    std::uint64_t lockCount() const override { return locksTaken; }
    std::uint64_t emergencyCount() const override { return emergencies; }
    bool faultCorruptState() override;
    void saveState(SnapshotWriter &w) const override;
    void restoreState(SnapshotReader &r) override;
    void auditInvariants(const WarpStore &warps,
                         bool faults_active,
                         std::vector<std::string> &violations) const override;

    int threshold() const { return thresh; }
    /** Pair index of a warp slot (slot and slot + Nw/2 share it). */
    int pairOf(int slot) const { return slot % halfWarps; }
    /** Current lock holder of a pair, -1 when free (for tests). */
    int lockHolder(int pair) const { return holder[pair]; }

  private:
    const Program *prog = nullptr;
    bool enabled = false;
    int thresh = 0;    ///< registers at or above share within the pair
    int maxCtas = 0;
    int halfWarps = 0;
    int spillPenalty = 0;
    /** Pair lock holder slot, -1 when free. */
    std::vector<int> holder;
    bool freed = false;
    std::uint64_t locksTaken = 0;
    std::uint64_t emergencies = 0;

    bool referencesShared(const Instruction &inst) const;
};

} // namespace rm

#endif // RM_BASELINES_OWF_HH
