#ifndef RM_SIM_WARP_HH
#define RM_SIM_WARP_HH

/**
 * @file
 * Cold per-warp timing-simulation state: identity, scheduler
 * bookkeeping, and the policy scratch fields the register-allocation
 * strategies (RegMutex / OWF / RFV) hang off each warp. The hot
 * scheduler/scoreboard fields (state, PC, register values, in-flight
 * write mask, outstanding memory count) live in the structure-of-
 * arrays WarpStore (sim/warp_store.hh), indexed by the same slot.
 */

#include <cstdint>

#include "common/bitmask.hh"
#include "sim/semantics.hh"

namespace rm {

/** Scheduler-visible warp state (stored per-slot in WarpStore). */
enum class WarpState {
    Unused,       ///< slot not occupied
    Ready,        ///< may issue (subject to scoreboard/structural checks)
    WaitBarrier,  ///< arrived at a CTA barrier
    WaitAcquire,  ///< blocked on an extended-set acquire (RegMutex)
    WaitResource, ///< blocked on a physical register (RFV) or pair lock (OWF)
    WaitSpill,    ///< serving an RFV emergency spill penalty
    Finished,
};

/** One resident warp's cold state. */
struct SimWarp
{
    // --- Identity ---
    int slot = -1;        ///< warp index within the SM (Widx)
    int ctaSlot = -1;     ///< resident-CTA index on the SM
    int ctaId = -1;       ///< global CTA id
    int warpInCta = -1;
    std::uint64_t launchOrder = 0;  ///< age for greedy-then-oldest

    // --- Execution context ---
    SpecialRegs sregs;

    /** Cycle the warp last entered a Wait* state (hang forensics:
     *  wait age = current cycle - waitSince while waiting). */
    std::uint64_t waitSince = 0;

    // --- RegMutex ---
    bool holdsExt = false;
    int srpSection = -1;
    /** Cycle the warp first blocked on its pending acquire (0: none);
     *  feeds the srp.acquire_wait_cycles histogram when metrics are on. */
    std::uint64_t acquireWaitSince = 0;

    // --- RFV scratch ---
    Bitmask physMapped{0};  ///< arch regs currently backed by phys regs
    // --- OWF scratch ---
    bool ownsLock = false;

    // --- Stats ---
    std::uint64_t instructions = 0;
};

} // namespace rm

#endif // RM_SIM_WARP_HH
