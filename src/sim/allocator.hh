#ifndef RM_SIM_ALLOCATOR_HH
#define RM_SIM_ALLOCATOR_HH

/**
 * @file
 * Strategy interface for physical-register allocation policies. The SM
 * timing model is policy-agnostic: the baseline static allocator, the
 * paper's RegMutex allocator (default and paired-warps), and the two
 * related-work baselines (OWF, RFV) all implement this interface.
 */

#include <string>
#include <vector>

#include "isa/program.hh"
#include "sim/config.hh"
#include "sim/warp.hh"

namespace rm {

class SnapshotWriter;
class SnapshotReader;
class WarpStore;

/** Outcome of an extended-set acquire at the issue stage. */
enum class AcquireOutcome {
    NotNeeded,    ///< policy has no extended sets; directive is a no-op
    AlreadyHeld,  ///< nested acquire; no effect (paper Sec. III)
    Acquired,     ///< an SRP section was assigned
    Blocked,      ///< no section free; warp must wait
};

/**
 * A register allocation policy. The SM calls prepare() once, then the
 * per-warp hooks during simulation. Implementations own all policy
 * state (SRP bitmask, LUT, renaming table, pair locks, ...).
 */
class RegisterAllocator
{
  public:
    virtual ~RegisterAllocator() = default;

    /** Short policy name for reports ("baseline", "regmutex", ...). */
    virtual std::string name() const = 0;

    /**
     * Inspect the kernel and configuration before simulation. Policies
     * derive their structures here (e.g. RFV computes liveness/death
     * tables; RegMutex sizes the SRP).
     */
    virtual void prepare(const GpuConfig &config, const Program &program) = 0;

    /**
     * Maximum CTAs the register file allows resident at once under this
     * policy. The SM combines this with the shared-memory / slot /
     * thread constraints.
     */
    virtual int maxCtasByRegisters() const = 0;

    /** A warp became resident. */
    virtual void onWarpLaunch(SimWarp &warp) { (void)warp; }

    /** A warp executed Exit. */
    virtual void onWarpExit(SimWarp &warp) { (void)warp; }

    /**
     * May @p warp issue the instruction at @p pc of the prepared
     * program this cycle? Pure check, no side effects; called during
     * scheduler candidate selection. Taking the pc (rather than the
     * instruction) lets a policy index tables it derived per pc in
     * prepare(). Returning false parks the warp in WaitResource when
     * wake-on-release is enabled.
     */
    virtual bool canIssue(const SimWarp &warp, int pc) const
    {
        (void)warp;
        (void)pc;
        return true;
    }

    /**
     * Scheduler devirtualization hint: may canIssue() ever return
     * false for this policy instance? The SM calls canIssue() once per
     * Ready candidate per cycle — when a policy never gates issue
     * (baseline, RegMutex: the SRP handshake happens at the acquire
     * directive, not per instruction) it says so here and the hot loop
     * skips the virtual call entirely. A policy overriding canIssue()
     * MUST keep this consistent; returning true is always safe, merely
     * slower.
     */
    virtual bool gatesIssue() const { return true; }

    /**
     * @p inst issued from @p warp at @p pc. Policies take ownership
     * actions here (OWF lock acquisition, RFV allocate/free).
     */
    virtual void onIssued(SimWarp &warp, const Instruction &inst, int pc)
    {
        (void)warp;
        (void)inst;
        (void)pc;
    }

    /** Execute a RegAcquire directive for @p warp. */
    virtual AcquireOutcome
    acquire(SimWarp &warp)
    {
        (void)warp;
        return AcquireOutcome::NotNeeded;
    }

    /** Execute a RegRelease directive for @p warp. */
    virtual void release(SimWarp &warp) { (void)warp; }

    /**
     * True when the policy freed resources since the last call (SRP
     * section, physical register, pair lock). The SM uses this to wake
     * parked warps; the flag clears on read.
     */
    virtual bool consumeFreedFlag() { return false; }

    /**
     * Scheduling priority bias (higher first); OWF implements
     * owner-warp-first through this. Ties break by warp age.
     */
    virtual int schedPriority(const SimWarp &warp) const
    {
        (void)warp;
        return 0;
    }

    /**
     * Companion hint to gatesIssue(): may schedPriority() ever return
     * nonzero? Same contract — true is always safe, false lets the
     * scheduler skip the per-candidate virtual call.
     */
    virtual bool biasesPriority() const { return true; }

    /**
     * Deadlock breaker: the SM detected that every resident warp is
     * blocked on this policy's resources. Grant the oldest blocked
     * warp's request by emergency means (RFV models a spill); @p pc is
     * the warp's current program counter (hot state lives in the
     * WarpStore, not on SimWarp). Returns the penalty in cycles the
     * warp must wait, or -1 when the policy cannot make progress (the
     * SM then reports a deadlock).
     */
    virtual int forceProgress(SimWarp &warp, int pc)
    {
        (void)warp;
        (void)pc;
        return -1;
    }

    /** Number of emergency interventions (for stats). */
    virtual std::uint64_t emergencyCount() const { return 0; }

    /** Pair-lock takeovers (OWF, for stats). */
    virtual std::uint64_t lockCount() const { return 0; }

    /**
     * Usable shared-capacity units for hang forensics: SRP sections
     * (RegMutex), pair sets (paired), physical-register headroom is
     * policy-defined. -1 when the policy has no shared capacity.
     */
    virtual int srpSectionCount() const { return -1; }

    /**
     * Fault injection (sim/fault.hh): permanently revoke @p amount
     * units of shared capacity mid-run. Returns how many units the
     * policy accepted to revoke (immediately or as holders release);
     * 0 when unsupported. Must never corrupt policy invariants — a
     * shrink may wedge the machine (that is the point) but not crash
     * it.
     */
    virtual int faultShrinkCapacity(int amount)
    {
        (void)amount;
        return 0;
    }

    /**
     * Fault injection (sim/fault.hh): deliberately corrupt one unit of
     * internal accounting state (flip an SRP bit, inflate a counter).
     * Exists to prove the sanitizer catches real drift; returns false
     * when the policy has no mutable state to corrupt.
     */
    virtual bool faultCorruptState() { return false; }

    /**
     * Serialize all policy state to @p w (sim/snapshot.hh). The
     * default is correct only for stateless policies; any policy with
     * mutable members must override both saveState and restoreState so
     * restore-then-run stays bit-identical to an uninterrupted run.
     */
    virtual void saveState(SnapshotWriter &w) const { (void)w; }

    /** Inverse of saveState; called after prepare() on a fresh run. */
    virtual void restoreState(SnapshotReader &r) { (void)r; }

    /**
     * Sanitizer self-audit (sim/sanitizer.hh): append one line per
     * violated accounting invariant to @p violations. @p warps gives
     * both the cold policy fields (WarpStore::warp) and the hot
     * scheduler state (WarpStore::state/pc/resident). @p faults_active
     * is true when a fault plan may legitimately break liveness-style
     * invariants (e.g. a revoked section leaves waiters with no
     * holder); conservation checks must never be gated on it.
     */
    virtual void auditInvariants(const WarpStore &warps,
                                 bool faults_active,
                                 std::vector<std::string> &violations) const
    {
        (void)warps;
        (void)faults_active;
        (void)violations;
    }
};

} // namespace rm

#endif // RM_SIM_ALLOCATOR_HH
