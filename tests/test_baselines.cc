/**
 * @file
 * Comparison-baseline tests: the static baseline allocator, OWF's
 * pairwise one-shot lock with owner-warp-first priority, and RFV's
 * renaming-table allocate-on-def / release-on-death policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/baseline.hh"
#include "baselines/owf.hh"
#include "baselines/rfv.hh"
#include "compiler/edit.hh"
#include "compiler/pipeline.hh"
#include "isa/builder.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

TEST(Baseline, RoundsRegistersAndLimitsOccupancy)
{
    const GpuConfig config = gtx480Config();
    const Program p = buildWorkload("BFS");  // 21 regs -> 24 rounded
    BaselineAllocator allocator;
    allocator.prepare(config, p);
    EXPECT_EQ(allocator.coefficient(), 24);
    EXPECT_EQ(allocator.maxCtasByRegisters(), 2);
}

class OwfTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        config = gtx480Config();
        program = stripDirectives(
            compileRegMutex(buildWorkload("BFS"), config).program);
        allocator.prepare(config, program);
        owner.slot = 4;            // will take the pair lock first
        partner.slot = 4 + 24;     // cross-half partner of slot 4
    }

    /** An instruction touching a shared (>= threshold) register. */
    Instruction
    sharedInst() const
    {
        Instruction inst;
        inst.op = Opcode::MovImm;
        inst.dst = static_cast<RegId>(allocator.threshold());
        return inst;
    }

    /** First pc of the program with register operands that touch a
     *  shared (>= threshold) register iff @p shared — canIssue()
     *  takes a pc of the prepared program. */
    int
    pcWhere(bool shared) const
    {
        for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
            const Instruction &inst = program.code[pc];
            std::vector<RegId> regs(inst.srcs.begin(),
                                    inst.srcs.begin() + inst.numSrcs);
            if (inst.hasDst())
                regs.push_back(inst.dst);
            const bool touches = std::any_of(
                regs.begin(), regs.end(),
                [&](RegId r) { return r >= allocator.threshold(); });
            if (!regs.empty() && touches == shared)
                return static_cast<int>(pc);
        }
        ADD_FAILURE() << "no " << (shared ? "shared" : "private")
                      << " instruction in the program";
        return 0;
    }
    int sharedPc() const { return pcWhere(true); }
    int privatePc() const { return pcWhere(false); }

    GpuConfig config;
    Program program;
    OwfAllocator allocator;
    SimWarp owner, partner;
};

TEST_F(OwfTest, ThresholdEqualsRegMutexBase)
{
    EXPECT_EQ(allocator.threshold(), 18);
}

TEST_F(OwfTest, PairingCrossesSlotHalves)
{
    EXPECT_EQ(allocator.pairOf(owner.slot),
              allocator.pairOf(partner.slot));
    EXPECT_NE(allocator.pairOf(owner.slot), allocator.pairOf(5));
    EXPECT_EQ(allocator.lockHolder(allocator.pairOf(owner.slot)), -1);
}

TEST_F(OwfTest, PrivateAccessAlwaysIssues)
{
    EXPECT_TRUE(allocator.canIssue(owner, privatePc()));
    EXPECT_TRUE(allocator.canIssue(partner, privatePc()));
}

TEST_F(OwfTest, FirstSharedAccessTakesTheLock)
{
    EXPECT_TRUE(allocator.canIssue(owner, sharedPc()));
    allocator.onIssued(owner, sharedInst(), 0);
    EXPECT_TRUE(owner.ownsLock);
    EXPECT_EQ(allocator.lockHolder(allocator.pairOf(owner.slot)),
              owner.slot);
    // The partner stalls on shared accesses but not private ones.
    EXPECT_FALSE(allocator.canIssue(partner, sharedPc()));
    EXPECT_TRUE(allocator.canIssue(partner, privatePc()));
    // The owner keeps issuing shared accesses.
    EXPECT_TRUE(allocator.canIssue(owner, sharedPc()));
}

TEST_F(OwfTest, NoInKernelRelease)
{
    // Unlike RegMutex nothing the owner does mid-kernel frees the
    // shared set; only its exit does.
    allocator.onIssued(owner, sharedInst(), 0);
    EXPECT_FALSE(allocator.canIssue(partner, sharedPc()));
    allocator.onWarpExit(owner);
    EXPECT_TRUE(allocator.consumeFreedFlag());
    EXPECT_TRUE(allocator.canIssue(partner, sharedPc()));
}

TEST_F(OwfTest, OwnerWarpFirstPriority)
{
    allocator.onIssued(owner, sharedInst(), 0);
    EXPECT_GT(allocator.schedPriority(owner),
              allocator.schedPriority(partner));
}

TEST_F(OwfTest, LockStatCountsFirstSharedAccess)
{
    allocator.onIssued(owner, sharedInst(), 0);
    allocator.onIssued(owner, sharedInst(), 1);
    EXPECT_EQ(allocator.lockCount(), 1u);
}

TEST_F(OwfTest, ForceProgressCoGrantsWithPenalty)
{
    allocator.onIssued(owner, sharedInst(), 0);
    EXPECT_FALSE(allocator.canIssue(partner, sharedPc()));
    const int penalty = allocator.forceProgress(partner, 0);
    EXPECT_GT(penalty, 0);
    EXPECT_EQ(allocator.emergencyCount(), 1u);
    EXPECT_TRUE(allocator.canIssue(partner, sharedPc()));
}

TEST_F(OwfTest, PairFootprintLimitsOccupancy)
{
    // Pairs reserve T + total = 18 + 24 regs per thread-pair; for
    // 512-thread CTAs: footprint/pair = 42*32 = 1344; 24 pairs max
    // -> 48 warps -> 3 CTAs.
    EXPECT_EQ(allocator.maxCtasByRegisters(), 3);
}

TEST(Owf, UncompiledProgramActsAsBaseline)
{
    const GpuConfig config = gtx480Config();
    const Program p = buildWorkload("BFS");
    OwfAllocator allocator;
    allocator.prepare(config, p);
    EXPECT_EQ(allocator.maxCtasByRegisters(), 2);
    SimWarp warp;
    warp.slot = 30;  // upper half, but sharing is disabled
    allocator.onWarpLaunch(warp);
    Instruction inst;
    inst.op = Opcode::MovImm;
    inst.dst = 20;
    EXPECT_TRUE(allocator.canIssue(warp, 0));
    allocator.onIssued(warp, inst, 0);
    EXPECT_FALSE(warp.ownsLock);
}

class RfvTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        config = gtx480Config();
        // r0 defined at 0, dies at 2; r1 defined at 1, dies at 3.
        KernelInfo info;
        info.numRegs = 4;
        info.ctaThreads = 64;
        info.gridCtas = 1;
        ProgramBuilder b(info);
        b.movImm(0, 1);     // 0
        b.movImm(1, 2);     // 1
        b.stGlobal(0, 0);   // 2: r0 dies
        b.stGlobal(1, 1);   // 3: r1 dies
        b.exitKernel();     // 4
        program = b.finalize();
        allocator.prepare(config, program);
        warp.slot = 0;
        warp.physMapped = Bitmask(program.info.numRegs);
        allocator.onWarpLaunch(warp);
    }

    GpuConfig config;
    Program program;
    RfvAllocator allocator;
    SimWarp warp;
};

TEST_F(RfvTest, AllocatesOnDefinition)
{
    const int free0 = allocator.freePacks();
    allocator.onIssued(warp, program.code[0], 0);
    EXPECT_EQ(allocator.freePacks(), free0 - 1);
    EXPECT_TRUE(warp.physMapped.test(0));
}

TEST_F(RfvTest, ReleasesAtLastUse)
{
    allocator.onIssued(warp, program.code[0], 0);
    allocator.onIssued(warp, program.code[1], 1);
    const int before = allocator.freePacks();
    allocator.onIssued(warp, program.code[2], 2);  // r0 dies
    EXPECT_EQ(allocator.freePacks(), before + 1);
    EXPECT_FALSE(warp.physMapped.test(0));
    EXPECT_TRUE(warp.physMapped.test(1));
    EXPECT_TRUE(allocator.consumeFreedFlag());
}

TEST_F(RfvTest, RedefinitionDoesNotDoubleAllocate)
{
    allocator.onIssued(warp, program.code[0], 0);
    const int before = allocator.freePacks();
    allocator.onIssued(warp, program.code[0], 0);  // same def again
    EXPECT_EQ(allocator.freePacks(), before);
}

TEST_F(RfvTest, WarpExitReleasesEverything)
{
    allocator.onIssued(warp, program.code[0], 0);
    allocator.onIssued(warp, program.code[1], 1);
    const int free0 = allocator.freePacks();
    allocator.onWarpExit(warp);
    EXPECT_EQ(allocator.freePacks(), free0 + 2);
    EXPECT_EQ(warp.physMapped.count(), 0u);
}

TEST_F(RfvTest, ProvisionsAboveStaticDemand)
{
    // The provisioning estimate sits between average and peak live
    // counts — far below the 4-register static allocation here.
    EXPECT_LE(allocator.estimatedDemand(), 4);
    EXPECT_GE(allocator.estimatedDemand(), 2);
}

TEST(Rfv, ProvisioningRaisesOccupancyOnSuiteKernel)
{
    const GpuConfig config = gtx480Config();
    const Program p = buildWorkload("SAD");  // 30 (32) regs
    RfvAllocator rfv(0.25);
    rfv.prepare(config, p);
    BaselineAllocator base;
    base.prepare(config, p);
    EXPECT_GT(rfv.maxCtasByRegisters(), base.maxCtasByRegisters());
}

TEST(Rfv, ForceProgressOverdraftsAndCharges)
{
    const GpuConfig config = gtx480Config();
    KernelInfo info;
    info.numRegs = 4;
    info.ctaThreads = 32;
    info.gridCtas = 1;
    ProgramBuilder b(info);
    b.movImm(0, 1);
    b.stGlobal(0, 0);
    b.exitKernel();
    const Program p = b.finalize();
    RfvAllocator allocator;
    allocator.prepare(config, p);

    SimWarp warp;
    warp.slot = 0;
    warp.physMapped = Bitmask(4);
    const int penalty = allocator.forceProgress(warp, 0);
    EXPECT_EQ(penalty, config.globalLatency);
    EXPECT_EQ(allocator.emergencyCount(), 1u);
    EXPECT_TRUE(warp.physMapped.test(0));
    // The granted instruction can now issue even if the pool is dry.
    EXPECT_TRUE(allocator.canIssue(warp, 0));
}

} // namespace
} // namespace rm
