#include "baselines/rfv.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "common/errors.hh"
#include "sim/occupancy.hh"
#include "sim/snapshot.hh"
#include "sim/warp_store.hh"

namespace rm {

void
RfvAllocator::prepare(const GpuConfig &config, const Program &program)
{
    freed = false;
    spills = 0;
    prog = &program;
    spillPenalty = config.globalLatency;
    totalPacks = config.registersPerSm / config.warpSize;
    physFree = totalPacks;
    drained = 0;

    // Compiler-side dead-register information: a register referenced at
    // pc and absent from live-out dies when pc issues.
    const Cfg cfg = Cfg::build(program);
    const Liveness liveness = Liveness::compute(program, cfg);
    deaths.assign(program.code.size(), {});
    for (std::size_t i = 0; i < program.code.size(); ++i) {
        const Instruction &inst = program.code[i];
        const int idx = static_cast<int>(i);
        auto dies = [&](RegId r) {
            return !liveness.isLiveOut(idx, r);
        };
        if (inst.hasDst() && dies(inst.dst))
            deaths[i].push_back(inst.dst);
        for (int s = 0; s < inst.numSrcs; ++s) {
            const RegId r = inst.srcs[s];
            if (dies(r) &&
                std::find(deaths[i].begin(), deaths[i].end(), r) ==
                    deaths[i].end()) {
                deaths[i].push_back(r);
            }
        }
    }

    // Word-level fast-path tables (see rfv.hh): valid only when every
    // register id fits bit position 0..63.
    opMaskByPc.clear();
    opCountByPc.clear();
    deathMaskByPc.clear();
    bool fits = true;
    for (std::size_t i = 0; i < program.code.size() && fits; ++i) {
        const Instruction &inst = program.code[i];
        std::uint64_t ops = 0;
        const auto add = [&fits](std::uint64_t &mask, RegId r) {
            if (r < 0 || r >= 64) {
                fits = false;
                return;
            }
            mask |= std::uint64_t{1} << r;
        };
        if (inst.hasDst())
            add(ops, inst.dst);
        for (int s = 0; s < inst.numSrcs; ++s)
            add(ops, inst.srcs[s]);
        std::uint64_t dead = 0;
        for (RegId r : deaths[i])
            add(dead, r);
        opMaskByPc.push_back(ops);
        opCountByPc.push_back(static_cast<std::uint8_t>(
            __builtin_popcountll(ops)));
        deathMaskByPc.push_back(dead);
    }
    if (!fits) {
        opMaskByPc.clear();
        opCountByPc.clear();
        deathMaskByPc.clear();
    }

    // Provision occupancy between the static-average and peak live
    // counts: most registers are dead most of the time (paper Sec. II),
    // so more CTAs fit than the static allocation admits.
    const std::vector<int> counts = liveness.liveCounts();
    double avg = 0.0;
    int peak = 1;
    for (int c : counts) {
        avg += c;
        peak = std::max(peak, c);
    }
    avg = counts.empty() ? 1.0 : avg / static_cast<double>(counts.size());
    estDemand = std::max(
        2, static_cast<int>(std::ceil(avg + provisioning * (peak - avg))));

    const Occupancy occ =
        computeOccupancy(config, estDemand, program.info.ctaThreads,
                         program.info.sharedBytesPerCta);
    maxCtas = occ.ctasPerSm;
    fatalIf<KernelDoesNotFitError>(
        maxCtas <= 0, "RfvAllocator: kernel '", program.info.name,
        "' does not fit under the provisioned demand");
}

void
RfvAllocator::onWarpLaunch(SimWarp &warp)
{
    warp.physMapped.clearAll();
}

int
RfvAllocator::packsNeeded(const SimWarp &warp,
                          const Instruction &inst) const
{
    int need = 0;
    auto count = [&](RegId r) {
        if (!warp.physMapped.test(r))
            ++need;
    };
    // Sources first (reading an as-yet-unmapped register allocates the
    // zero-initialized pack); skip duplicates against the destination.
    for (int s = 0; s < inst.numSrcs; ++s)
        count(inst.srcs[s]);
    if (inst.hasDst() && !warp.physMapped.test(inst.dst)) {
        bool dup = false;
        for (int s = 0; s < inst.numSrcs; ++s)
            dup |= inst.srcs[s] == inst.dst;
        if (!dup)
            ++need;
    }
    // Duplicate sources would be double counted; correct for them.
    if (inst.numSrcs >= 2 && inst.srcs[0] == inst.srcs[1] &&
        !warp.physMapped.test(inst.srcs[0])) {
        --need;
    }
    if (inst.numSrcs == 3 &&
        (inst.srcs[2] == inst.srcs[0] || inst.srcs[2] == inst.srcs[1]) &&
        !warp.physMapped.test(inst.srcs[2])) {
        --need;
    }
    return need;
}

bool
RfvAllocator::canIssue(const SimWarp &warp, const Instruction &inst) const
{
    // Called once per Ready candidate per scheduler cycle. The engine
    // always passes &prog->code[pc], so the pc — and with it the
    // precomputed operand mask — is recoverable from the instruction's
    // address; out-of-program instructions (unit tests) miss the bounds
    // check and take the general paths below.
    if (!opMaskByPc.empty()) {
        const std::ptrdiff_t pc = &inst - prog->code.data();
        if (pc >= 0 &&
            pc < static_cast<std::ptrdiff_t>(opMaskByPc.size())) {
            const auto upc = static_cast<std::size_t>(pc);
            // need never exceeds the distinct operand count, so a pool
            // with that much headroom admits without loading the
            // warp's (cold) mapping word.
            if (physFree >= opCountByPc[upc])
                return true;
            const int need = __builtin_popcountll(
                opMaskByPc[upc] & ~warp.physMapped.word(0));
            return need == 0 || need <= physFree;
        }
    }
    // "Distinct unmapped operands" as one popcount — identical to
    // packsNeeded()'s dedup arithmetic.
    if (warp.physMapped.size() <= 64) {
        std::uint64_t operands = 0;
        if (inst.hasDst())
            operands |= std::uint64_t{1} << inst.dst;
        for (int s = 0; s < inst.numSrcs; ++s)
            operands |= std::uint64_t{1} << inst.srcs[s];
        const int need = __builtin_popcountll(
            operands & ~warp.physMapped.word(0));
        return need == 0 || need <= physFree;
    }
    const int need = packsNeeded(warp, inst);
    // need == 0 must always pass: an emergency overdraft can leave the
    // pool negative while fully mapped warps keep running.
    return need == 0 || need <= physFree;
}

void
RfvAllocator::mapOperands(SimWarp &warp, const Instruction &inst)
{
    auto map = [&](RegId r) {
        if (!warp.physMapped.test(r)) {
            warp.physMapped.set(r);
            --physFree;
        }
    };
    for (int s = 0; s < inst.numSrcs; ++s)
        map(inst.srcs[s]);
    if (inst.hasDst())
        map(inst.dst);
}

void
RfvAllocator::onIssued(SimWarp &warp, const Instruction &inst, int pc)
{
    // Word-level form of the walk below: map every unmapped operand,
    // then release the pc's death set (only its mapped members — the
    // same regs the per-bit test() guard would release).
    if (!opMaskByPc.empty()) {
        const auto upc = static_cast<std::size_t>(pc);
        const std::uint64_t mapped = warp.physMapped.word(0);
        const std::uint64_t added = opMaskByPc[upc] & ~mapped;
        if (added != 0) {
            warp.physMapped.setWordBits(0, added);
            physFree -= __builtin_popcountll(added);
        }
        const std::uint64_t dead = deathMaskByPc[upc] & (mapped | added);
        if (dead != 0) {
            warp.physMapped.clearWordBits(0, dead);
            physFree += __builtin_popcountll(dead);
            freed = true;
        }
        return;
    }
    mapOperands(warp, inst);
    // Release registers whose live range ends here (renaming-table
    // entry freed by the dead-register information).
    for (RegId r : deaths[pc]) {
        if (warp.physMapped.test(r)) {
            warp.physMapped.unset(r);
            ++physFree;
            freed = true;
        }
    }
}

void
RfvAllocator::onWarpExit(SimWarp &warp)
{
    const int held = static_cast<int>(warp.physMapped.count());
    if (held > 0) {
        physFree += held;
        warp.physMapped.clearAll();
        freed = true;
    }
}

bool
RfvAllocator::consumeFreedFlag()
{
    const bool f = freed;
    freed = false;
    return f;
}

int
RfvAllocator::forceProgress(SimWarp &warp, int pc)
{
    // Emergency spill: grant the stalled instruction's operands by
    // overdrafting the pool — the displaced values are modeled as
    // spilled to memory — and charge a global-memory round trip. The
    // pool may go negative until register deaths repay the overdraft.
    panicIf(prog == nullptr, "RfvAllocator::forceProgress before prepare");
    ++spills;
    mapOperands(warp, prog->code[pc]);
    return spillPenalty;
}

bool
RfvAllocator::faultCorruptState()
{
    if (prog == nullptr)
        return false;
    // Inflate the free pool without a matching unmap: breaks the
    // physFree + mapped + drained == totalPacks conservation law.
    physFree += 7;
    return true;
}

void
RfvAllocator::saveState(SnapshotWriter &w) const
{
    // deaths/estDemand/maxCtas are pure functions of the program and
    // config, recomputed by prepare(); only pool state is serialized.
    w.i32(physFree);
    w.i32(drained);
    w.boolean(freed);
    w.u64(spills);
}

void
RfvAllocator::restoreState(SnapshotReader &r)
{
    physFree = r.i32();
    drained = r.i32();
    freed = r.boolean();
    spills = r.u64();
}

void
RfvAllocator::auditInvariants(const WarpStore &warps,
                              bool faults_active,
                              std::vector<std::string> &violations) const
{
    if (prog == nullptr)
        return;

    const auto fail = [&](const std::string &line) {
        violations.push_back("rfv: " + line);
    };

    // Conservation: free + mapped + fault-drained packs always sum to
    // the pool capacity. Emergency overdrafts keep the sum exact (the
    // pool goes negative by precisely the packs granted), so this holds
    // under faults and spills alike — never gated.
    int mapped = 0;
    for (int slot = 0; slot < warps.numSlots(); ++slot) {
        if (warps.resident(slot))
            mapped +=
                static_cast<int>(warps.warp(slot).physMapped.count());
    }
    if (physFree + mapped + drained != totalPacks) {
        std::ostringstream os;
        os << "pool conservation: " << physFree << " free + " << mapped
           << " mapped + " << drained << " drained != capacity "
           << totalPacks;
        fail(os.str());
    }

    // Liveness: a warp parked on the pool must actually be unable to
    // issue its current instruction.
    if (!faults_active) {
        for (int slot = 0; slot < warps.numSlots(); ++slot) {
            if (!warps.resident(slot) ||
                warps.state(slot) != WarpState::WaitResource)
                continue;
            const int pc = warps.pc(slot);
            if (pc < 0 || pc >= static_cast<int>(prog->code.size()))
                continue;
            if (canIssue(warps.warp(slot), prog->code[pc])) {
                fail("warp " + std::to_string(slot) +
                     " waits on the pool but its instruction at pc " +
                     std::to_string(pc) + " can issue");
            }
        }
    }
}

} // namespace rm
