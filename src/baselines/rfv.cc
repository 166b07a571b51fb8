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
    regWords = (program.info.numRegs + 63) / 64;
    const std::size_t words = static_cast<std::size_t>(regWords);
    opMaskByPc.assign(program.code.size() * words, 0);
    opCountByPc.assign(program.code.size(), 0);
    deathMaskByPc.assign(program.code.size() * words, 0);
    for (std::size_t i = 0; i < program.code.size(); ++i) {
        const Instruction &inst = program.code[i];
        std::uint64_t *ops = &opMaskByPc[i * words];
        std::uint64_t *dead = &deathMaskByPc[i * words];
        const auto add = [&](RegId r) {
            panicIf(r >= program.info.numRegs, "RfvAllocator: operand r",
                    r, " at pc ", i, " beyond ", program.info.numRegs,
                    " registers");
            const std::uint64_t bit = std::uint64_t{1} << (r & 63);
            ops[r >> 6] |= bit;
            if (!liveness.isLiveOut(static_cast<int>(i), r))
                dead[r >> 6] |= bit;
        };
        if (inst.hasDst())
            add(inst.dst);
        for (int s = 0; s < inst.numSrcs; ++s)
            add(inst.srcs[s]);
        int count = 0;
        for (std::size_t w = 0; w < words; ++w)
            count += __builtin_popcountll(ops[w]);
        opCountByPc[i] = static_cast<std::uint8_t>(count);
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

bool
RfvAllocator::canIssue(const SimWarp &warp, int pc) const
{
    // Called once per Ready candidate per scheduler cycle. need never
    // exceeds the distinct operand count, so a pool with that much
    // headroom admits without loading the warp's (cold) mapping.
    const auto upc = static_cast<std::size_t>(pc);
    if (physFree >= opCountByPc[upc])
        return true;
    const std::uint64_t *ops =
        &opMaskByPc[upc * static_cast<std::size_t>(regWords)];
    int need = 0;
    for (int w = 0; w < regWords; ++w) {
        need += __builtin_popcountll(
            ops[w] & ~warp.physMapped.word(static_cast<std::size_t>(w)));
    }
    // need == 0 must always pass: an emergency overdraft can leave the
    // pool negative while fully mapped warps keep running.
    return need == 0 || need <= physFree;
}

std::uint64_t
RfvAllocator::mapOperandWord(SimWarp &warp, std::size_t pc, int w)
{
    const auto word = static_cast<std::size_t>(w);
    const std::uint64_t added =
        opMaskByPc[pc * static_cast<std::size_t>(regWords) + word] &
        ~warp.physMapped.word(word);
    if (added != 0) {
        warp.physMapped.setWordBits(word, added);
        physFree -= __builtin_popcountll(added);
    }
    return added;
}

void
RfvAllocator::onIssued(SimWarp &warp, const Instruction &inst, int pc)
{
    (void)inst;
    // Map every unmapped operand, then release the pc's death set —
    // registers whose live range ends here (renaming-table entries
    // freed by the dead-register information), mapped ones only.
    const auto upc = static_cast<std::size_t>(pc);
    for (int w = 0; w < regWords; ++w) {
        const auto word = static_cast<std::size_t>(w);
        const std::uint64_t mapped = warp.physMapped.word(word);
        const std::uint64_t added = mapOperandWord(warp, upc, w);
        const std::uint64_t dead =
            deathMaskByPc[upc * static_cast<std::size_t>(regWords) +
                          word] &
            (mapped | added);
        if (dead != 0) {
            warp.physMapped.clearWordBits(word, dead);
            physFree += __builtin_popcountll(dead);
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
    for (int w = 0; w < regWords; ++w)
        mapOperandWord(warp, static_cast<std::size_t>(pc), w);
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
    // The per-pc masks, estDemand and maxCtas are pure functions of the program and
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
            if (canIssue(warps.warp(slot), pc)) {
                fail("warp " + std::to_string(slot) +
                     " waits on the pool but its instruction at pc " +
                     std::to_string(pc) + " can issue");
            }
        }
    }
}

} // namespace rm
