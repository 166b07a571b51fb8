#include "workloads/suite.hh"

#include <fstream>
#include <iostream>
#include <sstream>

#include "common/errors.hh"
#include "isa/asm_parser.hh"

namespace rm {

namespace {

std::vector<WorkloadEntry>
makeSuite()
{
    std::vector<WorkloadEntry> suite;

    // ---- Occupancy-limited set (Fig. 7 / 9a / 10 / 11): register-
    // limited on the full GTX480 register file. ----

    {
        // BFS: memory-bound level traversal, divergent, barrier per
        // level. 21 (24) regs, |Bs| = 18.
        WorkloadEntry e;
        e.paperRegs = 21;
        e.paperBs = 18;
        e.occupancyLimited = true;
        e.spec.name = "BFS";
        e.spec.regs = 21;
        e.spec.ctaThreads = 512;
        e.spec.gridCtasPerSm = 9;
        e.spec.sharedBytes = 2048;
        e.spec.persistent = 6;
        e.spec.seed = 101;
        e.spec.phases = {
            {.trips = 6, .peak = 14, .loads = 4, .memTrips = 4,
             .aluPerTemp = 0, .divergent = true, .barrierAfter = true,
             .barrierLive = 10},
            {.trips = 8, .peak = 21, .loads = 5, .memTrips = 4,
             .aluPerTemp = 1, .divergent = true},
        };
        suite.push_back(e);
    }
    {
        // CUTCP: compute-bound short-range potential, SFU heavy.
        // 25 (28) regs, |Bs| = 20.
        WorkloadEntry e;
        e.paperRegs = 25;
        e.paperBs = 20;
        e.occupancyLimited = true;
        e.spec.name = "CUTCP";
        e.spec.regs = 25;
        e.spec.ctaThreads = 192;
        e.spec.gridCtasPerSm = 12;
        e.spec.sharedBytes = 0;
        e.spec.persistent = 7;
        e.spec.seed = 102;
        e.spec.phases = {
            {.trips = 10, .peak = 25, .loads = 2, .memTrips = 1,
             .aluPerTemp = 2, .useSfu = true},
            {.trips = 6, .peak = 18, .loads = 2, .memTrips = 1,
             .aluPerTemp = 2, .useSfu = true},
        };
        suite.push_back(e);
    }
    {
        // DWT2D: wavelet transform, wide bursts, barrier between
        // passes with a large live set. 44 (44) regs, |Bs| = 38.
        WorkloadEntry e;
        e.paperRegs = 44;
        e.paperBs = 38;
        e.occupancyLimited = true;
        e.spec.name = "DWT2D";
        e.spec.regs = 44;
        e.spec.ctaThreads = 416;
        e.spec.gridCtasPerSm = 6;
        e.spec.sharedBytes = 2048;
        e.spec.persistent = 8;
        e.spec.seed = 103;
        e.spec.phases = {
            {.trips = 5, .peak = 30, .loads = 3, .memTrips = 3,
             .aluPerTemp = 1, .barrierAfter = true, .barrierLive = 33},
            {.trips = 7, .peak = 44, .loads = 4, .memTrips = 3,
             .aluPerTemp = 1},
        };
        suite.push_back(e);
    }
    {
        // HotSpot3D: stencil sweeps with a barrier between time steps.
        // 32 (32) regs, |Bs| = 24.
        WorkloadEntry e;
        e.paperRegs = 32;
        e.paperBs = 24;
        e.occupancyLimited = true;
        e.spec.name = "HotSpot3D";
        e.spec.regs = 32;
        e.spec.ctaThreads = 448;
        e.spec.gridCtasPerSm = 6;
        e.spec.sharedBytes = 4096;
        e.spec.persistent = 7;
        e.spec.seed = 104;
        e.spec.phases = {
            {.trips = 8, .peak = 32, .loads = 4, .memTrips = 4,
             .aluPerTemp = 1, .barrierAfter = true, .barrierLive = 14},
            {.trips = 8, .peak = 26, .loads = 4, .memTrips = 4,
             .aluPerTemp = 1},
        };
        suite.push_back(e);
    }
    {
        // MRI-Q: compute-dominated Q matrix, SFU trigonometry.
        // 21 (24) regs, |Bs| = 18.
        WorkloadEntry e;
        e.paperRegs = 21;
        e.paperBs = 18;
        e.occupancyLimited = true;
        e.spec.name = "MRI-Q";
        e.spec.regs = 21;
        e.spec.ctaThreads = 512;
        e.spec.gridCtasPerSm = 9;
        e.spec.sharedBytes = 0;
        e.spec.persistent = 6;
        e.spec.seed = 105;
        e.spec.phases = {
            {.trips = 12, .peak = 21, .loads = 1, .memTrips = 1,
             .aluPerTemp = 3, .useSfu = true},
        };
        suite.push_back(e);
    }
    {
        // ParticleFilter: resampling with divergent weights.
        // 32 (32) regs, |Bs| = 20.
        WorkloadEntry e;
        e.paperRegs = 32;
        e.paperBs = 20;
        e.occupancyLimited = true;
        e.spec.name = "ParticleFilter";
        e.spec.regs = 32;
        e.spec.ctaThreads = 512;
        e.spec.gridCtasPerSm = 9;
        e.spec.sharedBytes = 2048;
        e.spec.persistent = 8;
        e.spec.seed = 106;
        e.spec.phases = {
            {.trips = 4, .peak = 20, .loads = 3, .memTrips = 3,
             .divergent = true, .barrierAfter = true, .barrierLive = 12},
            {.trips = 8, .peak = 32, .loads = 4, .memTrips = 4,
             .aluPerTemp = 1, .divergent = true},
        };
        suite.push_back(e);
    }
    {
        // RadixSort: multi-pass scan with high-live barriers.
        // 33 (36) regs, |Bs| = 30.
        WorkloadEntry e;
        e.paperRegs = 33;
        e.paperBs = 30;
        e.occupancyLimited = true;
        e.spec.name = "RadixSort";
        e.spec.regs = 33;
        e.spec.ctaThreads = 352;
        e.spec.gridCtasPerSm = 9;
        e.spec.sharedBytes = 4096;
        e.spec.persistent = 7;
        e.spec.seed = 107;
        e.spec.phases = {
            {.trips = 5, .peak = 28, .loads = 3, .memTrips = 4,
             .barrierAfter = true, .barrierLive = 25},
            {.trips = 5, .peak = 33, .loads = 4, .memTrips = 4,
             .barrierAfter = true, .barrierLive = 25},
            {.trips = 4, .peak = 20, .loads = 3, .memTrips = 3,
             .divergent = true},
        };
        suite.push_back(e);
    }
    {
        // SAD: load-dominated block matching. 30 (32) regs, |Bs| = 20.
        WorkloadEntry e;
        e.paperRegs = 30;
        e.paperBs = 20;
        e.occupancyLimited = true;
        e.spec.name = "SAD";
        e.spec.regs = 30;
        e.spec.ctaThreads = 512;
        e.spec.gridCtasPerSm = 9;
        e.spec.sharedBytes = 0;
        e.spec.persistent = 6;
        e.spec.seed = 108;
        e.spec.phases = {
            {.trips = 10, .peak = 30, .loads = 6, .memTrips = 5},
            {.trips = 3, .peak = 15, .loads = 3, .memTrips = 2},
        };
        suite.push_back(e);
    }

    // ---- Register-file-size-study set (Fig. 8 / 9b): register-
    // limited only on half the register file; Table I |Bs| computed
    // there. ----

    {
        // Gaussian: elimination steps, light register use.
        // 12 (12) regs, |Bs| = 8.
        WorkloadEntry e;
        e.paperRegs = 12;
        e.paperBs = 8;
        e.occupancyLimited = false;
        e.spec.name = "Gaussian";
        e.spec.regs = 12;
        e.spec.ctaThreads = 192;
        e.spec.gridCtasPerSm = 16;
        e.spec.sharedBytes = 0;
        e.spec.persistent = 3;
        e.spec.seed = 109;
        e.spec.phases = {
            {.trips = 10, .peak = 12, .loads = 1, .memTrips = 2,
             .aluPerTemp = 2},
            {.trips = 6, .peak = 9, .loads = 1, .memTrips = 1,
             .aluPerTemp = 2, .divergent = true},
        };
        suite.push_back(e);
    }
    {
        // HeartWall: tracking with shared-memory tiles and a barrier.
        // 28 (28) regs, |Bs| = 20.
        WorkloadEntry e;
        e.paperRegs = 28;
        e.paperBs = 20;
        e.occupancyLimited = false;
        e.spec.name = "HeartWall";
        e.spec.regs = 28;
        e.spec.ctaThreads = 256;
        e.spec.gridCtasPerSm = 8;
        e.spec.sharedBytes = 12288;
        e.spec.persistent = 7;
        e.spec.seed = 110;
        e.spec.phases = {
            {.trips = 6, .peak = 24, .loads = 3, .memTrips = 2,
             .aluPerTemp = 2, .barrierAfter = true, .barrierLive = 12},
            {.trips = 8, .peak = 28, .loads = 2, .memTrips = 2,
             .aluPerTemp = 3},
        };
        suite.push_back(e);
    }
    {
        // LavaMD: particle interactions in boxes. 37 (40) regs,
        // |Bs| = 28 in the paper; see EXPERIMENTS.md for the achieved
        // split on this resource model.
        WorkloadEntry e;
        e.paperRegs = 37;
        e.paperBs = 28;
        e.occupancyLimited = false;
        e.spec.name = "LavaMD";
        e.spec.regs = 37;
        e.spec.ctaThreads = 160;
        e.spec.gridCtasPerSm = 12;
        e.spec.sharedBytes = 12288;
        e.spec.persistent = 8;
        e.spec.seed = 111;
        e.spec.phases = {
            {.trips = 6, .peak = 37, .loads = 3, .memTrips = 1,
             .aluPerTemp = 3},
            {.trips = 5, .peak = 24, .loads = 2, .memTrips = 1,
             .aluPerTemp = 2},
        };
        suite.push_back(e);
    }
    {
        // MergeSort: merge passes with barriers. 15 (16) regs,
        // |Bs| = 12 — the paper's one no-gain pick.
        WorkloadEntry e;
        e.paperRegs = 15;
        e.paperBs = 12;
        e.occupancyLimited = false;
        e.spec.name = "MergeSort";
        e.spec.regs = 15;
        e.spec.ctaThreads = 384;
        e.spec.gridCtasPerSm = 12;
        e.spec.sharedBytes = 2048;
        e.spec.persistent = 5;
        e.spec.seed = 112;
        e.spec.phases = {
            {.trips = 8, .peak = 15, .loads = 3, .memTrips = 2,
             .aluPerTemp = 1, .barrierAfter = true, .barrierLive = 12},
            {.trips = 8, .peak = 13, .loads = 2, .memTrips = 2,
             .aluPerTemp = 1, .divergent = true},
        };
        suite.push_back(e);
    }
    {
        // MonteCarlo: RNG-heavy paths, barrier at reduction.
        // 13 (16) regs, |Bs| = 12.
        WorkloadEntry e;
        e.paperRegs = 13;
        e.paperBs = 12;
        e.occupancyLimited = false;
        e.spec.name = "MonteCarlo";
        e.spec.regs = 13;
        e.spec.ctaThreads = 384;
        e.spec.gridCtasPerSm = 12;
        e.spec.sharedBytes = 1024;
        e.spec.persistent = 4;
        e.spec.seed = 113;
        e.spec.phases = {
            {.trips = 10, .peak = 13, .loads = 2, .memTrips = 1,
             .aluPerTemp = 3, .useSfu = true, .barrierAfter = true,
             .barrierLive = 12},
            {.trips = 5, .peak = 10, .loads = 1, .memTrips = 1,
             .aluPerTemp = 2, .divergent = true},
        };
        suite.push_back(e);
    }
    {
        // SPMV: irregular gathers. 16 (16) regs, |Bs| = 12.
        WorkloadEntry e;
        e.paperRegs = 16;
        e.paperBs = 12;
        e.occupancyLimited = false;
        e.spec.name = "SPMV";
        e.spec.regs = 16;
        e.spec.ctaThreads = 384;
        e.spec.gridCtasPerSm = 12;
        e.spec.sharedBytes = 2048;
        e.spec.persistent = 5;
        e.spec.seed = 114;
        e.spec.phases = {
            {.trips = 10, .peak = 16, .loads = 3, .memTrips = 3,
             .aluPerTemp = 1, .barrierAfter = true, .barrierLive = 12},
            {.trips = 4, .peak = 12, .loads = 2, .memTrips = 2,
             .aluPerTemp = 1, .divergent = true},
        };
        suite.push_back(e);
    }
    {
        // SRAD: diffusion stencil with divergence. 18 (20) regs,
        // |Bs| = 12.
        WorkloadEntry e;
        e.paperRegs = 18;
        e.paperBs = 12;
        e.occupancyLimited = false;
        e.spec.name = "SRAD";
        e.spec.regs = 18;
        e.spec.ctaThreads = 256;
        e.spec.gridCtasPerSm = 12;
        e.spec.sharedBytes = 2048;
        e.spec.persistent = 5;
        e.spec.seed = 115;
        e.spec.phases = {
            {.trips = 8, .peak = 18, .loads = 2, .memTrips = 2,
             .aluPerTemp = 2, .divergent = true},
            {.trips = 6, .peak = 14, .loads = 2, .memTrips = 2,
             .aluPerTemp = 1},
        };
        suite.push_back(e);
    }
    {
        // TPACF: histogram correlation, compute heavy with a barrier.
        // 28 (28) regs, |Bs| = 20.
        WorkloadEntry e;
        e.paperRegs = 28;
        e.paperBs = 20;
        e.occupancyLimited = false;
        e.spec.name = "TPACF";
        e.spec.regs = 28;
        e.spec.ctaThreads = 256;
        e.spec.gridCtasPerSm = 8;
        e.spec.sharedBytes = 12288;
        e.spec.persistent = 7;
        e.spec.seed = 116;
        e.spec.phases = {
            {.trips = 12, .peak = 28, .loads = 2, .memTrips = 1,
             .aluPerTemp = 4, .barrierAfter = true, .barrierLive = 12},
            {.trips = 6, .peak = 20, .loads = 2, .memTrips = 1,
             .aluPerTemp = 2, .divergent = true},
        };
        suite.push_back(e);
    }

    return suite;
}

} // namespace

const std::vector<WorkloadEntry> &
paperSuite()
{
    static const std::vector<WorkloadEntry> suite = makeSuite();
    return suite;
}

const WorkloadEntry &
workload(const std::string &name)
{
    for (const auto &entry : paperSuite()) {
        if (entry.spec.name == name)
            return entry;
    }
    fatal<UsageError>("workload: unknown workload '", name, "'");
}

Program
buildWorkload(const std::string &name)
{
    return buildKernel(workload(name).spec);
}

Program
loadProgram(const std::string &target)
{
    std::ostringstream text;
    if (target == "-") {
        text << std::cin.rdbuf();
    } else if (target.ends_with(".asm")) {
        std::ifstream file(target);
        fatalIf(!file, "cannot open ", target);
        text << file.rdbuf();
    } else {
        return buildWorkload(target);
    }
    return parseProgram(text.str());
}

std::vector<std::string>
occupancyLimitedSet()
{
    std::vector<std::string> names;
    for (const auto &entry : paperSuite()) {
        if (entry.occupancyLimited)
            names.push_back(entry.spec.name);
    }
    return names;
}

std::vector<std::string>
halfRfSet()
{
    std::vector<std::string> names;
    for (const auto &entry : paperSuite()) {
        if (!entry.occupancyLimited)
            names.push_back(entry.spec.name);
    }
    return names;
}

} // namespace rm
