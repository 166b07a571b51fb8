#include "sim/config.hh"

#include <algorithm>
#include <string>

namespace rm {

GpuConfig
gtx480Config()
{
    return GpuConfig{};
}

GpuConfig
halfRegisterFile(GpuConfig config)
{
    config.registersPerSm /= 2;
    return config;
}

GpuConfig
keplerConfig()
{
    GpuConfig config;
    config.numSms = 15;
    config.registersPerSm = 65536;
    config.maxWarpsPerSm = 64;
    config.maxCtasPerSm = 16;
    config.maxThreadsPerSm = 2048;
    config.numSchedulers = 4;
    return config;
}

GpuConfig
maxwellConfig()
{
    GpuConfig config = keplerConfig();
    config.maxCtasPerSm = 32;
    config.sharedMemPerSm = 65536;
    return config;
}

GpuConfig
voltaConfig()
{
    GpuConfig config = maxwellConfig();
    config.sharedMemPerSm = 98304;
    return config;
}

const std::array<ArchEntry, 5> &
archTable()
{
    static const std::array<ArchEntry, 5> table{{
        {"GTX480", gtx480Config()},
        {"half-RF", halfRegisterFile(gtx480Config())},
        {"Kepler", keplerConfig()},
        {"Maxwell", maxwellConfig()},
        {"Volta", voltaConfig()},
    }};
    return table;
}

const ArchEntry &
findArch(std::string_view label)
{
    const auto lower = [](char c) {
        return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    };
    for (const ArchEntry &entry : archTable()) {
        if (std::ranges::equal(label, entry.label, {}, lower, lower))
            return entry;
    }
    std::string accepted;
    for (const ArchEntry &entry : archTable())
        accepted += (accepted.empty() ? "" : ", ") + std::string(entry.label);
    fatal<UnknownArchError>("unknown arch '", label, "' (expected one of ",
                            accepted, ")");
}

} // namespace rm
