#include "runner.h"

namespace mgx::sim {

std::vector<protection::Scheme>
allSchemes()
{
    using protection::Scheme;
    return {Scheme::NP, Scheme::MGX, Scheme::MGX_VN, Scheme::MGX_MAC,
            Scheme::BP};
}

std::vector<protection::Scheme>
trafficSchemes()
{
    using protection::Scheme;
    return {Scheme::NP, Scheme::MGX, Scheme::BP};
}

Platform
cloudPlatform()
{
    return {"Cloud", 700.0, dram::ddr4_2400(4)};
}

Platform
edgePlatform()
{
    return {"Edge", 900.0, dram::ddr4_2400(1)};
}

Platform
graphPlatform()
{
    return {"Graph", 800.0, dram::ddr4_2400(4)};
}

Platform
genomePlatform()
{
    return {"Genome", 800.0, dram::ddr4_2400(4)};
}

} // namespace mgx::sim
