/** @file Tests for the cluster halo-exchange stencil: degenerate
 *        single-chip behaviour, checked-mode cross-verification, exact
 *        cross-chip byte accounting, placement policies and per-seed
 *        determinism. */

#include <gtest/gtest.h>

#include "core/halo.hh"
#include "test_util.hh"

using namespace cellbw;

namespace
{

cell::CellConfig
clusterConfig(unsigned chips)
{
    cell::CellConfig cfg;
    cfg.numChips = chips;
    cfg.numSpes = 8 * chips;
    cfg.affinity = cell::AffinityPolicy::Linear;
    return cfg;
}

core::HaloConfig
smallHalo(core::TaskPlacement placement)
{
    core::HaloConfig hc;
    hc.slabBytes = 128 * util::KiB;
    hc.haloBytes = 4 * util::KiB;
    hc.steps = 2;
    hc.placement = placement;
    return hc;
}

std::uint64_t
totalLinkBytes(cell::CellSystem &sys)
{
    auto &links = sys.memory().links();
    std::uint64_t total = 0;
    for (unsigned l = 0; l < links.numLinks(); ++l) {
        total += links.link(l).bytesSent(mem::IoLink::Dir::Outbound);
        total += links.link(l).bytesSent(mem::IoLink::Dir::Inbound);
    }
    return total;
}

} // namespace

TEST(HaloExchange, SingleChipIsDegenerate)
{
    // With one chip both placement policies produce the same rank-to-SPE
    // map, the engine has a single partition that never posts a
    // crossing, and no byte ever touches a link.
    double gbps[2];
    int i = 0;
    for (auto p : {core::TaskPlacement::Locality,
                   core::TaskPlacement::RoundRobin}) {
        cell::CellSystem sys(clusterConfig(1), 42);
        EXPECT_EQ(sys.engine().partitions(), 1u);
        auto res = core::runClusterHalo(sys, smallHalo(p));
        EXPECT_EQ(sys.engine().messagesDelivered(), 0u);
        EXPECT_EQ(totalLinkBytes(sys), 0u);
        EXPECT_EQ(res.ranks, 2u);
        gbps[i++] = res.gbps;
    }
    ASSERT_GT(gbps[0], 0.0);
    EXPECT_EQ(gbps[0], gbps[1]);
}

TEST(HaloExchange, ByteAccountingAddsUp)
{
    cell::CellSystem sys(clusterConfig(2), 42);
    auto hc = smallHalo(core::TaskPlacement::Locality);
    auto res = core::runClusterHalo(sys, hc);
    // 2 chips x 2 ranks, 2 steps: each rank-step GETs two halos and
    // moves the interior twice (GET + PUT) plus the boundary PUT.
    const std::uint64_t rankSteps = 4ull * 2;
    EXPECT_EQ(res.haloBytes, rankSteps * 2 * hc.haloBytes);
    EXPECT_EQ(res.bulkBytes,
              rankSteps * (2 * (hc.slabBytes - 2 * hc.haloBytes) +
                           2 * hc.haloBytes));
    EXPECT_GT(res.seconds, 0.0);
    EXPECT_NEAR(res.gbps,
                (res.haloBytes + res.bulkBytes) / res.seconds / 1e9,
                1e-6 * res.gbps);
}

TEST(HaloExchange, OnlyHalosCrossUnderLocality)
{
    // Ring 0-1-2-3 over 2 chips: the two chip-boundary cuts (1<->2 and
    // 3<->0) each carry one halo GET per side per step — four halo
    // payloads cross the IOIF per step, and nothing else does.
    cell::CellSystem sys(clusterConfig(2), 42);
    auto hc = smallHalo(core::TaskPlacement::Locality);
    core::runClusterHalo(sys, hc);
    const std::uint64_t expected = 4ull * hc.haloBytes * hc.steps;
    EXPECT_EQ(totalLinkBytes(sys), expected);
    // The crossings split evenly between the lanes.
    auto &ioif = sys.memory().ioLink();
    EXPECT_EQ(ioif.bytesSent(mem::IoLink::Dir::Outbound), expected / 2);
    EXPECT_EQ(ioif.bytesSent(mem::IoLink::Dir::Inbound), expected / 2);
}

TEST(HaloExchange, RoundRobinPushesInteriorAcrossLinks)
{
    cell::CellSystem loc(clusterConfig(4), 42);
    auto res_loc =
        core::runClusterHalo(loc, smallHalo(core::TaskPlacement::Locality));
    cell::CellSystem rr(clusterConfig(4), 42);
    auto res_rr = core::runClusterHalo(
        rr, smallHalo(core::TaskPlacement::RoundRobin));

    // Chip-blind placement drags interior streams over the links and
    // pays for it in bandwidth.
    EXPECT_GT(totalLinkBytes(rr), totalLinkBytes(loc));
    EXPECT_GT(res_loc.gbps, res_rr.gbps);
}

TEST(HaloExchange, CheckedModeSeesNoDivergence)
{
    auto cfg = clusterConfig(2);
    cfg.verify = true;
    cell::CellSystem sys(cfg, 42);
    core::runClusterHalo(sys, smallHalo(core::TaskPlacement::Locality));
    EXPECT_GT(sys.verifyStats().bytesChecked, 0u);
    EXPECT_EQ(sys.verifyStats().divergences, 0u);
}

TEST(HaloExchange, DeterministicPerSeed)
{
    auto once = [] {
        cell::CellSystem sys(clusterConfig(2), 11);
        return core::runClusterHalo(
                   sys, smallHalo(core::TaskPlacement::RoundRobin))
            .gbps;
    };
    EXPECT_EQ(once(), once());
}

TEST(HaloExchange, RequiresLinearAffinityOverAllSlots)
{
    auto cfg = clusterConfig(2);
    cfg.affinity = cell::AffinityPolicy::Random;
    cell::CellSystem random(cfg, 1);
    EXPECT_THROW(core::runClusterHalo(
                     random, smallHalo(core::TaskPlacement::Locality)),
                 sim::FatalError);

    auto few = clusterConfig(2);
    few.numSpes = 8;    // not every slot active
    cell::CellSystem partial(few, 1);
    EXPECT_THROW(core::runClusterHalo(
                     partial, smallHalo(core::TaskPlacement::Locality)),
                 sim::FatalError);
}
