/** @file Tests for the built-in name tables (workloads, DRAM presets,
 * fault models), the DRAM schedulers, and the construction of each
 * closed choice: topologies and fabrics. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/stats_json.hh"
#include "dram/address_map.hh"
#include "dram/dram_controller.hh"
#include "dram/timing.hh"
#include "fault/fault_model.hh"
#include "idc/fabric.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"
#include "workloads/workload.hh"

namespace dimmlink {

namespace {

// ---- the built-in name tables are populated ----------------------------

TEST(Registries, BuiltInImplementationsAreRegistered)
{
    const std::vector<std::string> wls = workloads::knownWorkloads();
    EXPECT_EQ(wls, (std::vector<std::string>{
                       "bfs", "embed", "gups", "hotspot", "kmeans",
                       "kv", "nw", "pagerank", "spmv", "sssp",
                       "stream", "syncbench", "tspow"}));

    EXPECT_EQ(dram::Timing::presets(),
              (std::vector<std::string>{
                  "DDR4_2400", "DDR4_3200", "DDR5_4800", "DDR5_6400",
                  "HBM2_2000", "LPDDR5X_8533"}));

    FaultConfig faults;
    for (const char *m : {"ber", "degrade", "stuck"}) {
        faults.model = m;
        EXPECT_NE(fault::makeModel(faults, 1), nullptr) << m;
    }
    faults.model = "none";
    EXPECT_EQ(fault::makeModel(faults, 1), nullptr);
}

TEST(RegistriesDeathTest, UnknownTopologyListsAlternatives)
{
    EXPECT_EXIT(noc::TopologyGraph(static_cast<Topology>(99), 4),
                ::testing::ExitedWithCode(1),
                "unknown NoC topology");
}

// ---- DRAM scheduling policies -----------------------------------------

namespace {

/** Drive one single-rank controller and record completion order. */
class SchedFixture
{
  public:
    explicit SchedFixture(const std::string &policy)
        : timing(dram::Timing::preset("DDR4_2400")),
          map(timing, 1, 64),
          ctrl(eq, "ctl", timing, 1, 64, reg.group("ctl"), policy)
    {}

    /** Find an address on bank 0 with the given row (column 0/1). */
    Addr
    addrAt(unsigned row, unsigned column)
    {
        for (Addr a = 0; a < (Addr{1} << 34); a += 64) {
            const dram::DramCoord c = map.decode(a);
            if (c.rank == 0 && c.bankGroup == 0 && c.bank == 0 &&
                c.row == row && c.column == column)
                return a;
        }
        ADD_FAILURE() << "no address with row " << row;
        return 0;
    }

    void
    read(Addr a, char tag)
    {
        dram::DramRequest req;
        req.local = a;
        req.done = [this, tag] { order.push_back(tag); };
        ASSERT_TRUE(ctrl.enqueue(std::move(req)));
    }

    EventQueue eq;
    stats::Registry reg;
    dram::Timing timing;
    dram::LocalAddressMap map;
    dram::DramController ctrl;
    std::string order;
};

} // namespace

TEST(SchedPolicy, FrFcfsServesReadyRowHitFirst)
{
    SchedFixture f("FRFCFS");
    f.read(f.addrAt(0, 0), 'A'); // opens row 0
    f.read(f.addrAt(1, 0), 'B'); // row conflict
    f.read(f.addrAt(0, 1), 'C'); // hit on the row A opened
    f.eq.runUntil(f.eq.now() + 2 * tickPerUs);
    EXPECT_EQ(f.order, "ACB");
}

TEST(SchedPolicy, FcfsServesStrictlyInOrder)
{
    SchedFixture f("FCFS");
    f.read(f.addrAt(0, 0), 'A');
    f.read(f.addrAt(1, 0), 'B');
    f.read(f.addrAt(0, 1), 'C');
    f.eq.runUntil(f.eq.now() + 2 * tickPerUs);
    EXPECT_EQ(f.order, "ABC");
}

TEST(SchedPolicyDeathTest, UnknownPolicyListsRegistered)
{
    EventQueue eq;
    stats::Registry reg;
    const dram::Timing t = dram::Timing::preset("DDR4_2400");
    EXPECT_EXIT(dram::DramController(eq, "ctl", t, 1, 64,
                                     reg.group("ctl"), "LIFO"),
                ::testing::ExitedWithCode(1),
                "unknown DRAM scheduling policy 'LIFO' "
                "\\(valid: FCFS, FRFCFS\\)");
}

// ---- makeFabric builds each IDC method's fabric ------------------------

namespace {

/** Build cfg.idcMethod's fabric, drive a fixed transaction mix, and
 * return the fabric's name and the stats dump. */
std::pair<std::string, std::string>
driveFabric(const SystemConfig &cfg)
{
    EventQueue eq;
    stats::Registry reg;
    std::vector<std::unique_ptr<host::Channel>> channels;
    std::vector<host::Channel *> ptrs;
    for (unsigned c = 0; c < cfg.numChannels; ++c) {
        const std::string n = "host.channel" + std::to_string(c);
        channels.push_back(std::make_unique<host::Channel>(
            eq, n, cfg.host.channelGBps, reg.group(n)));
        ptrs.push_back(channels.back().get());
    }

    const std::unique_ptr<idc::Fabric> fabric =
        idc::makeFabric(eq, cfg, ptrs, reg);
    fabric->setMemAccess([&eq](DimmId, Addr, std::uint32_t, bool,
                               EventCallback done) {
        eq.scheduleIn(60 * tickPerNs, std::move(done));
    });
    fabric->enterNmpMode();

    unsigned outstanding = 0;
    auto submit = [&](idc::Transaction::Type type, DimmId src,
                      DimmId dst, std::uint32_t bytes) {
        idc::Transaction t;
        t.type = type;
        t.src = src;
        t.dst = dst;
        t.bytes = bytes;
        t.onComplete = [&outstanding] { --outstanding; };
        ++outstanding;
        fabric->submit(std::move(t));
    };

    submit(idc::Transaction::Type::RemoteRead, 0, 1, 256);
    submit(idc::Transaction::Type::RemoteWrite, 3, 0, 4096);
    submit(idc::Transaction::Type::SyncMessage, 2, 1, 8);
    submit(idc::Transaction::Type::Broadcast, 1, 0, 1024);
    while (outstanding > 0 && eq.step()) {
    }
    EXPECT_EQ(outstanding, 0u);
    fabric->exitNmpMode();

    std::ostringstream os;
    stats::dumpJson(reg, os, true);
    return {fabric->name(), os.str()};
}

} // namespace

TEST(Registries, FabricsMatchDirectConstructionByteForByte)
{
    const std::pair<IdcMethod, const char *> fabrics[] = {
        {IdcMethod::CpuForwarding, "fabric.mcn"},
        {IdcMethod::DedicatedBus, "fabric.aim"},
        {IdcMethod::ChannelBroadcast, "fabric.abc"},
        {IdcMethod::DimmLink, "fabric.dl"},
    };
    for (const auto &[m, name] : fabrics) {
        SystemConfig cfg = SystemConfig::preset("4D-2C");
        cfg.idcMethod = m;
        const auto [built, dump] = driveFabric(cfg);
        EXPECT_EQ(built, name) << "fabric " << toString(m);
        EXPECT_NE(dump.find("\"transactions\": 4"), std::string::npos)
            << "fabric " << toString(m);
    }
}

} // namespace
} // namespace dimmlink
