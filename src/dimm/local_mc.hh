/**
 * @file
 * The Local Memory Controller of Fig. 6: accepts NMP-core requests
 * into a transaction buffer, decodes the target DIMM id, arbitrates
 * between the Local DDR Interface (rank-parallel DRAM controllers)
 * and the DL-Interface (the IDC fabric), and reorders completions
 * back to the cores via callbacks.
 */

#ifndef DIMMLINK_DIMM_LOCAL_MC_HH
#define DIMMLINK_DIMM_LOCAL_MC_HH

#include <deque>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "dram/address_map.hh"
#include "dram/dram_controller.hh"
#include "idc/fabric.hh"
#include "sim/event_callback.hh"
#include "sim/event_queue.hh"
#include "sim/record_pool.hh"

namespace dimmlink {

class LocalMc
{
  public:
    /** @p fabric: the IDC fabric behind the DL-Interface. */
    LocalMc(EventQueue &eq, const std::string &name, DimmId self,
            const SystemConfig &cfg, const dram::Timing &timing,
            const dram::GlobalAddressMap &gmap, idc::Fabric &fabric,
            stats::Registry &reg);

    /**
     * Core-side access path: global address, any length. Splits into
     * cache lines, routes local lines to the rank controllers and
     * remote spans to the fabric; @p done fires when all complete.
     */
    void access(Addr global, std::uint32_t bytes, bool is_write,
                EventCallback done);

    /**
     * Fabric-side path: a remote DIMM's request arrived here and
     * needs @p bytes of local DRAM access at DIMM-local @p local.
     */
    void remoteAccess(Addr local, std::uint32_t bytes, bool is_write,
                      EventCallback done);

    /** Posted write (cache victim writeback): no completion needed. */
    void postedWrite(Addr global, std::uint32_t bytes);

    /** Explicit broadcast of @p bytes at @p global to every other
     * DIMM through the fabric; @p done fires when all have it. */
    void broadcast(Addr global, std::uint64_t bytes, EventCallback done);

    DimmId id() const { return self; }
    bool idle() const;

    /** Stats accessors used by the metric collectors. */
    double localBytes() const { return statLocalBytes.value(); }
    double remoteBytes() const { return statRemoteBytes.value(); }

  private:
    struct PendingLine
    {
        Addr local;
        bool isWrite;
        EventCallback done; ///< SBO; matches DramRequest::done.
    };

    /** Split a DIMM-local span into line accesses on the rank
     * controllers; @p done fires when the last line completes. A
     * zero-byte span touches no DRAM: @p done fires at now(). */
    void dramAccess(Addr local, std::uint32_t bytes, bool is_write,
                    EventCallback done);

    void enqueueLine(Addr line_addr, bool is_write,
                     EventCallback done);
    void drainPending();

    unsigned rankOf(Addr local) const;
    Addr ctrlAddr(Addr local) const;

    EventQueue &eventq;
    DimmId self;
    const SystemConfig &cfg;
    const dram::GlobalAddressMap &gmap;
    unsigned lineBytes;
    idc::Fabric &fabric;

    /** One single-rank controller per physical rank: the NMP cores
     * exploit rank-level parallelism (Table V). */
    std::vector<std::unique_ptr<dram::DramController>> rankCtrl;

    /** The transaction buffer (Fig. 6, component 1). */
    std::deque<PendingLine> pending;
    /** Multi-line accesses waiting for their last line. */
    CountdownPool countdowns;

    stats::Scalar &statLocalReads;
    stats::Scalar &statLocalWrites;
    stats::Scalar &statRemoteReads;
    stats::Scalar &statRemoteWrites;
    stats::Scalar &statLocalBytes;
    stats::Scalar &statRemoteBytes;
};

} // namespace dimmlink

#endif // DIMMLINK_DIMM_LOCAL_MC_HH
