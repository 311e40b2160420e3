#include "sync/sync_manager.hh"

#include <algorithm>

#include "common/log.hh"

namespace dimmlink {

SyncManager::SyncManager(EventQueue &eq, const SystemConfig &cfg_,
                         idc::Fabric *fabric_, stats::Registry &reg)
    : eventq(eq),
      cfg(cfg_),
      fabric(fabric_),
      statEpisodes(reg.group("sync").scalar("episodes")),
      statMessages(reg.group("sync").scalar("messages")),
      statBarrierPs(reg.group("sync").distribution("barrierPs"))
{
    current = std::make_shared<Episode>();
}

DimmId
SyncManager::globalMaster() const
{
    return masterOf(0);
}

void
SyncManager::setParticipants(std::vector<DimmId> thread_home)
{
    threadHome = std::move(thread_home);
    threadsOn.clear();
    dimmsInGroup.clear();
    for (DimmId d : threadHome)
        ++threadsOn[d];
    activeDimms = static_cast<unsigned>(threadsOn.size());
    for (const auto &[d, n] : threadsOn) {
        (void)n;
        ++dimmsInGroup[cfg.groupOf(d)];
    }
    activeGroups = static_cast<unsigned>(dimmsInGroup.size());
    current = std::make_shared<Episode>();
}

void
SyncManager::sendSync(DimmId src, DimmId dst,
                      std::function<void()> done)
{
    if (src == dst) {
        eventq.scheduleIn(intraDimmSyncPs, std::move(done),
                          EventPriority::Control);
        return;
    }
    ++statMessages;

    // The source master core serializes on issuing the message.
    Tick &src_free = masterFreeAt[src];
    const Tick issue_at = std::max(eventq.now(), src_free);
    src_free = issue_at + masterProcPs;

    auto submit = [this, src, dst, done = std::move(done)]() mutable {
        idc::Transaction t;
        t.type = idc::Transaction::Type::SyncMessage;
        t.src = src;
        t.dst = dst;
        t.bytes = syncMsgBytes;
        // The destination master core serializes on processing it.
        t.onComplete = [this, dst, done = std::move(done)]() mutable {
            Tick &dst_free = masterFreeAt[dst];
            const Tick recv_at =
                std::max(eventq.now(), dst_free) + masterProcPs;
            dst_free = recv_at;
            eventq.schedule(recv_at, std::move(done),
                            EventPriority::Control);
        };
        fabric->submit(std::move(t));
    };
    eventq.schedule(src_free, std::move(submit),
                    EventPriority::Control);
}

void
SyncManager::arrive(ThreadId tid, DimmId dimm,
                    std::function<void()> release)
{
    if (tid >= threadHome.size())
        panic("thread %u arrived at a barrier without participants "
              "set", tid);

    auto ep = current;
    if (ep->arrivedThreads == 0)
        episodeStart = eventq.now();
    ++ep->arrivedThreads;
    ep->waiting[dimm].push_back(std::move(release));
    const auto need = threadsOn.find(dimm);
    if (need == threadsOn.end())
        panic("thread %u arrived on unexpected DIMM %u", tid, dimm);

    if (cfg.syncScheme == SyncScheme::Centralized) {
        // No local aggregation: every thread's arrival is its own
        // message to the global master core (the organization the
        // MCN/AIM baselines and DIMM-Link-Central use).
        sendSync(dimm, globalMaster(), [this, ep] {
            if (++ep->dimmsComplete ==
                static_cast<unsigned>(threadHome.size()))
                beginRelease(ep);
        });
        return;
    }

    const unsigned arrived = ++ep->dimmArrived[dimm];
    if (arrived == need->second) {
        // All local threads reached the DIMM's master core.
        eventq.scheduleIn(intraDimmSyncPs,
                          [this, ep, dimm] { dimmComplete(ep, dimm); },
                          EventPriority::Control);
    }
}

void
SyncManager::dimmComplete(std::shared_ptr<Episode> ep, DimmId dimm)
{
    // Hierarchical: report to the group's master DIMM.
    const unsigned group = cfg.groupOf(dimm);
    sendSync(dimm, masterOf(group), [this, ep, group] {
        if (++ep->groupArrived[group] == dimmsInGroup[group])
            groupComplete(ep, group);
    });
}

void
SyncManager::groupComplete(std::shared_ptr<Episode> ep, unsigned group)
{
    sendSync(masterOf(group), globalMaster(), [this, ep] {
        if (++ep->groupsComplete == activeGroups)
            beginRelease(ep);
    });
}

void
SyncManager::beginRelease(std::shared_ptr<Episode> ep)
{
    // Detach the finished episode; new arrivals start the next one.
    if (current == ep)
        current = std::make_shared<Episode>();
    ++statEpisodes;
    statBarrierPs.sample(
        static_cast<double>(eventq.now() - episodeStart));

    if (cfg.syncScheme == SyncScheme::Centralized) {
        // One release message per waiting thread (no aggregation).
        for (auto &[dimm, cbs] : ep->waiting) {
            const DimmId d = dimm;
            for (auto &cb : cbs) {
                sendSync(globalMaster(), d,
                         [cb = std::move(cb)] { cb(); });
            }
        }
        ep->waiting.clear();
        return;
    }

    // Hierarchical release: global master -> group masters -> DIMMs.
    std::map<unsigned, std::vector<DimmId>> by_group;
    for (const auto &[dimm, cbs] : ep->waiting) {
        (void)cbs;
        by_group[cfg.groupOf(dimm)].push_back(dimm);
    }
    for (const auto &[group, dimms] : by_group) {
        const auto dimms_copy = dimms;
        sendSync(globalMaster(), masterOf(group),
                 [this, ep, group, dimms_copy] {
                     for (DimmId d : dimms_copy) {
                         sendSync(masterOf(group), d, [this, ep, d] {
                             releaseDimm(ep, d);
                         });
                     }
                 });
    }
}

void
SyncManager::releaseDimm(std::shared_ptr<Episode> ep, DimmId dimm)
{
    auto it = ep->waiting.find(dimm);
    if (it == ep->waiting.end())
        return;
    auto cbs = std::move(it->second);
    ep->waiting.erase(it);
    // The DIMM's master core fans the release out locally.
    eventq.scheduleIn(intraDimmSyncPs,
                      [cbs = std::move(cbs)] {
                          for (const auto &cb : cbs)
                              cb();
                      },
                      EventPriority::Core);
}

} // namespace dimmlink
