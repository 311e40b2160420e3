#include "noc/network.hh"

#include "common/log.hh"
#include "fault/fault_model.hh"

namespace dimmlink {
namespace noc {

Network::Network(EventQueue &eq, std::string name, const LinkConfig &cfg_,
                 unsigned nodes, stats::Registry &reg,
                 const FaultConfig *faults)
    : name_(std::move(name)),
      cfg(cfg_),
      topo(cfg_.topology, nodes),
      statInjected(reg.group(name_).scalar("injected")),
      statInjectBlocked(reg.group(name_).scalar("injectBlocked")),
      statLatencyPs(reg.group(name_).distribution("latencyPs"))
{
    routers.reserve(nodes);
    for (unsigned i = 0; i < nodes; ++i) {
        auto &sg = reg.group(name_ + ".router" + std::to_string(i));
        routers.push_back(std::make_unique<Router>(
            eq, name_ + ".router" + std::to_string(i),
            static_cast<int>(i), topo, cfg.bufferFlits,
            cfg.routerLatencyPs, sg, statLatencyPs, statInjected,
            statInjectBlocked));
    }
    // One unidirectional link per (node, neighbor) ordered pair.
    for (unsigned i = 0; i < nodes; ++i) {
        for (int nb : topo.neighbors(static_cast<int>(i))) {
            const std::string lname = name_ + ".link" +
                std::to_string(i) + "to" + std::to_string(nb);
            auto &sg = reg.group(lname);
            links.push_back(std::make_unique<Link>(
                eq, lname, cfg.linkGBps, cfg.wireLatencyPs, sg));
            if (faults)
                links.back()->setFaultModel(
                    fault::makeFaultModel(*faults, lname));
            linkOf[{static_cast<int>(i), nb}] = links.back().get();
            routers[i]->connectOutput(
                nb, links.back().get(),
                routers[static_cast<std::size_t>(nb)].get());
        }
    }
}

Router &
Network::sourceRouter(const Message &msg)
{
    if (msg.src < 0 ||
        static_cast<unsigned>(msg.src) >= topo.numNodes())
        panic("%s: inject from bad node %d", name_.c_str(), msg.src);
    return *routers[static_cast<std::size_t>(msg.src)];
}

bool
Network::tryInject(Message &msg)
{
    return sourceRouter(msg).tryInject(msg);
}

void
Network::inject(Message msg)
{
    sourceRouter(msg).inject(std::move(msg));
}

} // namespace noc
} // namespace dimmlink
