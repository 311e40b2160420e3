/**
 * @file
 * Generic string-keyed implementation registry, for the open sets of
 * the simulator: workloads, DRAM timing presets and fault models.
 * Adding one means adding a translation unit with a static Registrar,
 * no central switch to edit. Closed choices that the config parses
 * into an enum (IDC method, topology, polling mode) or checks against
 * a fixed list (DRAM scheduler, inter-host fabric) are built with a
 * switch at their one construction site instead.
 *
 * Usage, next to the implementation:
 *
 *   namespace {
 *   FooFactory::Registrar regBar("bar", [](Args... a)
 *       -> std::unique_ptr<Foo> {
 *       return std::make_unique<BarFoo>(a...);
 *   });
 *   } // namespace
 *
 * Registration happens during static initialization; lookups are only
 * legal from main() onward. Duplicate keys panic (two implementations
 * claiming one name is a build bug); unknown keys are a user error and
 * fatal() with the list of registered names.
 */

#ifndef DIMMLINK_COMMON_FACTORY_HH
#define DIMMLINK_COMMON_FACTORY_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace dimmlink {

/**
 * The human-readable noun a Factory uses in its error messages
 * ("workload", "IDC fabric", ...). Specialize next to the interface.
 */
template <typename Interface>
struct FactoryTraits
{
    static constexpr const char *noun = "component";
};

template <typename Interface, typename... Args>
class Factory
{
  public:
    /** Creators are stateless: a captureless lambda or free function. */
    using Creator = std::unique_ptr<Interface> (*)(Args...);

    /** The process-wide registry for this interface. */
    static Factory &
    instance()
    {
        static Factory f;
        return f;
    }

    /** Register @p create under @p name; panics on duplicates. */
    void
    add(const std::string &name, Creator create)
    {
        if (!creators.emplace(name, create).second)
            panic("duplicate %s registration '%s'",
                  FactoryTraits<Interface>::noun, name.c_str());
    }

    bool
    contains(const std::string &name) const
    {
        return creators.count(name) > 0;
    }

    /** Registered names, sorted. */
    std::vector<std::string>
    known() const
    {
        std::vector<std::string> names;
        names.reserve(creators.size());
        for (const auto &[name, create] : creators)
            names.push_back(name);
        return names;
    }

    /** known() joined with ", " for error messages. */
    std::string
    knownList() const
    {
        std::string out;
        for (const auto &[name, create] : creators) {
            if (!out.empty())
                out += ", ";
            out += name;
        }
        return out;
    }

    /**
     * Build the implementation registered under @p name; fatal()s with
     * the registered names when @p name is unknown.
     */
    std::unique_ptr<Interface>
    create(const std::string &name, Args... args) const
    {
        const auto it = creators.find(name);
        if (it == creators.end())
            fatal("unknown %s '%s' (registered: %s)",
                  FactoryTraits<Interface>::noun, name.c_str(),
                  knownList().c_str());
        return it->second(std::forward<Args>(args)...);
    }

    /** Self-registration handle: declare one static instance per
     * implementation. */
    struct Registrar
    {
        Registrar(const std::string &name, Creator create)
        {
            Factory::instance().add(name, create);
        }
    };

  private:
    Factory() = default;

    std::map<std::string, Creator> creators;
};

} // namespace dimmlink

#endif // DIMMLINK_COMMON_FACTORY_HH
