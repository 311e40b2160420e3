/**
 * @file
 * A proto::RetrySender owner for tests: each owner call runs a
 * callable the test sets, so one sender can be driven by lambdas that
 * reference the sender itself.
 */

#ifndef DIMMLINK_TESTS_FAKE_DLL_OWNER_HH
#define DIMMLINK_TESTS_FAKE_DLL_OWNER_HH

#include <functional>
#include <vector>

#include "proto/dll.hh"

namespace dimmlink {

struct FakeDllOwner final : proto::RetrySender::Owner
{
    std::function<void(const proto::Packet &)> transmit =
        [](const proto::Packet &) {};
    std::function<void()> acked = [] {};
    std::function<void()> failed = [] {};
    /** The attempt number of every transmission, in order. */
    std::vector<unsigned> attempts;
    /** The record the sender handed back last. */
    void *rec = nullptr;

    void
    dllTransmit(const proto::Packet &p, void *r, unsigned attempt) override
    {
        rec = r;
        attempts.push_back(attempt);
        transmit(p);
    }
    void
    dllAcked(void *r) override
    {
        rec = r;
        acked();
    }
    void
    dllFailed(void *r) override
    {
        rec = r;
        failed();
    }
};

} // namespace dimmlink

#endif // DIMMLINK_TESTS_FAKE_DLL_OWNER_HH
