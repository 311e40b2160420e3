/**
 * @file
 * EventCallback: the type-erased callable the event kernel stores in
 * every event slot. Unlike std::function it never touches the global
 * heap on the hot path: captures up to inlineCapacity bytes live
 * directly inside the object (covering the dominant shapes -- `this`
 * plus a couple of words, or a moved-in std::function), and larger
 * captures fall back to a pooled slab allocator whose blocks are
 * recycled through per-size free lists.
 *
 * It is also the completion type of every per-transaction seam
 * between components (LocalMc, the IDC fabrics, the NoC senders, the
 * host forwarder, the rack fabric). The ownership rule there:
 *
 *  - A seam takes its completion as an EventCallback by value and
 *    moves it on; nothing on the transaction path copies one.
 *  - std::function is kept only for hooks set once at build time
 *    (memory-access wiring, the DRAM unblock handler, probes).
 *  - A closure that must stay copyable -- a noc::Message's deliver
 *    and onDropped travel with broadcast fan-out copies -- captures
 *    only `this` and a pointer to a pooled record (RecordPool) that
 *    holds the move-only state, so it fits std::function's inline
 *    buffer.
 */

#ifndef DIMMLINK_SIM_EVENT_CALLBACK_HH
#define DIMMLINK_SIM_EVENT_CALLBACK_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace dimmlink {

namespace detail {

/**
 * Slab-backed pool for callback captures that do not fit inline.
 * Freed blocks go onto a per-size-class free list and are reused by
 * the next oversized capture, so steady-state scheduling performs no
 * operator-new calls even for large captures. Not thread-safe, like
 * the EventQueue it serves.
 */
class CallbackArena
{
  public:
    static void *allocate(std::size_t bytes);
    static void deallocate(void *p, std::size_t bytes) noexcept;
};

} // namespace detail

/**
 * A move-only `void()` callable with small-buffer optimization.
 * Invoking an empty callback is undefined; the kernel only stores
 * engaged callbacks.
 */
class EventCallback
{
  public:
    /** Captures up to this many bytes are stored inline. */
    static constexpr std::size_t inlineCapacity = 56;

    EventCallback() noexcept = default;
    /** An empty callback, like a null std::function. */
    EventCallback(std::nullptr_t) noexcept {} // NOLINT: implicit

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    EventCallback(EventCallback &&other) noexcept : ops(other.ops)
    {
        if (ops) {
            ops->relocate(buf, other.buf);
            other.ops = nullptr;
        }
    }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops = other.ops;
            if (ops) {
                ops->relocate(buf, other.buf);
                other.ops = nullptr;
            }
        }
        return *this;
    }

    /** Wrap any `void()` invocable (lambda, std::function, ...). */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_v<std::decay_t<F> &>>>
    EventCallback(F &&f) // NOLINT: intentional implicit conversion
    {
        using Fn = std::decay_t<F>;
        if constexpr (isStdFunction<Fn>::value) {
            // A null std::function wraps to an empty callback, so
            // `if (cb)` keeps meaning "someone is waiting".
            if (!f)
                return;
        }
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            void *mem = detail::CallbackArena::allocate(sizeof(Fn));
            auto *obj = ::new (mem) Fn(std::forward<F>(f));
            *reinterpret_cast<Fn **>(buf) = obj;
            ops = &pooledOps<Fn>;
        }
    }

    ~EventCallback() { reset(); }

    /** Destroy the held callable, leaving the callback empty. */
    void
    reset() noexcept
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
    }

    void operator()() { ops->invoke(buf); }

    explicit operator bool() const noexcept { return ops != nullptr; }

  private:
    template <typename T>
    struct isStdFunction : std::false_type
    {
    };
    template <typename Sig>
    struct isStdFunction<std::function<Sig>> : std::true_type
    {
    };

    struct Ops
    {
        void (*invoke)(void *self);
        /** Move-construct *dst from *src, then destroy *src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineCapacity &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *self) { (*static_cast<Fn *>(self))(); },
        [](void *dst, void *src) noexcept {
            auto *s = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *self) noexcept { static_cast<Fn *>(self)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops pooledOps = {
        [](void *self) { (**static_cast<Fn **>(self))(); },
        [](void *dst, void *src) noexcept {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *self) noexcept {
            Fn *obj = *static_cast<Fn **>(self);
            obj->~Fn();
            detail::CallbackArena::deallocate(obj, sizeof(Fn));
        },
    };

    const Ops *ops = nullptr;
    alignas(std::max_align_t) unsigned char buf[inlineCapacity];
};

} // namespace dimmlink

#endif // DIMMLINK_SIM_EVENT_CALLBACK_HH
