/**
 * @file
 * Ring: a FIFO queue on a power-of-two circular buffer that grows by
 * doubling and never shrinks. Unlike std::deque, which allocates and
 * frees a block every few elements as a queue slides forward, a ring
 * that has reached its high-water depth stops allocating.
 */

#ifndef DIMMLINK_COMMON_RING_HH
#define DIMMLINK_COMMON_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace dimmlink {

template <typename T>
class Ring
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }
    T &back() { return buf[(head + count - 1) & (buf.size() - 1)]; }

    void
    push_back(T v)
    {
        if (count == buf.size())
            grow();
        buf[(head + count) & (buf.size() - 1)] = std::move(v);
        ++count;
    }

    /** Drop the front element; its slot is reset so resources it held
     * are released now, not when the slot is next overwritten. */
    void
    pop_front()
    {
        buf[head] = T{};
        head = (head + 1) & (buf.size() - 1);
        --count;
    }

    void
    clear()
    {
        while (count > 0)
            pop_front();
    }

  private:
    void
    grow()
    {
        std::vector<T> next(buf.empty() ? 8 : 2 * buf.size());
        for (std::size_t i = 0; i < count; ++i)
            next[i] = std::move(buf[(head + i) & (buf.size() - 1)]);
        buf.swap(next);
        head = 0;
    }

    std::vector<T> buf;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace dimmlink

#endif // DIMMLINK_COMMON_RING_HH
