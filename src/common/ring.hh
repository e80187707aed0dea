/**
 * @file
 * Fixed-capacity ring buffer: a double-ended queue whose storage is
 * allocated once, at construction, and never grows. The detailed core
 * sizes one from CoreConfig for each of its in-order pipeline
 * structures (ROB, load and store queues, FTQ, free list, front pipe),
 * so pushing and popping them never allocates.
 *
 * Pushing onto a full ring panics; it never overwrites the oldest
 * element. An element keeps its slot from push to pop, so slot() names
 * it for as long as it is queued. Popping an element that owns
 * something (a DynInstPtr, say) resets its slot, so the ring keeps
 * nothing alive that it no longer holds.
 */

#ifndef MSSR_COMMON_RING_HH
#define MSSR_COMMON_RING_HH

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace mssr
{

template <typename T>
class Ring
{
    template <bool Const>
    class Iter;

  public:
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    explicit Ring(std::size_t capacity) : slots_(capacity) {}

    std::size_t capacity() const { return slots_.size(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == slots_.size(); }

    /** Appends @p value at the back; returns the slot it occupies. */
    std::size_t
    pushBack(T value)
    {
        T &slot = extendBack();
        slot = std::move(value);
        return static_cast<std::size_t>(&slot - slots_.data());
    }

    /**
     * Appends the next slot at the back and returns it still holding
     * whatever it last held, for the caller to overwrite in place.
     */
    T &
    extendBack()
    {
        mssr_assert(!full(), "ring overflow at capacity ", capacity());
        T &slot = slots_[physical(size_)];
        ++size_;
        return slot;
    }

    void
    popFront()
    {
        mssr_assert(!empty(), "pop from an empty ring");
        reset(slots_[head_]);
        head_ = physical(1);
        --size_;
    }

    void
    popBack()
    {
        mssr_assert(!empty(), "pop from an empty ring");
        --size_;
        reset(slots_[physical(size_)]);
    }

    void
    clear()
    {
        while (!empty())
            popBack();
        head_ = 0;
    }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return slots_[physical(size_ - 1)]; }
    const T &back() const { return slots_[physical(size_ - 1)]; }

    /** The @p i-th element, counting from the front. */
    T &operator[](std::size_t i) { return slots_[physical(i)]; }
    const T &operator[](std::size_t i) const { return slots_[physical(i)]; }

    /** The element in @p slot (as returned by pushBack). */
    T &slot(std::size_t slot) { return slots_[slot]; }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    /** Forward iterator, front to back. */
    template <bool Const>
    class Iter
    {
        using Owner = std::conditional_t<Const, const Ring, Ring>;

      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iter() = default;
        Iter(Owner *ring, std::size_t i) : ring_(ring), i_(i) {}

        reference operator*() const { return (*ring_)[i_]; }
        pointer operator->() const { return &(*ring_)[i_]; }

        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }

        Iter
        operator++(int)
        {
            Iter old = *this;
            ++i_;
            return old;
        }

        friend bool
        operator==(const Iter &a, const Iter &b)
        {
            return a.i_ == b.i_;
        }

      private:
        Owner *ring_ = nullptr;
        std::size_t i_ = 0;
    };

    std::size_t
    physical(std::size_t i) const
    {
        const std::size_t p = head_ + i;
        return p >= slots_.size() ? p - slots_.size() : p;
    }

    static void
    reset(T &slot)
    {
        if constexpr (!std::is_trivially_destructible_v<T>)
            slot = T{};
    }

    std::vector<T> slots_;
    std::size_t head_ = 0; //!< slot of the front element
    std::size_t size_ = 0;
};

} // namespace mssr

#endif // MSSR_COMMON_RING_HH
