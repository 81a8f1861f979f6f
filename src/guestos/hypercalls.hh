/**
 * @file
 * Guest -> VMM interface (the hypercall surface the guest sees).
 *
 * The on-demand allocation driver is a split front-end/back-end pair
 * (Figure 5): the guest front-end asks the back-end to populate or
 * unpopulate guest page frames of a specific memory node. Defining
 * the back-end as an abstract interface here keeps the guest OS
 * library free of VMM dependencies; hos::vmm::Vmm implements it.
 */

#ifndef HOS_GUESTOS_HYPERCALLS_HH
#define HOS_GUESTOS_HYPERCALLS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "guestos/page.hh"

namespace hos::guestos {

/**
 * Read-only view of gpfns offered to the back-end for population.
 *
 * The guest's unpopulated stack keeps its top window lazily reversed
 * and, until it first has to spill, its never-populated gpfns as one
 * ascending range (see GuestKernel::commitUnpopulatedGpfns); this
 * view resolves both without materializing a vector per hypercall.
 * Index 0 is the first gpfn to populate; grants must be strict
 * prefixes.
 */
class UnpopulatedView
{
  public:
    UnpopulatedView() = default;
    UnpopulatedView(const Gpfn *stack, std::uint64_t stack_size,
                    std::uint64_t reversed, std::uint64_t n)
        : stack_(stack), stack_size_(stack_size), reversed_(reversed),
          n_(n)
    {
    }

    /** The ascending run first, first + 1, ..., first + n - 1. */
    static UnpopulatedView
    range(Gpfn first, std::uint64_t n)
    {
        UnpopulatedView v;
        v.first_ = first;
        v.n_ = n;
        return v;
    }

    std::uint64_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    Gpfn operator[](std::uint64_t i) const
    {
        if (stack_ == nullptr)
            return first_ + i;
        return i < reversed_ ? stack_[stack_size_ - reversed_ + i]
                             : stack_[stack_size_ - 1 - i];
    }

    /**
     * How many entries from i on, at most `max`, continue view[i] in
     * ascending order: view[i + j] == view[i] + j. At least 1 for
     * i < size() and max > 0.
     */
    std::uint64_t
    ascendingRun(std::uint64_t i, std::uint64_t max) const
    {
        max = std::min(max, n_ - i);
        if (stack_ == nullptr)
            return max;
        const Gpfn first = (*this)[i];
        std::uint64_t len = 1;
        while (len < max && (*this)[i + len] == first + len)
            ++len;
        return len;
    }

  private:
    const Gpfn *stack_ = nullptr;  ///< nullptr: the range form
    std::uint64_t stack_size_ = 0; ///< entries in the backing stack
    std::uint64_t reversed_ = 0;   ///< top entries stored reversed
    Gpfn first_ = 0;               ///< the range form's first gpfn
    std::uint64_t n_ = 0;          ///< entries this view exposes
};

/** The VMM side of the on-demand allocation (balloon) channel. */
class BalloonBackendIf
{
  public:
    virtual ~BalloonBackendIf() = default;

    /**
     * Back `gpfns` of guest node `guest_node` with machine frames of
     * the matching memory type. Returns how many were populated (a
     * prefix of the list); fewer than requested means the VMM is out
     * of that memory type or the fair-share policy said no.
     */
    virtual std::uint64_t
    populatePages(unsigned guest_node, const UnpopulatedView &gpfns) = 0;

    /** Release the machine frames backing `gpfns` back to the VMM. */
    virtual void
    unpopulatePages(unsigned guest_node,
                    const std::vector<Gpfn> &gpfns) = 0;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_HYPERCALLS_HH
