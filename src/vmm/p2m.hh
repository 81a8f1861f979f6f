/**
 * @file
 * Guest-physical to machine-frame (P2M) mapping.
 *
 * The VMM keeps one P2M per guest VM. HeteroOS extends the classic
 * single-dimension table with per-memory-type awareness: the back-end
 * "maintains the per-node (memory type) machine page number (MFN)
 * mapping for each of the guests" (Section 3.1). Here the table also
 * caches the backing tier per gpfn so the placement oracle and the
 * performance model can answer "which tier serves this page?" in O(1).
 */

#ifndef HOS_VMM_P2M_HH
#define HOS_VMM_P2M_HH

#include <array>
#include <cstdint>
#include <vector>

#include "guestos/page.hh"
#include "mem/machine_memory.hh"
#include "mem/mem_spec.hh"

namespace hos::vmm {

using guestos::Gpfn;

/** One guest's gpfn -> mfn map. */
class P2m
{
  public:
    explicit P2m(std::uint64_t num_gpfns);

    /** Install a mapping (page populate or migration retarget). */
    void set(Gpfn gpfn, mem::Mfn mfn, mem::MemType tier)
    {
        setRun(gpfn, mfn, 1, tier);
    }

    /**
     * set(first + i, mfn + i, tier) for i in [0, n), with the
     * populated and per-tier counts bumped once for the run.
     */
    void setRun(Gpfn first, mem::Mfn mfn, std::uint64_t n,
                mem::MemType tier);

    /** Remove a mapping (balloon unpopulate). */
    void clear(Gpfn gpfn);

    bool populated(Gpfn gpfn) const;
    mem::Mfn mfnOf(Gpfn gpfn) const;
    mem::MemType tierOf(Gpfn gpfn) const;

    std::uint64_t populatedCount() const { return populated_count_; }
    std::uint64_t populatedOfTier(mem::MemType t) const;

    std::uint64_t size() const { return map_.size(); }

  private:
    std::vector<mem::Mfn> map_;
    std::vector<std::uint8_t> tier_;
    std::uint64_t populated_count_ = 0;
    std::array<std::uint64_t, mem::numMemTypes> tier_count_{};
};

} // namespace hos::vmm

#endif // HOS_VMM_P2M_HH
