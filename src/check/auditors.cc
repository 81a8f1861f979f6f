#include "check/auditors.hh"

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>

#include "check/page_state.hh"
#include "guestos/page_types.hh"
#include "sim/log.hh"
#include "sim/time.hh"

namespace hos::check {

using guestos::Gpfn;
using guestos::invalidGpfn;
using guestos::LruState;
using guestos::PageRef;
using guestos::PageArray;
using guestos::PageList;
using guestos::PageType;

void
AuditResult::merge(AuditResult &&other)
{
    checks += other.checks;
    for (auto &f : other.failures)
        failures.push_back(std::move(f));
}

void
AuditResult::addFailure(CheckKind kind, std::uint64_t subject,
                        std::string where, std::string what)
{
    CheckFailure f;
    f.kind = kind;
    f.tick = sim::currentTick();
    f.subject = subject;
    f.where = std::move(where);
    f.what = std::move(what);
    failures.push_back(std::move(f));
}

AuditResult
auditList(const PageArray &pages, const PageList &list,
          const std::string &where)
{
    AuditResult r;

    Gpfn prev = invalidGpfn;
    Gpfn cur = list.head();
    std::uint64_t walked = 0;
    while (cur != invalidGpfn && walked <= list.size()) {
        if (cur >= pages.size()) {
            r.addFailure(CheckKind::ListIntegrity, cur, where,
                         "list link points outside the page array");
            return r;
        }
        const PageRef p = pages.page(cur);
        r.checks += 2;
        if (p.list_id() != list.id()) {
            r.addFailure(CheckKind::ListIntegrity, cur, where,
                         "member carries list id " +
                             std::to_string(p.list_id()) + " (tag " +
                             std::to_string(p.on_list()) +
                             "), expected id " +
                             std::to_string(list.id()) + " (tag " +
                             std::to_string(list.tag()) + ")");
            // The links are untrustworthy past an id mismatch.
            return r;
        }
        if (p.link_prev() != prev) {
            r.addFailure(CheckKind::ListIntegrity, cur, where,
                         "broken back-link (prev points elsewhere)");
            return r;
        }
        prev = cur;
        cur = p.link_next();
        ++walked;
    }

    r.checks += 3;
    if (cur != invalidGpfn) {
        r.addFailure(CheckKind::ListIntegrity, cur, where,
                     "cycle or overrun: walked past the stored count (" +
                         std::to_string(list.size()) + ")");
        return r;
    }
    if (walked != list.size()) {
        r.addFailure(CheckKind::ListIntegrity, invalidSubject, where,
                     "stored count " + std::to_string(list.size()) +
                         " != walked length " + std::to_string(walked));
    }
    if (prev != list.tail()) {
        r.addFailure(CheckKind::ListIntegrity,
                     prev == invalidGpfn ? invalidSubject : prev, where,
                     "tail index does not match the last walked member");
    }
    return r;
}

namespace {

/** Audit one zone's buddy allocator: lists, block state, accounting. */
AuditResult
auditBuddy(const PageArray &pages, const guestos::BuddyAllocator &buddy,
           const std::string &where)
{
    AuditResult r;
    std::uint64_t listed_free = 0;

    for (unsigned o = 0; o < guestos::BuddyAllocator::maxOrder; ++o) {
        const PageList &fl = buddy.freeList(o);
        const std::string lw = where + ".order" + std::to_string(o);
        r.merge(auditList(pages, fl, lw));

        const std::uint64_t block = std::uint64_t(1) << o;
        for (Gpfn head = fl.head();
             head != invalidGpfn && head < pages.size();
             head = pages.page(head).link_next()) {
            const PageRef hp = pages.page(head);
            if (hp.list_id() != fl.id())
                break; // auditList already reported; links unsafe
            r.checks += 3;
            if (!hp.in_buddy() || hp.buddy_order() != o) {
                r.addFailure(CheckKind::ZoneAccounting, head, lw,
                             "free-list head lost its in_buddy/order "
                             "marking");
            }
            if ((head - buddy.base()) % block != 0) {
                r.addFailure(CheckKind::ZoneAccounting, head, lw,
                             "free block head misaligned for its order");
            }
            const Gpfn end = std::min<Gpfn>(head + block, pages.size());
            for (Gpfn pfn = head; pfn < end; ++pfn) {
                const PageRef p = pages.page(pfn);
                r.checks += 3;
                if (p.allocated()) {
                    r.addFailure(
                        CheckKind::ZoneAccounting, pfn, lw,
                        "allocated page inside a buddy free block");
                }
                if (p.type() != PageType::Free) {
                    r.addFailure(CheckKind::ZoneAccounting, pfn, lw,
                                 "free-block page still typed " +
                                     std::string(pageTypeName(p.type())));
                }
                if (pfn != head && (p.in_buddy() ||
                                    p.list_id() != guestos::noListId)) {
                    r.addFailure(CheckKind::ZoneAccounting, pfn, lw,
                                 "interior free-block page marked as a "
                                 "block head or linked on a list");
                }
            }
            listed_free += block;
        }
    }

    r.checks += 1;
    if (listed_free != buddy.freePages()) {
        r.addFailure(CheckKind::ZoneAccounting, invalidSubject, where,
                     "free_pages counter " +
                         std::to_string(buddy.freePages()) +
                         " != pages on free lists " +
                         std::to_string(listed_free));
    }
    return r;
}

/** Audit one zone's split LRU: list health plus per-member state. */
AuditResult
auditZoneLru(const PageArray &pages, const guestos::SplitLru &lru,
             const std::string &where)
{
    AuditResult r;

    const std::array<std::pair<const PageList *, LruState>, 2> lists = {
        std::make_pair(&lru.activeList(), LruState::Active),
        std::make_pair(&lru.inactiveList(), LruState::Inactive),
    };
    for (const auto &[list, state] : lists) {
        const std::string lw =
            where + (state == LruState::Active ? ".active" : ".inactive");
        r.merge(auditList(pages, *list, lw));
        for (Gpfn pfn = list->head();
             pfn != invalidGpfn && pfn < pages.size();
             pfn = pages.page(pfn).link_next()) {
            const PageRef p = pages.page(pfn);
            if (p.list_id() != list->id())
                break; // links unsafe past a reported id mismatch
            r.checks += 3;
            if (p.lru() != state) {
                r.addFailure(CheckKind::Lru, pfn, lw,
                             "page's lru state disagrees with the list "
                             "it sits on");
            }
            if (!p.allocated()) {
                r.addFailure(CheckKind::Lru, pfn, lw,
                             "unallocated page resident on an LRU");
            }
            if (!lruManagedType(p.type())) {
                r.addFailure(CheckKind::PageState, pfn, lw,
                             "LRU-resident page retyped to non-LRU type " +
                                 std::string(pageTypeName(p.type())));
            }
        }
    }
    return r;
}

} // namespace

AuditResult
auditKernel(guestos::GuestKernel &kernel)
{
    AuditResult r;
    const PageArray &pages = kernel.pages();
    guestos::PerCpuPageLists &percpu = kernel.percpu();

    for (unsigned n = 0; n < kernel.numNodes(); ++n) {
        guestos::NumaNode &node = kernel.node(n);
        const std::string nw = kernel.name() + ".node" + std::to_string(n);

        std::uint64_t lru_total = 0;
        for (std::size_t z = 0; z < node.numZones(); ++z) {
            const guestos::Zone &zone = node.zone(z);
            const std::string zw =
                nw + "." + guestos::zoneKindName(zone.kind());
            r.merge(auditBuddy(pages, zone.buddy(), zw + ".buddy"));
            r.merge(auditZoneLru(pages, zone.lru(), zw + ".lru"));
            lru_total += zone.lru().totalCount();
        }

        // Per-CPU caches holding this node's pages.
        for (unsigned cpu = 0; cpu < percpu.cpus(); ++cpu) {
            const PageList &cache = percpu.cacheList(cpu, n);
            const std::string cw = nw + ".percpu" + std::to_string(cpu);
            r.merge(auditList(pages, cache, cw));
            for (Gpfn pfn = cache.head();
                 pfn != invalidGpfn && pfn < pages.size();
                 pfn = pages.page(pfn).link_next()) {
                const PageRef p = pages.page(pfn);
                if (p.list_id() != cache.id())
                    break;
                r.checks += 2;
                if (p.allocated() || p.type() != PageType::Free ||
                    p.lru() != LruState::None) {
                    r.addFailure(CheckKind::PageState, pfn, cw,
                                 "per-CPU cached page is not in the "
                                 "free state");
                }
                if (p.numa_node() != n) {
                    r.addFailure(CheckKind::ZoneAccounting, pfn, cw,
                                 "page cached under the wrong node");
                }
            }
        }

        // Span walk: allocated census + per-page placement rules.
        std::uint64_t allocated = 0;
        std::uint64_t on_lru = 0;
        for (Gpfn pfn = node.base(); pfn < node.base() + node.spanPages();
             ++pfn) {
            const PageRef p = pages.page(pfn);
            r.checks += 2;
            if (p.allocated())
                ++allocated;
            if (p.lru() != LruState::None)
                ++on_lru;
            // NetBuf is exempt: skbuffs are slab-backed and pinned
            // by design; the cache types must stay evictable here.
            if (p.allocated() && (p.type() == PageType::PageCache ||
                                  p.type() == PageType::BufferCache) &&
                p.unevictable() && p.mem_type() == mem::MemType::FastMem) {
                r.addFailure(CheckKind::Placement, pfn, nw,
                             "I/O cache page pinned in FastMem");
            }
            if (p.lru() != LruState::None && !p.allocated()) {
                r.addFailure(CheckKind::PageState, pfn, nw,
                             "unallocated page claims LRU residence");
            }
        }

        r.checks += 2;
        if (on_lru != lru_total) {
            r.addFailure(CheckKind::Lru, invalidSubject, nw,
                         "pages marked LRU-resident (" +
                             std::to_string(on_lru) +
                             ") != zone LRU membership (" +
                             std::to_string(lru_total) + ")");
        }

        // The node-level conservation identity. Every managed page is
        // in exactly one of: a buddy free list, a per-CPU cache, or
        // allocated to a user.
        const std::uint64_t cached = percpu.cachedOnNode(n);
        const std::uint64_t expected =
            node.freePages() + cached + allocated;
        if (node.managedPages() != expected) {
            r.addFailure(
                CheckKind::ZoneAccounting, invalidSubject, nw,
                "managed " + std::to_string(node.managedPages()) +
                    " != free " + std::to_string(node.freePages()) +
                    " + cached " + std::to_string(cached) +
                    " + allocated " + std::to_string(allocated));
        }
    }

    // Allocated-range hint: the popcount aggregation over the
    // allocated bitmap must equal a per-bit census (the sweep skip
    // relies on zero meaning "whole chunk free"; this catches word-
    // range bugs in allocatedInChunk and stray bits past size()).
    {
        const std::string cw = kernel.name() + ".chunk_hint";
        std::vector<std::uint32_t> census(pages.numChunks(), 0);
        for (Gpfn pfn = 0; pfn < pages.size(); ++pfn) {
            if (pages.page(pfn).allocated())
                ++census[pfn >> PageArray::chunkShift];
        }
        for (std::uint64_t c = 0; c < pages.numChunks(); ++c) {
            ++r.checks;
            if (census[c] != pages.allocatedInChunk(c)) {
                r.addFailure(
                    CheckKind::ZoneAccounting, c, cw,
                    "chunk allocated counter " +
                        std::to_string(pages.allocatedInChunk(c)) +
                        " != descriptor census " +
                        std::to_string(census[c]));
            }
        }
    }

    r.merge(auditPageCache(kernel));
    return r;
}

AuditResult
auditPageCache(guestos::GuestKernel &kernel)
{
    AuditResult r;
    const PageArray &pages = kernel.pages();
    const guestos::PageCache &cache = kernel.pageCache();
    const std::string where = kernel.name() + ".page_cache";

    // Index -> page: each entry names a live cache page that says so.
    std::uint64_t indexed = 0;
    std::uint64_t dirty = 0;
    for (guestos::FileId f = 0; f < cache.numFiles(); ++f) {
        cache.forEachCached(f, [&](std::uint64_t idx, Gpfn pfn) {
            ++indexed;
            r.checks += 2;
            if (pfn >= pages.size()) {
                r.addFailure(CheckKind::PageCache, pfn, where,
                             "index entry points past the page array");
                return;
            }
            const PageRef p = pages.page(pfn);
            if (!p.allocated() || (p.type() != PageType::PageCache &&
                                   p.type() != PageType::BufferCache)) {
                r.addFailure(CheckKind::PageCache, pfn, where,
                             "index entry names a page that is not an "
                             "allocated cache page");
            }
            if (p.cache_file() != f || p.cache_index() != idx) {
                r.addFailure(CheckKind::PageCache, pfn, where,
                             "page of file " + std::to_string(f) +
                                 " index " + std::to_string(idx) +
                                 " does not point back at its entry");
            }
            if (p.dirty())
                ++dirty;
        });
    }

    // Page -> index: a page carrying a file is that file's entry.
    for (Gpfn pfn = 0; pfn < pages.size(); ++pfn) {
        const PageRef p = pages.page(pfn);
        if (p.cache_file() == guestos::noFile)
            continue;
        ++r.checks;
        if (p.cache_file() >= cache.numFiles() ||
            cache.lookup(p.cache_file(), p.cache_index()) != pfn) {
            r.addFailure(CheckKind::PageCache, pfn, where,
                         "page carries file " +
                             std::to_string(p.cache_file()) + " index " +
                             std::to_string(p.cache_index()) +
                             " but is not indexed there");
        }
    }

    r.checks += 2;
    if (indexed != cache.cachedPages()) {
        r.addFailure(CheckKind::PageCache, invalidSubject, where,
                     "cachedPages() " +
                         std::to_string(cache.cachedPages()) +
                         " != indexed pages " + std::to_string(indexed));
    }
    if (dirty != cache.dirtyPages()) {
        r.addFailure(CheckKind::PageCache, invalidSubject, where,
                     "dirtyPages() " + std::to_string(cache.dirtyPages()) +
                         " != dirty indexed pages " +
                         std::to_string(dirty));
    }
    return r;
}

AuditResult
auditStats(guestos::GuestKernel &kernel, sim::StatRegistry &registry)
{
    AuditResult r;
    const std::string &gname = kernel.stats().name();

    sim::StatGroup *group = registry.find(gname);
    r.checks += 1;
    if (group == nullptr) {
        r.addFailure(CheckKind::StatDrift, invalidSubject, gname,
                     "kernel stat group is not registered");
        return r;
    }

    registry.refreshAll();

    // Recompute the node gauges exactly as syncStats() publishes them
    // (last node of a type wins when types repeat).
    std::map<std::string, std::int64_t> expected;
    for (unsigned n = 0; n < kernel.numNodes(); ++n) {
        guestos::NumaNode &node = kernel.node(n);
        const std::string prefix =
            std::string("node.") + mem::memTypeName(node.memType());
        expected[prefix + ".free_pages"] =
            static_cast<std::int64_t>(node.freePages());
        expected[prefix + ".managed_pages"] =
            static_cast<std::int64_t>(node.managedPages());
    }

    for (const auto &[stat, want] : expected) {
        r.checks += 1;
        if (!group->hasGauge(stat)) {
            r.addFailure(CheckKind::StatDrift, invalidSubject,
                         gname + "." + stat,
                         "gauge missing after a registry refresh "
                         "(dead refresh hook?)");
            continue;
        }
        const std::int64_t got = group->findGauge(stat).value();
        if (got != want) {
            r.addFailure(CheckKind::StatDrift, invalidSubject,
                         gname + "." + stat,
                         "gauge reads " + std::to_string(got) +
                             " but live state says " +
                             std::to_string(want));
        }
    }
    return r;
}

AuditResult
auditP2m(vmm::VmContext &vm, mem::MachineMemory &machine)
{
    AuditResult r;
    guestos::GuestKernel &kernel = vm.kernel();
    const vmm::P2m &p2m = vm.p2m();
    const PageArray &pages = kernel.pages();
    const std::string where = kernel.name() + ".p2m";

    r.checks += 1;
    if (p2m.size() != pages.size()) {
        r.addFailure(CheckKind::P2m, invalidSubject, where,
                     "P2M covers " + std::to_string(p2m.size()) +
                         " gpfns but the guest has " +
                         std::to_string(pages.size()));
    }

    std::unordered_set<mem::Mfn> seen;
    std::array<std::uint64_t, mem::numMemTypes> tally{};
    std::uint64_t populated = 0;
    const Gpfn limit = std::min<Gpfn>(p2m.size(), pages.size());

    for (Gpfn gpfn = 0; gpfn < limit; ++gpfn) {
        const bool pop = p2m.populated(gpfn);
        r.checks += 2;
        if (pop != pages.page(gpfn).populated()) {
            r.addFailure(CheckKind::P2m, gpfn, where,
                         pop ? "P2M maps a gpfn the guest believes "
                               "unpopulated"
                             : "guest believes the gpfn populated but "
                               "the P2M has no mapping");
        }
        if (!pop) {
            if (vm.fastBacked().count(gpfn) != 0) {
                r.addFailure(CheckKind::P2m, gpfn, where,
                             "unpopulated gpfn listed as FastMem-backed");
            }
            continue;
        }
        ++populated;

        const mem::Mfn mfn = p2m.mfnOf(gpfn);
        r.checks += 4;
        if (!seen.insert(mfn).second) {
            r.addFailure(CheckKind::P2m, gpfn, where,
                         "machine frame double-mapped (mfn " +
                             std::to_string(mfn) + ")");
            continue;
        }

        mem::MachineNode *mnode = nullptr;
        for (unsigned i = 0; i < machine.numNodes(); ++i) {
            if (machine.node(i).containsMfn(mfn)) {
                mnode = &machine.node(i);
                break;
            }
        }
        if (mnode == nullptr) {
            r.addFailure(CheckKind::P2m, gpfn, where,
                         "mapped mfn " + std::to_string(mfn) +
                             " belongs to no machine node");
            continue;
        }
        if (mnode->frameOwner(mfn) != vm.owner()) {
            r.addFailure(CheckKind::P2m, gpfn, where,
                         "backing frame owned by " +
                             std::to_string(mnode->frameOwner(mfn)) +
                             ", not this VM");
        }

        const mem::MemType tier = p2m.tierOf(gpfn);
        if (tier != mnode->type()) {
            r.addFailure(CheckKind::P2m, gpfn, where,
                         "P2M tier cache says " +
                             std::string(mem::memTypeName(tier)) +
                             " but the frame lives in " +
                             mem::memTypeName(mnode->type()));
        }
        tally[static_cast<std::size_t>(mnode->type())] += 1;

        const bool fast = vm.fastBacked().count(gpfn) != 0;
        if (fast != (mnode->type() == mem::MemType::FastMem)) {
            r.addFailure(CheckKind::P2m, gpfn, where,
                         "fast-backed set disagrees with the backing "
                         "tier");
        }

        // For heterogeneity-aware VMs the guest node type must match
        // the real backing tier; hidden VMs see a nominal type.
        if (!vm.config().hide_heterogeneity) {
            r.checks += 1;
            guestos::NumaNode *gnode = nullptr;
            for (unsigned i = 0; i < kernel.numNodes(); ++i) {
                if (kernel.node(i).containsGpfn(gpfn)) {
                    gnode = &kernel.node(i);
                    break;
                }
            }
            if (gnode == nullptr) {
                r.addFailure(CheckKind::P2m, gpfn, where,
                             "populated gpfn outside every guest node");
            } else if (gnode->memType() != mnode->type()) {
                r.addFailure(CheckKind::P2m, gpfn, where,
                             "guest node advertises " +
                                 std::string(mem::memTypeName(
                                     gnode->memType())) +
                                 " but the frame lives in " +
                                 mem::memTypeName(mnode->type()));
            }
        }
    }

    for (std::size_t t = 0; t < mem::numMemTypes; ++t) {
        const auto type = static_cast<mem::MemType>(t);
        r.checks += 1;
        if (p2m.populatedOfTier(type) != tally[t]) {
            r.addFailure(CheckKind::P2m, invalidSubject, where,
                         std::string("per-tier tally for ") +
                             mem::memTypeName(type) + " reads " +
                             std::to_string(p2m.populatedOfTier(type)) +
                             " but the walk counted " +
                             std::to_string(tally[t]));
        }
    }
    r.checks += 2;
    if (p2m.populatedCount() != populated) {
        r.addFailure(CheckKind::P2m, invalidSubject, where,
                     "populated_count " +
                         std::to_string(p2m.populatedCount()) +
                         " != mapped gpfns " + std::to_string(populated));
    }

    // Leak check: every machine frame this VM owns must be reachable
    // through its P2M.
    std::uint64_t owned = 0;
    for (unsigned i = 0; i < machine.numNodes(); ++i)
        owned += machine.node(i).framesOwnedBy(vm.owner());
    if (owned != populated) {
        r.addFailure(CheckKind::P2m, invalidSubject, where,
                     "VM owns " + std::to_string(owned) +
                         " machine frames but maps " +
                         std::to_string(populated) +
                         " (leaked or stolen frames)");
    }
    return r;
}

AuditResult
auditVmm(vmm::Vmm &vmm, sim::StatRegistry *registry)
{
    AuditResult r;
    for (vmm::VmId id = 0; id < vmm.numVms(); ++id) {
        vmm::VmContext &vm = vmm.vm(id);
        r.merge(auditKernel(vm.kernel()));
        r.merge(auditP2m(vm, vmm.machine()));
        if (registry != nullptr)
            r.merge(auditStats(vm.kernel(), *registry));
    }
    return r;
}

AuditResult
auditXray(vmm::Vmm &vmm, const xray::Recorder &recorder)
{
    AuditResult r;
    // No hooks fired at HOS_XRAY=off (or on a disabled recorder):
    // the shadow is legitimately empty, not corrupt.
    if (!xray::xrayCompiled || !recorder.enabled())
        return r;
    for (vmm::VmId id = 0; id < vmm.numVms(); ++id) {
        guestos::GuestKernel &kernel = vmm.vm(id).kernel();
        const PageArray &pages = kernel.pages();
        const std::string where = kernel.name() + ".xray";
        const auto vm = static_cast<std::uint16_t>(id);
        const std::uint16_t threshold = recorder.thresholdOf(vm);

        std::uint64_t tier_pages[xray::numTiers] = {};
        std::uint64_t tier_hot[xray::numTiers] = {};
        std::uint64_t tier_heat[xray::numTiers] = {};
        std::uint64_t tier_hot_heat[xray::numTiers] = {};

        for (Gpfn pfn = 0; pfn < pages.size(); ++pfn) {
            const PageRef p = pages.page(pfn);
            if (!p.allocated()) {
                ++r.checks;
                if (recorder.live(vm, pfn)) {
                    r.addFailure(CheckKind::Xray, pfn, where,
                                 "shadow still tracks a page the guest "
                                 "freed");
                }
                continue;
            }
            r.checks += 3;
            if (!recorder.live(vm, pfn)) {
                r.addFailure(CheckKind::Xray, pfn, where,
                             "allocated page missing from the shadow");
                continue;
            }
            if (recorder.shadowHeat(vm, pfn) != p.heat()) {
                r.addFailure(
                    CheckKind::Xray, pfn, where,
                    "shadow heat " +
                        std::to_string(recorder.shadowHeat(vm, pfn)) +
                        " != tracker heat " + std::to_string(p.heat()));
            }
            const auto tier = static_cast<std::uint8_t>(
                kernel.backingOf(pfn));
            if (recorder.shadowTier(vm, pfn) != tier) {
                r.addFailure(
                    CheckKind::Xray, pfn, where,
                    std::string("shadow tier ") +
                        xray::tierName(recorder.shadowTier(vm, pfn)) +
                        " != effective backing tier " +
                        xray::tierName(tier));
            }
            if (tier >= xray::numTiers)
                continue;
            ++tier_pages[tier];
            tier_heat[tier] += p.heat();
            if (p.heat() >= threshold) {
                ++tier_hot[tier];
                tier_hot_heat[tier] += p.heat();
            }
        }

        for (std::size_t t = 0; t < xray::numTiers; ++t) {
            const auto tier = static_cast<std::uint8_t>(t);
            const std::string tw =
                where + "." + xray::tierName(tier);
            r.checks += 4;
            if (recorder.pagesIn(vm, tier) != tier_pages[t]) {
                r.addFailure(CheckKind::Xray, invalidSubject, tw,
                             "page count " +
                                 std::to_string(recorder.pagesIn(vm,
                                                                 tier)) +
                                 " != walked " +
                                 std::to_string(tier_pages[t]));
            }
            if (recorder.hotIn(vm, tier) != tier_hot[t]) {
                r.addFailure(CheckKind::Xray, invalidSubject, tw,
                             "hot count " +
                                 std::to_string(recorder.hotIn(vm,
                                                               tier)) +
                                 " != walked " +
                                 std::to_string(tier_hot[t]));
            }
            if (recorder.heatMassIn(vm, tier) != tier_heat[t]) {
                r.addFailure(
                    CheckKind::Xray, invalidSubject, tw,
                    "heat mass " +
                        std::to_string(recorder.heatMassIn(vm, tier)) +
                        " != walked " + std::to_string(tier_heat[t]));
            }
            if (recorder.hotHeatMassIn(vm, tier) != tier_hot_heat[t]) {
                r.addFailure(
                    CheckKind::Xray, invalidSubject, tw,
                    "hot heat mass " +
                        std::to_string(
                            recorder.hotHeatMassIn(vm, tier)) +
                        " != walked " +
                        std::to_string(tier_hot_heat[t]));
            }
        }

        // The derived misplacement metrics are linear combinations of
        // the per-tier aggregates; re-derive them from the walk so a
        // broken combination cannot hide behind correct per-tier rows.
        std::uint64_t hot_total = 0, misplaced_mass = 0;
        for (std::size_t t = 0; t < xray::numTiers; ++t) {
            hot_total += tier_hot[t];
            if (t != xray::fastTier)
                misplaced_mass += tier_hot_heat[t];
        }
        r.checks += 2;
        if (recorder.hotMisplaced(vm) !=
            hot_total - tier_hot[xray::fastTier]) {
            r.addFailure(CheckKind::Xray, invalidSubject, where,
                         "hot_misplaced " +
                             std::to_string(recorder.hotMisplaced(vm)) +
                             " != walked " +
                             std::to_string(
                                 hot_total -
                                 tier_hot[xray::fastTier]));
        }
        if (recorder.misplacedHeatMass(vm) != misplaced_mass) {
            r.addFailure(
                CheckKind::Xray, invalidSubject, where,
                "misplaced heat mass " +
                    std::to_string(recorder.misplacedHeatMass(vm)) +
                    " != walked " + std::to_string(misplaced_mass));
        }
    }
    return r;
}

AuditResult
auditMetrics(vmm::Vmm &vmm, const metrics::Collector &collector)
{
    AuditResult r;
    // No hooks fired at HOS_METRICS=off (or on a disabled collector):
    // empty aggregates are legitimate, not corrupt.
    if (!metrics::metricsCompiled || !collector.enabled())
        return r;

    // Every tracked VM tag must name a live kernel.
    for (std::size_t i = 0; i < collector.numVms(); ++i) {
        const std::uint16_t tag = collector.vmAt(i);
        ++r.checks;
        if (tag >= vmm.numVms()) {
            r.addFailure(CheckKind::Metrics, invalidSubject, "metrics",
                         "collector tracks VM tag " +
                             std::to_string(tag) + " but the VMM has " +
                             std::to_string(vmm.numVms()) + " VM(s)");
        }
    }

    for (vmm::VmId id = 0; id < vmm.numVms(); ++id) {
        guestos::GuestKernel &kernel = vmm.vm(id).kernel();
        const auto vm = static_cast<std::uint16_t>(id);
        const std::string where = kernel.name() + ".metrics";
        if (!collector.tracks(vm))
            continue;

        // Overhead reconciliation: the collector sees each kernel
        // drain exactly once (Workload::step is the sole drainer), so
        // its running total plus the not-yet-drained remainder must
        // equal the kernel's grand total — integer equality.
        const std::uint64_t drained =
            static_cast<std::uint64_t>(kernel.overheadGrandTotal()) -
            static_cast<std::uint64_t>(kernel.pendingOverhead());
        ++r.checks;
        if (collector.totalOverheadNs(vm) != drained) {
            r.addFailure(CheckKind::Metrics, invalidSubject, where,
                         "drained overhead " +
                             std::to_string(
                                 collector.totalOverheadNs(vm)) +
                             "ns != kernel accounts " +
                             std::to_string(drained) + "ns");
        }

        const metrics::HdrHistogram *hist =
            collector.slowdownHistogram(vm);
        ++r.checks;
        if (hist == nullptr) {
            r.addFailure(CheckKind::Metrics, invalidSubject, where,
                         "tracked VM has no slowdown histogram");
            continue;
        }

        // Window reconciliation: one histogram observation per closed
        // window, and the histogram's exact value sum must match the
        // running ppm sum (sum preservation through the log buckets).
        r.checks += 2;
        if (hist->totalCount() != collector.windowsClosed(vm)) {
            r.addFailure(CheckKind::Metrics, invalidSubject, where,
                         "histogram count " +
                             std::to_string(hist->totalCount()) +
                             " != closed windows " +
                             std::to_string(
                                 collector.windowsClosed(vm)));
        }
        if (hist->valueSum() != collector.slowdownPpmSum(vm)) {
            r.addFailure(CheckKind::Metrics, invalidSubject, where,
                         "histogram value sum " +
                             std::to_string(hist->valueSum()) +
                             " != slowdown ppm sum " +
                             std::to_string(
                                 collector.slowdownPpmSum(vm)));
        }
    }
    return r;
}

AuditResult
auditProf(const prof::Profiler &profiler)
{
    AuditResult r;
    ++r.checks;
    if (profiler.depth() != 0) {
        r.addFailure(CheckKind::Prof, invalidSubject, "prof.stack",
                     std::to_string(profiler.depth()) +
                         " span(s) still open at audit");
    }
    ++r.checks;
    if (profiler.spansOpened() != profiler.spansClosed() &&
        profiler.depth() == 0) {
        // depth != 0 already reported above; this catches hand-driven
        // begin/end misuse where the stack emptied but counts drifted.
        r.addFailure(CheckKind::Prof, invalidSubject, "prof.counters",
                     "spans opened " +
                         std::to_string(profiler.spansOpened()) +
                         " != closed " +
                         std::to_string(profiler.spansClosed()));
    }
    return r;
}

void
enforce(const AuditResult &result)
{
    if (result.ok())
        return;
    for (std::size_t i = 1; i < result.failures.size(); ++i)
        report(result.failures[i]);
    fail(result.failures.front());
}

} // namespace hos::check
