/**
 * @file
 * VM boot state. A pin of everything addVm leaves behind on four
 * hosts (the guest kernel, the P2M, the machine frame allocators and
 * the guest unpopulated stacks), and reference-model checks of the
 * two frame stacks boot works on: MachineNode's free frames and the
 * guest's unpopulated gpfns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/experiment.hh"
#include "core/hetero_system.hh"
#include "mem/machine_memory.hh"
#include "sim/rng.hh"
#include "test_helpers.hh"
#include "vmm/drf.hh"

namespace {

using namespace hos;
using test::Fnv;

/**
 * Hash the state addVm left in `sys`: each VM's kernel fingerprint,
 * P2M and unpopulated stacks, then each machine node's owners, free
 * count and next 64 pops. The pops consume frames, so this is the
 * last thing a test does with `sys`. fast_backed is checked as a set
 * (its bucket order is not boot state worth pinning).
 */
std::uint64_t
bootFingerprint(core::HeteroSystem &sys)
{
    Fnv f;
    vmm::Vmm &vmm = sys.vmm();
    for (std::size_t i = 0; i < sys.numVms(); ++i) {
        guestos::GuestKernel &k = *sys.slot(i).kernel;
        f.add(test::kernelFingerprint(k));

        vmm::VmContext &vm = vmm.vm(sys.slot(i).id);
        const vmm::P2m &p2m = vm.p2m();
        std::uint64_t fast = 0;
        for (guestos::Gpfn g = 0; g < p2m.size(); ++g) {
            f.add(p2m.mfnOf(g));
            if (!p2m.populated(g))
                continue;
            const mem::MemType t = p2m.tierOf(g);
            f.add(static_cast<std::uint64_t>(t));
            const bool listed = vm.fastBacked().count(g) != 0;
            EXPECT_EQ(listed, t == mem::MemType::FastMem) << "gpfn " << g;
            fast += t == mem::MemType::FastMem;
        }
        EXPECT_EQ(vm.fastBacked().size(), fast);

        for (unsigned nid = 0; nid < k.numNodes(); ++nid) {
            const guestos::UnpopulatedView v =
                k.peekUnpopulatedGpfns(nid, ~std::uint64_t(0));
            f.add(v.size());
            for (std::uint64_t j = 0; j < v.size(); ++j)
                f.add(v[j]);
        }
    }

    mem::MachineMemory &machine = vmm.machine();
    for (unsigned n = 0; n < machine.numNodes(); ++n) {
        mem::MachineNode &node = machine.node(n);
        f.add(node.freeFrames());
        for (mem::Mfn m = node.mfnBase();
             m < node.mfnBase() + node.totalFrames(); ++m) {
            f.add(node.frameOwner(m));
        }
    }
    for (unsigned n = 0; n < machine.numNodes(); ++n) {
        mem::MachineNode &node = machine.node(n);
        for (int i = 0; i < 64; ++i)
            f.add(node.allocFrame(mem::ownerVmm).value_or(mem::invalidMfn));
    }
    return f.h;
}

TEST(GuestKernelState, BootMatchesPinnedFingerprint)
{
    const core::Scenario paper = core::Scenario{}
                                     .withApproach(core::Approach::Coordinated)
                                     .withThrottle(5.0, 9.0)
                                     .withCapacity(24 * mem::mib,
                                                   48 * mem::mib)
                                     .withCpus(4)
                                     .withSeed(3);

    // The paper host with the coordinated guest.
    std::uint64_t coord = 0;
    {
        core::HeteroSystem sys(paper.host());
        sys.addVm(core::makePolicy(paper), paper.sizing());
        coord = bootFingerprint(sys);
    }

    // Hidden heterogeneity: one guest node, backed SlowMem first and
    // split across both tiers when SlowMem runs out.
    std::uint64_t hidden = 0;
    {
        const core::Scenario s =
            core::Scenario(paper).withApproach(core::Approach::VmmExclusive);
        core::HeteroSystem sys(s.host());
        auto &slot = sys.addVm(core::makePolicy(s), s.sizing());
        EXPECT_EQ(slot.kernel->numNodes(), 1u);
        const vmm::VmContext &vm = sys.vmm().vm(slot.id);
        EXPECT_GT(vm.framesOf(mem::MemType::SlowMem), 0u);
        EXPECT_GT(vm.framesOf(mem::MemType::FastMem), 0u);
        hidden = bootFingerprint(sys);
    }

    // Two DRF guests booted to partial reservations.
    std::uint64_t drf = 0;
    {
        core::HostConfig host;
        host.fast = mem::dramSpec(32 * mem::mib);
        host.slow = mem::defaultSlowMemSpec(64 * mem::mib);
        core::HeteroSystem sys(host);
        sys.vmm().setFairness(std::make_unique<vmm::DrfFairness>());
        core::GuestSizing g;
        g.fast_max = 32 * mem::mib;
        g.fast_initial = 8 * mem::mib;
        g.slow_max = 64 * mem::mib;
        g.slow_initial = 32 * mem::mib;
        g.cpus = 2;
        core::GuestSizing m = g;
        m.fast_initial = 24 * mem::mib;
        m.seed = 7;
        sys.addVm(core::makePolicy(core::Approach::Coordinated), g);
        sys.addVm(core::makePolicy(core::Approach::Coordinated), m);
        drf = bootFingerprint(sys);
    }

    // FastMem drains part way through the guest's boot request: a
    // partial grant whose tail goes back on the unpopulated stack.
    std::uint64_t drained = 0;
    {
        core::HostConfig host;
        host.fast = mem::dramSpec(8 * mem::mib);
        host.slow = mem::defaultSlowMemSpec(32 * mem::mib);
        core::HeteroSystem sys(host);
        core::GuestSizing g;
        g.fast_max = 16 * mem::mib;
        g.fast_initial = 12 * mem::mib + 5 * mem::pageSize;
        g.slow_max = 32 * mem::mib;
        g.slow_initial = 20 * mem::mib + 3 * mem::pageSize;
        g.cpus = 2;
        auto &slot = sys.addVm(
            core::makePolicy(core::Approach::Coordinated), g);
        guestos::GuestKernel &k = *slot.kernel;
        EXPECT_EQ(k.balloon().populated(0), mem::bytesToPages(8 * mem::mib));
        EXPECT_EQ(k.peekUnpopulatedGpfns(0, ~std::uint64_t(0)).size(),
                  mem::bytesToPages(8 * mem::mib));
        drained = bootFingerprint(sys);
    }

    // Captured before boot worked in ranges.
    EXPECT_EQ(coord, 0x237cd9d1834883e4ull) << std::hex << coord;
    EXPECT_EQ(hidden, 0x67cd945e79f95d97ull) << std::hex << hidden;
    EXPECT_EQ(drf, 0x227dbef9fe9ced66ull) << std::hex << drf;
    EXPECT_EQ(drained, 0x68753d71cf19b8dbull) << std::hex << drained;
}

class FrameChurn : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FrameChurn, MatchesReferenceModel)
{
    sim::Rng rng(GetParam());
    mem::MachineMemory machine;
    machine.addNode(mem::MemType::FastMem, mem::dramSpec(mem::mib));
    machine.addNode(mem::MemType::SlowMem, mem::dramSpec(2 * mem::mib));
    mem::MachineNode &node = machine.node(1); // a non-zero MFN base

    // Reference: one explicit LIFO of every free frame, low MFNs on
    // top, and each frame's owner.
    std::vector<mem::Mfn> stack;
    for (std::uint64_t i = node.totalFrames(); i-- > 0;)
        stack.push_back(node.mfnBase() + i);
    std::vector<mem::OwnerId> owner(node.totalFrames(), mem::ownerNone);
    std::vector<mem::Mfn> held;
    mem::Mfn high = node.mfnBase(); // past every frame handed out
    auto model_alloc = [&](mem::OwnerId o) {
        const mem::Mfn m = stack.back();
        stack.pop_back();
        high = std::max(high, m + 1);
        owner[m - node.mfnBase()] = o;
        held.push_back(m);
        return m;
    };

    constexpr mem::OwnerId owners = 3;
    // Runs of more than one frame that came off the freed stack, not
    // the fresh cursor (whose frames lie at or past `high`).
    std::uint64_t merged_runs = 0;
    for (int step = 0; step < 3000; ++step) {
        const auto o =
            static_cast<mem::OwnerId>(mem::firstVmOwner + rng.uniformInt(owners));
        switch (rng.uniformInt(4)) {
          case 0: { // one frame
            const auto got = node.allocFrame(o);
            ASSERT_EQ(got.has_value(), !stack.empty()) << "step " << step;
            if (got)
                ASSERT_EQ(*got, model_alloc(o)) << "step " << step;
            break;
          }
          case 1: { // a batch, in runs of consecutive MFNs
            const std::uint64_t n = rng.uniformInt(48);
            std::vector<mem::Mfn> got;
            const mem::Mfn seen = high;
            const std::uint64_t count = node.allocFrames(
                o, n, [&](mem::Mfn first, std::uint64_t len) {
                    ASSERT_GT(len, 0u);
                    merged_runs += len > 1 && first < seen;
                    for (std::uint64_t i = 0; i < len; ++i)
                        got.push_back(first + i);
                });
            ASSERT_EQ(count, got.size());
            ASSERT_EQ(count, std::min<std::uint64_t>(n, stack.size()));
            for (mem::Mfn m : got)
                ASSERT_EQ(m, model_alloc(o)) << "step " << step;
            break;
          }
          default: { // free a few held frames
            // Half the time the newest, last first: a batch freed that
            // way pops again as one run of consecutive frames.
            const bool newest = rng.chance(0.5);
            for (std::uint64_t k = rng.uniformInt(6); k > 0 && !held.empty();
                 --k) {
                const std::size_t i =
                    newest ? held.size() - 1 : rng.uniformInt(held.size());
                const mem::Mfn m = held[i];
                held[i] = held.back();
                held.pop_back();
                node.freeFrame(m);
                owner[m - node.mfnBase()] = mem::ownerNone;
                stack.push_back(m);
            }
            break;
          }
        }
        ASSERT_EQ(node.freeFrames(), stack.size()) << "step " << step;
        ASSERT_EQ(node.usedFrames(), held.size()) << "step " << step;
        for (mem::OwnerId k = 0; k < owners; ++k) {
            const mem::OwnerId id = mem::firstVmOwner + k;
            ASSERT_EQ(node.framesOwnedBy(id),
                      static_cast<std::uint64_t>(
                          std::count(owner.begin(), owner.end(), id)));
        }
    }
    for (std::uint64_t i = 0; i < node.totalFrames(); ++i) {
        EXPECT_EQ(node.frameOwner(node.mfnBase() + i), owner[i])
            << "frame " << i;
    }
    EXPECT_GT(merged_runs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameChurn, ::testing::Values(2, 41, 977));

class UnpopulatedChurn : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(UnpopulatedChurn, MatchesReferenceModel)
{
    sim::Rng rng(GetParam());
    guestos::GuestConfig cfg;
    cfg.cpus = 1;
    // Large enough that no early step drains a node's range.
    cfg.nodes = {{mem::MemType::FastMem, 4 * mem::mib, 4 * mem::mib},
                 {mem::MemType::SlowMem, 8 * mem::mib, 8 * mem::mib}};
    guestos::GuestKernel k(cfg);

    // Reference: each node's unpopulated gpfns as one explicit LIFO,
    // low gpfns on top, and the gpfns taken off it.
    std::vector<std::vector<guestos::Gpfn>> stack(k.numNodes());
    std::vector<std::vector<guestos::Gpfn>> taken(k.numNodes());
    for (unsigned nid = 0; nid < k.numNodes(); ++nid) {
        const guestos::NumaNode &node = k.node(nid);
        for (guestos::Gpfn g = node.base() + node.spanPages();
             g-- > node.base();) {
            stack[nid].push_back(g);
        }
    }
    auto model_pop = [&](unsigned nid) {
        const guestos::Gpfn g = stack[nid].back();
        stack[nid].pop_back();
        taken[nid].push_back(g);
        return g;
    };

    constexpr int early = 40;
    for (int step = 0; step < 2000; ++step) {
        // The first steps grant in full, so the boot range serves
        // several peeks and takes; then each node's range ends in a
        // partial grant, which spills it under a reversed tail.
        const bool split = step >= early && step < early + 2;
        const auto nid = split ? static_cast<unsigned>(step - early)
                               : static_cast<unsigned>(
                                     rng.uniformInt(k.numNodes()));
        auto &model = stack[nid];
        switch (split ? 0 : rng.uniformInt(step < early ? 2 : 4)) {
          case 0: { // peek + commit, as requestPages does
            const std::uint64_t n = split ? 64 : rng.uniformInt(64) + 1;
            const guestos::UnpopulatedView v = k.peekUnpopulatedGpfns(nid, n);
            ASSERT_EQ(v.size(), std::min<std::uint64_t>(n, model.size()));
            std::uint64_t granted = rng.uniformInt(v.size() + 1);
            if (split)
                granted = v.size() / 3;
            else if (step < early || rng.chance(0.3))
                granted = v.size();
            for (std::uint64_t i = 0; i < v.size(); ++i) {
                ASSERT_EQ(v[i], model[model.size() - 1 - i])
                    << "step " << step << " entry " << i;
                const std::uint64_t run = v.ascendingRun(i, v.size() - i);
                ASSERT_GE(run, 1u);
                for (std::uint64_t j = 1; j < run; ++j)
                    ASSERT_EQ(v[i + j], v[i] + j);
            }
            k.commitUnpopulatedGpfns(nid, v.size(), granted);
            // Take the granted prefix, then push the tail back.
            std::vector<guestos::Gpfn> tail;
            for (std::uint64_t i = 0; i < v.size(); ++i) {
                if (i < granted) {
                    model_pop(nid);
                } else {
                    tail.push_back(model.back());
                    model.pop_back();
                }
            }
            model.insert(model.end(), tail.begin(), tail.end());
            break;
          }
          case 1: { // take
            const std::uint64_t n = rng.uniformInt(32);
            const auto got = k.takeUnpopulatedGpfns(nid, n);
            ASSERT_EQ(got.size(), std::min<std::uint64_t>(n, model.size()));
            for (guestos::Gpfn g : got)
                ASSERT_EQ(g, model_pop(nid)) << "step " << step;
            break;
          }
          default: { // return some taken gpfns, in random order
            auto &held = taken[nid];
            std::vector<guestos::Gpfn> back;
            for (std::uint64_t n = rng.uniformInt(24); n > 0 && !held.empty();
                 --n) {
                const std::size_t i = rng.uniformInt(held.size());
                back.push_back(held[i]);
                held[i] = held.back();
                held.pop_back();
            }
            k.returnUnpopulatedGpfns(nid, back);
            model.insert(model.end(), back.begin(), back.end());
            break;
          }
        }
        const guestos::UnpopulatedView all =
            k.peekUnpopulatedGpfns(nid, ~std::uint64_t(0));
        ASSERT_EQ(all.size(), model.size()) << "step " << step;
        for (std::uint64_t i = 0; i < all.size(); ++i) {
            ASSERT_EQ(all[i], model[model.size() - 1 - i])
                << "step " << step << " entry " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnpopulatedChurn,
                         ::testing::Values(4, 66, 1031));

} // namespace
