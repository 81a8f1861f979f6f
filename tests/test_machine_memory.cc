/**
 * @file
 * MachineMemory / MachineNode: frame allocation, ownership tracking,
 * exhaustion, and MFN-range routing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/machine_memory.hh"

namespace {

using namespace hos::mem;

/** allocFrames() with its runs collected into one list of MFNs. */
std::vector<Mfn>
allocList(MachineNode &node, OwnerId owner, std::uint64_t n)
{
    std::vector<Mfn> out;
    node.allocFrames(owner, n, [&out](Mfn first, std::uint64_t count) {
        for (std::uint64_t i = 0; i < count; ++i)
            out.push_back(first + i);
    });
    return out;
}

TEST(MachineNode, AllocatesAscendingUniqueFrames)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib)); // 256 frames
    auto &node = mm.node(0);
    EXPECT_EQ(node.totalFrames(), 256u);

    auto a = node.allocFrame(firstVmOwner);
    auto b = node.allocFrame(firstVmOwner);
    ASSERT_TRUE(a && b);
    EXPECT_NE(*a, *b);
    EXPECT_EQ(node.frameOwner(*a), firstVmOwner);
    EXPECT_EQ(node.usedFrames(), 2u);
}

TEST(MachineNode, ExhaustionReturnsNullopt)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    auto &node = mm.node(0);
    auto frames = allocList(node, firstVmOwner, 1000);
    EXPECT_EQ(frames.size(), 256u);
    EXPECT_FALSE(node.allocFrame(firstVmOwner).has_value());
    EXPECT_EQ(node.freeFrames(), 0u);
}

TEST(MachineNode, FreeReturnsFramesForReuse)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    auto &node = mm.node(0);
    auto frames = allocList(node, firstVmOwner, 256);
    for (Mfn mfn : frames)
        node.freeFrame(mfn);
    EXPECT_EQ(node.freeFrames(), 256u);
    EXPECT_EQ(node.framesOwnedBy(firstVmOwner), 0u);
    EXPECT_TRUE(node.allocFrame(firstVmOwner).has_value());
}

TEST(MachineNode, OwnerAccountingPerOwner)
{
    MachineMemory mm;
    mm.addNode(MemType::SlowMem, dramSpec(mib));
    auto &node = mm.node(0);
    allocList(node, firstVmOwner, 10);
    allocList(node, firstVmOwner + 1, 5);
    EXPECT_EQ(node.framesOwnedBy(firstVmOwner), 10u);
    EXPECT_EQ(node.framesOwnedBy(firstVmOwner + 1), 5u);
    EXPECT_EQ(node.framesOwnedBy(ownerVmm), 0u);
}

TEST(MachineMemory, MfnRangesAreDisjointAndRoutable)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    mm.addNode(MemType::SlowMem, dramSpec(2 * mib));
    auto &fast = mm.node(0);
    auto &slow = mm.node(1);
    EXPECT_EQ(slow.mfnBase(), fast.mfnBase() + fast.totalFrames());

    auto f = fast.allocFrame(firstVmOwner);
    auto s = slow.allocFrame(firstVmOwner);
    ASSERT_TRUE(f && s);
    EXPECT_EQ(&mm.nodeOfMfn(*f), &fast);
    EXPECT_EQ(&mm.nodeOfMfn(*s), &slow);
}

TEST(MachineMemory, TypeLookup)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    EXPECT_TRUE(mm.hasType(MemType::FastMem));
    EXPECT_FALSE(mm.hasType(MemType::SlowMem));
    EXPECT_EQ(mm.nodeByType(MemType::FastMem).nodeId(), 0u);
}

TEST(MachineNode, DoubleFreePanics)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    auto &node = mm.node(0);
    auto f = node.allocFrame(firstVmOwner);
    node.freeFrame(*f);
    EXPECT_DEATH(node.freeFrame(*f), "double free");
}

} // namespace
