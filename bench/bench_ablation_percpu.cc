/**
 * @file
 * Ablation: the multi-dimensional per-CPU free lists (Section 3.1).
 *
 * Measures allocation fast-path throughput with the per-CPU caches
 * versus direct buddy allocation, for interleaved FastMem/SlowMem
 * allocation streams — the case the redesigned (per-memory-type)
 * lists exist for.
 */

#include <chrono>

#include "bench_common.hh"

using namespace hos;

namespace {

double
allocRate(bool use_percpu, std::uint64_t rounds)
{
    guestos::GuestConfig cfg;
    cfg.name = "ablation";
    cfg.nodes = {{mem::MemType::FastMem, mem::gib, mem::gib},
                 {mem::MemType::SlowMem, 2 * mem::gib, 2 * mem::gib}};
    cfg.alloc = guestos::heapIoSlabOdConfig();
    guestos::GuestKernel kernel(cfg);

    // Stand-alone guest: donate the pages directly (no VMM).
    for (unsigned nid = 0; nid < kernel.numNodes(); ++nid) {
        auto &node = kernel.node(nid);
        auto gpfns = kernel.takeUnpopulatedGpfns(nid, node.spanPages());
        for (guestos::Gpfn pfn : gpfns) {
            kernel.pageMeta(pfn).setPopulated(true);
            node.zoneOf(pfn).buddy().addFreeRange(pfn, 1);
        }
    }

    std::vector<guestos::Gpfn> held;
    held.reserve(1024);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
        const unsigned cpu = r % kernel.config().cpus;
        const unsigned node = r & 1;
        for (int i = 0; i < 512; ++i) {
            guestos::Gpfn pfn = guestos::invalidGpfn;
            if (use_percpu)
                pfn = kernel.percpu().alloc(cpu, kernel.node(node));
            else
                kernel.node(node).allocBatch(1, &pfn);
            if (pfn != guestos::invalidGpfn)
                held.push_back(pfn);
        }
        for (guestos::Gpfn pfn : held) {
            if (use_percpu) {
                kernel.percpu().free(cpu, kernel.nodeOf(pfn), pfn);
            } else {
                kernel.nodeOf(pfn).freeBatch(&pfn, 1);
            }
        }
        held.clear();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(rounds * 512 * 2) / sec / 1e6;
}

} // namespace

int
main()
{
    bench::banner("ablation: per-CPU multi-type free lists");

    const std::uint64_t rounds = 2000;
    sim::Table t("Allocation fast-path throughput");
    t.header({"configuration", "Mops/s (alloc+free)"});
    t.row({"buddy only", sim::Table::num(allocRate(false, rounds), 1)});
    t.row({"per-CPU multi-type lists",
           sim::Table::num(allocRate(true, rounds), 1)});
    t.print();

    std::puts("Expected shape: the per-CPU lists beat direct buddy\n"
              "calls (no order-list manipulation or coalescing on the\n"
              "hot path).");
    return 0;
}
