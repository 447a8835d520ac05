// Snapshot instantiation benchmarks (docs/SNAPSHOTS.md).
//
//   elf-load        cold instantiation: parse + verify + lay out every
//                   page of the image (the modeled per-page load cost; on
//                   the host only pages with nonzero bytes are copied, the
//                   rest share one zero page)
//   snapshot-spawn  warm instantiation from a captured image: COW page
//                   install only, nothing copied
//   restart-restore supervisor restart via snapshot restore: only pages
//                   the crashed run actually dirtied are re-installed
//   fleet           4096 sandboxes parked from the image in one runtime:
//                   host memory per parked sandbox (host-only, ungated),
//                   and spawn and Recycle cycles at slot 1 against slot
//                   4096
//
// Gates (checked here and in BENCH_BASELINE.json): snapshot spawn >= 10x
// cheaper than ELF load; a snapshot restart >= 5x cheaper than an ELF
// load of the same image.

#include <unistd.h>

#include <utility>

#include "harness.h"

namespace lfi::bench {
namespace {

// A service-sized image (~1MiB of data, 64+ pages) that dirties one data
// page and then faults — the shape that makes restart interesting: the
// image is large, the delta is small.
std::string ServiceProg() {
  return R"(
    adrp x1, table
    add x1, x1, :lo12:table
    add x18, x21, w1, uxtw
    mov x2, #1
    str x2, [x18]           // dirty one data page
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]           // guard-region fault
  .data
  table:
    .zero 1048576
  )";
}

struct RestartRun {
  bool ok = false;
  uint64_t restore_cycles = 0;  // last_instantiation after the run
  std::string error;
};

RestartRun RunRestartLoop(const Built& b, int budget) {
  RestartRun r;
  runtime::RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  runtime::Runtime rt(cfg);
  auto pid = rt.Load({b.elf.data(), b.elf.size()});
  if (!pid.ok()) {
    r.error = pid.error();
    return r;
  }
  runtime::SupervisorPolicy pol;
  pol.on_fault = runtime::FaultAction::kRestart;
  pol.restart_budget = static_cast<uint32_t>(budget);
  pol.restart_backoff_base_cycles = 0;
  rt.set_policy(*pid, pol);
  rt.RunUntilIdle(uint64_t{200} * 1000 * 1000);
  const auto* p = rt.proc(*pid);
  if (p->restarts != static_cast<uint32_t>(budget)) {
    r.error = "restart budget not consumed";
    return r;
  }
  r.restore_cycles = rt.last_instantiation().cycles;
  r.ok = true;
  return r;
}

// The process's resident set in bytes (0 where /proc is unavailable).
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  using namespace lfi::bench;
  JsonReport report = JsonReport::FromArgs(argc, argv);
  const lfi::arch::CoreParams core = lfi::arch::AppleM1LikeParams();

  const Built b = BuildRaw(ServiceProg());
  if (!b.ok) {
    std::fprintf(stderr, "error: build: %s\n", b.error.c_str());
    return 1;
  }

  // ---- Instantiation: ELF load vs snapshot spawn -------------------------
  lfi::runtime::RuntimeConfig cfg;
  cfg.core = core;
  lfi::runtime::Runtime rt(cfg);
  auto pid = rt.Load({b.elf.data(), b.elf.size()});
  if (!pid.ok()) {
    std::fprintf(stderr, "error: load: %s\n", pid.error().c_str());
    return 1;
  }
  const double load_cycles = static_cast<double>(rt.last_instantiation().cycles);
  const double image_pages = static_cast<double>(rt.last_instantiation().pages);

  auto cap = rt.CaptureSnapshot(*pid);
  if (!cap.ok()) {
    std::fprintf(stderr, "error: capture: %s\n", cap.error().c_str());
    return 1;
  }
  auto snap =
      std::make_shared<lfi::snapshot::Snapshot>(*std::move(cap));
  auto spawned = rt.SpawnFromSnapshot(snap, /*start=*/false);
  if (!spawned.ok()) {
    std::fprintf(stderr, "error: spawn: %s\n", spawned.error().c_str());
    return 1;
  }
  const double spawn_cycles =
      static_cast<double>(rt.last_instantiation().cycles);
  const double spawn_speedup = load_cycles / spawn_cycles;

  // ---- Host time: serializing the captured image ------------------------
  // Informational: image bytes (every captured page) per host second.
  // Most of this image is zero pages, which Serialize elides.
  constexpr int kSerializeReps = 20;
  const double image_bytes =
      static_cast<double>(snap->pages.size() * lfi::emu::kPageSize);
  size_t serialized = 0;
  const double serialize_secs = BestOf3Seconds([&] {
    for (int r = 0; r < kSerializeReps; ++r) {
      serialized = lfi::snapshot::Serialize(*snap).size();
    }
  });
  const double serialize_mb_per_s =
      kSerializeReps * image_bytes / serialize_secs / 1e6;

  // ---- Fleet: 4096 parked sandboxes from one image -----------------------
  // Every spawn shares the image's payloads, so what a parked sandbox
  // costs the host is its page table and bookkeeping.
  constexpr int kFleet = 4096;
  double fleet_first_cycles = 0, fleet_last_cycles = 0;
  double recycle_first_cycles = 0, recycle_last_cycles = 0;
  double fleet_kb_per_sandbox = 0;
  {
    lfi::runtime::Runtime fleet(cfg);
    const uint64_t rss_before = ResidentBytes();
    int first_pid = 0, last_pid = 0;
    for (int k = 1; k <= kFleet; ++k) {
      auto pid = fleet.SpawnFromSnapshot(snap, /*start=*/false);
      if (!pid.ok()) {
        std::fprintf(stderr, "error: fleet spawn %d: %s\n", k,
                     pid.error().c_str());
        return 1;
      }
      const double cycles =
          static_cast<double>(fleet.last_instantiation().cycles);
      if (k == 1) {
        fleet_first_cycles = cycles;
        first_pid = *pid;
      }
      if (k == kFleet) {
        fleet_last_cycles = cycles;
        last_pid = *pid;
      }
    }
    const uint64_t rss_after = ResidentBytes();
    fleet_kb_per_sandbox =
        static_cast<double>(rss_after > rss_before ? rss_after - rss_before
                                                   : 0) /
        1024.0 / kFleet;
    // Recycling a parked sandbox rolls it back to the image it was spawned
    // from; its cost should not depend on the slot either.
    for (auto [pid, cycles] : {std::pair{first_pid, &recycle_first_cycles},
                               std::pair{last_pid, &recycle_last_cycles}}) {
      if (auto st = fleet.Recycle(pid); !st.ok()) {
        std::fprintf(stderr, "error: fleet recycle %d: %s\n", pid,
                     st.error().c_str());
        return 1;
      }
      *cycles = static_cast<double>(fleet.last_instantiation().cycles);
    }
  }

  // ---- Restart: snapshot restore vs ELF load of the same image ----------
  const RestartRun restore = RunRestartLoop(b, /*budget=*/100);
  if (!restore.ok) {
    std::fprintf(stderr, "error: restart loop: %s\n", restore.error.c_str());
    return 1;
  }
  const double restore_cycles = static_cast<double>(restore.restore_cycles);
  const double restart_vs_load = load_cycles / restore_cycles;

  std::printf("Snapshot instantiation (%s, simulated cycles; image %.0f "
              "pages)\n",
              core.name.c_str(), image_pages);
  std::printf("%-18s %12s %10s\n", "path", "cycles", "speedup");
  std::printf("%-18s %12.1f %10s\n", "elf-load", load_cycles, "1.0x");
  std::printf("%-18s %12.1f %9.1fx\n", "snapshot-spawn", spawn_cycles,
              spawn_speedup);
  std::printf("%-18s %12.1f %9.1fx\n", "restart-restore", restore_cycles,
              restart_vs_load);
  std::printf("serialize: %.0f MB/s (%.0f image bytes -> %zu bytes)\n",
              serialize_mb_per_s, image_bytes, serialized);
  std::printf("fleet: %d parked sandboxes, %.1f host KB each; spawn %.0f "
              "cycles at slot 1, %.0f at slot %d; recycle %.0f, %.0f\n",
              kFleet, fleet_kb_per_sandbox, fleet_first_cycles,
              fleet_last_cycles, kFleet, recycle_first_cycles,
              recycle_last_cycles);

  report.Add("snapshot.elf-load.cycles", load_cycles);
  report.Add("snapshot.spawn.cycles", spawn_cycles);
  report.Add("snapshot.spawn.speedup", spawn_speedup);
  report.Add("snapshot.restart-restore.cycles", restore_cycles);
  report.Add("snapshot.restart-vs-load.speedup", restart_vs_load);
  report.Add("snapshot.serialize.mb_per_s", serialize_mb_per_s);
  report.Add("snapshot.fleet.host_kb_per_sandbox", fleet_kb_per_sandbox);
  report.Add("snapshot.fleet.spawn-slot1.cycles", fleet_first_cycles);
  report.Add("snapshot.fleet.spawn-slot4096.cycles", fleet_last_cycles);
  report.Add("snapshot.fleet.recycle-slot1.cycles", recycle_first_cycles);
  report.Add("snapshot.fleet.recycle-slot4096.cycles", recycle_last_cycles);
  if (!report.Write()) return 1;

  // Self-gating: the headline claims of docs/SNAPSHOTS.md.
  if (spawn_speedup < 10.0) {
    std::fprintf(stderr, "FAIL: snapshot spawn only %.1fx cheaper than ELF "
                 "load (need >= 10x)\n", spawn_speedup);
    return 1;
  }
  if (restart_vs_load < 5.0) {
    std::fprintf(stderr, "FAIL: snapshot restart only %.1fx cheaper than "
                 "an ELF load (need >= 5x)\n", restart_vs_load);
    return 1;
  }
  return 0;
}
