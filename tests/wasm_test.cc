// Wasm-baseline instrumentation tests: semantic preservation across all
// engine models, and sanity on the overhead ordering.

#include <gtest/gtest.h>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "elf/build.h"
#include "runtime/runtime.h"
#include "wasm/wasm.h"
#include "workloads/workloads.h"

namespace lfi::wasm {
namespace {

// Builds a wasm-instrumented ELF (instrument, expand rtcalls, assemble).
Result<std::vector<uint8_t>> BuildWasmElf(const std::string& src,
                                          Engine engine) {
  auto file = asmtext::Parse(src);
  if (!file) return Error{file.error()};
  auto instrumented = Instrument(*file, engine);
  if (!instrumented) return Error{instrumented.error()};
  rewriter::RewriteOptions opts;
  opts.insert_guards = false;  // wasm engines have no machine-code verifier
  auto expanded = rewriter::Rewrite(*instrumented, opts);
  if (!expanded) return Error{expanded.error()};
  auto img = asmtext::Assemble(*expanded, asmtext::LayoutSpec{});
  if (!img) return Error{img.error()};
  return elf::Write(elf::FromAssembled(*img));
}

struct RunResult {
  int status = -1000;
  uint64_t cycles = 0;
};

RunResult RunElf(const std::vector<uint8_t>& bytes) {
  runtime::RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  cfg.enforce_verification = false;
  runtime::Runtime rt(cfg);
  auto pid = rt.Load({bytes.data(), bytes.size()});
  if (!pid.ok()) {
    ADD_FAILURE() << pid.error();
    return {};
  }
  rt.RunUntilIdle(uint64_t{300} * 1000 * 1000);
  RunResult r;
  const auto* p = rt.proc(*pid);
  if (p->exit_kind != runtime::ExitKind::kExited) {
    ADD_FAILURE() << "killed: " << p->fault_detail;
    return {};
  }
  r.status = p->exit_status;
  r.cycles = rt.Cycles();
  return r;
}

class WasmEngineTest : public ::testing::TestWithParam<Engine> {};

TEST_P(WasmEngineTest, PreservesWorkloadSemantics) {
  for (const auto& w : workloads::AllWorkloads()) {
    if (!w.wasm_compatible) continue;
    const std::string src = workloads::Generate(w.name, 150000);
    auto native = elf::Build(src, [] {
      rewriter::RewriteOptions o;
      o.insert_guards = false;
      return o;
    }());
    ASSERT_TRUE(native.ok()) << native.error();
    auto wasmed = BuildWasmElf(src, GetParam());
    ASSERT_TRUE(wasmed.ok()) << w.name << ": " << wasmed.error();
    const RunResult n = RunElf(native->bytes);
    const RunResult ws = RunElf(*wasmed);
    EXPECT_EQ(ws.status, n.status) << w.name;
    // Sandboxing never speeds a program up.
    EXPECT_GE(ws.cycles, n.cycles) << w.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, WasmEngineTest,
                         ::testing::Values(Engine::kWasmtime, Engine::kWasm2c,
                                           Engine::kWasm2cNoBarrier,
                                           Engine::kWasm2cPinnedReg,
                                           Engine::kWamr),
                         [](const ::testing::TestParamInfo<Engine>& info) {
                           std::string n = EngineName(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Wasm, BarrierCostsMoreThanNoBarrier) {
  // namd has several accesses per basic block, so hoisting the base load
  // (no-barrier) saves real work; mcf-style single-access blocks would
  // show no difference.
  const std::string src = workloads::Generate("508.namd", 200000);
  auto barrier = BuildWasmElf(src, Engine::kWasm2c);
  auto nobarrier = BuildWasmElf(src, Engine::kWasm2cNoBarrier);
  ASSERT_TRUE(barrier.ok() && nobarrier.ok());
  EXPECT_GT(RunElf(*barrier).cycles, RunElf(*nobarrier).cycles);
}

TEST(Wasm, PinnedRegisterBeatsContextLoads) {
  const std::string src = workloads::Generate("519.lbm", 200000);
  auto pinned = BuildWasmElf(src, Engine::kWasm2cPinnedReg);
  auto ctx = BuildWasmElf(src, Engine::kWasm2c);
  ASSERT_TRUE(pinned.ok() && ctx.ok());
  EXPECT_LT(RunElf(*pinned).cycles, RunElf(*ctx).cycles);
}

TEST(Wasm, RejectsProgramsUsingModelRegisters) {
  auto f = asmtext::Parse("mov x25, #1\nret\n");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(Instrument(*f, Engine::kWamr).ok());
}

}  // namespace
}  // namespace lfi::wasm
