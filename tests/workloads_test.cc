// Workload semantic-preservation tests.
//
// Each synthetic SPEC stand-in runs (a) natively (no guards) and (b) under
// every LFI configuration. The exit status is a data-dependent checksum,
// so any rewriting bug that changes program behaviour - a mis-rebased
// offset, a clobbered register, a wrong addressing-mode split - shows up
// as a status mismatch. Rewritten binaries must also pass the verifier
// (enforced automatically by the loader).

#include <gtest/gtest.h>

#include "elf/build.h"
#include "runtime/runtime.h"
#include "workloads/workloads.h"

namespace lfi::workloads {
namespace {

constexpr uint64_t kScale = 300000;

runtime::RuntimeConfig Config(bool verify) {
  runtime::RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  cfg.enforce_verification = verify;
  return cfg;
}

// Runs `src` under the given rewrite options; returns the exit status or
// -1000 on error.
int RunStatus(const std::string& src, bool guards,
              rewriter::OptLevel level = rewriter::OptLevel::kO2,
              bool sandbox_loads = true) {
  rewriter::RewriteOptions opts;
  opts.insert_guards = guards;
  opts.level = level;
  opts.sandbox_loads = sandbox_loads;
  auto elf_bytes = elf::Build(src, opts);
  if (!elf_bytes.ok()) {
    ADD_FAILURE() << elf_bytes.error();
    return -1000;
  }
  // Native (guard-free) binaries cannot verify; sandbox_loads=false
  // binaries verify with load checks off.
  runtime::Runtime rt(Config(false));
  auto pid = rt.Load(elf_bytes->bytes);
  if (!pid.ok()) {
    ADD_FAILURE() << pid.error();
    return -1000;
  }
  rt.RunUntilIdle(uint64_t{200} * 1000 * 1000);
  const runtime::Proc* p = rt.proc(*pid);
  if (p->exit_kind != runtime::ExitKind::kExited) {
    ADD_FAILURE() << "killed: " << p->fault_detail;
    return -1000;
  }
  return p->exit_status;
}

class WorkloadTest : public ::testing::TestWithParam<WorkloadInfo> {};

TEST_P(WorkloadTest, AllConfigsPreserveSemantics) {
  const std::string src = Generate(GetParam().name, kScale);
  ASSERT_FALSE(src.empty());
  const int native = RunStatus(src, /*guards=*/false);
  ASSERT_NE(native, -1000);
  EXPECT_EQ(RunStatus(src, true, rewriter::OptLevel::kO0), native) << "O0";
  EXPECT_EQ(RunStatus(src, true, rewriter::OptLevel::kO1), native) << "O1";
  EXPECT_EQ(RunStatus(src, true, rewriter::OptLevel::kO2), native) << "O2";
  EXPECT_EQ(RunStatus(src, true, rewriter::OptLevel::kO2, false), native)
      << "no-loads";
}

TEST_P(WorkloadTest, RewrittenBinaryVerifies) {
  const std::string src = Generate(GetParam().name, 50000);
  rewriter::RewriteOptions opts;
  auto elf_bytes = elf::Build(src, opts);
  ASSERT_TRUE(elf_bytes.ok()) << elf_bytes.error();
  runtime::Runtime rt(Config(true));  // verification enforced
  auto pid = rt.Load(elf_bytes->bytes);
  EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error());
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadTest, ::testing::ValuesIn(AllWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadInfo>& info) {
      std::string n = info.param.name;
      for (char& c : n) {
        if (c == '.') c = '_';
      }
      return n;
    });

TEST(Workloads, SevenAreWasmCompatible) {
  int n = 0;
  for (const auto& w : AllWorkloads()) n += w.wasm_compatible;
  EXPECT_EQ(n, 7);
}

}  // namespace
}  // namespace lfi::workloads
