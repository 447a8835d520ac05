// The LFI static verifier (Section 5.2).
//
// A small, single-linear-pass checker over the *machine code* of a
// program's text segment. It is the security-critical component: the
// compiler and rewriter are untrusted, and any program whose text passes
// this verifier is safe to run in a sandbox slot regardless of how it was
// produced. The properties enforced are exactly the paper's:
//
//  1. Loads, stores, and indirect branches only target reserved registers
//     (which always hold valid sandbox addresses) or use safe addressing
//     modes ([x21, wN, uxtw] with no shift; immediate offsets that cannot
//     reach past the guard regions).
//  2. Reserved registers are only modified in invariant-preserving ways:
//     x21 never; x18/x23/x24 only via `add xR, x21, wN, uxtw`; x22 only by
//     writes that zero the top 32 bits; x30 only by bl/blr, the guard, or
//     a load followed by `blr x30` (call table) or the guard; sp only via the
//     `add sp, x21, x22` guard, small add/sub followed in-block by an
//     sp-based access, or pre/post-index writeback.
//  3. Only instructions from the supported ARMv8.0 allowlist appear
//     (undecodable words and system instructions are rejected).
//
// The pass decodes kWindowWords words at a time into one reused buffer
// and checks each window before decoding the next. The only state carried
// between words is what an accepted instruction leaves open: a small sp
// adjust waiting for an sp-based access or the sp guard, and an x30 load
// waiting for `blr x30` or the x30 guard on the next word. A broken one
// fails at the word that raised it; the end of the text breaks any still
// open. An undecodable word anywhere beats every check failure.
#ifndef LFI_VERIFIER_VERIFIER_H_
#define LFI_VERIFIER_VERIFIER_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "arch/inst.h"

namespace lfi::verifier {

// Words decoded and checked per step of the pass.
inline constexpr size_t kWindowWords = 1024;

// The slot geometry the checks assume (the guard size and the callable
// part of the call table) is runtime/layout.h's, not an option.
struct VerifyOptions {
  // When false, loads are not checked (the "no loads" fault-isolation-only
  // configuration in Figure 3).
  bool check_loads = true;
  // Allow load-linked/store-conditional (ldxr/stxr). Section 7.1: LL/SC
  // enables a timerless cache side channel on Apple M1 (S2C, USENIX Sec
  // '23); with software protection the fix is one verifier switch - the
  // kind of mitigation agility hardware protection cannot offer.
  bool allow_llsc = true;
};

// Stable classification of why a text was rejected. Tools that triage
// verdicts mechanically (the fuzzer, tests, CI) switch on this instead of
// string-matching the free-form `reason`, which stays human-oriented and
// may be reworded freely.
enum class FailKind : uint8_t {
  kNone = 0,                  // ok == true
  kTextSize,                  // text length not a multiple of 4
  kUndecodable,               // word outside the ARMv8.0 allowlist
  kSystemInstruction,         // svc/mrs/msr
  kLlscDisallowed,            // ldxr/stxr with allow_llsc == false
  kBadAddressingMode,         // unguarded base / non-uxtw register offset
  kGuardRangeOverflow,        // immediate offset reaches past a guard region
  kReservedWriteback,         // writeback addressing on a reserved register
  kUnguardedIndirectBranch,   // br/blr/ret through a non-reserved register
  kBaseRegWrite,              // any write to x21
  kAddressRegWrite,           // unguarded write to x18/x23/x24
  kScratchRegWrite,           // 64-bit write to x22
  kLinkRegProtocol,           // x30 written outside the bl/guard/table rules
  kSpProtocol,                // sp written outside the Section 4.2 rules
  kCount,                     // number of kinds (for histogram arrays)
};

// Short stable name for a kind ("sp-protocol", ...), for logs/artifacts.
const char* FailKindName(FailKind k);

struct VerifyResult {
  bool ok = false;
  uint64_t fail_offset = 0;  // byte offset of the offending instruction
  FailKind kind = FailKind::kNone;
  std::string reason;
  uint64_t insts_checked = 0;

  static VerifyResult Ok(uint64_t n) {
    VerifyResult r;
    r.ok = true;
    r.insts_checked = n;
    return r;
  }
  static VerifyResult Fail(uint64_t offset, FailKind kind,
                           std::string reason) {
    VerifyResult r;
    r.fail_offset = offset;
    r.kind = kind;
    r.reason = std::move(reason);
    return r;
  }
};

// Accumulated verification statistics, for observability (`lfi-run
// --stats`). Host wall-clock times, summed over the windows of the pass:
// decoding each window, then checking it. Being host times they are NOT
// deterministic and must never feed the simulated-cycle trace.
struct VerifyStats {
  uint64_t calls = 0;             // Verify() invocations
  uint64_t insts_checked = 0;     // instructions in accepted texts
  double decode_seconds = 0;
  double check_seconds = 0;
  // Verdict histogram; index FailKind::kNone counts accepted texts.
  std::array<uint64_t, static_cast<size_t>(FailKind::kCount)> fail_counts{};
};

// Verifies a text segment (little-endian instruction words). When `stats`
// is non-null, per-phase timing and the verdict are accumulated into it.
VerifyResult Verify(std::span<const uint8_t> text,
                    const VerifyOptions& opts = {},
                    VerifyStats* stats = nullptr);

// The verdict of a text holding only `i`, so an x30 load or a small sp
// adjust fails: the end of the text breaks its obligation. The
// verify_model enumerator classifies single instructions with this.
FailKind CheckInst(const arch::Inst& i, const VerifyOptions& opts = {});

}  // namespace lfi::verifier

#endif  // LFI_VERIFIER_VERIFIER_H_
