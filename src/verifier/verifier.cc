#include "verifier/verifier.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "arch/decode.h"
#include "arch/inst.h"
#include "runtime/layout.h"

namespace lfi::verifier {

namespace {

using arch::AddrMode;
using arch::Inst;
using arch::Mn;
using arch::Reg;
using arch::Width;

// A classified rule violation; kind == kNone means the check passed.
struct Violation {
  FailKind kind = FailKind::kNone;
  std::string reason;
  uint64_t at = 0;  // word index of the instruction that raised it

  bool ok() const { return kind == FailKind::kNone; }
};

// The obligations accepted instructions leave open (verifier.h), each
// held as the violation it becomes unless a later word meets it.
struct Open {
  Violation sp;   // small sp adjust: an sp access or the sp guard
  Violation x30;  // x30 load: blr x30 next (x30_blr) or the x30 guard
  bool x30_blr = false;
  uint64_t at = 0;  // the word being checked, stamped on what it raises
};

// Checks the addressing of one memory access. `i` must be a memory access.
Violation CheckAccess(const Inst& i) {
  const auto& m = i.mem;
  // Total footprint of the access (pair accesses touch 2*msize).
  const uint64_t footprint =
      (i.mn == Mn::kLdp || i.mn == Mn::kStp) ? 2u * i.msize : i.msize;

  if (m.IsRegOffset()) {
    // Only the guarded mode is safe: base x21, 32-bit zero-extended index,
    // no shift (a shifted index could scale past the 4GiB slot).
    if (m.mode != AddrMode::kRegUxtw) {
      return {FailKind::kBadAddressingMode,
              "register-offset access without uxtw"};
    }
    if (m.base != arch::kRegBase) {
      return {FailKind::kBadAddressingMode,
              "guarded addressing mode requires base x21"};
    }
    if (m.shift != 0) {
      return {FailKind::kBadAddressingMode,
              "guarded addressing mode must use shift #0"};
    }
    return {};
  }

  // Immediate modes: base must be a reserved address register or sp.
  if (!arch::IsAddressReserved(m.base) && !m.base.IsSp()) {
    return {FailKind::kBadAddressingMode,
            "memory access through unguarded base register"};
  }
  // Writeback modifies the base: only sp may be updated this way (the
  // +-256-byte index stays well inside the guard region, Section 4.2).
  if (m.HasWriteback() && !m.base.IsSp()) {
    return {FailKind::kReservedWriteback,
            "writeback addressing on a reserved register"};
  }
  // The offset must not be able to escape past a guard region even when
  // the base sits at the very edge of the sandbox.
  const int64_t lo = m.imm;
  const int64_t hi = m.imm + static_cast<int64_t>(footprint);
  if (lo < -static_cast<int64_t>(runtime::kGuardSize) ||
      hi > static_cast<int64_t>(runtime::kGuardSize)) {
    return {FailKind::kGuardRangeOverflow,
            "immediate offset reaches past the guard region"};
  }
  return {};
}

// Checks writes to reserved registers in `i`; an x30 load or a small sp
// adjust passes here and leaves its obligation in `open`.
Violation CheckReservedWrites(const Inst& i, Open* open) {
  // x21 (sandbox base): never written, through any channel.
  if (arch::WritesGpr(i, arch::kRegBase)) {
    return {FailKind::kBaseRegWrite, "write to x21"};
  }

  // x18/x23/x24: only the guard.
  for (Reg r : {arch::kRegAddr, arch::kRegHoist0, arch::kRegHoist1}) {
    if (arch::WritesGpr(i, r) && !arch::IsGuardFor(i, r)) {
      return {FailKind::kAddressRegWrite,
              "unguarded write to " + arch::RegName(r, Width::kX)};
    }
  }

  // x22: any write must zero the top 32 bits.
  if (arch::WritesGpr(i, arch::kRegScratch) &&
      !arch::WriteZeroExtends(i, arch::kRegScratch)) {
    return {FailKind::kScratchRegWrite,
            "64-bit write to x22 breaks its 32-bit invariant"};
  }

  // x30: guard, bl/blr, or a load the next word discharges: blr x30
  // after a call-table load, the x30 guard after any other load (e.g. an
  // epilogue ldp) before any branch could use it.
  if (arch::WritesGpr(i, arch::kRegLink) && i.mn != Mn::kBl &&
      i.mn != Mn::kBlr && !arch::IsGuardFor(i, arch::kRegLink)) {
    if (!arch::IsLoad(i)) {
      return {FailKind::kLinkRegProtocol, "unguarded write to x30"};
    }
    // A call-table load is ldr x30, [x21, #n] with n inside the table.
    open->x30_blr = i.mn == Mn::kLdr && !i.msigned && i.msize == 8 &&
                    i.rt == arch::kRegLink && i.mem.base == arch::kRegBase &&
                    i.mem.mode == AddrMode::kImm && i.mem.imm >= 0 &&
                    static_cast<uint64_t>(i.mem.imm) + 8 <=
                        runtime::kCallTableBytes;
    open->x30 = {FailKind::kLinkRegProtocol,
                 open->x30_blr
                     ? "call-table load of x30 not followed by blr x30"
                     : "load of x30 not followed by its guard",
                 open->at};
  }

  // sp: guard, small add/sub with an in-block sp access following, or
  // pre/post-index writeback (already restricted to sp in CheckAccess;
  // the imm9 encoding bounds the step to +-256 bytes).
  if (arch::WritesGpr(i, Reg::Sp()) && !arch::IsMemAccess(i) &&
      !arch::IsSpGuard(i)) {
    const bool small_adjust =
        (i.mn == Mn::kAddImm || i.mn == Mn::kSubImm) && i.rn.IsSp() &&
        i.rd.IsSp() && i.width == Width::kX && i.imm < 1024;
    if (!small_adjust) {
      return {FailKind::kSpProtocol, "unguarded write to sp"};
    }
    open->sp = {FailKind::kSpProtocol,
                "sp adjusted without a following in-block access", open->at};
  }
  return {};
}

// The full per-instruction check, in the precedence order the pass
// applies (observable through FailKind when one instruction breaks
// several rules): allowlist/system, ll/sc, memory addressing, indirect
// branches, then reserved-register writes.
Violation CheckInstImpl(const Inst& i, const VerifyOptions& opts,
                        Open* open) {
  // Property 3: instruction allowlist. The decoder already rejects
  // everything outside the supported ARMv8.0 subset; system instructions
  // that do decode are forbidden here.
  if (i.mn == Mn::kSvc || i.mn == Mn::kMrs || i.mn == Mn::kMsr) {
    return {FailKind::kSystemInstruction, "system instruction"};
  }
  if (!opts.allow_llsc && (i.mn == Mn::kLdxr || i.mn == Mn::kStxr)) {
    return {FailKind::kLlscDisallowed,
            "ll/sc disallowed (timerless side-channel mitigation)"};
  }

  // Property 1a: memory accesses.
  if (arch::IsMemAccess(i)) {
    const bool pure_load = arch::IsLoad(i) && !arch::IsStore(i);
    if (opts.check_loads || !pure_load) {
      if (auto v = CheckAccess(i); !v.ok()) return v;
    } else if (i.mem.HasWriteback() && !i.mem.base.IsSp() &&
               arch::IsReservedGpr(i.mem.base)) {
      return {FailKind::kReservedWriteback,
              "writeback on reserved register"};
    }
  }

  // Property 1b: indirect branches.
  if (arch::IsIndirectBranch(i)) {
    if (!arch::IsAddressReserved(i.rn) && i.rn != arch::kRegLink) {
      return {FailKind::kUnguardedIndirectBranch,
              "indirect branch through unguarded register"};
    }
  }

  // Property 2: reserved-register integrity.
  return CheckReservedWrites(i, open);
}

}  // namespace

FailKind CheckInst(const arch::Inst& i, const VerifyOptions& opts) {
  Open open;
  const Violation v = CheckInstImpl(i, opts, &open);
  return !v.ok() ? v.kind : !open.sp.ok() ? open.sp.kind : open.x30.kind;
}

const char* FailKindName(FailKind k) {
  switch (k) {
    case FailKind::kNone: return "none";
    case FailKind::kTextSize: return "text-size";
    case FailKind::kUndecodable: return "undecodable";
    case FailKind::kSystemInstruction: return "system-instruction";
    case FailKind::kLlscDisallowed: return "llsc-disallowed";
    case FailKind::kBadAddressingMode: return "bad-addressing-mode";
    case FailKind::kGuardRangeOverflow: return "guard-range-overflow";
    case FailKind::kReservedWriteback: return "reserved-writeback";
    case FailKind::kUnguardedIndirectBranch:
      return "unguarded-indirect-branch";
    case FailKind::kBaseRegWrite: return "base-reg-write";
    case FailKind::kAddressRegWrite: return "address-reg-write";
    case FailKind::kScratchRegWrite: return "scratch-reg-write";
    case FailKind::kLinkRegProtocol: return "link-reg-protocol";
    case FailKind::kSpProtocol: return "sp-protocol";
    case FailKind::kCount: break;
  }
  return "?";
}

VerifyResult Verify(std::span<const uint8_t> text,
                    const VerifyOptions& opts, VerifyStats* stats) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point t = stats != nullptr ? Clock::now() : Clock::time_point{};
  // Charges the time since the last lap to one of the two phases.
  auto lap = [&](double VerifyStats::*phase) {
    if (stats == nullptr) return;
    const Clock::time_point now = Clock::now();
    stats->*phase += std::chrono::duration<double>(now - t).count();
    t = now;
  };
  // Every return funnels through this so the stats see every verdict.
  auto finish = [&](VerifyResult r) {
    if (stats != nullptr) {
      ++stats->calls;
      ++stats->fail_counts[static_cast<size_t>(r.kind)];
      stats->insts_checked += r.insts_checked;
    }
    return r;
  };

  if (text.size() % 4 != 0) {
    return finish(VerifyResult::Fail(text.size() & ~uint64_t{3},
                                     FailKind::kTextSize,
                                     "text size not a multiple of 4"));
  }
  const uint64_t n = text.size() / 4;
  std::vector<Inst> window;
  window.reserve(std::min<uint64_t>(n, kWindowWords));
  Violation fail;  // earliest so far; only an open sp adjust can beat it
  Open open;
  for (uint64_t first = 0; first < n; first += kWindowWords) {
    // Decode first: an undecodable word beats every check failure, so
    // windows past a known failure are still decoded.
    const uint64_t end = std::min(n, first + kWindowWords);
    window.clear();
    for (uint64_t k = first; k < end; ++k) {
      auto inst = arch::Decode(arch::ReadWordLE(text, k * 4));
      if (!inst) {
        lap(&VerifyStats::decode_seconds);
        return finish(
            VerifyResult::Fail(k * 4, FailKind::kUndecodable,
                               "undecodable instruction: " + inst.error()));
      }
      window.push_back(*inst);
    }
    lap(&VerifyStats::decode_seconds);
    for (uint64_t k = first; k < end; ++k) {
      if (!fail.ok() && open.sp.ok()) break;  // verdict settled
      const Inst& i = window[k - first];
      // The open sp obligation first: it is older than anything else.
      if (!open.sp.ok()) {
        if ((arch::IsMemAccess(i) && i.mem.base.IsSp()) ||
            arch::IsSpGuard(i)) {
          open.sp = {};
        } else if (arch::IsBranch(i) || arch::WritesGpr(i, Reg::Sp())) {
          if (!arch::IsBranch(i)) {
            open.sp.reason = "sp adjusted twice without an access";
          }
          fail = std::exchange(open.sp, {});
          break;
        }
      }
      if (!fail.ok()) continue;  // past a failure only sp can still win
      if (!open.x30.ok() &&
          !(open.x30_blr ? i.mn == Mn::kBlr && i.rn == arch::kRegLink
                         : arch::IsGuardFor(i, arch::kRegLink))) {
        fail = std::exchange(open.x30, {});
        continue;
      }
      open.x30.kind = FailKind::kNone;  // met
      open.at = k;
      if (Violation v = CheckInstImpl(i, opts, &open); !v.ok()) {
        fail = {v.kind, std::move(v.reason), k};
      }
    }
    lap(&VerifyStats::check_seconds);
  }
  // The end of the text breaks whatever is still open; an open sp adjust
  // is older than any failure or x30 load.
  if (!open.sp.ok()) fail = std::move(open.sp);
  if (fail.ok()) fail = std::move(open.x30);
  if (fail.ok()) return finish(VerifyResult::Ok(n));
  return finish(VerifyResult::Fail(fail.at * 4, fail.kind,
                                   std::move(fail.reason)));
}

}  // namespace lfi::verifier
