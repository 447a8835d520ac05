#include "embed/embed.h"

#include <array>
#include <cstring>

#include "runtime/layout.h"
#include "trace/trace.h"

namespace lfi::embed {

namespace {

using runtime::kProgramEnd;
using runtime::kProgramStart;
using EmbedStop = runtime::Runtime::EmbedStop;
using EmbedEnter = runtime::Runtime::EmbedEnter;

constexpr uint64_t kLow32 = 0xffffffffu;

uint64_t AlignUp16(uint64_t v) { return (v + 15) & ~uint64_t{15}; }

Result<uint64_t> ReadGuestU64(runtime::Runtime* rt, uint64_t addr) {
  std::array<uint8_t, 8> b{};
  auto st = rt->space().HostRead(addr, b);
  if (!st.ok()) return Error{st.error()};
  uint64_t v = 0;
  std::memcpy(&v, b.data(), 8);
  return v;
}

}  // namespace

const char* ErrName(Err e) {
  switch (e) {
    case Err::kNone: return "ok";
    case Err::kCreateFailed: return "create-failed";
    case Err::kNoSuchFunction: return "no-such-function";
    case Err::kTooManyArgs: return "too-many-args";
    case Err::kBufferTooLarge: return "buffer-too-large";
    case Err::kBufferOutOfRange: return "buffer-out-of-range";
    case Err::kBadGuestPointer: return "bad-guest-pointer";
    case Err::kBadCallbackIndex: return "bad-callback-index";
    case Err::kForgedReturn: return "forged-return";
    case Err::kGuestFault: return "guest-fault";
    case Err::kGuestExited: return "guest-exited";
    case Err::kGuestBlocked: return "guest-blocked";
    case Err::kFuelExhausted: return "fuel-exhausted";
    case Err::kSandboxDead: return "sandbox-dead";
    case Err::kReentry: return "reentry";
    case Err::kProtocol: return "protocol";
  }
  return "?";
}

// ---- Shm ----

Status Shm::Write(uint64_t off, std::span<const uint8_t> data) {
  if (rt_ == nullptr) return Status::Fail("shm: empty region");
  if (off > len_ || data.size() > len_ - off) {
    return Status::Fail("shm write: range outside the region");
  }
  rt_->ChargeEmbedCopy(data.size());
  return rt_->space().HostWrite(guest_addr_ + off, data);
}

Status Shm::Read(uint64_t off, std::span<uint8_t> out) const {
  if (rt_ == nullptr) return Status::Fail("shm: empty region");
  if (off > len_ || out.size() > len_ - off) {
    return Status::Fail("shm read: range outside the region");
  }
  rt_->ChargeEmbedCopy(out.size());
  return rt_->space().HostRead(guest_addr_ + off, out);
}

// ---- Lifecycle ----

Result<std::unique_ptr<Sandbox>> Sandbox::Create(
    runtime::Runtime& rt, std::span<const uint8_t> elf_bytes, Options opts) {
  auto pid = rt.Load(elf_bytes);
  if (!pid.ok()) return Error{"embed create: " + pid.error()};
  std::unique_ptr<Sandbox> sb(new Sandbox(rt, opts));
  sb->pid_ = *pid;
  runtime::Proc* p = rt.proc(*pid);
  sb->base_ = p->base;
  auto st = rt.BeginEmbed(*pid);
  if (!st.ok()) return Error{"embed create: " + st.error()};
  EmbedStop stop =
      rt.RunEmbedded(*pid, p->cpu, 0, kInitFuel, EmbedEnter::kInit);
  if (stop.kind != EmbedStop::Kind::kReady) {
    rt.KillEmbedded(*pid, "module failed embed init");
    return Error{"embed create: module never reached embed-ready (" +
                 stop.detail + ")"};
  }
  auto pst = sb->ParseExports(sb->base_ | (stop.x0 & kLow32));
  if (!pst.ok()) {
    rt.KillEmbedded(*pid, pst.error());
    return Error{"embed create: " + pst.error()};
  }
  sb->ready_cpu_ = p->cpu;
  auto snap = rt.CaptureSnapshot(*pid);
  if (!snap.ok()) return Error{"embed create: " + snap.error()};
  sb->baseline_ =
      std::make_shared<snapshot::Snapshot>(*std::move(snap));
  rt.set_restart_snapshot(*pid, sb->baseline_);
  return sb;
}

Result<std::unique_ptr<Sandbox>> Sandbox::CreateFrom(const Sandbox& other) {
  if (other.baseline_ == nullptr) {
    return Error{"embed create-from: source has no baseline"};
  }
  runtime::Runtime& rt = *other.rt_;
  auto pid = rt.SpawnFromSnapshot(other.baseline_, /*start=*/false);
  if (!pid.ok()) return Error{"embed create-from: " + pid.error()};
  std::unique_ptr<Sandbox> sb(new Sandbox(rt, other.opts_));
  sb->pid_ = *pid;
  runtime::Proc* p = rt.proc(*pid);
  sb->base_ = p->base;
  auto st = rt.BeginEmbed(*pid);
  if (!st.ok()) return Error{"embed create-from: " + st.error()};
  // Exports are slot offsets, so the table carries over verbatim; only
  // the register template needs the new slot's base (SpawnFromSnapshot
  // already rebased it).
  sb->ready_cpu_ = p->cpu;
  sb->ret_stub_ = other.ret_stub_;
  sb->exports_ = other.exports_;
  sb->baseline_ = other.baseline_;
  return sb;
}

Status Sandbox::ParseExports(uint64_t table) {
  const uint64_t off = table & kLow32;
  if (off < kProgramStart || off + 24 > kProgramEnd) {
    return Status::Fail("export table outside the program region");
  }
  auto magic = ReadGuestU64(rt_, table);
  if (!magic.ok()) return Status::Fail("unreadable export table");
  if (*magic != kExportMagic) {
    return Status::Fail("bad export-table magic");
  }
  auto stub = ReadGuestU64(rt_, table + 8);
  auto count = ReadGuestU64(rt_, table + 16);
  if (!stub.ok() || !count.ok()) {
    return Status::Fail("unreadable export table");
  }
  if (*count > kMaxExports) {
    return Status::Fail("export count out of bounds");
  }
  const uint64_t stub_off = *stub & kLow32;
  if (stub_off < kProgramStart || stub_off >= kProgramEnd) {
    return Status::Fail("return stub outside the program region");
  }
  ret_stub_ = static_cast<uint32_t>(stub_off);
  exports_.clear();
  for (uint64_t i = 0; i < *count; ++i) {
    auto name_ptr = ReadGuestU64(rt_, table + 24 + 16 * i);
    auto fn_ptr = ReadGuestU64(rt_, table + 32 + 16 * i);
    if (!name_ptr.ok() || !fn_ptr.ok()) {
      return Status::Fail("unreadable export entry");
    }
    const uint64_t fn_off = *fn_ptr & kLow32;
    if (fn_off < kProgramStart || fn_off >= kProgramEnd) {
      return Status::Fail("export '" + std::to_string(i) +
                          "' outside the program region");
    }
    std::string name;
    uint64_t na = base_ | (*name_ptr & kLow32);
    for (uint64_t k = 0; k < kMaxExportNameLen; ++k) {
      std::array<uint8_t, 1> c{};
      if (!rt_->space().HostRead(na + k, c).ok()) {
        return Status::Fail("unreadable export name");
      }
      if (c[0] == 0) break;
      name.push_back(static_cast<char>(c[0]));
      if (k + 1 == kMaxExportNameLen) {
        return Status::Fail("export name too long");
      }
    }
    if (name.empty()) return Status::Fail("empty export name");
    exports_.emplace_back(std::move(name), static_cast<uint32_t>(fn_off));
  }
  return Status::Ok();
}

bool Sandbox::alive() const {
  const runtime::Proc* p = rt_->proc(pid_);
  return p != nullptr && p->state == runtime::ProcState::kReady;
}

std::vector<std::string> Sandbox::Exports() const {
  std::vector<std::string> out;
  out.reserve(exports_.size());
  for (const auto& [name, off] : exports_) out.push_back(name);
  return out;
}

Result<uint64_t> Sandbox::Fn(const std::string& name) const {
  for (const auto& [n, off] : exports_) {
    if (n == name) return base_ | off;
  }
  return Error{"no export named '" + name + "'"};
}

Status Sandbox::Restart() {
  if (depth_ != 0) {
    return Status::Fail("restart: embedded calls still in flight");
  }
  auto st = rt_->Recycle(pid_);
  if (!st.ok()) return st;
  ready_cpu_ = rt_->proc(pid_)->cpu;
  suspended_.clear();
  return Status::Ok();
}

Result<Shm> Sandbox::MapShared(uint64_t len) {
  if (!alive()) return Error{"map-shared: sandbox is dead"};
  auto addr = rt_->GuestAlloc(pid_, len);
  if (!addr.ok()) return Error{addr.error()};
  return Shm(rt_, *addr, len);
}

Status Sandbox::ReadGuest(uint64_t addr, std::span<uint8_t> out) const {
  const uint64_t off = addr & kLow32;
  if (off < kProgramStart || out.size() > kProgramEnd - off) {
    return Status::Fail("read-guest: range outside the program region");
  }
  return rt_->space().HostRead(base_ | off, out);
}

Status Sandbox::WriteGuest(uint64_t addr, std::span<const uint8_t> data) {
  const uint64_t off = addr & kLow32;
  if (off < kProgramStart || data.size() > kProgramEnd - off) {
    return Status::Fail("write-guest: range outside the program region");
  }
  return rt_->space().HostWrite(base_ | off, data);
}

// ---- Calls ----

void Sandbox::FailClosed(detail::RawOutcome& o, Err err,
                         const std::string& why) {
  rt_->KillEmbedded(pid_, why);
  o.err = err;
  o.detail = why;
}

bool Sandbox::DispatchHostcall(const EmbedStop& stop, detail::RawOutcome& o,
                               emu::CpuState* resume) {
  auto it = callbacks_.find(stop.hostcall_index);
  if (it == callbacks_.end()) {
    FailClosed(o, Err::kBadCallbackIndex,
               "hostcall to unbound slot " +
                   std::to_string(stop.hostcall_index));
    return false;
  }
  if (trace::TraceSink* sink = rt_->trace_sink()) {
    sink->metrics(pid_).Add(trace::Counter::kEmbedCallbacks);
    sink->EmitInstant(trace::EventKind::kEmbedCallback, pid_, rt_->Cycles(),
                      static_cast<uint64_t>(stop.hostcall_index),
                      static_cast<uint64_t>(depth_));
  }
  // The saved context is this nesting level's resume point; nested calls
  // made by the callback carve their stack below its sp.
  suspended_.push_back(stop.saved);
  detail::CallbackResult r = it->second(stop.saved);
  suspended_.pop_back();
  *resume = stop.saved;
  if (r.is_float) {
    resume->vr[0].lo = r.v0;
  } else {
    resume->x[0] = r.x0;
  }
  return true;
}

detail::RawOutcome Sandbox::RawCall(uint64_t fn_addr,
                                    std::vector<detail::RawArg>& args,
                                    detail::RetKind ret_kind) {
  trace::TraceSink* sink = rt_->trace_sink();
  const uint64_t t0 = rt_->Cycles();
  if (sink != nullptr) {
    sink->metrics(pid_).Add(trace::Counter::kEmbedCalls);
  }
  detail::RawOutcome o = RawCallInner(fn_addr, args, ret_kind);
  if (sink != nullptr) {
    sink->Emit(trace::EventKind::kEmbedCall, pid_, t0, rt_->Cycles(),
               fn_addr & kLow32, static_cast<uint64_t>(o.err));
  }
  return o;
}

detail::RawOutcome Sandbox::RawCallInner(uint64_t fn_addr,
                                         std::vector<detail::RawArg>& args,
                                         detail::RetKind ret_kind) {
  detail::RawOutcome o;
  if (!alive()) {
    o.err = Err::kSandboxDead;
    o.detail = "call on a dead sandbox (restart it first)";
    return o;
  }
  if (depth_ >= opts_.max_depth) {
    o.err = Err::kReentry;
    o.detail = "nested-call depth would exceed max_depth (" +
               std::to_string(opts_.max_depth) + ")";
    return o;
  }

  emu::CpuState cpu = ready_cpu_;
  // Depth-0 calls own the whole guest stack; nested calls carve below the
  // innermost suspended frame, with a 128-byte red zone for it.
  uint64_t sp_off =
      (depth_ == 0 ? ready_cpu_.sp : suspended_.back().sp - 128) & kLow32;
  sp_off &= ~uint64_t{15};

  // Marshal (AAPCS64): integers and pointers walk x0..x7, floats walk
  // v0..v7, overflow integers spill to 8-byte stack slots. Buffers are
  // carved from the stack scratch first so their pointers are plain
  // integer arguments.
  int ngrn = 0, nsrn = 0;
  std::vector<uint64_t> spill;
  std::vector<std::pair<uint64_t, const detail::RawArg*>> copyback;
  auto place_int = [&](uint64_t v) {
    if (ngrn < 8) {
      cpu.x[ngrn++] = v;
      return true;
    }
    spill.push_back(v);
    return spill.size() <= opts_.max_stack_args;
  };
  for (const detail::RawArg& a : args) {
    switch (a.kind) {
      case detail::RawArg::Kind::kInt:
        if (!place_int(a.value)) {
          o.err = Err::kTooManyArgs;
          o.detail = "more than " + std::to_string(opts_.max_stack_args) +
                     " stack-spilled arguments";
          return o;
        }
        break;
      case detail::RawArg::Kind::kFloat:
        if (nsrn >= 8) {
          o.err = Err::kTooManyArgs;
          o.detail = "more than 8 floating-point arguments";
          return o;
        }
        cpu.vr[nsrn].lo = a.value;
        cpu.vr[nsrn].hi = 0;
        ++nsrn;
        break;
      case detail::RawArg::Kind::kGuestPtr: {
        if (a.value == 0) {
          if (!place_int(0)) {
            o.err = Err::kTooManyArgs;
            return o;
          }
          break;
        }
        const uint64_t high = a.value >> 32;
        const uint64_t low = a.value & kLow32;
        if ((high != 0 && high != base_ >> 32) || low < kProgramStart ||
            low >= kProgramEnd) {
          // Host-supplied bad pointer: the guest never ran, so reject
          // without killing it.
          o.err = Err::kBadGuestPointer;
          o.detail = "host-supplied guest pointer outside the slot";
          return o;
        }
        if (!place_int(base_ | low)) {
          o.err = Err::kTooManyArgs;
          return o;
        }
        break;
      }
      case detail::RawArg::Kind::kBufIn:
      case detail::RawArg::Kind::kBufOut: {
        if (a.len > opts_.max_buffer_bytes) {
          o.err = Err::kBufferTooLarge;
          o.detail = "marshalled buffer of " + std::to_string(a.len) +
                     " bytes exceeds max_buffer_bytes";
          return o;
        }
        sp_off -= AlignUp16(a.len);
        if (sp_off < kProgramStart || a.len > kProgramEnd - sp_off) {
          o.err = Err::kBufferOutOfRange;
          o.detail = "marshalled buffer scratch leaves the program region";
          return o;
        }
        const uint64_t gaddr = base_ | sp_off;
        rt_->ChargeEmbedCopy(a.len);
        auto st = rt_->space().HostWrite(
            gaddr, {static_cast<const uint8_t*>(a.in), a.len});
        if (!st.ok()) {
          o.err = Err::kBufferOutOfRange;
          o.detail = "buffer scratch unmapped: " + st.error();
          return o;
        }
        if (a.kind == detail::RawArg::Kind::kBufOut) {
          copyback.emplace_back(gaddr, &a);
        }
        if (!place_int(gaddr)) {
          o.err = Err::kTooManyArgs;
          return o;
        }
        break;
      }
    }
  }
  if (!spill.empty()) {
    sp_off -= AlignUp16(8 * spill.size());
    if (sp_off < kProgramStart) {
      o.err = Err::kBufferOutOfRange;
      o.detail = "stack-spill area leaves the program region";
      return o;
    }
    for (size_t i = 0; i < spill.size(); ++i) {
      uint8_t b[8];
      std::memcpy(b, &spill[i], 8);
      auto st = rt_->space().HostWrite(base_ | (sp_off + 8 * i), b);
      if (!st.ok()) {
        o.err = Err::kBufferOutOfRange;
        o.detail = "stack-spill area unmapped: " + st.error();
        return o;
      }
    }
  }

  cpu.sp = base_ | sp_off;
  cpu.pc = base_ | (fn_addr & kLow32);
  cpu.x[30] = base_ | ret_stub_;
  // The return cookie rides in callee-saved x19: any guest path that
  // reaches the return stub with x19 clobbered is killed as forged.
  // Cookies are a deterministic per-sandbox sequence, part of the
  // replay/trace-identity contract (never host randomness).
  const uint64_t cookie = next_cookie_++;
  cpu.x[19] = cookie;

  ++depth_;
  EmbedStop stop = rt_->RunEmbedded(pid_, cpu, cookie, opts_.call_fuel,
                                    EmbedEnter::kCall);
  while (stop.kind == EmbedStop::Kind::kHostcall) {
    emu::CpuState resume;
    if (!DispatchHostcall(stop, o, &resume)) {
      --depth_;
      return o;
    }
    stop = rt_->RunEmbedded(pid_, resume, cookie, opts_.call_fuel,
                            EmbedEnter::kResume);
  }
  --depth_;

  switch (stop.kind) {
    case EmbedStop::Kind::kReturned:
      break;
    case EmbedStop::Kind::kForged:
      o.err = Err::kForgedReturn;
      o.detail = stop.detail;
      return o;
    case EmbedStop::Kind::kFault:
      o.err = Err::kGuestFault;
      o.detail = stop.detail;
      return o;
    case EmbedStop::Kind::kExited:
      o.err = Err::kGuestExited;
      o.detail = stop.detail;
      return o;
    case EmbedStop::Kind::kBlocked:
      o.err = Err::kGuestBlocked;
      o.detail = stop.detail;
      return o;
    case EmbedStop::Kind::kFuel:
      o.err = Err::kFuelExhausted;
      o.detail = stop.detail;
      return o;
    case EmbedStop::Kind::kProtocol:
      // A nested call that died lower in the chain surfaces here when the
      // outer frame tries to resume a dead proc.
      o.err = stop.detail.find("dead or missing") != std::string::npos
                  ? Err::kSandboxDead
                  : Err::kProtocol;
      o.detail = stop.detail;
      return o;
    case EmbedStop::Kind::kReady:
    case EmbedStop::Kind::kHostcall:
      o.err = Err::kProtocol;
      o.detail = "unexpected embed stop";
      return o;
  }

  o.x0 = stop.x0;
  o.v0 = stop.v0;
  if (ret_kind == detail::RetKind::kGuestPtr && stop.x0 != 0) {
    const uint64_t high = stop.x0 >> 32;
    const uint64_t low = stop.x0 & kLow32;
    if ((high != 0 && high != base_ >> 32) || low < kProgramStart ||
        low >= kProgramEnd) {
      FailClosed(o, Err::kBadGuestPointer,
                 "guest returned a pointer outside its slot");
      return o;
    }
    o.x0 = base_ | low;  // hand the host the canonical form
  }
  for (const auto& [gaddr, arg] : copyback) {
    rt_->ChargeEmbedCopy(arg->len);
    auto st = rt_->space().HostRead(
        gaddr, {static_cast<uint8_t*>(arg->out), arg->len});
    if (!st.ok()) {
      o.err = Err::kBufferOutOfRange;
      o.detail = "buffer copy-back failed: " + st.error();
      return o;
    }
  }
  return o;
}

}  // namespace lfi::embed
