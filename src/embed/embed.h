// Typed host<->sandbox embedding API (docs/EMBEDDING.md).
//
// lfi::embed::Sandbox is the library-sandboxing interface the paper's
// use case implies (and RLBox popularized): the host loads a guest module
// into an LFI slot once, then makes *typed function calls* into it as if
// it were a local library —
//
//   auto sb = Sandbox::Create(rt, elf_bytes);
//   auto r = (*sb)->Call<int32_t(int32_t, int32_t)>("add", 2, 3);
//   // r.ok() && r.value == 5
//
// — with every value crossing the boundary marshalled by this layer:
// integers are width-converted into the AAPCS64 argument registers,
// floats go through the vector registers, buffers are copied into guest
// stack scratch and passed as swizzled (base | low32) pointers, and
// arguments past the eighth spill to the guest stack. Guest pointers
// returned to the host are validated against the slot before the host may
// see them. The guest can call back into the host through registered
// callback slots (the `hostcall #i` pseudo), and callbacks can make
// further guest calls — the nested host->guest->host->guest chain keeps
// one saved guest context per depth, so every level unwinds exactly.
//
// Everything fails closed: a forged return cookie, a callback index with
// no host binding, a buffer that would straddle the slot boundary, a
// returned pointer into host memory — each kills the guest (the slot is
// retained) and surfaces a *distinct* Err to the caller, and the sandbox
// can be rolled back to its post-init baseline with Restart().
#ifndef LFI_EMBED_EMBED_H_
#define LFI_EMBED_EMBED_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "embed/abi.h"
#include "runtime/runtime.h"
#include "support/result.h"

namespace lfi::embed {

// Why a call (or the sandbox holding it) failed. Every adversarial path
// has its own value so tests can assert the exact failure mode.
enum class Err : uint8_t {
  kNone = 0,
  kCreateFailed,      // module never reached embed-ready / bad export table
  kNoSuchFunction,    // name not in the export table
  kTooManyArgs,       // stack-spill area would exceed its bound
  kBufferTooLarge,    // marshalled buffer above kMaxBufferBytes
  kBufferOutOfRange,  // buffer scratch would leave the program region
  kBadGuestPointer,   // guest returned a pointer outside its slot
  kBadCallbackIndex,  // hostcall to a slot with no host binding
  kForgedReturn,      // call-ret cookie mismatch (forged return frame)
  kGuestFault,        // cpu fault / chaos injection killed the guest
  kGuestExited,       // guest called exit() mid-call
  kGuestBlocked,      // guest blocked on I/O mid-call (nothing can wake it)
  kFuelExhausted,     // call burned its instruction budget
  kSandboxDead,       // call on an already-dead sandbox
  kReentry,           // nested-call depth exceeded Options::max_depth
  kProtocol,          // embed rtcall out of place (ready mid-call, ...)
};

// Stable kebab-case name ("forged-return", ...).
const char* ErrName(Err e);

// A pointer into the guest's address space. Canonical form (base | low32)
// or a plain low-32 offset; the marshaller canonicalizes either way.
struct GuestPtr {
  uint64_t addr = 0;
  explicit operator bool() const { return addr != 0; }
};

// Host buffer copied into guest stack scratch for the duration of a call;
// the guest sees a pointer argument.
struct BufIn {
  const void* data = nullptr;
  size_t len = 0;
};

// Same, but the scratch contents are copied back to the host buffer after
// the call returns (in/out semantics; the guest sees the host bytes on
// entry and the host sees the guest's writes on success).
struct BufOut {
  void* data = nullptr;
  size_t len = 0;
};

// Outcome of a typed call.
template <typename R>
struct CallResult {
  Err err = Err::kNone;
  std::string detail;  // human-readable cause when err != kNone
  R value{};
  bool ok() const { return err == Err::kNone; }
};
template <>
struct CallResult<void> {
  Err err = Err::kNone;
  std::string detail;
  bool ok() const { return err == Err::kNone; }
};

// A shared-memory region: one guest mapping with a host-side view. The
// cheap alternative to per-call buffer marshalling for bulk data (see
// bench_transitions). Views go through the address space's host accessors
// (never a raw pointer — page payloads move under copy-on-write), and are
// invalidated by Sandbox::Restart(), which rolls the guest back to a
// baseline that predates the mapping.
class Shm {
 public:
  Shm() = default;

  uint64_t guest_addr() const { return guest_addr_; }
  uint64_t size() const { return len_; }
  GuestPtr ptr() const { return GuestPtr{guest_addr_}; }

  Status Write(uint64_t off, std::span<const uint8_t> data);
  Status Read(uint64_t off, std::span<uint8_t> out) const;

 private:
  friend class Sandbox;
  Shm(runtime::Runtime* rt, uint64_t addr, uint64_t len)
      : rt_(rt), guest_addr_(addr), len_(len) {}

  runtime::Runtime* rt_ = nullptr;
  uint64_t guest_addr_ = 0;
  uint64_t len_ = 0;
};

namespace detail {

// One marshalled argument, after type erasure.
struct RawArg {
  enum class Kind : uint8_t { kInt, kFloat, kBufIn, kBufOut, kGuestPtr };
  Kind kind = Kind::kInt;
  uint64_t value = 0;     // kInt: sign/zero-extended; kFloat: raw bits
  bool is_double = false; // kFloat: 64-bit lane vs low-32 lane
  const void* in = nullptr;  // kBufIn/kBufOut: host source bytes
  void* out = nullptr;       // kBufOut: host copy-back destination
  uint64_t len = 0;          // buffer length
};

// What the host expects back (drives return validation in RawCall).
enum class RetKind : uint8_t { kVoid, kInt, kFloat, kGuestPtr };

struct RawOutcome {
  Err err = Err::kNone;
  std::string detail;
  uint64_t x0 = 0;  // integer / pointer return
  uint64_t v0 = 0;  // vr[0] low lane (float returns)
};

template <typename T>
inline constexpr bool kIsIntArg = std::is_integral_v<std::decay_t<T>>;

inline RawArg MakeArgFrom(GuestPtr p) {
  RawArg a;
  a.kind = RawArg::Kind::kGuestPtr;
  a.value = p.addr;
  return a;
}
inline RawArg MakeArgFrom(BufIn b) {
  RawArg a;
  a.kind = RawArg::Kind::kBufIn;
  a.in = b.data;
  a.len = b.len;
  return a;
}
inline RawArg MakeArgFrom(BufOut b) {
  RawArg a;
  a.kind = RawArg::Kind::kBufOut;
  a.in = b.data;
  a.out = b.data;
  a.len = b.len;
  return a;
}
inline RawArg MakeArgFrom(float f) {
  RawArg a;
  a.kind = RawArg::Kind::kFloat;
  a.value = std::bit_cast<uint32_t>(f);
  return a;
}
inline RawArg MakeArgFrom(double d) {
  RawArg a;
  a.kind = RawArg::Kind::kFloat;
  a.value = std::bit_cast<uint64_t>(d);
  a.is_double = true;
  return a;
}
template <typename T, typename = std::enable_if_t<kIsIntArg<T>>>
inline RawArg MakeArgFrom(T v) {
  RawArg a;
  a.kind = RawArg::Kind::kInt;
  // Sign-extend signed parameter types so a negative int32_t arrives in
  // the guest register as its 64-bit two's-complement value.
  if constexpr (std::is_signed_v<T>) {
    a.value = static_cast<uint64_t>(static_cast<int64_t>(v));
  } else {
    a.value = static_cast<uint64_t>(v);
  }
  return a;
}

// Signature decomposition for Call<Ret(Params...)>.
template <typename Sig>
struct SigTraits;
template <typename R, typename... Ps>
struct SigTraits<R(Ps...)> {
  using Ret = R;
  using Params = std::tuple<Ps...>;
  static constexpr size_t kArity = sizeof...(Ps);
};

template <typename R>
struct RetTraits {
  static_assert(std::is_integral_v<R>, "unsupported return type");
  static constexpr RetKind kKind = RetKind::kInt;
  static R From(const RawOutcome& o) { return static_cast<R>(o.x0); }
};
template <>
struct RetTraits<void> {
  static constexpr RetKind kKind = RetKind::kVoid;
};
template <>
struct RetTraits<float> {
  static constexpr RetKind kKind = RetKind::kFloat;
  static float From(const RawOutcome& o) {
    return std::bit_cast<float>(static_cast<uint32_t>(o.v0));
  }
};
template <>
struct RetTraits<double> {
  static constexpr RetKind kKind = RetKind::kFloat;
  static double From(const RawOutcome& o) {
    return std::bit_cast<double>(o.v0);
  }
};
template <>
struct RetTraits<GuestPtr> {
  static constexpr RetKind kKind = RetKind::kGuestPtr;
  static GuestPtr From(const RawOutcome& o) { return GuestPtr{o.x0}; }
};

// What a callback hands back to the guest (written into the saved
// context's return register before resuming).
struct CallbackResult {
  uint64_t x0 = 0;
  uint64_t v0 = 0;
  bool is_float = false;
};
using RawCallback = std::function<CallbackResult(const emu::CpuState& saved)>;

// Callback argument extraction: integers walk x0..x7, floats walk
// vr0..vr7 (the AAPCS counters), GuestPtr is canonicalized to the slot.
struct CallbackArgCursor {
  const emu::CpuState* cpu;
  uint64_t base;
  int ngrn = 0, nsrn = 0;

  template <typename T>
  T Take() {
    if constexpr (std::is_same_v<T, GuestPtr>) {
      return GuestPtr{base | (cpu->x[ngrn++] & 0xffffffffu)};
    } else if constexpr (std::is_same_v<T, float>) {
      return std::bit_cast<float>(static_cast<uint32_t>(cpu->vr[nsrn++].lo));
    } else if constexpr (std::is_same_v<T, double>) {
      return std::bit_cast<double>(cpu->vr[nsrn++].lo);
    } else {
      static_assert(std::is_integral_v<T>, "unsupported callback arg type");
      return static_cast<T>(cpu->x[ngrn++]);
    }
  }
};

}  // namespace detail

// One embedded guest module. Non-copyable and pinned in memory (factories
// return unique_ptr) so host callbacks may safely capture `this`.
class Sandbox {
 public:
  // Instructions a module may run to reach embed-ready.
  static constexpr uint64_t kInitFuel = 10'000'000;

  struct Options {
    uint64_t call_fuel = 10'000'000;  // instructions per host->guest call
    int max_depth = 16;               // nested-call chain bound
    // Per-argument marshalled-buffer cap; keeps scratch inside the guest
    // stack (default stack is 1MiB).
    uint64_t max_buffer_bytes = 256 * 1024;
    // Stack-spill slots for arguments past the eighth.
    uint64_t max_stack_args = 56;
  };

  // Loads `elf_bytes` as a fresh sandbox, runs it to the embed-ready
  // announce under kInitFuel, parses the export table, and captures the
  // post-ready baseline snapshot that Restart() rolls back to.
  static Result<std::unique_ptr<Sandbox>> Create(
      runtime::Runtime& rt, std::span<const uint8_t> elf_bytes, Options opts);
  static Result<std::unique_ptr<Sandbox>> Create(
      runtime::Runtime& rt, std::span<const uint8_t> elf_bytes) {
    return Create(rt, elf_bytes, Options{});
  }

  // Instantiates a second sandbox from `other`'s post-ready baseline
  // (COW snapshot spawn: nothing is copied until someone writes).
  // Callback bindings are not inherited.
  static Result<std::unique_ptr<Sandbox>> CreateFrom(const Sandbox& other);

  Sandbox(const Sandbox&) = delete;
  Sandbox& operator=(const Sandbox&) = delete;

  int pid() const { return pid_; }
  uint64_t base() const { return base_; }
  // True while the guest can accept calls (killed/exited guests need
  // Restart() first).
  bool alive() const;
  int depth() const { return depth_; }

  // Exported names, in table order.
  std::vector<std::string> Exports() const;
  // Canonical address of an exported function.
  Result<uint64_t> Fn(const std::string& name) const;

  // Typed call: Sig is the guest-visible signature, e.g.
  //   Call<int64_t(int32_t, GuestPtr, BufOut)>("fill", n, p, buf)
  // Arguments are converted to the signature's parameter types, then
  // marshalled. Returns CallResult<Ret>.
  template <typename Sig, typename... Args>
  auto Call(const std::string& name, Args&&... args)
      -> CallResult<typename detail::SigTraits<Sig>::Ret> {
    using Traits = detail::SigTraits<Sig>;
    using R = typename Traits::Ret;
    static_assert(sizeof...(Args) == Traits::kArity,
                  "argument count does not match the signature");
    CallResult<R> res;
    auto fn = Fn(name);
    if (!fn.ok()) {
      res.err = Err::kNoSuchFunction;
      res.detail = fn.error();
      return res;
    }
    std::vector<detail::RawArg> raw;
    raw.reserve(sizeof...(Args));
    MarshalInto<typename Traits::Params>(
        raw, std::index_sequence_for<Args...>{}, std::forward<Args>(args)...);
    detail::RawOutcome o =
        RawCall(*fn, raw, detail::RetTraits<R>::kKind);
    res.err = o.err;
    res.detail = std::move(o.detail);
    if constexpr (!std::is_void_v<R>) {
      if (o.err == Err::kNone) res.value = detail::RetTraits<R>::From(o);
    }
    return res;
  }

  // Registers a typed host callback on slot `index`; the guest invokes it
  // with `hostcall #index`. Supported parameter types: integrals, float,
  // double, GuestPtr (canonicalized, never trusted). Re-binding a slot
  // replaces the previous binding.
  template <typename R, typename... As>
  void BindCallback(int index, std::function<R(As...)> fn) {
    callbacks_[index] = [fn = std::move(fn),
                         this](const emu::CpuState& saved) {
      detail::CallbackArgCursor cur{&saved, base_};
      // Left-to-right argument extraction (braced init guarantees order).
      std::tuple<std::decay_t<As>...> args{cur.Take<std::decay_t<As>>()...};
      detail::CallbackResult out;
      if constexpr (std::is_void_v<R>) {
        std::apply(fn, std::move(args));
      } else if constexpr (std::is_same_v<R, float>) {
        out.v0 = std::bit_cast<uint32_t>(std::apply(fn, std::move(args)));
        out.is_float = true;
      } else if constexpr (std::is_same_v<R, double>) {
        out.v0 = std::bit_cast<uint64_t>(std::apply(fn, std::move(args)));
        out.is_float = true;
      } else {
        R r = std::apply(fn, std::move(args));
        if constexpr (std::is_signed_v<R>) {
          out.x0 = static_cast<uint64_t>(static_cast<int64_t>(r));
        } else {
          out.x0 = static_cast<uint64_t>(r);
        }
      }
      return out;
    };
  }
  // Lambda-friendly overload.
  template <typename F>
  void Bind(int index, F&& f) {
    BindCallback(index, std::function(std::forward<F>(f)));
  }

  // Rolls the guest back to its post-ready baseline (same pid and slot,
  // only diverged pages touched) and revives a killed/exited sandbox.
  // Invalidates Shm views created since Create. Fails mid-call.
  Status Restart();

  // Maps a fresh shared region in the guest (GuestAlloc) and returns the
  // host view. The guest side receives the pointer however the caller
  // passes it (typically a GuestPtr argument).
  Result<Shm> MapShared(uint64_t len);

  // Bounds-checked host access to guest memory at a canonical or low-32
  // address (the escape hatch under the typed API).
  Status ReadGuest(uint64_t addr, std::span<uint8_t> out) const;
  Status WriteGuest(uint64_t addr, std::span<const uint8_t> data);

  // Untyped engine under Call<> — exposed for the fuzzer and bench, which
  // construct argument vectors dynamically.
  detail::RawOutcome RawCall(uint64_t fn_addr,
                             std::vector<detail::RawArg>& args,
                             detail::RetKind ret_kind);

 private:
  Sandbox(runtime::Runtime& rt, Options opts) : rt_(&rt), opts_(opts) {}

  template <typename Params, size_t... Is, typename... Args>
  static void MarshalInto(std::vector<detail::RawArg>& raw,
                          std::index_sequence<Is...>, Args&&... args) {
    (raw.push_back(detail::MakeArgFrom(
         static_cast<std::tuple_element_t<Is, Params>>(
             std::forward<Args>(args)))),
     ...);
  }

  // Parses the export table announced at canonical address `table`.
  Status ParseExports(uint64_t table);
  // RawCall's body; RawCall wraps it with the kEmbedCall trace interval.
  detail::RawOutcome RawCallInner(uint64_t fn_addr,
                                  std::vector<detail::RawArg>& args,
                                  detail::RetKind ret_kind);
  // Kills the guest fail-closed and fills `o` with (err, why).
  void FailClosed(detail::RawOutcome& o, Err err, const std::string& why);
  // Dispatches one hostcall; returns false if the chain must abort (o is
  // filled). On success *resume holds the state to re-enter with.
  bool DispatchHostcall(const runtime::Runtime::EmbedStop& stop,
                        detail::RawOutcome& o, emu::CpuState* resume);

  runtime::Runtime* rt_;
  Options opts_;
  int pid_ = -1;
  uint64_t base_ = 0;
  emu::CpuState ready_cpu_;   // post-embed-ready register template
  uint32_t ret_stub_ = 0;     // slot offset of the return stub
  std::vector<std::pair<std::string, uint32_t>> exports_;  // name -> offset
  std::shared_ptr<const snapshot::Snapshot> baseline_;
  std::map<int, detail::RawCallback> callbacks_;
  uint64_t next_cookie_ = 1;  // deterministic: part of the replay contract
  int depth_ = 0;
  // Suspended guest context per active nesting level (the saved state at
  // each hostcall); nested calls carve their stack below the innermost.
  std::vector<emu::CpuState> suspended_;
};

}  // namespace lfi::embed

#endif  // LFI_EMBED_EMBED_H_
