// Exhaustive per-class encoding enumeration: for every swept encoding of
// every allowlisted class, compare the symbolic model's predicted verdict
// (model.h) against the real verifier's decision. Field collapsing —
// which operand fields are swept in full and which only at boundary
// values — lives in arch/fields.cc next to the class definitions; the
// exhaustiveness argument for each collapse is in docs/VERIFIER.md.
//
// Context-dependent encodings (x30 loads, sp adjusts) are swept twice:
// bare, where both sides must agree on the rejection, and with their
// discharge suffix (model.h DischargeSuffix), where both sides must
// agree on the acceptance.
#ifndef LFI_VERIFY_MODEL_SWEEP_H_
#define LFI_VERIFY_MODEL_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/fields.h"
#include "verify_model/model.h"
#include "verifier/verifier.h"

namespace lfi::verify_model {

// How many mismatches to record verbatim per class (counting always
// continues past this).
inline constexpr size_t kMaxRecordedMismatches = 16;
// Target size of the stratified accepted-encoding sample per class (fed
// to emu cross-validation).
inline constexpr size_t kSamplePerClass = 48;

struct SweepOptions {
  verifier::VerifyOptions verify;
  // Check every stride-th encoding of each class's enumeration
  // (sanitizer builds dial this up; release sweeps use 1 = every
  // encoding).
  uint64_t stride = 1;
  // Meta-test hook: mutates the model's verdict before comparison, to
  // prove the sweep detects a wrong model (seeded-bug test).
  std::function<void(const MFacts&, Verdict*)> model_override;
};

struct Mismatch {
  uint32_t word = 0;
  bool with_suffix = false;
  Verdict model;
  Verdict actual;
  std::string detail;
};

struct SweepResult {
  std::string class_name;
  uint64_t enumerated = 0;  // encodings in the class's swept space
  uint64_t checked = 0;     // actually compared (after the stride)
  uint64_t accepted = 0;    // verifier-accepted (bare or with suffix)
  uint64_t suffixed = 0;    // words that carried a discharge suffix
  uint64_t shadowed = 0;    // words claimed by an earlier class's space
  uint64_t mismatches = 0;
  std::vector<Mismatch> recorded;
  // Deterministic stratified sample of accepted words (bare-accepted or
  // suffix-accepted), for emu cross-validation.
  std::vector<uint32_t> accepted_sample;
  double seconds = 0;
};

SweepResult SweepClass(const arch::EncClassInfo& cls,
                       const SweepOptions& opts);

// Sweeps every class in arch::AllEncClasses() order.
std::vector<SweepResult> SweepAll(const SweepOptions& opts);

}  // namespace lfi::verify_model

#endif  // LFI_VERIFY_MODEL_SWEEP_H_
