// The benchmark's own arithmetic: percentiles, geomean overhead, failure
// accounting, and span self time. Kept free of any lfi dependency so the
// self-tests (selftest.cc) exercise exactly what the workloads report.
#ifndef LFI_PERFBENCH_STATS_H_
#define LFI_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Median of a sample (mean of the two middle values for even sizes).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// A nearest-rank percentile together with the facts needed to judge it:
// how many samples it was taken over and how many lie strictly beyond its
// rank. A tail percentile is only reported when `beyond >= 10`.
struct Percentile {
  uint64_t value = 0;
  uint64_t samples = 0;
  uint64_t beyond = 0;  // samples ranked after the percentile's rank
  bool Reportable() const { return samples > 0 && beyond >= 10; }
};

// 1-based nearest rank of percentile p in [0, 100] over n samples:
// ceil(p/100*n), at least 1.
inline uint64_t NearestRankIndex(size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const uint64_t rank = static_cast<uint64_t>(std::ceil(exact - 1e-9));
  return std::clamp<uint64_t>(rank, 1, n);
}

// Nearest-rank percentile of a sample, with its sample count and the
// number of samples beyond it.
inline Percentile NearestRank(std::vector<uint64_t> sample, double p) {
  Percentile r;
  r.samples = sample.size();
  if (sample.empty()) return r;
  std::sort(sample.begin(), sample.end());
  const uint64_t rank = NearestRankIndex(sample.size(), p);
  r.value = sample[rank - 1];
  r.beyond = sample.size() - rank;
  return r;
}

// Nearest-rank percentile of host timings (0 for an empty sample).
inline double NearestRankOf(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  return sample[NearestRankIndex(sample.size(), p) - 1];
}

// Geometric mean of per-program overheads, as the paper aggregates them:
// exp(mean(log(value/base))) - 1, in percent. Pairs with a zero base are
// rejected by returning NaN, so a broken run cannot hide in the mean.
inline double GeomeanOverheadPct(
    const std::vector<std::pair<uint64_t, uint64_t>>& base_value) {
  if (base_value.empty()) return std::nan("");
  double log_sum = 0.0;
  for (const auto& [base, value] : base_value) {
    if (base == 0 || value == 0) return std::nan("");
    log_sum += std::log(static_cast<double>(value) /
                        static_cast<double>(base));
  }
  return 100.0 *
         (std::exp(log_sum / static_cast<double>(base_value.size())) - 1.0);
}

// Failed operations over attempted ones. Every operation a workload
// checks is counted once in `attempted`; a mismatch against its known
// answer, a refused request or an error counts once in `failed`.
struct FailTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const FailTally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double Ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// Length of the union of [start, end) intervals clipped to [lo, hi).
// Children of one span may nest or overlap each other (a synthetic child
// derived from a module's own counters can overlap a bracketed one), so
// self time subtracts the covered length, never the plain sum.
inline uint64_t CoveredLength(std::vector<std::pair<uint64_t, uint64_t>> iv,
                              uint64_t lo, uint64_t hi) {
  if (hi <= lo) return 0;
  for (auto& [s, e] : iv) {
    s = std::clamp(s, lo, hi);
    e = std::clamp(e, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_e) {
      if (open) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) covered += cur_e - cur_s;
  return covered;
}

}  // namespace perfbench

#endif  // LFI_PERFBENCH_STATS_H_
