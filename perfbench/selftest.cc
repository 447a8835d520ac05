// Self-tests for the benchmark's own arithmetic. `lfi_perfbench
// --selftest` runs them; run.py runs them before every workload, so a
// broken statistic can never produce a result.
#include <cmath>
#include <cstdio>

#include "stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestNearestRank() {
  std::vector<uint64_t> ten;
  for (uint64_t v = 10; v >= 1; --v) ten.push_back(v);  // unsorted input
  Expect(NearestRank(ten, 50).value == 5, "p50 of 1..10 is 5");
  Expect(NearestRank(ten, 100).value == 10, "p100 is the maximum");
  Expect(NearestRank(ten, 0).value == 1, "p0 is the minimum");
  Expect(NearestRank(ten, 91).value == 10, "p91 of 1..10 rounds up");
  Expect(NearestRank(ten, 50).beyond == 5, "five samples beyond p50");
  Expect(NearestRank({}, 99).samples == 0 &&
             !NearestRank({}, 99).Reportable(),
         "empty sample is not reportable");

  std::vector<uint64_t> thousand(1000);
  for (uint64_t i = 0; i < 1000; ++i) thousand[i] = i + 1;
  const Percentile p99 = NearestRank(thousand, 99);
  Expect(p99.value == 990 && p99.samples == 1000 && p99.beyond == 10,
         "p99 of 1..1000 is 990 with 10 beyond");
  Expect(p99.Reportable(), "p99 over 1000 samples is reportable");
  Expect(NearestRankOf({4.0, 1.0, 3.0, 2.0}, 25) == 1.0 &&
             NearestRankOf({4.0, 1.0, 3.0, 2.0, 5.0}, 25) == 2.0 &&
             NearestRankOf({}, 25) == 0.0,
         "lower quartile of host timings");
  thousand.pop_back();
  const Percentile short99 = NearestRank(thousand, 99);
  Expect(short99.value == 990 && short99.beyond == 9 &&
             !short99.Reportable(),
         "p99 over 999 samples has only 9 beyond");
}

void TestGeomean() {
  Expect(Near(GeomeanOverheadPct({{100, 110}, {100, 121}}),
              100.0 * (std::sqrt(1.1 * 1.21) - 1.0)),
         "geomean of +10% and +21%");
  Expect(Near(GeomeanOverheadPct({{200, 100}, {100, 200}}), 0.0),
         "a halving and a doubling cancel");
  Expect(Near(GeomeanOverheadPct({{7, 7}}), 0.0), "equal cycles is 0%");
  Expect(std::isnan(GeomeanOverheadPct({{0, 5}})), "zero base is NaN");
  Expect(std::isnan(GeomeanOverheadPct({})), "empty set is NaN");
}

void TestSelfTime() {
  Tracer t;
  // root [0,100) with children [10,40) and [30,60) overlapping each
  // other, and a grandchild [35,50) nested in the second child.
  const int root = t.AddDerived("a", "root", -1, 0, 100, 0);
  t.AddDerived("b", "one", root, 10, 30, 0);
  const int two = t.AddDerived("b", "two", root, 30, 30, 0);
  t.AddDerived("c", "leaf", two, 35, 15, 0);
  // A child that sticks out of its parent only counts the overlap.
  const int other = t.AddDerived("a", "other", -1, 200, 10, 0);
  t.AddDerived("d", "late", other, 205, 20, 0);
  const auto self = t.SelfNs(0);
  Expect(self.at("a.root") == 50, "root self = 100 - union(10..60)");
  Expect(self.at("b.one") == 30, "first child has no children");
  Expect(self.at("b.two") == 15, "second child minus its grandchild");
  Expect(self.at("c.leaf") == 15, "leaf self is its duration");
  Expect(self.at("a.other") == 5, "child clipped to its parent");
  Expect(CoveredLength({{0, 5}, {5, 9}, {20, 30}}, 0, 25) == 14,
         "adjacent intervals merge, clipping at hi");
  Expect(CoveredLength({{3, 1}}, 0, 10) == 0, "empty interval covers 0");
}

void TestFailTally() {
  FailTally a;
  a.Record(true);
  a.Record(true);
  a.Record(false);
  a.Record(true);
  Expect(a.attempted == 4 && a.failed == 1 && Near(a.Ratio(), 0.25),
         "1 failure in 4");
  FailTally b;
  Expect(Near(b.Ratio(), 0.0), "nothing attempted is ratio 0");
  b.Record(false);
  a.Merge(b);
  Expect(a.attempted == 5 && a.failed == 2 && Near(a.Ratio(), 0.4),
         "merged tallies add");
}

}  // namespace

bool RunSelfTests() {
  TestNearestRank();
  TestGeomean();
  TestSelfTime();
  TestFailTally();
  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0;
}

}  // namespace perfbench
