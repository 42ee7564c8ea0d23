// Known-answer checks of the benchmark's own arithmetic. perfbench/run.py
// runs this before every measurement and refuses to measure if it fails.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace psibench;

void TailPercentileRule() {
  const std::vector<double> ladder = {50, 90, 95, 99, 99.9, 99.99};
  // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
  CHECK(SamplesBeyond(100, 90) == 10);
  CHECK(SamplesBeyond(100, 95) == 5);
  CHECK(TailPercentile(100, ladder) == 90);
  CHECK(TailPercentile(199, ladder) == 90);  // p95 rank 190: 9 beyond
  CHECK(TailPercentile(200, ladder) == 95);  // p95 rank 190: 10 beyond
  CHECK(TailPercentile(1000, ladder) == 99);
  CHECK(TailPercentile(10000, ladder) == 99.9);
  CHECK(TailPercentile(99999, ladder) == 99.9);   // p99.99: 9 beyond
  CHECK(TailPercentile(100000, ladder) == 99.99);
  CHECK(TailPercentile(15, ladder) == 0);    // p50 rank 8: 7 beyond
  CHECK(TailPercentile(0, ladder) == 0);
  // Nearest-rank values on 1..100.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(Near(Percentile(v, 50), 50));
  CHECK(Near(Percentile(v, 99), 99));
  CHECK(Near(Percentile(v, 100), 100));
  CHECK(Near(Percentile({}, 50), 0));
  CHECK(Near(Median({3, 1, 2}), 2));
}

void WindowedTail() {
  CHECK(SamplesForTail(99) == 1000);
  CHECK(SamplesForTail(95) == 200);
  CHECK(SamplesBeyond(SamplesForTail(99.9), 99.9) == 10);
  // Three windows of 100 with p90 2, 50 and 3, the middle one a burst in
  // which every query is slow: the windowed p90 is the median of the
  // three, the whole-sample p90 is the burst's.
  std::vector<double> v;
  for (double high : {2.0, 50.0, 3.0}) {
    for (int i = 0; i < 100; ++i) {
      v.push_back(i < 85 && high != 50.0 ? 1.0 : high);
    }
  }
  CHECK(Near(WindowedPercentile(v, 90, 100), 3));
  CHECK(Near(Percentile(v, 90), 50));
  // The remainder joins the last window: 250 samples are two windows,
  // [0,100) and [100,250).
  std::vector<double> w(250, 1.0);
  for (int i = 230; i < 250; ++i) w[static_cast<size_t>(i)] = 7.0;
  CHECK(Near(WindowedPercentile(w, 90, 100), 1));  // median of {1, 7}
  // Too short for two windows, or no window: the plain percentile.
  CHECK(Near(WindowedPercentile(std::vector<double>(150, 4.0), 90, 100), 4));
  CHECK(Near(WindowedPercentile(v, 90, 0), Percentile(v, 90)));
  CHECK(Near(WindowedPercentile({}, 90, 100), 0));
}

void SelfTimeWithConcurrentChildren() {
  const Interval parent{0, 100};
  // Concurrent variants overlap: [10,50] and [20,70] cover [10,70] once.
  CHECK(Near(SelfTime(parent, {{10, 50}, {20, 70}}), 40));
  // Nested, disjoint and out-of-parent children.
  CHECK(Near(SelfTime(parent, {{10, 50}, {20, 30}, {80, 90}}), 50));
  CHECK(Near(SelfTime(parent, {{-20, 10}, {95, 130}}), 85));
  CHECK(Near(SelfTime(parent, {}), 100));
  CHECK(Near(SelfTime(parent, {{0, 100}, {0, 100}}), 0));
  // Touching intervals merge without double counting.
  CHECK(Near(CoveredLength(parent, {{0, 10}, {10, 20}, {5, 15}}), 20));

  // A whole traced query: plan [0,5], rewrite [5,8], race [10,100] with
  // two concurrent variants [10,60] and [10,90]; the root is [0,100].
  TraceBuffer b;
  QueryTrace q;
  q.query = {0, 100};
  q.children = {{"plan", {0, 5}}, {"rewrite", {5, 8}}, {"race", {10, 100}}};
  q.race_children = {{"variant.a", {10, 60}}, {"variant.b", {10, 90}}};
  b.queries.push_back(q);
  const LayerAttribution a = Attribute({&b});
  CHECK(a.queries == 1);
  CHECK(Near(a.query_self_us, 2));   // [8,10]
  CHECK(Near(a.plan_us, 5));
  CHECK(Near(a.rewrite_us, 3));
  CHECK(Near(a.contenders_us, 80));  // union [10,90]
  CHECK(Near(a.race_self_us, 10));   // [90,100]
}

void KilledFracCounting() {
  OutcomeCounts c;
  for (int i = 0; i < 90; ++i) c.Add(Outcome::kAnswered);
  for (int i = 0; i < 4; ++i) c.Add(Outcome::kUnverified);  // not killed
  for (int i = 0; i < 3; ++i) c.Add(Outcome::kCapKilled);
  for (int i = 0; i < 2; ++i) c.Add(Outcome::kTypedError);
  c.Add(Outcome::kWrong);
  CHECK(c.attempted == 100);
  CHECK(c.killed() == 6);
  CHECK(Near(c.killed_frac(), 0.06));
  CHECK(Near(OutcomeCounts{}.killed_frac(), 0));
}

void RepeatQueryFraction() {
  // a b a c b a: the 3rd, 5th and 6th were seen earlier.
  const std::vector<uint64_t> stream = {1, 2, 1, 3, 2, 1};
  CHECK(Near(RepeatFraction(stream), 0.5));
  CHECK(Near(RepeatFraction(std::vector<uint64_t>{7, 8, 9}), 0));
  CHECK(Near(RepeatFraction(std::vector<uint64_t>{5, 5, 5, 5}), 0.75));
  CHECK(Near(RepeatFraction(std::vector<uint64_t>{}), 0));
}

}  // namespace

int main() {
  TailPercentileRule();
  WindowedTail();
  SelfTimeWithConcurrentChildren();
  KilledFracCounting();
  RepeatQueryFraction();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
