// The benchmark's own arithmetic: percentiles, the tail-percentile rule,
// the windowed tail, span self time, failure counting and query-repetition
// share. Kept free of any engine header so selftest.cpp can check it
// against hand-made answers.

#ifndef PSIBENCH_STATS_HPP_
#define PSIBENCH_STATS_HPP_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

namespace psibench {

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: ceil(p/100 * n), at least 1.
inline size_t NearestRank(size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

/// Nearest-rank percentile; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const size_t r = NearestRank(v.size(), p);
  std::nth_element(v.begin(), v.begin() + (r - 1), v.end());
  return v[r - 1];
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

inline double Mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Samples strictly beyond the nearest-rank percentile `p`.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

/// The tail rule: the highest percentile of `ladder` that still has at
/// least `min_beyond` samples beyond it among `n`; 0 when none does.
inline double TailPercentile(size_t n, std::span<const double> ladder,
                             size_t min_beyond = 10) {
  double best = 0.0;
  for (double p : ladder) {
    if (SamplesBeyond(n, p) >= min_beyond) best = std::max(best, p);
  }
  return best;
}

/// Fewest samples that leave at least `min_beyond` beyond percentile `p`.
inline size_t SamplesForTail(double p, size_t min_beyond = 10) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < min_beyond) ++n;
  return n;
}

/// Percentile `p` of each run of `window` consecutive samples (the last
/// run absorbs the remainder), then the median of those. A burst of host
/// contention shorter than half the sample then moves it by at most one
/// rank, where it would move the whole-sample percentile. Fewer than two
/// windows' worth of samples, or `window` 0, gives the plain percentile.
inline double WindowedPercentile(std::span<const double> v, double p,
                                 size_t window) {
  if (window == 0 || v.size() < 2 * window) {
    return Percentile({v.begin(), v.end()}, p);
  }
  const size_t windows = v.size() / window;
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == windows
                          ? v.end()
                          : first + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(Percentile({first, last}, p));
  }
  return Median(std::move(per_window));
}

/// A closed interval of time on one clock, in any unit.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the union of `children`, each clipped to `parent`.
inline double CoveredLength(Interval parent, std::vector<Interval> children) {
  for (auto& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double run_begin = 0.0;
  double run_end = -1.0;
  bool open = false;
  for (const auto& c : children) {
    if (c.end <= c.begin) continue;
    if (!open || c.begin > run_end) {
      if (open) covered += run_end - run_begin;
      run_begin = c.begin;
      run_end = c.end;
      open = true;
    } else {
      run_end = std::max(run_end, c.end);
    }
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

/// A span's self time: its length minus the part its children cover.
/// Concurrent (overlapping) children are counted once.
inline double SelfTime(Interval parent, std::vector<Interval> children) {
  return (parent.end - parent.begin) -
         CoveredLength(parent, std::move(children));
}

/// How one attempted query ended, from the client's point of view.
enum class Outcome : uint8_t {
  kAnswered,    ///< answer returned and it matches the reference
  kUnverified,  ///< answer returned, no reference could be established
  kCapKilled,   ///< every contender hit the kill cap
  kTypedError,  ///< Overloaded / DeadlineExceeded (or another typed error)
  kWrong,       ///< answer returned but differs from the reference
};

struct OutcomeCounts {
  uint64_t attempted = 0;
  uint64_t answered = 0;  ///< verified answers
  uint64_t unverified = 0;
  uint64_t cap_killed = 0;
  uint64_t typed_errors = 0;
  uint64_t wrong = 0;

  void Add(Outcome o) {
    ++attempted;
    switch (o) {
      case Outcome::kAnswered: ++answered; break;
      case Outcome::kUnverified: ++unverified; break;
      case Outcome::kCapKilled: ++cap_killed; break;
      case Outcome::kTypedError: ++typed_errors; break;
      case Outcome::kWrong: ++wrong; break;
    }
  }
  /// Queries not answered: cap kills, typed errors and wrong answers.
  uint64_t killed() const { return cap_killed + typed_errors + wrong; }
  double killed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(killed()) /
                                static_cast<double>(attempted);
  }
};

/// Share of a query stream whose element already appeared earlier in it.
inline double RepeatFraction(std::span<const uint64_t> fingerprints) {
  if (fingerprints.empty()) return 0.0;
  std::unordered_set<uint64_t> seen;
  size_t repeats = 0;
  for (uint64_t f : fingerprints) {
    if (!seen.insert(f).second) ++repeats;
  }
  return static_cast<double>(repeats) /
         static_cast<double>(fingerprints.size());
}

}  // namespace psibench

#endif  // PSIBENCH_STATS_HPP_
