// In-memory span recording for the traced run, written out at exit as
// Chrome trace_event JSON (opens offline in Perfetto or chrome://tracing).
//
// Each client thread owns one TraceBuffer, so recording takes no lock;
// the buffers are merged only when the file is written.

#ifndef PSIBENCH_TRACE_HPP_
#define PSIBENCH_TRACE_HPP_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace psibench {

using Clock = std::chrono::steady_clock;

/// Microseconds since `origin`.
inline double MicrosSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

struct NamedSpan {
  std::string name;
  Interval at;  ///< microseconds since the run's origin
};

/// One query's spans: the root, its direct children (plan, rewrite,
/// filter, race) and the race's children (variant.* / verify.*), which may
/// overlap one another because contenders run concurrently.
struct QueryTrace {
  uint64_t id = 0;
  uint32_t client = 0;
  Interval query;
  std::vector<NamedSpan> children;
  std::vector<NamedSpan> race_children;
};

/// A sampled counter value ("ph":"C" event).
struct CounterSample {
  std::string name;
  double ts_us = 0.0;
  double value = 0.0;
};

struct TraceBuffer {
  std::vector<QueryTrace> queries;
  std::vector<NamedSpan> setup;
  std::vector<CounterSample> counters;
};

/// Writes every buffer as one Chrome trace_event JSON document. Returns
/// false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const TraceBuffer*>& buffers);

/// Per-layer self time summed over every traced query.
struct LayerAttribution {
  double query_us = 0.0;       ///< total root-span time
  double query_self_us = 0.0;  ///< root time no child covers
  double plan_us = 0.0;
  double rewrite_us = 0.0;
  double filter_us = 0.0;
  double race_self_us = 0.0;   ///< race time no variant/verify span covers
  double contenders_us = 0.0;  ///< union of variant/verify spans
  size_t queries = 0;
};

LayerAttribution Attribute(const std::vector<const TraceBuffer*>& buffers);

}  // namespace psibench

#endif  // PSIBENCH_TRACE_HPP_
