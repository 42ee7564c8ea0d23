#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace psibench {
namespace {

// Track layout: client c's query-level spans on tid c+1, its contenders on
// tids 1000*(c+1)+k so concurrent variants render as parallel rows.
constexpr int kSetupTid = 0;

std::string Escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

void WriteSpan(std::ofstream& out, bool* first, const std::string& name,
               const char* cat, Interval at, int tid, int64_t query) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                at.begin, at.end - at.begin, tid);
  out << (*first ? "" : ",\n") << "{\"name\":\"" << Escape(name)
      << "\",\"cat\":\"" << cat << "\"," << buf;
  if (query >= 0) out << ",\"args\":{\"query\":" << query << "}";
  out << "}";
  *first = false;
}

}  // namespace

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const TraceBuffer*>& buffers) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const TraceBuffer* b : buffers) {
    for (const auto& s : b->setup) {
      WriteSpan(out, &first, s.name, "setup", s.at, kSetupTid, -1);
    }
    for (const auto& q : b->queries) {
      const int tid = static_cast<int>(q.client) + 1;
      const auto id = static_cast<int64_t>(q.id);
      WriteSpan(out, &first, "query", "query", q.query, tid, id);
      for (const auto& c : q.children) {
        WriteSpan(out, &first, c.name, "layer", c.at, tid, id);
      }
      for (size_t k = 0; k < q.race_children.size(); ++k) {
        WriteSpan(out, &first, q.race_children[k].name, "contender",
                  q.race_children[k].at,
                  1000 * tid + static_cast<int>(k), id);
      }
    }
    for (const auto& c : b->counters) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"args\":{\"value\":%.6g}",
                    c.ts_us, c.value);
      out << (first ? "" : ",\n") << "{\"name\":\"" << Escape(c.name)
          << "\"," << buf << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

LayerAttribution Attribute(const std::vector<const TraceBuffer*>& buffers) {
  LayerAttribution a;
  for (const TraceBuffer* b : buffers) {
    for (const auto& q : b->queries) {
      ++a.queries;
      a.query_us += q.query.end - q.query.begin;
      std::vector<Interval> direct;
      Interval race{};
      for (const auto& c : q.children) {
        direct.push_back(c.at);
        const double len = c.at.end - c.at.begin;
        if (c.name == "plan") a.plan_us += len;
        if (c.name == "rewrite") a.rewrite_us += len;
        if (c.name == "filter") a.filter_us += len;
        if (c.name == "race") race = c.at;
      }
      a.query_self_us += SelfTime(q.query, direct);
      std::vector<Interval> contenders;
      for (const auto& c : q.race_children) contenders.push_back(c.at);
      const double covered = CoveredLength(race, contenders);
      a.contenders_us += covered;
      a.race_self_us += (race.end - race.begin) - covered;
    }
  }
  return a;
}

}  // namespace psibench
