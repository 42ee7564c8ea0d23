// psibench — the serving benchmark of the Ψ engine.
//
//   psibench reference --workload W --seed N --refs DIR
//       computes (or reuses) the reference answer of every pool query;
//   psibench run --workload W --seed N --seconds S --trace 0|1 --refs DIR
//                [--trace-out FILE]
//       sets the engine up, drives closed-loop clients for S seconds
//       through the public API, checks every answer and prints the
//       metrics. --trace 1 instead splits S between an untraced and a
//       traced segment and prints the per-layer metrics.
//
// The last stdout line of `run` is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:[value,unit]}}
// perfbench/run.py is the user-facing wrapper (it builds this binary).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/label_stats.hpp"
#include "exec/executor.hpp"
#include "fault/failpoint.hpp"
#include "graphql/graphql.hpp"
#include "grapes/grapes.hpp"
#include "inputs.hpp"
#include "match/candidate_index.hpp"
#include "match/intersect.hpp"
#include "metrics/metrics.hpp"
#include "plan/plan.hpp"
#include "psi/engine.hpp"
#include "rewrite/rewrite.hpp"
#include "rewrite/rewrite_cache.hpp"
#include "spath/spath.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload/runner.hpp"

extern char** environ;

namespace psibench {
namespace {

using psi::Executor;
using psi::Graph;
using psi::PoolGauges;

constexpr auto kCap = std::chrono::milliseconds(250);
constexpr double kCapMs = 250.0;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 20171017;
  double seconds = 10.0;
  bool trace = false;
  std::string refs;
  std::string trace_out;
};

// ---- Per-query records ---------------------------------------------------

struct QueryRecord {
  uint32_t index = 0;
  double latency_ms = 0.0;  ///< client-observed, as measured
  Outcome outcome = Outcome::kAnswered;
  // psi layer (NFV; read from the RaceResult)
  double run_ms = 0.0;   ///< the PsiEngine::Run call
  double wall_ms = 0.0;  ///< RaceResult::wall
  double winner_ms = 0.0;
  double loser_ms = 0.0;
  int winner = -1;
  int predicted = -1;  ///< first variant of ExplainPlan (traced only)
  uint32_t variant_runs = 0;
  uint64_t recursion_nodes = 0;
  // ftv layer
  uint32_t candidates = 0;
  uint32_t verify_hits = 0;
  std::vector<double> verify_ms;
  // layers timed by calling their public function (traced only)
  double plan_us = 0.0;
  double rewrite_us = 0.0;
  double filter_us = 0.0;
};

/// What every query keeps: small, so the benchmark's own bookkeeping
/// barely moves peak_rss_mb however many queries a run completes.
struct Sample {
  float latency_ms = 0.0f;
  uint32_t index = 0;
  Outcome outcome = Outcome::kAnswered;
};

struct Segment {
  std::vector<Sample> samples;
  std::vector<QueryRecord> records;  ///< traced segments only
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< read as the clients stop
  bool wrapped = false;  ///< a sequential stream ran out of distinct queries
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool IsKilled(Outcome o) {
  return o == Outcome::kCapKilled || o == Outcome::kTypedError ||
         o == Outcome::kWrong;
}

OutcomeCounts Count(std::span<const Sample> rs) {
  OutcomeCounts c;
  for (const auto& r : rs) c.Add(r.outcome);
  return c;
}

/// Client latencies with every killed query at the cap.
std::vector<double> CappedLatencies(std::span<const Sample> rs) {
  std::vector<double> v;
  v.reserve(rs.size());
  for (const auto& r : rs) v.push_back(IsKilled(r.outcome) ? kCapMs
                                                           : r.latency_ms);
  return v;
}

// ---- The system under test ------------------------------------------------

/// Everything a workload serves from, built by SetupOnce().
struct Server {
  const Inputs* in = nullptr;
  std::unique_ptr<psi::PsiEngine> engine;  // NFV
  std::unique_ptr<psi::GrapesIndex> index;  // FTV
  psi::LabelStats ftv_stats;
  psi::RewriteCache ftv_cache;  // one for the whole run
};

const std::vector<psi::Rewriting>& FtvRewritings() {
  static const std::vector<psi::Rewriting> r = {
      psi::Rewriting::kIlf, psi::Rewriting::kInd, psi::Rewriting::kDnd,
      psi::Rewriting::kIlfInd};
  return r;
}

std::vector<psi::Rewriting> NfvRewritings() {
  return psi::PsiEngineOptions{}.rewritings;
}

std::unique_ptr<psi::PsiEngine> NewEngine() {
  psi::PsiEngineOptions o;
  o.budget = kCap;
  o.mode = psi::RaceMode::kPool;
  o.max_embeddings = kMaxEmbeddings;
  auto e = std::make_unique<psi::PsiEngine>(o);
  e->AddMatcher(std::make_unique<psi::GraphQlMatcher>());
  e->AddMatcher(std::make_unique<psi::SPathMatcher>());
  return e;
}

psi::GrapesOptions FtvIndexOptions() {
  psi::GrapesOptions o;
  o.num_threads = 1;     // Grapes/1
  o.filter_shards = 0;   // auto: pool width
  return o;
}

/// One set-up from the generated inputs to ready-to-serve; returns its
/// duration in seconds. Reference answers are not part of it.
double SetupOnce(const Inputs& in, Server* s) {
  s->engine.reset();
  s->index.reset();
  const auto t0 = Clock::now();
  if (in.spec->kind == Kind::kNfv) {
    s->engine = NewEngine();
    if (!s->engine->Prepare(in.data).ok()) {
      throw std::runtime_error("PsiEngine::Prepare failed");
    }
  } else {
    s->index = std::make_unique<psi::GrapesIndex>(FtvIndexOptions());
    if (!s->index->Build(in.dataset).ok()) {
      throw std::runtime_error("GrapesIndex::Build failed");
    }
    s->ftv_stats = psi::LabelStats::FromGraphs(in.dataset.graphs());
  }
  return Seconds(Clock::now() - t0);
}

/// The set-up steps timed one by one through their public functions, for
/// the traced run's setup.* metrics and spans.
std::map<std::string, double> SetupBreakdown(const Inputs& in,
                                             Clock::time_point origin,
                                             TraceBuffer* buf) {
  std::map<std::string, double> out = {
      {"setup.candidate_index_s", 0.0}, {"setup.prepare_s.GQL", 0.0},
      {"setup.prepare_s.SPA", 0.0},     {"setup.label_stats_s", 0.0},
      {"setup.grapes_build_s", 0.0}};
  auto timed = [&](const std::string& metric, const std::string& span,
                   auto&& body) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    out[metric] = Seconds(t1 - t0);
    buf->setup.push_back(
        {span, {MicrosSince(origin, t0), MicrosSince(origin, t1)}});
  };
  if (in.spec->kind == Kind::kNfv) {
    std::shared_ptr<const psi::CandidateIndex> ci;
    timed("setup.candidate_index_s", "setup.candidate_index",
          [&] { ci = psi::CandidateIndex::Build(in.data); });
    psi::GraphQlMatcher gql;
    psi::SPathMatcher spa;
    for (psi::Matcher* m : {static_cast<psi::Matcher*>(&gql),
                            static_cast<psi::Matcher*>(&spa)}) {
      const std::string name(m->name());
      m->set_candidate_index(ci);
      timed("setup.prepare_s." + name, "setup.prepare." + name,
            [&] { (void)m->Prepare(in.data); });
    }
    timed("setup.label_stats_s", "setup.label_stats",
          [&] { (void)psi::LabelStats::FromGraph(in.data); });
  } else {
    timed("setup.grapes_build_s", "setup.grapes_build", [&] {
      psi::GrapesIndex idx(FtvIndexOptions());
      (void)idx.Build(in.dataset);
    });
    timed("setup.label_stats_s", "setup.label_stats", [&] {
      (void)psi::LabelStats::FromGraphs(in.dataset.graphs());
    });
  }
  return out;
}

// ---- One query ------------------------------------------------------------

Outcome RaceOutcome(const psi::RaceResult& r) {
  // Mirrors PsiEngine's typed-error mapping: watchdog teardown and a race
  // the pool refused outright are typed errors; otherwise a lost race is a
  // cap kill.
  if (r.completed()) return Outcome::kAnswered;
  if (r.watchdog_fired) return Outcome::kTypedError;
  if (r.mode == psi::RaceMode::kPool && r.overloaded()) {
    const bool any_ran = std::any_of(
        r.workers.begin(), r.workers.end(),
        [](const auto& w) { return psi::VariantStarted(w.result); });
    if (!any_ran) return Outcome::kTypedError;
  }
  return Outcome::kCapKilled;
}

Outcome Judge(Outcome raced, const Reference& ref, bool same) {
  if (raced != Outcome::kAnswered) return raced;
  if (!ref.verified) return Outcome::kUnverified;
  return same ? Outcome::kAnswered : Outcome::kWrong;
}

void ServeNfv(Server& s, const ReferenceSet& refs, uint32_t idx,
              Clock::time_point origin, TraceBuffer* buf, QueryRecord* rec) {
  const Graph& q = s.in->queries[idx].graph;
  psi::PsiEngine& engine = *s.engine;
  QueryTrace qt;
  const auto t0 = Clock::now();
  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    qt.children.push_back({name, {MicrosSince(origin, a), MicrosSince(origin, b)}});
  };
  if (buf != nullptr) {
    const auto p0 = Clock::now();
    const psi::QueryPlan plan = engine.ExplainPlan(q);
    const auto p1 = Clock::now();
    if (!plan.stages.empty() && !plan.stages[0].steps.empty()) {
      rec->predicted = static_cast<int>(plan.stages[0].steps[0].variant);
    }
    for (psi::Rewriting r : NfvRewritings()) {
      (void)psi::RewriteQuery(q, r, engine.stats());
    }
    const auto p2 = Clock::now();
    span("plan", p0, p1);
    span("rewrite", p1, p2);
    rec->plan_us = MicrosSince(p0, p1);
    rec->rewrite_us = MicrosSince(p1, p2);
  }
  const auto r0 = Clock::now();
  const psi::RaceResult rr = engine.Run(q, kMaxEmbeddings);
  const auto r1 = Clock::now();
  rec->latency_ms = Ms(r1 - t0);
  rec->run_ms = Ms(r1 - r0);
  rec->wall_ms = rr.wall_ms();
  rec->winner = rr.winner;
  for (size_t v = 0; v < rr.workers.size(); ++v) {
    const psi::MatchResult& m = rr.workers[v].result;
    if (!psi::VariantStarted(m)) continue;
    ++rec->variant_runs;
    rec->recursion_nodes += m.stats.recursion_nodes;
    if (static_cast<int>(v) == rr.winner) {
      rec->winner_ms = m.elapsed_ms();
    } else {
      rec->loser_ms += m.elapsed_ms();
    }
    if (buf != nullptr) {
      const double b = MicrosSince(origin, r0);
      qt.race_children.push_back(
          {"variant." + rr.workers[v].name,
           {b, b + std::chrono::duration<double, std::micro>(m.elapsed).count()}});
    }
  }
  rec->outcome = Judge(RaceOutcome(rr), refs.refs[idx],
                       rr.result.embedding_count == refs.refs[idx].count);
  if (buf != nullptr) {
    span("race", r0, r1);
    qt.query = {MicrosSince(origin, t0), MicrosSince(origin, r1)};
    buf->queries.push_back(std::move(qt));
  }
}

void ServeFtv(Server& s, const ReferenceSet& refs, uint32_t idx,
              Clock::time_point origin, TraceBuffer* buf, QueryRecord* rec) {
  const psi::gen::Query& q = s.in->queries[idx];
  QueryTrace qt;
  const auto t0 = Clock::now();
  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    qt.children.push_back({name, {MicrosSince(origin, a), MicrosSince(origin, b)}});
  };
  if (buf != nullptr) {
    const auto f0 = Clock::now();
    (void)s.index->FilterSharded(q.graph);
    const auto f1 = Clock::now();
    for (psi::Rewriting r : FtvRewritings()) {
      (void)psi::RewriteQuery(q.graph, r, s.ftv_stats);
    }
    const auto f2 = Clock::now();
    span("filter", f0, f1);
    span("rewrite", f1, f2);
    rec->filter_us = MicrosSince(f0, f1);
    rec->rewrite_us = MicrosSince(f1, f2);
  }
  psi::RunnerOptions ro;
  ro.cap_ms = kCapMs;
  ro.max_embeddings = 1;  // decision
  const auto r0 = Clock::now();
  const auto pairs = psi::RunFtvWorkloadPsiParallel(
      *s.index, std::span<const psi::gen::Query>(&q, 1), FtvRewritings(),
      s.ftv_stats, ro, psi::RaceMode::kPool, nullptr, nullptr, &s.ftv_cache);
  const auto r1 = Clock::now();
  rec->latency_ms = Ms(r1 - t0);
  rec->run_ms = Ms(r1 - r0);
  Outcome raced = Outcome::kAnswered;
  std::vector<uint32_t> found;
  for (const auto& p : pairs) {
    ++rec->candidates;
    rec->verify_ms.push_back(p.ms);
    if (p.status == psi::Status::Code::kOverloaded ||
        p.status == psi::Status::Code::kDeadlineExceeded) {
      raced = Outcome::kTypedError;
    } else if ((p.killed || p.status != psi::Status::Code::kOk) &&
               raced == Outcome::kAnswered) {
      raced = Outcome::kCapKilled;
    }
    if (p.matched) {
      ++rec->verify_hits;
      found.push_back(p.graph_id);
    }
    if (buf != nullptr) {
      const double b = MicrosSince(origin, r0);
      qt.race_children.push_back(
          {"verify.g" + std::to_string(p.graph_id), {b, b + p.ms * 1000.0}});
    }
  }
  std::sort(found.begin(), found.end());
  rec->outcome = Judge(raced, refs.refs[idx], found == refs.refs[idx].graphs);
  if (buf != nullptr) {
    span("race", r0, r1);
    qt.query = {MicrosSince(origin, t0), MicrosSince(origin, r1)};
    buf->queries.push_back(std::move(qt));
  }
}

/// Closed-loop clients for `seconds`; traced when `origin` is given.
/// Each client's stream continues across segments, so a traced half sees
/// the queries that follow the untraced half's, as one run would.
Segment Drive(Server& s, const ReferenceSet& refs, double seconds,
              const Clock::time_point* origin,
              std::vector<QueryStream>* streams) {
  const auto clients = static_cast<uint32_t>(streams->size());
  Segment seg;
  // Capacity is reserved up front (address space only) so no reallocation
  // copy runs, or shows in peak RSS, while clients are measured.
  const size_t reserve = static_cast<size_t>(seconds * 200000.0 / clients);
  std::vector<std::vector<Sample>> samples(clients);
  std::vector<std::vector<QueryRecord>> records(clients);
  std::vector<char> wrapped(clients, 0);
  for (uint32_t c = 0; c < clients; ++c) {
    seg.buffers.push_back(origin != nullptr ? std::make_unique<TraceBuffer>()
                                            : nullptr);
  }
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      QueryStream& stream = (*streams)[c];
      TraceBuffer* buf = seg.buffers[c].get();
      samples[c].reserve(reserve);
      while (Clock::now() < end) {
        QueryRecord rec;
        rec.index = stream.Next();
        if (s.in->spec->kind == Kind::kNfv) {
          ServeNfv(s, refs, rec.index, origin ? *origin : start, buf, &rec);
        } else {
          ServeFtv(s, refs, rec.index, origin ? *origin : start, buf, &rec);
        }
        samples[c].push_back({static_cast<float>(rec.latency_ms), rec.index,
                              rec.outcome});
        if (buf != nullptr) {
          QueryTrace& qt = buf->queries.back();
          qt.client = c;
          qt.id = samples[c].size() * clients + c;
          // Counters at the query boundary, next to its spans.
          const PoolGauges g = Executor::Shared().gauges();
          const double ts = qt.query.end;
          buf->counters.push_back({"exec.queue_depth", ts,
                                   static_cast<double>(g.queue_depth)});
          buf->counters.push_back({"exec.tasks_executed", ts,
                                   static_cast<double>(g.tasks_executed)});
          if (s.engine) {
            buf->counters.push_back({"psi.variant_runs", ts,
                                     static_cast<double>(rec.variant_runs)});
            buf->counters.push_back(
                {"match.recursion_nodes", ts,
                 static_cast<double>(rec.recursion_nodes)});
          } else {
            buf->counters.push_back({"ftv.candidates", ts,
                                     static_cast<double>(rec.candidates)});
          }
          records[c].push_back(std::move(rec));
        }
      }
      wrapped[c] = stream.wrapped();
    });
  }
  for (auto& t : threads) t.join();
  seg.wall_s = Seconds(Clock::now() - start);
  seg.peak_rss_mb = PeakRssMb();
  for (uint32_t c = 0; c < clients; ++c) {
    seg.wrapped = seg.wrapped || wrapped[c];
    seg.samples.insert(seg.samples.end(), samples[c].begin(),
                       samples[c].end());
    for (auto& r : records[c]) seg.records.push_back(std::move(r));
  }
  return seg;
}

psi::RewriteCache::Stats CacheStats(const Server& s) {
  return s.engine ? s.engine->rewrite_cache_stats() : s.ftv_cache.stats();
}

PoolGauges Gauges(const Server& s) {
  if (s.engine) return s.engine->pool_gauges();
  PoolGauges g = Executor::Shared().gauges();
  s.index->kernel_stats().AddTo(&g);
  return g;
}

// ---- Metrics ---------------------------------------------------------------

using Metrics = std::map<std::string, std::pair<double, std::string>>;

double Div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Queries per latency_tail_ms window; 0 for one window over the run.
/// Samples run client by client, each client's in completion order, so a
/// window is a stretch of one client's stream (or joins the end of one to
/// the start of the next).
size_t TailWindow(const WorkloadSpec& spec) {
  return spec.windowed_tail ? SamplesForTail(spec.tail_percentile) : 0;
}

void EndToEnd(const Segment& seg, const WorkloadSpec& spec, double setup_s,
              Metrics* m) {
  const OutcomeCounts c = Count(seg.samples);
  const std::vector<double> lat = CappedLatencies(seg.samples);
  (*m)["setup_s"] = {setup_s, "s"};
  (*m)["qps"] = {Div(static_cast<double>(c.attempted - c.killed()),
                     seg.wall_s), "1/s"};
  (*m)["latency_p50_ms"] = {Median(lat), "ms"};
  (*m)["latency_tail_ms"] = {
      WindowedPercentile(lat, spec.tail_percentile, TailWindow(spec)), "ms"};
  (*m)["wla_ms"] = {Mean(lat), "ms"};
  (*m)["answered_frac"] = {1.0 - c.killed_frac(), "ratio"};
}

/// Per-layer metrics of the traced segment `seg`; g0/g1 and c0/c1 are the
/// pool gauges and rewrite-cache counters around it. The repeat share is
/// over the whole run, untraced half first.
void PerLayer(const Server& s, const Segment& plain, const Segment& seg,
              const PoolGauges& g0, const PoolGauges& g1,
              const psi::RewriteCache::Stats& c0,
              const psi::RewriteCache::Stats& c1, double tail_p, Metrics* m) {
  const auto& rs = seg.records;
  const double n = static_cast<double>(std::max<size_t>(rs.size(), 1));
  // exec
  const double executed =
      static_cast<double>(g1.tasks_executed - g0.tasks_executed);
  (*m)["exec.tasks_per_query"] = {
      static_cast<double>(g1.tasks_submitted - g0.tasks_submitted) / n,
      "count/query"};
  (*m)["exec.discard_frac"] = {
      Div(static_cast<double>(g1.tasks_discarded - g0.tasks_discarded),
          executed), "ratio"};
  (*m)["exec.queue_wait_mean_ms"] = {
      Div(g1.queue_wait_total_ms - g0.queue_wait_total_ms,
          static_cast<double>(g1.queue_wait_count - g0.queue_wait_count)),
      "ms"};
  (*m)["exec.peak_queue_depth"] = {
      static_cast<double>(g1.peak_queue_depth), "count"};
  (*m)["exec.displaced"] = {
      static_cast<double>((g1.tasks_rejected + g1.tasks_shed) -
                          (g0.tasks_rejected + g0.tasks_shed)), "count"};

  std::vector<double> plan_us, rewrite_us, filter_us, wall, overhead,
      winner_ms, verify_ms;
  double runs = 0, losers = 0, nodes = 0, predicted_hits = 0, planned = 0,
         candidates = 0, hits = 0;
  std::map<std::string, double> wins;
  for (const auto& r : rs) {
    if (s.engine) {
      plan_us.push_back(r.plan_us);
      wall.push_back(r.wall_ms);
      overhead.push_back(r.run_ms - r.wall_ms);
      runs += r.variant_runs;
      losers += r.loser_ms;
      nodes += static_cast<double>(r.recursion_nodes);
      if (r.winner >= 0) {
        winner_ms.push_back(r.winner_ms);
        wins[psi::EntryName(
            s.engine->portfolio().entries[static_cast<size_t>(r.winner)])] += 1;
        if (r.predicted >= 0) {
          planned += 1;
          predicted_hits += r.predicted == r.winner;
        }
      }
    } else {
      filter_us.push_back(r.filter_us);
      candidates += r.candidates;
      hits += r.verify_hits;
      verify_ms.insert(verify_ms.end(), r.verify_ms.begin(), r.verify_ms.end());
    }
    rewrite_us.push_back(r.rewrite_us / static_cast<double>(
        s.engine ? NfvRewritings().size() : FtvRewritings().size()));
  }
  (*m)["plan.plan_us_p50"] = {Median(plan_us), "us"};
  (*m)["select.predicted_winner_frac"] = {Div(predicted_hits, planned),
                                          "ratio"};
  // rewrite
  psi::RewriteCache::Stats cache;
  cache.hits = c1.hits - c0.hits;
  cache.misses = c1.misses - c0.misses;
  (*m)["rewrite.hit_rate"] = {cache.hit_rate(), "ratio"};
  std::vector<uint64_t> fps;
  for (const Segment* part : {&plain, &seg}) {
    for (const auto& x : part->samples) {
      fps.push_back(s.in->fingerprints[x.index]);
    }
  }
  (*m)["rewrite.rewrite_us_p50"] = {Median(rewrite_us), "us"};
  (*m)["rewrite.repeat_query_frac"] = {RepeatFraction(fps), "ratio"};
  // psi
  (*m)["psi.race_wall_ms_p50"] = {Median(wall), "ms"};
  (*m)["psi.overhead_ms_p50"] = {Median(overhead), "ms"};
  (*m)["psi.variant_runs_per_query"] = {runs / n, "count/query"};
  (*m)["psi.loser_ms_per_query"] = {losers / n, "ms"};
  for (const char* v : {"GQL-Orig", "GQL-DND", "SPA-Orig", "SPA-DND"}) {
    (*m)[std::string("psi.wins.") + v] = {wins[v] / n, "ratio"};
  }
  // match (+ graphql, spath, vf2)
  (*m)["match.winner_ms_p50"] = {Median(winner_ms), "ms"};
  (*m)["match.winner_ms_tail"] = {Percentile(winner_ms, tail_p), "ms"};
  (*m)["match.recursion_nodes_per_query"] = {nodes / n, "count/query"};
  const double nlf =
      static_cast<double>(g1.kernel_nlf_rejects - g0.kernel_nlf_rejects);
  const double tried = static_cast<double>(g1.kernel_candidates_tried -
                                           g0.kernel_candidates_tried);
  (*m)["match.candidates_tried_per_query"] = {tried / n, "count/query"};
  // Share of candidates the O(1) NLF prefilter refuted before a full try.
  (*m)["match.nlf_reject_frac"] = {Div(nlf, nlf + tried), "ratio"};
  (*m)["match.multiway_per_query"] = {
      static_cast<double>(g1.kernel_multiway_intersections -
                          g0.kernel_multiway_intersections) / n,
      "count/query"};
  (*m)["match.split_tasks"] = {
      static_cast<double>(g1.kernel_split_tasks - g0.kernel_split_tasks),
      "count"};
  (*m)["match.steal_stolen"] = {
      static_cast<double>(g1.kernel_steal_stolen - g0.kernel_steal_stolen),
      "count"};
  // ftv / grapes
  const double graphs = s.index ? static_cast<double>(s.in->dataset.size())
                                : 0.0;
  (*m)["ftv.filter_ms_p50"] = {Median(filter_us) / 1000.0, "ms"};
  (*m)["ftv.candidates_per_query"] = {s.index ? candidates / n : 0.0,
                                      "count/query"};
  (*m)["ftv.prune_frac"] = {s.index ? 1.0 - Div(candidates, graphs * n) : 0.0,
                            "ratio"};
  (*m)["ftv.verify_hit_frac"] = {Div(hits, candidates), "ratio"};
  (*m)["ftv.verify_ms_p50"] = {Median(verify_ms), "ms"};
}

// ---- Output ----------------------------------------------------------------

std::string Json(const Metrics& m, bool correct, uint64_t attempted,
                 uint64_t failed) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", vu.first);
    s += (first ? "\"" : ", \"") + name + "\": [" + buf + ", \"" +
         vu.second + "\"]";
    first = false;
  }
  return s + "}}";
}

void PrintConfig(const Args& a) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "config: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
      "pool_threads=%zu race_mode=pool cap_ms=%g max_embeddings=%llu "
      "build_type=%s compiler=%s simd=%s failpoints=%s\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, nproc, Executor::Shared().num_threads(), kCapMs,
      static_cast<unsigned long long>(kMaxEmbeddings), PSIBENCH_BUILD_TYPE,
      __VERSION__, psi::ToString(psi::ActiveSimdLevel()),
      psi::FaultsCompiledIn() ? "compiled-in" : "compiled-out");
}

void PrintAttribution(const LayerAttribution& a) {
  auto row = [&](const char* layer, double us) {
    std::printf("  %-22s %10.4f ms/query  %6.2f%% of query span\n", layer,
                us / 1000.0 / std::max<double>(a.queries, 1),
                100.0 * Div(us, a.query_us));
  };
  std::printf("layer self time over %zu traced queries:\n", a.queries);
  row("query (unattributed)", a.query_self_us);
  row("plan", a.plan_us);
  row("rewrite", a.rewrite_us);
  row("filter", a.filter_us);
  row("race (outside variants)", a.race_self_us);
  row("variants / verify", a.contenders_us);
}

int Run(const Args& a, const WorkloadSpec& spec) {
  const Inputs in = MakeInputs(spec, a.seed);
  const std::string ref_path = ReferencePath(a.refs, in);
  const auto refs = LoadReferences(ref_path, in);
  if (!refs) {
    std::fprintf(stderr, "psibench: no reference file for these inputs: %s\n",
                 ref_path.c_str());
    return 3;
  }
  PrintConfig(a);
  const uint64_t unverifiable = static_cast<uint64_t>(std::count_if(
      refs->refs.begin(), refs->refs.end(),
      [](const Reference& r) { return !r.verified; }));
  std::printf("inputs: %zu distinct queries, %llu without a reference, "
              "%llu reference disagreements\n",
              in.queries.size(), static_cast<unsigned long long>(unverifiable),
              static_cast<unsigned long long>(refs->disagreements));

  Server server;
  server.in = &in;
  Metrics m;
  Segment seg;
  std::vector<QueryStream> streams;
  for (uint32_t c = 0; c < spec.clients; ++c) streams.emplace_back(in, c);
  if (!a.trace) {
    std::vector<double> setups;
    for (uint32_t i = 0; i < spec.setup_repeats; ++i) {
      setups.push_back(SetupOnce(in, &server));
    }
    seg = Drive(server, *refs, a.seconds, nullptr, &streams);
    m["peak_rss_mb"] = {seg.peak_rss_mb, "MB"};
    EndToEnd(seg, spec, Median(setups), &m);
  } else {
    const auto origin = Clock::now();
    TraceBuffer setup_buf;
    const auto breakdown = SetupBreakdown(in, origin, &setup_buf);
    for (const auto& [name, v] : breakdown) m[name] = {v, "s"};
    SetupOnce(in, &server);
    Segment plain = Drive(server, *refs, a.seconds / 2, nullptr, &streams);
    const PoolGauges g0 = Gauges(server);
    const auto c0 = CacheStats(server);
    seg = Drive(server, *refs, a.seconds / 2, &origin, &streams);
    const PoolGauges g1 = Gauges(server);
    PerLayer(server, plain, seg, g0, g1, c0, CacheStats(server),
             spec.tail_percentile, &m);
    std::vector<const TraceBuffer*> bufs = {&setup_buf};
    for (const auto& b : seg.buffers) bufs.push_back(b.get());
    const LayerAttribution attr = Attribute(bufs);
    PrintAttribution(attr);
    m["trace.unattributed_frac"] = {Div(attr.query_self_us, attr.query_us),
                                    "ratio"};
    m["trace.overhead_frac"] = {
        Div(Median(CappedLatencies(seg.samples)),
            Median(CappedLatencies(plain.samples))) - 1.0, "ratio"};
    seg.samples.insert(seg.samples.end(), plain.samples.begin(),
                       plain.samples.end());
    m["killed_frac"] = {Count(seg.samples).killed_frac(), "ratio"};
    if (!a.trace_out.empty()) {
      if (WriteChromeTrace(a.trace_out, bufs)) {
        std::printf("trace: %s (open in Perfetto)\n", a.trace_out.c_str());
      } else {
        std::fprintf(stderr, "psibench: cannot write %s\n",
                     a.trace_out.c_str());
      }
    }
  }
  const OutcomeCounts c = Count(seg.samples);
  std::printf("outcomes: attempted=%llu answered=%llu unverified=%llu "
              "cap_killed=%llu typed_errors=%llu wrong=%llu "
              "killed_frac=%.6f\n",
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.answered),
              static_cast<unsigned long long>(c.unverified),
              static_cast<unsigned long long>(c.cap_killed),
              static_cast<unsigned long long>(c.typed_errors),
              static_cast<unsigned long long>(c.wrong), c.killed_frac());
  // The tail percentile is fixed per workload so runs stay comparable; the
  // rule's choice at this run's length is printed beside it.
  static const double kLadder[] = {50, 90, 95, 99, 99.9, 99.99};
  std::printf("tail: latency_tail_ms is p%g with %zu samples beyond it "
              "(rule at this length: p%g)%s\n",
              spec.tail_percentile,
              SamplesBeyond(c.attempted, spec.tail_percentile),
              TailPercentile(c.attempted, kLadder),
              SamplesBeyond(c.attempted, spec.tail_percentile) < 10
                  ? "; fewer than 10 beyond, run longer"
                  : "");
  if (const size_t w = TailWindow(spec); w != 0 && c.attempted >= 2 * w) {
    std::printf("tail: reported as the median of p%g over %llu windows of "
                ">= %zu queries\n",
                spec.tail_percentile,
                static_cast<unsigned long long>(c.attempted / w), w);
  }
  if (seg.wrapped) {
    std::printf("note: the query pool wrapped around; later queries repeat\n");
  }
  for (const auto& [name, vu] : m) {
    std::printf("metric %-36s %14.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  const bool correct = c.wrong == 0 && refs->disagreements == 0;
  std::printf("%s\n",
              Json(m, correct, c.attempted, c.wrong + c.typed_errors).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int WriteReferences(const Args& a, const WorkloadSpec& spec) {
  const Inputs in = MakeInputs(spec, a.seed);
  const std::string path = ReferencePath(a.refs, in);
  if (LoadReferences(path, in)) return 0;
  const auto t0 = Clock::now();
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  const ReferenceSet set = ComputeReferences(in, threads);
  std::map<std::string, size_t> methods;
  for (const auto& r : set.refs) methods[r.verified ? r.method : "none"]++;
  std::fprintf(stderr, "psibench: references for %s seed %llu in %.1fs:",
               spec.name, static_cast<unsigned long long>(a.seed),
               Seconds(Clock::now() - t0));
  for (const auto& [name, n] : methods) {
    std::fprintf(stderr, " %s=%zu", name.c_str(), n);
  }
  std::fprintf(stderr, " disagreements=%llu\n",
               static_cast<unsigned long long>(set.disagreements));
  if (!SaveReferences(path, in, set)) {
    std::fprintf(stderr, "psibench: cannot write %s\n", path.c_str());
    return 3;
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (k == "--refs") {
      a->refs = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return (argc % 2 == 0) && !a->workload.empty() && !a->refs.empty() &&
         a->seconds > 0.0;
}

/// The shipped defaults only: any PSI_* variable could change the
/// measured program.
bool EnvironmentClean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PSI_", 4) == 0) {
      std::fprintf(stderr, "psibench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

}  // namespace
}  // namespace psibench

int main(int argc, char** argv) {
  using namespace psibench;
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (args.mode != "run" && args.mode != "reference")) {
    std::fprintf(stderr,
                 "usage: psibench run|reference --workload W --seed N "
                 "--refs DIR [--seconds S] [--trace 0|1] [--trace-out F]\n");
    return 2;
  }
  if (!EnvironmentClean()) return 2;
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "psibench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    return args.mode == "run" ? Run(args, *spec) : WriteReferences(args, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psibench: %s\n", e.what());
    return 3;
  }
}
