#include "inputs.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <chrono>
#include <fstream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/fnv.hpp"
#include "gen/dataset_gen.hpp"
#include "graphql/graphql.hpp"
#include "match/matcher.hpp"
#include "quicksi/quicksi.hpp"
#include "rewrite/rewrite_cache.hpp"
#include "spath/spath.hpp"
#include "vf2/vf2.hpp"

namespace psibench {
namespace {

// Fixed stored data (the seeds the repository's paper benches use).
constexpr uint64_t kYeastSeed = 20170324;
constexpr uint64_t kWordnetSeed = 20170326;
constexpr uint32_t kWordnetScale = 2;
constexpr uint64_t kCollectionSeed = 20170321;
// nfv-stragglers replays one fixed query set (see README.md: a 15 s run
// holds ~450-630 straggler-regime queries, too few for seed-drawn sets to
// agree with each other).
constexpr uint64_t kStragglerPoolSeed = 20171017;

// Reference caps. Unindexed VF2 finishes these NFV queries quickly or not
// at all, and the two-algorithm check behind it covers the rest.
constexpr auto kVf2RefCap = std::chrono::milliseconds(100);
constexpr auto kFtvRefCap = std::chrono::milliseconds(2000);

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"nfv-serve", Kind::kNfv, /*clients=*/2, /*tail=*/99.0,
       /*windowed_tail=*/true, /*setup_repeats=*/2, /*pool_size=*/1024,
       {4, 8}, /*zipf_s=*/0.6, /*fixed_pool_seed=*/0},
      {"nfv-stragglers", Kind::kNfv, 1, 95.0, false, 3, 288, {16, 24, 32},
       0.0, kStragglerPoolSeed},
      {"ftv-collection", Kind::kFtv, 1, 99.0, true, 1, 24000, {8, 12, 16},
       0.0, 0},
  };
  return specs;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t h = psi::kFnv1aOffset;
  psi::Fnv1aMix(a, &h);
  psi::Fnv1aMix(b, &h);
  return h;
}

// Appends distinct queries of `edges` edges until `want` more were added.
void AddDistinct(const Inputs& in, uint32_t want, uint32_t edges,
                 uint64_t seed, std::unordered_set<uint64_t>* seen,
                 std::vector<psi::gen::Query>* out) {
  uint32_t added = 0;
  for (uint64_t round = 0; added < want; ++round) {
    if (round > 64) {
      throw std::runtime_error("cannot draw enough distinct queries");
    }
    auto batch = in.spec->kind == Kind::kNfv
                     ? psi::gen::GenerateWorkload(in.data, want - added,
                                                  edges, Mix(seed, round))
                     : psi::gen::GenerateWorkload(in.dataset, want - added,
                                                  edges, Mix(seed, round));
    if (!batch.ok()) throw std::runtime_error("query generation failed");
    for (auto& q : batch.value()) {
      if (seen->insert(psi::QueryFingerprint(q.graph)).second) {
        out->push_back(std::move(q));
        ++added;
      }
    }
  }
}

psi::MatchResult RunCapped(const psi::Matcher& m, const psi::Graph& q,
                           uint64_t max_embeddings,
                           std::chrono::nanoseconds cap) {
  psi::MatchOptions o;
  o.max_embeddings = max_embeddings;
  o.deadline = psi::Deadline::After(cap);
  return m.Match(q, o);
}

/// A matcher prepared on its own; `index` = false pins the candidate-index
/// kernel off, so the shared kernel under test stays out of the answer.
template <typename Matcher>
std::unique_ptr<psi::Matcher> Standalone(const psi::Graph& g, bool index) {
  auto m = std::make_unique<Matcher>();
  if (!index) m->set_candidate_index(nullptr);
  if (!m->Prepare(g).ok()) throw std::runtime_error("matcher prepare failed");
  return m;
}

// Runs body(i) for every i in [0, n) on `threads` threads.
template <typename Body>
void ParallelFor(size_t n, unsigned threads, Body body) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(threads, 1u); ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) body(i);
    });
  }
  for (auto& th : pool) th.join();
}

ReferenceSet NfvReferences(const Inputs& in, unsigned threads) {
  // VF2 with the candidate index pinned off when it finishes; otherwise
  // two algorithms from different modules, each run standalone (no race,
  // no rewriting), must finish and agree — the isomorphic-rewriting
  // premise: every correct algorithm returns the same capped count.
  // Ordered cheapest-first on Wordnet-like queries: GraphQL nearly always
  // finishes, QuickSI and VF2 either finish fast or not at all.
  struct Method {
    const char* name;
    std::unique_ptr<psi::Matcher> matcher;
    std::chrono::milliseconds cap;
  };
  const auto vf2 = Standalone<psi::Vf2Matcher>(in.data, /*index=*/false);
  std::vector<Method> second;
  second.push_back({"GQL", Standalone<psi::GraphQlMatcher>(in.data, false),
                    std::chrono::milliseconds(1000)});
  second.push_back({"QSI", Standalone<psi::QuickSiMatcher>(in.data, true),
                    std::chrono::milliseconds(50)});
  second.push_back({"VF2+idx", Standalone<psi::Vf2Matcher>(in.data, true),
                    std::chrono::milliseconds(100)});
  second.push_back({"SPA", Standalone<psi::SPathMatcher>(in.data, false),
                    std::chrono::milliseconds(500)});

  ReferenceSet set;
  set.refs.resize(in.queries.size());
  std::atomic<uint64_t> disagreements{0};
  ParallelFor(in.queries.size(), threads, [&](size_t i) {
    const psi::Graph& q = in.queries[i].graph;
    Reference& ref = set.refs[i];
    const auto r = RunCapped(*vf2, q, kMaxEmbeddings, kVf2RefCap);
    if (r.complete) {
      ref = {true, r.embedding_count, {}, "VF2"};
      return;
    }
    const char* first = nullptr;
    uint64_t first_count = 0;
    for (const auto& m : second) {
      const auto res = RunCapped(*m.matcher, q, kMaxEmbeddings, m.cap);
      if (!res.complete) continue;
      if (first == nullptr) {
        first = m.name;
        first_count = res.embedding_count;
      } else if (res.embedding_count != first_count) {
        disagreements.fetch_add(1);
        return;
      } else {
        ref = {true, first_count, {}, std::string(first) + "=" + m.name};
        return;
      }
    }
  });
  set.disagreements = disagreements.load();
  return set;
}

ReferenceSet FtvReferences(const Inputs& in, unsigned threads) {
  // VF2 against every stored graph, no filter: a filter false negative
  // then shows as a wrong answer.
  std::vector<std::unique_ptr<psi::Matcher>> per_graph;
  for (const auto& g : in.dataset.graphs()) {
    per_graph.push_back(Standalone<psi::Vf2Matcher>(g, false));
  }
  ReferenceSet set;
  set.refs.resize(in.queries.size());
  ParallelFor(in.queries.size(), threads, [&](size_t i) {
    Reference ref{true, 0, {}, "VF2-all"};
    for (uint32_t gid = 0; gid < per_graph.size(); ++gid) {
      const auto r = RunCapped(*per_graph[gid], in.queries[i].graph, 1, kFtvRefCap);
      if (!r.complete) {
        ref = Reference{};
        break;
      }
      if (r.found()) ref.graphs.push_back(gid);
    }
    set.refs[i] = std::move(ref);
  });
  return set;
}

}  // namespace

std::span<const WorkloadSpec> AllWorkloads() { return Specs(); }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const auto& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.spec = &spec;
  in.seed = seed;
  const uint64_t pool_seed =
      spec.fixed_pool_seed != 0 ? spec.fixed_pool_seed : seed;
  uint64_t digest = Mix(pool_seed, spec.pool_size);
  if (spec.kind == Kind::kFtv) {
    psi::gen::GraphGenLikeOptions o;
    o.num_graphs = 60;
    o.avg_nodes = 150;
    o.density = 0.08;
    o.num_labels = 20;
    o.seed = kCollectionSeed;
    in.dataset = psi::gen::GraphGenLike(o);
    for (const auto& g : in.dataset.graphs()) {
      digest = Mix(digest, psi::QueryFingerprint(g));
    }
  } else {
    in.data = spec.zipf_s > 0.0
                  ? psi::gen::YeastLike(1, kYeastSeed)
                  : psi::gen::WordnetLike(kWordnetScale, kWordnetSeed);
    digest = Mix(digest, psi::QueryFingerprint(in.data));
  }
  // Generate per size, then interleave so sizes rotate through the pool.
  const auto sizes = static_cast<uint32_t>(spec.query_edges.size());
  std::unordered_set<uint64_t> seen;
  std::vector<std::vector<psi::gen::Query>> by_size(sizes);
  for (uint32_t s = 0; s < sizes; ++s) {
    const uint32_t want = spec.pool_size / sizes + (s < spec.pool_size % sizes);
    AddDistinct(in, want, spec.query_edges[s], Mix(pool_seed, 1000 + s), &seen,
                &by_size[s]);
  }
  for (uint32_t i = 0; in.queries.size() < spec.pool_size; ++i) {
    auto& bucket = by_size[i % sizes];
    const uint32_t k = i / sizes;
    if (k < bucket.size()) in.queries.push_back(std::move(bucket[k]));
  }
  for (const auto& q : in.queries) {
    in.fingerprints.push_back(psi::QueryFingerprint(q.graph));
    digest = Mix(digest, in.fingerprints.back());
  }
  in.digest = digest;
  return in;
}

QueryStream::QueryStream(const Inputs& inputs, uint32_t client)
    : rng_(Mix(inputs.seed, 7919 + client)) {
  // Which queries are popular, or the order they are walked in, depends on
  // the seed, not on pool order.
  const auto n = static_cast<uint32_t>(inputs.queries.size());
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  psi::Rng perm(Mix(inputs.seed, 104729));
  perm.Shuffle(&order_);
  if (inputs.spec->zipf_s > 0.0) zipf_.emplace(n, inputs.spec->zipf_s);
}

uint32_t QueryStream::Next() {
  if (zipf_) return order_[zipf_->Sample(&rng_)];
  const uint32_t i = order_[cursor_];
  if (++cursor_ == order_.size()) {
    cursor_ = 0;
    wrapped_ = true;
  }
  return i;
}

ReferenceSet ComputeReferences(const Inputs& inputs, unsigned threads) {
  return inputs.spec->kind == Kind::kNfv ? NfvReferences(inputs, threads)
                                         : FtvReferences(inputs, threads);
}

std::string ReferencePath(const std::string& dir, const Inputs& inputs) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(inputs.digest));
  return dir + "/" + inputs.spec->name + "-" + hex + ".txt";
}

bool SaveReferences(const std::string& path, const Inputs& inputs,
                    const ReferenceSet& set) {
  std::ofstream out(path);
  out << "psibench-ref 2 " << inputs.spec->name << ' ' << inputs.digest << ' ' << set.refs.size() << ' ' << set.disagreements
      << '\n';
  for (const auto& r : set.refs) {
    if (!r.verified) {
      out << "U\n";
      continue;
    }
    out << "V " << r.method << ' ' << r.count << ' ' << r.graphs.size();
    for (uint32_t g : r.graphs) out << ' ' << g;
    out << '\n';
  }
  return static_cast<bool>(out);
}

std::optional<ReferenceSet> LoadReferences(const std::string& path,
                                           const Inputs& inputs) {
  std::ifstream in(path);
  std::string magic, name;
  int version = 0;
  uint64_t digest = 0, n = 0;
  ReferenceSet set;
  if (!(in >> magic >> version >> name >> digest >> n >>
        set.disagreements) ||
      magic != "psibench-ref" || version != 2 || name != inputs.spec->name ||
      digest != inputs.digest ||
      n != inputs.queries.size()) {
    return std::nullopt;
  }
  set.refs.resize(n);
  for (auto& r : set.refs) {
    std::string tag;
    if (!(in >> tag)) return std::nullopt;
    if (tag == "U") continue;
    size_t k = 0;
    if (tag != "V" || !(in >> r.method >> r.count >> k) ||
        k > inputs.dataset.size()) {
      return std::nullopt;
    }
    r.graphs.resize(k);
    for (auto& g : r.graphs) {
      if (!(in >> g)) return std::nullopt;
    }
    r.verified = true;
  }
  return set;
}

}  // namespace psibench
