// Workload definitions, seeded input generation and the independent
// reference answers every measured query is checked against.
//
// The stored data (the Yeast-like and Wordnet-like graphs, the GraphGen-like
// collection) is fixed per workload, like a public dataset; the seed draws
// the queries and the order clients send them in.

#ifndef PSIBENCH_INPUTS_HPP_
#define PSIBENCH_INPUTS_HPP_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.hpp"
#include "core/graph.hpp"
#include "gen/query_gen.hpp"
#include "gen/rng.hpp"

namespace psibench {

enum class Kind { kNfv, kFtv };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Closed-loop client threads.
  uint32_t clients;
  /// The tail percentile reported as latency_tail_ms; chosen so a run of
  /// the default length leaves at least ten samples beyond it.
  double tail_percentile;
  /// When set, latency_tail_ms is the median of the tail percentile over
  /// consecutive windows of the fewest queries that leave ten beyond it,
  /// so a short burst of host contention does not set it.
  bool windowed_tail;
  /// Set-ups per measuring process; setup_s is their median (run.py then
  /// takes the median over processes).
  uint32_t setup_repeats;
  /// Distinct queries generated; sizes rotate through `query_edges`.
  uint32_t pool_size;
  std::vector<uint32_t> query_edges;
  /// Clients draw from the pool with Zipf(`zipf_s`) skew (serving traffic
  /// with repetition); 0 walks it in a seed-shuffled order (all distinct).
  double zipf_s;
  /// When non-zero the pool is drawn from this seed instead of --seed,
  /// which then only shuffles the order queries are sent in.
  uint64_t fixed_pool_seed;
};

std::span<const WorkloadSpec> AllWorkloads();
const WorkloadSpec* FindWorkload(std::string_view name);

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  psi::Graph data;            ///< NFV stored graph
  psi::GraphDataset dataset;  ///< FTV collection
  std::vector<psi::gen::Query> queries;  ///< the distinct query pool
  std::vector<uint64_t> fingerprints;  ///< psi::QueryFingerprint per query
  /// Digest of the data and every query: names the stored reference
  /// file, which is reused only for exactly these inputs.
  uint64_t digest = 0;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// One client's deterministic sequence of pool indices.
class QueryStream {
 public:
  QueryStream(const Inputs& inputs, uint32_t client);
  uint32_t Next();
  /// True once a sequential stream has wrapped around its pool.
  bool wrapped() const { return wrapped_; }

 private:
  psi::Rng rng_;
  std::optional<psi::ZipfSampler> zipf_;
  std::vector<uint32_t> order_;  ///< Zipf rank or stream position -> query
  uint32_t cursor_ = 0;
  bool wrapped_ = false;
};

/// The reference answer of one pool query. NFV: the embedding count
/// capped at the engine's max_embeddings. FTV: the ascending ids of the
/// stored graphs that contain the query.
struct Reference {
  bool verified = false;
  uint64_t count = 0;
  std::vector<uint32_t> graphs;
  std::string method;  ///< which independent path produced it
};

struct ReferenceSet {
  std::vector<Reference> refs;
  /// Queries where the independent algorithms finished but disagreed —
  /// a correctness bug in the library, reported loudly.
  uint64_t disagreements = 0;
};

/// Embedding cap of every NFV query (paper §3.2).
constexpr uint64_t kMaxEmbeddings = 1000;

/// Computes every pool query's reference on `threads` threads, outside
/// any timed run and without the engine, the racer or the rewritings.
ReferenceSet ComputeReferences(const Inputs& inputs, unsigned threads);

/// `dir`/<workload>-<digest>.txt.
std::string ReferencePath(const std::string& dir, const Inputs& inputs);
bool SaveReferences(const std::string& path, const Inputs& inputs,
                    const ReferenceSet& set);
/// The stored set, or nullopt when the file is missing, malformed or was
/// computed for other inputs.
std::optional<ReferenceSet> LoadReferences(const std::string& path,
                                           const Inputs& inputs);

}  // namespace psibench

#endif  // PSIBENCH_INPUTS_HPP_
