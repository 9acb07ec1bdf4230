#include "heldout.h"

#include <algorithm>

namespace perfbench {

using knmatch::Value;

std::vector<Value> MakeHeldOutQuery(const knmatch::Dataset& db,
                                    knmatch::Rng& rng) {
  const auto row = db.point(static_cast<knmatch::PointId>(rng.UniformInt(db.size())));
  std::vector<Value> q(row.begin(), row.end());
  for (Value& v : q) {
    v = std::clamp(v + rng.Uniform(-kJitter, kJitter), 0.0, 1.0);
  }
  const size_t corrupted = std::min(kCorrupted, q.size());
  for (const uint32_t dim : rng.SampleWithoutReplacement(
           static_cast<uint32_t>(q.size()), static_cast<uint32_t>(corrupted))) {
    q[dim] = rng.Uniform01();
  }
  return q;
}

std::vector<std::vector<Value>> MakeHeldOutQueries(const knmatch::Dataset& db,
                                                   size_t count, uint64_t seed) {
  knmatch::Rng rng(seed);
  std::vector<std::vector<Value>> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(MakeHeldOutQuery(db, rng));
  }
  return queries;
}

}  // namespace perfbench
