#ifndef PERFBENCH_HELDOUT_H_
#define PERFBENCH_HELDOUT_H_

#include <cstdint>
#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/common/random.h"

namespace perfbench {

/// Held-out queries in the "distraction" model of Har-Peled and
/// Mahabadi (arXiv:1511.07357): a dataset point with kCorrupted of its
/// coordinates replaced by uniform noise in [0, 1) and every other one
/// jittered by up to kJitter (clamped to [0, 1]). The query is close to
/// its source point in most dimensions and far in a few, which is the
/// partial-similarity case k-n-match exists for; unlike a dataset row,
/// it never finds itself at difference 0.
inline constexpr size_t kCorrupted = 2;
inline constexpr double kJitter = 0.01;

/// One held-out query drawn from `db` with `rng`.
std::vector<knmatch::Value> MakeHeldOutQuery(const knmatch::Dataset& db,
                                             knmatch::Rng& rng);

/// `count` held-out queries; the same (db, count, seed) always gives
/// the same queries.
std::vector<std::vector<knmatch::Value>> MakeHeldOutQueries(
    const knmatch::Dataset& db, size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HELDOUT_H_
