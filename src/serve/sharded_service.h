// Benchmark-compat shim: the serving names the frozen perfbench/ adapter
// was written against, mapped onto HCoreIndex, which serves directly (group
// commit, epoch snapshots). The names come from a retired
// design that replicated the index across shards. Delete this header, and
// the marked accessor block on HCoreSnapshot, with the next change to the
// benchmark.

#ifndef HCORE_SERVE_SHARDED_SERVICE_H_
#define HCORE_SERVE_SHARDED_SERVICE_H_

#include <memory>
#include <utility>

#include "index/hcore_index.h"
#include "util/check.h"

namespace hcore {

struct ShardedServiceOptions {
  /// Must be 1 (checked at construction).
  int num_shards = 1;
  HCoreIndexOptions index;
  /// Accepted and ignored: HCoreIndex always group-commits.
  bool group_commit = false;
};

using ShardedServiceView = HCoreSnapshot;

class ShardedHCoreService : public HCoreIndex {
 public:
  explicit ShardedHCoreService(Graph g,
                               const ShardedServiceOptions& options = {})
      : HCoreIndex(std::move(g), options.index) {
    HCORE_CHECK(options.num_shards == 1);
  }

  std::shared_ptr<const HCoreSnapshot> view() const { return snapshot(); }
};

}  // namespace hcore

#endif  // HCORE_SERVE_SHARDED_SERVICE_H_
