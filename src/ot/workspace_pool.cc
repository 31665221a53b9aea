#include "ot/workspace_pool.h"

#include <memory>

#include "util/check.h"

namespace cerl::ot {

SinkhornWorkspacePool::SinkhornWorkspacePool(int capacity)
    : pool_(capacity) {}

SinkhornLease SinkhornWorkspacePool::Acquire(int n1, int n2) {
  CERL_CHECK(n1 > 0);
  CERL_CHECK(n2 > 0);
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint32_t>(n1)) << 32) |
      static_cast<uint32_t>(n2);
  SinkhornDuals* duals =
      pool_.Acquire(key, [] { return std::make_unique<SinkhornDuals>(); });
  ++acquires_;
  if (duals->has_warm_start(n1, n2)) ++warm_acquires_;
  return {&scratch_, duals};
}

}  // namespace cerl::ot
