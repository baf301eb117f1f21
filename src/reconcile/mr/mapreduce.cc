#include "reconcile/mr/mapreduce.h"

namespace reconcile {
namespace mr {

void ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  RECONCILE_CHECK(pool != nullptr);
  ParallelForWorkStealing(pool, n, grain, fn);
}

}  // namespace mr
}  // namespace reconcile
