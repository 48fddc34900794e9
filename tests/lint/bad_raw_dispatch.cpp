// Lint fixture (never compiled): looping a kernel over the pool directly
// bypasses the engine's chunked dispatch (RNG streams, cache, ledger).
// Expect [raw-dispatch] only.
#include <cstddef>
#include <vector>

#include "util/thread_pool.hpp"

namespace ypm {
void evaluate_all(ThreadPool& pool, std::vector<double>& out) {
    pool.parallel_for(out.size(), [&out](std::size_t i) {
        out[i] = static_cast<double>(i);
    });
    auto job = pool.parallel_for_async(out.size(), [](std::size_t) {});
    job.wait();
}
} // namespace ypm
