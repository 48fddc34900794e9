// Lint fixture (never compiled): repeated evaluations go through the
// engine as one batch; parallel_for named in a comment or a string is not
// a call. Expect no findings.
#include <vector>

#include "eval/engine.hpp"

namespace ypm {
std::vector<eval::EvalResult> evaluate_all(eval::Engine& engine,
                                           const eval::ChunkKernelFn& kernel) {
    const char* note = "parallel_for(n, fn) stays inside the engine";
    (void)note;
    return engine.evaluate(eval::EvalBatch::nominal({{1.0}, {2.0}}), kernel);
}
} // namespace ypm
