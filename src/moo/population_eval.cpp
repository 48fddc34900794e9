#include "moo/population_eval.hpp"

namespace ypm::moo {

std::vector<eval::EvalResult>
evaluate_population(eval::Engine& engine, const Problem& problem,
                    const std::vector<std::vector<double>>& points) {
    return engine.evaluate(
        eval::EvalBatch::nominal(points),
        eval::ChunkKernelFn([&problem](
                                std::span<const eval::EvalRequest* const> reqs,
                                std::span<Rng>) {
            std::vector<std::vector<double>> chunk;
            chunk.reserve(reqs.size());
            for (const eval::EvalRequest* r : reqs) chunk.push_back(r->params);
            return problem.evaluate_batch(chunk);
        }));
}

} // namespace ypm::moo
