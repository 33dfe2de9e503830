/**
 * @file
 * Scenario execution: maps a parsed workload::Scenario cell onto the
 * serving stack and runs it.
 *
 * The workload layer owns the scenario grammar and trace construction
 * (src/workload/scenario.hh); this module owns everything that needs
 * the serving headers — building a ServingConfig through the baselines
 * presets (so a scenario cell that names a preset system is
 * byte-identical to the hard-coded bench config it replaces), compiling
 * fault ops into a FaultPlan and knob ops into a KnobPlan, and the
 * streamed-cache runner that reproduces the Fig. 6 hit-rate loop.
 *
 * bench/run_scenario and the test suite both execute cells through
 * these entry points, which is what lets tests pin a scenario's
 * resultDigest against the legacy inline code path.
 */

#ifndef MODM_SERVING_SCENARIO_EXEC_HH
#define MODM_SERVING_SCENARIO_EXEC_HH

#include <cstdint>
#include <vector>

#include "src/serving/config.hh"
#include "src/serving/system.hh"
#include "src/workload/scenario.hh"

namespace modm::serving {

/** The diffusion model a scenario model token names. */
diffusion::ModelSpec scenarioModel(workload::ScenarioModel model);

/**
 * Build the full ServingConfig for one resolved scenario cell: the
 * preset named by the cell's system (with the cell's large/small
 * models, workers, GPU, cache capacity, and the scenario seed), then
 * the cluster / eviction / retrieval knobs and the cell's PID gains,
 * the fault plan (with the scenario's recovery window), and the knob
 * plan layered on top. A
 * cell that keeps every header default reproduces the preset verbatim.
 */
ServingConfig scenarioCellConfig(const workload::Scenario &scenario,
                                 const workload::ScenarioCell &cell);

/**
 * Run one serving-mode cell: build the scenario workload, warm the
 * caches when the scenario asks for it, and replay the trace. Each
 * call is an independent experiment (cells share nothing), so cells
 * may run concurrently under the sweep engine. `trace` layers an
 * observability configuration (event recording, .mtrace output path,
 * metrics window) over the cell; the default leaves everything off
 * and the result digest-identical to an untraced run.
 */
ServingResult runScenarioCell(const workload::Scenario &scenario,
                              const workload::ScenarioCell &cell,
                              const obs::TraceConfig &trace = {});

/** What one cache-stream cell measured. */
struct CacheStreamResult
{
    /** Hit rate per complete window of `scenario.window` requests. */
    std::vector<double> curve;
    /** Hits over the whole stream (trailing partial window included). */
    std::uint64_t hits = 0;
    /** Sum of the retrieval similarity of every hit, in stream order. */
    double similaritySum = 0.0;
    /** Most hits served by any one cache entry. */
    std::uint64_t maxReuse = 0;
};

/**
 * Run one cache-stream cell: the streamed cache simulation of Fig. 6
 * and the §5.4 eviction ablation (classify each prompt against an
 * ImageCache, refine a hit or generate a miss, admit the result).
 * Uses the cell's cache capacity / eviction policy and models, the
 * scenario's dataset and seed, and the scenario's sampler seed for
 * the refinement substrate.
 */
CacheStreamResult
runScenarioCacheStream(const workload::Scenario &scenario,
                       const workload::ScenarioCell &cell);

} // namespace modm::serving

#endif // MODM_SERVING_SCENARIO_EXEC_HH
