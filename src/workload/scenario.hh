/**
 * @file
 * Scenario DSL: declarative, seeded workload + experiment scripts.
 *
 * Every workload we study used to be a hard-coded C++ grid in bench/;
 * scenario diversity cost a recompile. A Scenario is the data-file
 * equivalent: a line-oriented header (name, seed, traffic shape,
 * cluster/cache/retrieval knobs), an ordered op timeline (arrival
 * ramps, diurnal cycles, flash crowds, topic drift, regional skew,
 * scripted node faults, and knob changes at time t), and a cell list
 * (the sweep axis: per-cell overrides of the header knobs).
 *
 * Scenarios are *reviewable data*: parsing is strict (every error is
 * reported as "file:line: message", never an assert or a silent
 * default), re-serialization is canonical (parse -> print -> parse is
 * a fixpoint), and scenarioDigest() is an FNV-1a hash of the canonical
 * text, so two scenarios are semantically equal iff their digests
 * match. bench/run_scenario executes any scenario file through the
 * sweep engine; the scenario-goldens CI job pins every checked-in
 * scenario's digest and output.
 *
 * This module is pure workload: it owns the grammar and trace
 * construction. Mapping a scenario onto a ServingConfig (presets,
 * fault plans, knob plans) lives in src/serving/scenario_exec.hh so
 * the workload layer stays independent of the serving stack.
 */

#ifndef MODM_WORKLOAD_SCENARIO_HH
#define MODM_WORKLOAD_SCENARIO_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/workload/trace.hh"

namespace modm::workload {

/** How a scenario executes (what run_scenario does with a cell). */
enum class ScenarioMode
{
    Serving,     ///< full ServingSystem run over the scenario trace
    CacheStream, ///< streamed cache simulation (Fig. 6 fidelity)
};

/** Which prompt-stream generator feeds the scenario. */
enum class ScenarioDataset
{
    DiffusionDB,
    MJHQ,
};

/** Serving policy of a cell (mirrors serving::SystemKind). */
enum class ScenarioSystem
{
    MoDM,
    Vanilla,
    Nirvana,
    Pinecone,
    StandaloneSmall,
};

/** Diffusion model selector (mirrors the diffusion::ModelSpec set). */
enum class ScenarioModel
{
    Sd35Large,
    Flux1Dev,
    Sdxl,
    Sana,
    Sd35Turbo,
};

/** GPU selector. */
enum class ScenarioGpu
{
    A40,
    MI210,
};

/** Cache eviction selector. */
enum class ScenarioEviction
{
    Fifo,
    Lru,
    Utility,
};

/** Request routing selector (mirrors serving::RoutingPolicy). */
enum class ScenarioRouting
{
    RoundRobin,
    ConsistentHash,
    LeastOutstanding,
    BoundedLoad,
};

/** Cache partitioning selector. */
enum class ScenarioPartitioning
{
    Sharded,
    Replicated,
};

/** Retrieval backend selector. */
enum class ScenarioRetrieval
{
    Flat,
    Ivf,
    Hnsw,
    IvfPq,
};

/** Which table run_scenario renders. */
enum class ScenarioReport
{
    Table,    ///< generic serving table, one row per cell
    HitCurve, ///< windowed hit-rate curve, one column per cell
    Energy,   ///< energy/request vs the first cell (Fig. 18 format)
    Throughput, ///< throughput normalized to the first cell (Figs. 7/8)
    P99ByRate,  ///< p99 latency, one row per rate (Fig. 16)
    SloByRate,  ///< 2x / 4x SLO violation rate per rate (Figs. 12/13)
    Quality,    ///< CLIP / FID / IS / Pick per cell (Tables 2/3)
    Reuse,      ///< cache-stream hit rate, similarity, reuse (§5.4)
    Cluster,    ///< per-cell cluster shape, hit rate, tail, imbalance
    Timeline,   ///< completions/min per 4-min window vs demand (Figs. 10/17)
    Allocation, ///< the one cell's monitor allocations over time (Fig. 10)
    Scaling,    ///< completions within duration vs the first cell (Fig. 11)
    HitAge,     ///< age histogram of retrieved cache entries (Fig. 15)
    Controller, ///< allocation changes and model reloads per cell (§5.3)
};

/** Scripted node fault (mirrors serving::FaultKind). */
enum class ScenarioFault
{
    Kill,
    Drain,
    Rejoin,
};

/** Runtime-adjustable serving knob (mirrors serving::KnobTarget). */
enum class ScenarioKnob
{
    MonitorMode, ///< value: 0 = throughput, 1 = quality
    Cache,       ///< cluster-wide cache capacity (entries)
    Replicas,    ///< replication factor under replicated partitioning
    Ef,          ///< retrieval efSearch (hnsw backend only)
    Nprobe,      ///< retrieval nprobe (ivf / ivf-pq backends only)
};

/** One timeline entry; field meaning depends on kind. */
struct ScenarioOp
{
    enum class Kind
    {
        Rate,    ///< base rate becomes `rate` from `time` on
        Ramp,    ///< base rate ramps to `rate` over `duration`, `steps`
        Flash,   ///< rate multiplied by `factor` during [time, +dur)
        Diurnal, ///< base + amp * sin over [time, +dur), `steps` segs
        Drift,   ///< prompt stream crossfades to seed over [time, +dur)
        Region,  ///< regional generator `region` weight set to `weight`
        Fault,   ///< node fault at `time`
        Knob,    ///< serving knob change at `time`
    };

    Kind kind = Kind::Rate;
    /** Virtual time (seconds) the op starts. */
    double time = 0.0;
    /** Rate target (requests/minute): Rate, Ramp. */
    double rate = 0.0;
    /** Window length (seconds): Ramp, Flash, Diurnal, Drift. */
    double duration = 0.0;
    /** Discretization segments: Ramp, Diurnal. */
    std::size_t steps = 0;
    /** Rate multiplier: Flash. */
    double factor = 1.0;
    /** Sinusoid parameters: Diurnal. */
    double base = 0.0;
    double amplitude = 0.0;
    double period = 0.0;
    /** Target generator seed: Drift. */
    std::uint64_t driftSeed = 0;
    /** Regional generator index (>= 1): Region. */
    std::size_t region = 0;
    /** Mixture weight in [0, 1]: Region. */
    double weight = 0.0;
    /** Fault target and kind: Fault. */
    std::size_t node = 0;
    ScenarioFault fault = ScenarioFault::Kill;
    /** Knob target and value: Knob. */
    ScenarioKnob knob = ScenarioKnob::Cache;
    double knobValue = 0.0;
    /** 1-based source line (0 for programmatically built ops). */
    int line = 0;
};

/** The per-cell system knobs (header defaults, overridable per cell). */
struct ScenarioParams
{
    ScenarioSystem system = ScenarioSystem::MoDM;
    ScenarioModel large = ScenarioModel::Sd35Large;
    /** Small-model escalation list; empty for baselines without one. */
    std::vector<ScenarioModel> small = {ScenarioModel::Sdxl};
    std::size_t workers = 4;
    ScenarioGpu gpu = ScenarioGpu::A40;
    std::size_t cache = 10000;
    ScenarioEviction eviction = ScenarioEviction::Fifo;
    std::size_t nodes = 1;
    ScenarioRouting routing = ScenarioRouting::RoundRobin;
    ScenarioPartitioning partitioning = ScenarioPartitioning::Sharded;
    std::size_t replicas = 2;
    ScenarioRetrieval retrieval = ScenarioRetrieval::Flat;
    /**
     * Retrieval search knobs, attached to the retrieval key as
     * `retrieval hnsw,ef=64` (header) / `retrieval=ivf-pq,nprobe=16`
     * (cell override); the header also accepts the space-separated
     * sugar `retrieval hnsw ef=64`. 0 = backend default, printed
     * without a suffix so pre-existing scenarios keep their digests.
     * ef applies to hnsw only; nprobe to ivf / ivf-pq only.
     */
    std::size_t retrievalEf = 0;
    std::size_t retrievalNprobe = 0;
    /**
     * Global-monitor PID gains {kp, ki, kd}, set by the cell key
     * `pid=<kp>,<ki>,<kd>`; empty keeps the preset's gains.
     */
    std::vector<double> pid;
};

/** One sweep cell: a labeled override of the header params. */
struct ScenarioCell
{
    /** Row/column label in the rendered table. */
    std::string label;
    /**
     * Reference annotation (the "paper" column of the energy and
     * throughput reports; `<clip>,<fid>` for the quality report).
     */
    std::string paper;
    /** Fully resolved params (header + overrides). */
    ScenarioParams params;
    /** Which keys the cell overrode (canonical print emits only these). */
    std::vector<std::string> overridden;
};

/** A parsed scenario. */
struct Scenario
{
    /** Identifier ([A-Za-z0-9_-]+). */
    std::string name;
    /** Experiment seed (generators, arrivals, serving substrate). */
    std::uint64_t seed = 42;
    /**
     * Arrival-process rng seed (`arrival-seed <n>`); unset derives it
     * as seed ^ 0xa441a15 and the canonical text omits the directive.
     */
    std::optional<std::uint64_t> arrivalSeed;
    ScenarioMode mode = ScenarioMode::Serving;
    ScenarioDataset dataset = ScenarioDataset::DiffusionDB;
    /** Header defaults for every cell. */
    ScenarioParams params;
    /** Warm-up prompts admitted before the trace replays. */
    std::size_t warm = 0;
    /** Trace length; exactly one of requests/duration is set. */
    std::size_t requests = 0;
    /** Trace duration in seconds (alternative to requests). */
    double duration = 0.0;
    /** Base Poisson rate (requests/minute); 0 = batch (all at t=0). */
    double rate = 0.0;
    /**
     * Rate sweep axis (`rate 3,4,5`): two or more strictly increasing
     * positive rates, `rate` holding the first; empty for a single
     * rate. run_scenario runs every cell once per rate, rate-major, on
     * a copy of the scenario whose `rate` is that one value.
     */
    std::vector<double> rates;
    /**
     * Hit-rate report window, in requests (CacheStream / HitCurve); a
     * cache-stream scenario needs window <= requests.
     */
    std::size_t window = 2000;
    /** Sampler seed of the CacheStream substrate (Fig. 6 uses 7). */
    std::uint64_t samplerSeed = 7;
    /** Failover-analysis trailing window (fault scenarios). */
    std::size_t recoveryWindow = 100;
    ScenarioReport report = ScenarioReport::Table;
    /** Rendered table title (empty = derived from the name). */
    std::string title;
    /** Ordered, time-sorted op timeline. */
    std::vector<ScenarioOp> ops;
    /** Sweep cells; empty = one implicit cell labeled `name`. */
    std::vector<ScenarioCell> cells;

    /** Cell count run_scenario executes (>= 1). */
    std::size_t cellCount() const
    {
        return cells.empty() ? 1 : cells.size();
    }

    /** Cell `i`, materializing the implicit cell when none declared. */
    ScenarioCell cell(std::size_t i) const;

    /** True when any op mixes prompt sources (drift / regions). */
    bool mixesSources() const;

    /** True when any op is a fault event. */
    bool hasFaults() const;

    /** True when any op is a knob change. */
    bool hasKnobs() const;

    /** The arrival rng seed: arrivalSeed, else seed ^ 0xa441a15. */
    std::uint64_t arrivalRngSeed() const;
};

/**
 * Parse a scenario. On success returns an empty string and fills
 * `out`; on failure returns a "<filename>:<line>: message" diagnostic
 * and leaves `out` unspecified. Never asserts on malformed input.
 */
std::string parseScenario(std::istream &in, const std::string &filename,
                          Scenario &out);

/** Parse or fatal() with the file:line diagnostic. */
Scenario parseScenarioOrDie(std::istream &in,
                            const std::string &filename);

/** Load a scenario file; fatal() on I/O or parse errors. */
Scenario loadScenarioFile(const std::string &path);

/**
 * Canonical serialization: every header field (defaults included) in
 * fixed order, then ops, then cells. parse(print(s)) reproduces the
 * same canonical text (the fixpoint pinned by the test suite), so
 * canonical scenarios diff cleanly under review.
 */
std::string canonicalScenario(const Scenario &scenario);

/** Write the canonical serialization. */
void printScenario(const Scenario &scenario, std::ostream &out);

/** Canonical spelling of a number in scenario text ("5", "2.5"). */
std::string scenarioNumber(double value);

/** FNV-1a 64-bit hash (the digest primitive, exposed for reuse). */
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t basis = 0xcbf29ce484222325ULL);

/**
 * Semantic digest: FNV-1a over the canonical serialization. Stable
 * across formatting, comments, and header-line order of the source
 * file; changes iff the scenario's meaning changes.
 */
std::uint64_t scenarioDigest(const Scenario &scenario);

/** Canonical op lines only (what trace_io event annotation stores). */
std::vector<std::string> scenarioOpLines(const Scenario &scenario);

/**
 * Compile the arrival ops (rate / ramp / flash / diurnal) into the
 * piecewise-constant schedule PiecewiseArrivals replays: base-rate
 * curve segments overlaid with multiplicative flash windows. The final
 * segment's rate holds forever. Only valid for rate > 0 scenarios.
 */
std::vector<RateSegment> scenarioRateSchedule(const Scenario &scenario);

/** Warm prompts plus the request trace one scenario replays. */
struct ScenarioWorkload
{
    std::vector<Prompt> warm;
    Trace trace;
};

/**
 * Build the scenario's workload: warm prompts come from the base
 * generator; trace prompts come from the (possibly drift/region-mixed)
 * generator set, timestamped by the compiled rate schedule (or all at
 * t=0 when rate is 0). Prompt ids are stamped sequentially across
 * warm + trace, which for a single-source scenario is exactly the
 * generator's own numbering — single-source workloads are
 * byte-identical to the legacy bench::batchBundle / poissonBundle
 * helpers (arrival rng seed = scenario seed ^ 0xa441a15), and a
 * duration scenario with `arrival-seed <n>` replays exactly what
 * buildTraceForDuration draws from Rng(n) over the same schedule.
 */
ScenarioWorkload buildScenarioWorkload(const Scenario &scenario);

} // namespace modm::workload

#endif // MODM_WORKLOAD_SCENARIO_HH
