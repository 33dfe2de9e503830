#include "src/serving/scenario_exec.hh"

#include <algorithm>
#include <unordered_map>

#include "src/baselines/presets.hh"
#include "src/cache/image_cache.hh"
#include "src/common/log.hh"
#include "src/obs/metrics.hh"
#include "src/serving/k_decision.hh"
#include "src/workload/generator.hh"

namespace modm::serving {

diffusion::ModelSpec
scenarioModel(workload::ScenarioModel model)
{
    switch (model) {
      case workload::ScenarioModel::Sd35Large:
        return diffusion::sd35Large();
      case workload::ScenarioModel::Flux1Dev:
        return diffusion::flux1Dev();
      case workload::ScenarioModel::Sdxl:
        return diffusion::sdxl();
      case workload::ScenarioModel::Sana:
        return diffusion::sana();
      case workload::ScenarioModel::Sd35Turbo:
        return diffusion::sd35LargeTurbo();
    }
    panic("unmapped ScenarioModel");
}

namespace {

diffusion::GpuKind
gpuKind(workload::ScenarioGpu gpu)
{
    switch (gpu) {
      case workload::ScenarioGpu::A40:
        return diffusion::GpuKind::A40;
      case workload::ScenarioGpu::MI210:
        return diffusion::GpuKind::MI210;
    }
    panic("unmapped ScenarioGpu");
}

cache::EvictionPolicy
evictionPolicy(workload::ScenarioEviction eviction)
{
    switch (eviction) {
      case workload::ScenarioEviction::Fifo:
        return cache::EvictionPolicy::FIFO;
      case workload::ScenarioEviction::Lru:
        return cache::EvictionPolicy::LRU;
      case workload::ScenarioEviction::Utility:
        return cache::EvictionPolicy::Utility;
    }
    panic("unmapped ScenarioEviction");
}

RoutingPolicy
routingPolicy(workload::ScenarioRouting routing)
{
    switch (routing) {
      case workload::ScenarioRouting::RoundRobin:
        return RoutingPolicy::RoundRobin;
      case workload::ScenarioRouting::ConsistentHash:
        return RoutingPolicy::ConsistentHash;
      case workload::ScenarioRouting::LeastOutstanding:
        return RoutingPolicy::LeastOutstanding;
      case workload::ScenarioRouting::BoundedLoad:
        return RoutingPolicy::BoundedLoadConsistentHash;
    }
    panic("unmapped ScenarioRouting");
}

CachePartitioning
cachePartitioning(workload::ScenarioPartitioning partitioning)
{
    switch (partitioning) {
      case workload::ScenarioPartitioning::Sharded:
        return CachePartitioning::Sharded;
      case workload::ScenarioPartitioning::Replicated:
        return CachePartitioning::Replicated;
    }
    panic("unmapped ScenarioPartitioning");
}

embedding::RetrievalBackend
retrievalBackend(workload::ScenarioRetrieval retrieval)
{
    switch (retrieval) {
      case workload::ScenarioRetrieval::Flat:
        return embedding::RetrievalBackend::Flat;
      case workload::ScenarioRetrieval::Ivf:
        return embedding::RetrievalBackend::Ivf;
      case workload::ScenarioRetrieval::Hnsw:
        return embedding::RetrievalBackend::Hnsw;
      case workload::ScenarioRetrieval::IvfPq:
        return embedding::RetrievalBackend::IvfPq;
    }
    panic("unmapped ScenarioRetrieval");
}

FaultKind
faultKind(workload::ScenarioFault fault)
{
    switch (fault) {
      case workload::ScenarioFault::Kill:
        return FaultKind::Kill;
      case workload::ScenarioFault::Drain:
        return FaultKind::Drain;
      case workload::ScenarioFault::Rejoin:
        return FaultKind::Rejoin;
    }
    panic("unmapped ScenarioFault");
}

ServingConfig
presetConfig(const workload::Scenario &scenario,
             const workload::ScenarioParams &params)
{
    baselines::PresetParams preset;
    preset.numWorkers = params.workers;
    preset.gpu = gpuKind(params.gpu);
    preset.cacheCapacity = params.cache;
    preset.seed = scenario.seed;

    const auto large = scenarioModel(params.large);
    switch (params.system) {
      case workload::ScenarioSystem::Vanilla:
        return baselines::vanilla(large, preset);
      case workload::ScenarioSystem::Nirvana:
        return baselines::nirvana(large, preset);
      case workload::ScenarioSystem::Pinecone:
        return baselines::pinecone(large, preset);
      case workload::ScenarioSystem::StandaloneSmall:
        // The parser rejects an empty small list for this system.
        MODM_ASSERT(!params.small.empty(),
                    "standalone-small cell without a small model");
        return baselines::standalone(scenarioModel(params.small.front()),
                                     preset);
      case workload::ScenarioSystem::MoDM: {
        MODM_ASSERT(!params.small.empty(),
                    "modm cell without a small model");
        if (params.small.size() == 1)
            return baselines::modm(large, scenarioModel(params.small[0]),
                                   preset);
        std::vector<diffusion::ModelSpec> smalls;
        smalls.reserve(params.small.size());
        for (const auto model : params.small)
            smalls.push_back(scenarioModel(model));
        return baselines::modmMulti(large, smalls, preset);
      }
    }
    panic("unmapped ScenarioSystem");
}

MonitorMode
knobMonitorMode(double value)
{
    return value != 0.0 ? MonitorMode::QualityOptimized
                        : MonitorMode::ThroughputOptimized;
}

} // namespace

ServingConfig
scenarioCellConfig(const workload::Scenario &scenario,
                   const workload::ScenarioCell &cell)
{
    const auto &params = cell.params;
    auto config = presetConfig(scenario, params);

    // Cluster / cache / retrieval knobs on top of the preset. Each
    // assignment is an identity when the scenario keeps the header
    // default, which is what preserves preset byte-compatibility.
    config.cachePolicy = evictionPolicy(params.eviction);
    config.cluster.numNodes = params.nodes;
    config.cluster.routing = routingPolicy(params.routing);
    config.cluster.cachePartitioning =
        cachePartitioning(params.partitioning);
    config.cluster.replicationFactor = params.replicas;
    config.retrieval.kind = retrievalBackend(params.retrieval);
    if (params.retrievalEf > 0)
        config.retrieval.efSearch = params.retrievalEf;
    if (params.retrievalNprobe > 0)
        config.retrieval.nprobe = params.retrievalNprobe;
    if (!params.pid.empty())
        config.pid = {params.pid[0], params.pid[1], params.pid[2]};

    for (const auto &op : scenario.ops) {
        switch (op.kind) {
          case workload::ScenarioOp::Kind::Fault:
            config.faults.add(op.time, op.node, faultKind(op.fault));
            break;
          case workload::ScenarioOp::Kind::Knob:
            switch (op.knob) {
              case workload::ScenarioKnob::MonitorMode:
                config.knobs.setMode(op.time,
                                     knobMonitorMode(op.knobValue));
                break;
              case workload::ScenarioKnob::Cache:
                config.knobs.setCacheCapacity(
                    op.time, static_cast<std::size_t>(op.knobValue));
                break;
              case workload::ScenarioKnob::Replicas:
                config.knobs.setReplicationFactor(
                    op.time, static_cast<std::size_t>(op.knobValue));
                break;
              case workload::ScenarioKnob::Ef:
                config.knobs.setEfSearch(
                    op.time, static_cast<std::size_t>(op.knobValue));
                break;
              case workload::ScenarioKnob::Nprobe:
                config.knobs.setNprobe(
                    op.time, static_cast<std::size_t>(op.knobValue));
                break;
            }
            break;
          default:
            break;
        }
    }
    if (scenario.hasFaults())
        config.faults.recoveryWindow = scenario.recoveryWindow;

    return config;
}

ServingResult
runScenarioCell(const workload::Scenario &scenario,
                const workload::ScenarioCell &cell,
                const obs::TraceConfig &trace)
{
    const auto workload = workload::buildScenarioWorkload(scenario);
    auto config = scenarioCellConfig(scenario, cell);
    config.trace = trace;
    ServingSystem system(std::move(config));
    if (!workload.warm.empty())
        system.warmCache(workload.warm);
    return system.run(workload.trace);
}

CacheStreamResult
runScenarioCacheStream(const workload::Scenario &scenario,
                       const workload::ScenarioCell &cell)
{
    // The Fig. 6 streamed-cache loop: full fidelity to the scheduler's
    // MoDM cache path (classify, k-decision, refine-or-generate,
    // admit) without the cluster around it, which is what lets a
    // scenario stream tens of thousands of requests cheaply.
    const auto &params = cell.params;
    auto gen = scenario.dataset == workload::ScenarioDataset::MJHQ
                   ? workload::makeMJHQ(scenario.seed)
                   : workload::makeDiffusionDB(scenario.seed);
    diffusion::Sampler sampler(scenario.samplerSeed);
    cache::ImageCache cache(params.cache,
                            evictionPolicy(params.eviction));
    embedding::TextEncoder text;
    KDecision kd;
    const auto large = scenarioModel(params.large);
    MODM_ASSERT(!params.small.empty(),
                "cache-stream cell without a refinement model");
    const auto refine = scenarioModel(params.small.front());

    // Windowed hit accounting on the streaming metrics registry
    // (request index as the clock), shared with Fig. 6; the curve over
    // complete windows is byte-identical to the counter it replaced.
    obs::MetricsRegistry registry(
        static_cast<double>(scenario.window));
    const auto requestsId = registry.counter("requests");
    const auto hitsId = registry.counter("hits");
    CacheStreamResult out;
    std::unordered_map<std::uint64_t, std::uint64_t> reuse;
    for (std::size_t i = 0; i < scenario.requests; ++i) {
        const double t = static_cast<double>(i);
        registry.add(requestsId, t);
        const auto p = gen->next();
        const auto te =
            text.encode(p.visualConcept, p.lexicalStyle, p.text);
        const auto r = cache.retrieve(te);
        diffusion::Image img;
        if (r.found && kd.isHit(r.similarity)) {
            registry.add(hitsId, t);
            ++out.hits;
            out.similaritySum += r.similarity;
            out.maxReuse = std::max(out.maxReuse, ++reuse[r.entryId]);
            cache.recordHit(r.entryId, static_cast<double>(i));
            img = sampler.refine(refine, p, cache.entry(r.entryId).image,
                                 kd.decide(r.similarity),
                                 static_cast<double>(i));
        } else {
            img = sampler.generate(large, p, static_cast<double>(i));
        }
        cache.insert(img, static_cast<double>(i));
    }

    // Complete windows only (the historical curve dropped the
    // trailing partial window; take() flushes it as a final row).
    const auto series = registry.take();
    const std::size_t complete = scenario.requests / scenario.window;
    for (std::size_t w = 0;
         w < complete && w < series.rows.size(); ++w) {
        out.curve.push_back(series.rows[w].values[hitsId].sum /
                            static_cast<double>(scenario.window));
    }
    return out;
}

} // namespace modm::serving
