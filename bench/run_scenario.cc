/**
 * @file
 * Execute any scenario file (scenarios/<name>.scn) through the sweep
 * engine. A rate list (`rate 3,4,5`) runs every cell once per rate,
 * rate-major, with cells labelled "<cell>@<rate>"; serving cells go
 * through bench::runSweep, so MODM_SWEEP_VERIFY=1 cross-checks them.
 * A quality report then scores each cell's images in a second sweep.
 *
 * stdout carries exactly the rendered report table — byte-identical
 * across sweep parallelism levels, and byte-identical to the legacy
 * hard-coded figure, table or ablation binary for the scenarios that
 * port one (pinned by the scenario-goldens CI job). Digests (the
 * scenario's semantic digest plus one result digest per cell) go to
 * stderr and, with --digest-out, to a file the CI job diffs against
 * the checked-in golden.
 *
 * Usage: run_scenario <file.scn> [--digest-out <path>] [--canonical]
 *                     [--trace-dir <dir>]
 *   --canonical  print the canonical serialization to stdout and exit
 *                (normalizes hand-written scenario files for review).
 *   --trace-dir  record an event trace per serving-mode cell and write
 *                it to <dir>/<scenario>-<cell>.mtrace (see
 *                bench/trace_diff for the record/replay loop). Results
 *                and digests are byte-identical with tracing on.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/sweep.hh"
#include "src/common/stats.hh"
#include "src/obs/metrics.hh"
#include "src/serving/scenario_exec.hh"
#include "src/workload/scenario.hh"

using namespace modm;

namespace {

/**
 * Sweep banner: the title up to the first " — " separator (so the
 * Fig. 6 port shows "[Fig. 6]" progress lines exactly like the legacy
 * binary), the scenario name when there is no title.
 */
std::string
sweepTitle(const workload::Scenario &scenario)
{
    if (scenario.title.empty())
        return scenario.name;
    const auto cut = scenario.title.find(" — ");
    return cut == std::string::npos ? scenario.title
                                    : scenario.title.substr(0, cut);
}

/** Table banner: the title verbatim, the scenario name otherwise. */
std::string
tableTitle(const workload::Scenario &scenario)
{
    return scenario.title.empty() ? "scenario " + scenario.name
                                  : scenario.title;
}

/** Cell label as a filename component (non-alphanumerics to '-'). */
std::string
fileLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        const bool keep = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '.' || c == '-' || c == '_';
        if (!keep)
            c = '-';
    }
    return out;
}

/** Hex-float lines of `values` (the resultDigest convention). */
std::string
hexLines(const std::vector<double> &values)
{
    std::string text;
    char buf[64];
    for (const double v : values) {
        std::snprintf(buf, sizeof buf, "%a\n", v);
        text += buf;
    }
    return text;
}

/** One "key value" digest line in the canonical %016llx format. */
std::string
digestLine(const std::string &key, std::uint64_t digest)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return key + " " + buf + "\n";
}

void
renderHitCurve(const workload::Scenario &scenario,
               const std::vector<workload::ScenarioCell> &cells,
               const std::vector<serving::CacheStreamResult> &results)
{
    std::vector<std::string> headers = {"requests"};
    for (const auto &cell : cells)
        headers.push_back("hit rate (" + cell.label + ")");
    Table t(headers);
    const std::size_t rows =
        results.empty() ? 0 : results.front().curve.size();
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<std::string> row = {Table::fmt(
            static_cast<std::uint64_t>((i + 1) * scenario.window))};
        for (const auto &r : results)
            row.push_back(Table::fmt(r.curve[i], 3));
        t.addRow(row);
    }
    t.print(tableTitle(scenario));
}

/** Whole-stream hit rate, similarity and reuse per eviction policy. */
void
renderReuse(const workload::Scenario &scenario,
            const std::vector<workload::ScenarioCell> &cells,
            const std::vector<serving::CacheStreamResult> &results)
{
    Table t({"policy", "hit rate", "mean similarity",
             "max reuse of one entry"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = results[i];
        const auto hits = static_cast<double>(r.hits);
        t.addRow({cache::policyName(
                      serving::scenarioCellConfig(scenario, cells[i])
                          .cachePolicy),
                  Table::fmt(hits / scenario.requests, 3),
                  Table::fmt(r.hits ? r.similaritySum / hits : 0.0, 3),
                  Table::fmt(r.maxReuse)});
    }
    t.print(tableTitle(scenario));
}

void
renderEnergy(const workload::Scenario &scenario,
             const std::vector<workload::ScenarioCell> &cells,
             const std::vector<serving::ServingResult> &results)
{
    std::vector<double> energyPerRequest;
    for (const auto &result : results)
        energyPerRequest.push_back(result.energyJ /
                                   result.metrics.count());

    Table t({"system", "energy/request (kJ)", "savings", "paper"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const double savings =
            1.0 - energyPerRequest[i] / energyPerRequest.front();
        t.addRow({cells[i].label,
                  Table::fmt(energyPerRequest[i] / 1e3, 1),
                  Table::fmt(100.0 * savings, 1) + "%",
                  cells[i].paper});
    }
    t.print(tableTitle(scenario));
}

void
renderThroughput(const workload::Scenario &scenario,
                 const std::vector<workload::ScenarioCell> &cells,
                 const std::vector<serving::ServingResult> &results)
{
    Table t({"system", "throughput/min", "normalized", "paper",
             "hit rate", "mean k"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = results[i];
        t.addRow({cells[i].label, Table::fmt(r.throughputPerMin),
                  Table::fmt(r.throughputPerMin /
                                 results.front().throughputPerMin,
                             2),
                  cells[i].paper, Table::fmt(r.hitRate),
                  Table::fmt(r.metrics.meanK(), 1)});
    }
    t.print(tableTitle(scenario));
}

/** One column family of a by-rate report: header suffix and value. */
struct RateMetric
{
    std::string suffix;
    std::function<std::string(const workload::ScenarioCell &,
                              const serving::ServingResult &)>
        value;
};

/**
 * The by-rate pivot: one row per rate of the scenario's rate list,
 * then for each metric one "<label> <suffix>" column per cell.
 * `results` are rate-major, as run_scenario expands them.
 */
void
renderByRate(const workload::Scenario &scenario,
             const std::vector<serving::ServingResult> &results,
             const std::vector<RateMetric> &metrics)
{
    const std::size_t n = scenario.cellCount();
    std::vector<std::string> headers = {"rate/min"};
    for (const auto &metric : metrics)
        for (std::size_t i = 0; i < n; ++i)
            headers.push_back(scenario.cell(i).label + " " +
                              metric.suffix);
    Table t(headers);
    for (std::size_t r = 0; r < scenario.rates.size(); ++r) {
        std::vector<std::string> row = {
            workload::scenarioNumber(scenario.rates[r])};
        for (const auto &metric : metrics)
            for (std::size_t i = 0; i < n; ++i)
                row.push_back(
                    metric.value(scenario.cell(i), results[r * n + i]));
        t.addRow(row);
    }
    t.print(tableTitle(scenario));
}

/** SLO violation rate at `factor` x the cell's large-model latency. */
RateMetric
sloMetric(const workload::Scenario &scenario, double factor)
{
    return {Table::fmt(factor, 0) + "x",
            [&scenario, factor](const workload::ScenarioCell &cell,
                                const serving::ServingResult &r) {
                const auto config =
                    serving::scenarioCellConfig(scenario, cell);
                return Table::fmt(r.metrics.sloViolationRate(
                    factor * config.largeModel.fullLatency(config.gpu)));
            }};
}

/** Image quality per cell; `paper=<clip>,<fid>` fills the last two. */
void
renderQuality(const workload::Scenario &scenario,
              const std::vector<workload::ScenarioCell> &cells,
              const std::vector<eval::QualityReport> &reports)
{
    Table t({"baseline", "CLIP", "FID", "IS", "Pick", "paper CLIP",
             "paper FID"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &q = reports[i];
        const auto &paper = cells[i].paper;
        const auto comma = paper.find(',');
        t.addRow({cells[i].label, Table::fmt(q.clip), Table::fmt(q.fid),
                  Table::fmt(q.is), Table::fmt(q.pick),
                  paper.substr(0, comma),
                  comma == std::string::npos ? ""
                                             : paper.substr(comma + 1)});
    }
    t.print(tableTitle(scenario));
}

/** Cluster shape (nodes, routing, partitioning) and what it costs. */
void
renderCluster(const workload::Scenario &scenario,
              const std::vector<workload::ScenarioCell> &cells,
              const std::vector<serving::ServingResult> &results)
{
    Table t({"nodes", "routing", "cache", "hit rate", "throughput/min",
             "p99 latency s", "load imbalance", "hit-rate spread"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = results[i];
        const auto cluster =
            serving::scenarioCellConfig(scenario, cells[i]).cluster;
        t.addRow({Table::fmt(static_cast<std::uint64_t>(
                      cluster.numNodes)),
                  serving::routingPolicyName(cluster.routing),
                  serving::cachePartitioningName(
                      cluster.cachePartitioning),
                  Table::fmt(r.hitRate, 3),
                  Table::fmt(r.throughputPerMin, 1),
                  Table::fmt(r.metrics.latencyPercentile(99.0), 1),
                  Table::fmt(r.loadImbalance, 2),
                  Table::fmt(r.hitRateSpread, 3)});
    }
    t.print(tableTitle(scenario));
}

/** Timeline window width: Figs. 10 and 17 plot 4-minute means. */
constexpr std::size_t kWindowMinutes = 4;

/** Completions per minute in 4-minute windows, against the demand. */
void
renderTimeline(const workload::Scenario &scenario,
               const std::vector<workload::ScenarioCell> &cells,
               const std::vector<serving::ServingResult> &results)
{
    const workload::PiecewiseArrivals demand(
        workload::scenarioRateSchedule(scenario));
    const double width = 60.0 * kWindowMinutes;
    std::vector<std::string> headers = {"time (min)", "demand"};
    std::vector<std::vector<double>> perWindow;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        headers.push_back(cells[i].label);
        perWindow.push_back(obs::groupMeans(
            results[i].metrics.completionsPerMinute(scenario.duration),
            kWindowMinutes));
    }
    Table t(headers);
    const auto windows = static_cast<std::size_t>(scenario.duration / width);
    for (std::size_t w = 0; w < windows; ++w) {
        std::vector<std::string> row = {
            Table::fmt(static_cast<std::uint64_t>(w * kWindowMinutes)),
            Table::fmt(demand.rateAt(w * width + width / 2.0), 0)};
        for (const auto &series : perWindow)
            row.push_back(Table::fmt(series[w], 1));
        t.addRow(row);
    }
    t.print(tableTitle(scenario));
}

/**
 * The one cell's monitor allocations: every 5th snapshot, the last,
 * and every snapshot whose small model differs from the previous one,
 * so no switch goes unseen.
 */
void
renderAllocation(const workload::Scenario &scenario,
                 const workload::ScenarioCell &cell,
                 const serving::ServingResult &result)
{
    Table t({"time (min)", "num large", "small model"});
    const auto &snaps = result.allocations;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        const bool switched = i > 0 &&
            snaps[i].smallModelIndex != snaps[i - 1].smallModelIndex;
        if (i % 5 == 0 || i + 1 == snaps.size() || switched)
            t.addRow({Table::fmt(snaps[i].time / 60.0, 0),
                      Table::fmt(static_cast<std::uint64_t>(
                          snaps[i].numLarge)),
                      serving::scenarioModel(
                          cell.params.small[snaps[i].smallModelIndex])
                          .name});
    }
    t.print(tableTitle(scenario));
}

/** Completions before `duration` per minute, vs the first cell. */
void
renderScaling(const workload::Scenario &scenario,
              const std::vector<workload::ScenarioCell> &cells,
              const std::vector<serving::ServingResult> &results)
{
    std::vector<double> throughput;
    for (const auto &r : results) {
        const auto &records = r.metrics.records();
        const auto within = std::count_if(
            records.begin(), records.end(), [&](const auto &record) {
                return record.finish < scenario.duration;
            });
        throughput.push_back(static_cast<double>(within) /
                             (scenario.duration / 60.0));
    }
    Table t({"GPUs", "throughput/min", "normalized", "paper",
             "hit rate"});
    for (std::size_t i = 0; i < cells.size(); ++i)
        t.addRow({Table::fmt(static_cast<std::uint64_t>(
                      cells[i].params.workers)),
                  Table::fmt(throughput[i], 1),
                  Table::fmt(throughput[i] / throughput.front(), 2),
                  cells[i].paper, Table::fmt(results[i].hitRate)});
    t.print(tableTitle(scenario));
}

/** Age of the entry behind each cache hit: 20 bins over duration. */
void
renderHitAge(const workload::Scenario &scenario,
             const serving::ServingResult &result)
{
    Histogram ages(0.0, scenario.duration, 20);
    std::size_t withinFourHours = 0;
    for (const double age : result.hitAges) {
        ages.add(age);
        withinFourHours += age <= 4.0 * 3600.0 ? 1 : 0;
    }
    Table t({"age bucket (h)", "fraction of hits"});
    for (std::size_t b = 0; b < ages.bins(); ++b)
        t.addRow({Table::fmt(ages.binCenter(b) / 3600.0, 2),
                  Table::fmt(ages.binFraction(b), 3)});
    t.print(tableTitle(scenario));
    std::printf("hits within 4 hours: %.1f%% (paper: > 90%%)\n",
                100.0 * static_cast<double>(withinFourHours) /
                    static_cast<double>(result.hitAges.size()));
}

/** How much each cell's monitor moved: allocation flips and reloads. */
void
renderController(const workload::Scenario &scenario,
                 const std::vector<workload::ScenarioCell> &cells,
                 const std::vector<serving::ServingResult> &results)
{
    Table t({"controller", "throughput/min", "allocation changes",
             "model reloads", "p99 (s)"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = results[i];
        std::uint64_t flips = 0;
        for (std::size_t j = 1; j < r.allocations.size(); ++j)
            flips += r.allocations[j].numLarge !=
                r.allocations[j - 1].numLarge;
        t.addRow({cells[i].label, Table::fmt(r.throughputPerMin),
                  Table::fmt(flips), Table::fmt(r.modelSwitches),
                  Table::fmt(r.metrics.latencyPercentile(99.0), 0)});
    }
    t.print(tableTitle(scenario));
}

void
renderTable(const workload::Scenario &scenario,
            const std::vector<workload::ScenarioCell> &cells,
            const std::vector<serving::ServingResult> &results)
{
    Table t({"cell", "completed", "throughput/min", "hit rate",
             "mean latency (s)", "p99 (s)", "energy (kJ)"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = results[i];
        t.addRow({cells[i].label,
                  Table::fmt(static_cast<std::uint64_t>(
                      r.metrics.count())),
                  Table::fmt(r.throughputPerMin, 1),
                  Table::fmt(r.hitRate, 3),
                  Table::fmt(r.metrics.meanLatency(), 2),
                  Table::fmt(r.metrics.latencyPercentile(99.0), 2),
                  Table::fmt(r.energyJ / 1e3, 1)});
    }
    t.print(tableTitle(scenario));
}

void
renderServing(const workload::Scenario &scenario,
              const std::vector<workload::ScenarioCell> &cells,
              const std::vector<serving::ServingResult> &results)
{
    switch (scenario.report) {
      case workload::ScenarioReport::Energy:
        return renderEnergy(scenario, cells, results);
      case workload::ScenarioReport::Throughput:
        return renderThroughput(scenario, cells, results);
      case workload::ScenarioReport::P99ByRate:
        return renderByRate(
            scenario, results,
            {{"p99 (s)", [](const workload::ScenarioCell &,
                            const serving::ServingResult &r) {
                  return Table::fmt(r.metrics.latencyPercentile(99.0),
                                    0);
              }}});
      case workload::ScenarioReport::SloByRate:
        return renderByRate(scenario, results,
                            {sloMetric(scenario, 2.0),
                             sloMetric(scenario, 4.0)});
      case workload::ScenarioReport::Cluster:
        return renderCluster(scenario, cells, results);
      case workload::ScenarioReport::Timeline:
        return renderTimeline(scenario, cells, results);
      case workload::ScenarioReport::Allocation:
        return renderAllocation(scenario, cells.front(), results.front());
      case workload::ScenarioReport::Scaling:
        return renderScaling(scenario, cells, results);
      case workload::ScenarioReport::HitAge:
        return renderHitAge(scenario, results.front());
      case workload::ScenarioReport::Controller:
        return renderController(scenario, cells, results);
      default:
        return renderTable(scenario, cells, results);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::string digestOut;
    std::string traceDir;
    bool canonical = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--canonical") == 0) {
            canonical = true;
        } else if (std::strcmp(argv[i], "--digest-out") == 0) {
            if (++i >= argc)
                fatal("--digest-out needs a path");
            digestOut = argv[i];
        } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
            if (++i >= argc)
                fatal("--trace-dir needs a directory");
            traceDir = argv[i];
        } else if (path.empty()) {
            path = argv[i];
        } else {
            fatal("usage: run_scenario <file.scn> "
                  "[--digest-out <path>] [--canonical] "
                  "[--trace-dir <dir>]");
        }
    }
    if (path.empty())
        fatal("usage: run_scenario <file.scn> "
              "[--digest-out <path>] [--canonical] "
              "[--trace-dir <dir>]");

    const auto scenario = workload::loadScenarioFile(path);
    if (canonical) {
        std::fputs(workload::canonicalScenario(scenario).c_str(),
                   stdout);
        return 0;
    }

    // Rate-major expansion: each rate, then each cell, on a copy of the
    // scenario holding that one rate (a single rate is one copy with
    // unchanged labels).
    const std::vector<double> rates = scenario.rates.empty()
        ? std::vector<double>{scenario.rate}
        : scenario.rates;
    std::vector<workload::Scenario> atRate(rates.size(), scenario);
    std::vector<workload::ScenarioCell> cells;
    for (std::size_t r = 0; r < rates.size(); ++r) {
        atRate[r].rate = rates[r];
        atRate[r].rates.clear();
        for (std::size_t i = 0; i < scenario.cellCount(); ++i) {
            cells.push_back(scenario.cell(i));
            if (!scenario.rates.empty())
                cells.back().label +=
                    "@" + workload::scenarioNumber(rates[r]);
        }
    }

    bench::SweepOptions options;
    options.title = sweepTitle(scenario);

    // Digest text: scenario digest first, then one line per cell, then
    // a combined digest folding the cell lines over the scenario's.
    std::string digests =
        digestLine("scenario " + scenario.name,
                   workload::scenarioDigest(scenario));
    std::uint64_t combined = workload::scenarioDigest(scenario);
    const auto addCellDigest = [&](std::size_t i, std::uint64_t digest) {
        const auto line = digestLine("cell " + cells[i].label, digest);
        digests += line;
        combined = workload::fnv1a64(line, combined);
    };

    std::vector<std::string> labels;
    for (const auto &cell : cells)
        labels.push_back(cell.label);

    if (scenario.mode == workload::ScenarioMode::CacheStream) {
        if (!traceDir.empty())
            warn("--trace-dir ignored: cache-stream scenarios run no "
                 "event queue");
        std::vector<std::function<serving::CacheStreamResult()>> cellFns;
        for (const auto &cell : cells)
            cellFns.push_back([&scenario, cell] {
                return serving::runScenarioCacheStream(scenario, cell);
            });
        const auto streams = bench::runCells(std::move(cellFns), options,
                                             labels);
        if (scenario.report == workload::ScenarioReport::Reuse)
            renderReuse(scenario, cells, streams);
        else
            renderHitCurve(scenario, cells, streams);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            // Hit-curve digests (Fig. 6) predate the whole-stream stats.
            const auto &r = streams[i];
            auto text = hexLines(r.curve);
            if (scenario.report == workload::ScenarioReport::Reuse)
                text += hexLines({static_cast<double>(r.hits),
                                  r.similaritySum,
                                  static_cast<double>(r.maxReuse)});
            addCellDigest(i, workload::fnv1a64(text));
        }
    } else {
        // The quality report scores the served images, so its cells
        // keep them.
        const bool quality =
            scenario.report == workload::ScenarioReport::Quality;
        bench::SweepSpec spec;
        spec.options = options;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &cellScn = atRate[i / scenario.cellCount()];
            auto config = serving::scenarioCellConfig(cellScn, cells[i]);
            config.keepOutputs = quality;
            if (!traceDir.empty()) {
                config.trace.events = true;
                config.trace.path = traceDir + "/" + scenario.name + "-" +
                    fileLabel(cells[i].label) + ".mtrace";
            }
            spec.add(cells[i].label, std::move(config), [&cellScn] {
                auto workload = workload::buildScenarioWorkload(cellScn);
                return bench::WorkloadBundle{"", std::move(workload.warm),
                                             std::move(workload.trace)};
            });
        }
        const auto results = bench::runSweep(spec);
        std::vector<eval::QualityReport> reports;
        if (quality) {
            // Score every cell against reference generations of its
            // large model, one sweep cell per serving cell.
            std::vector<std::function<eval::QualityReport()>> scoreFns;
            for (std::size_t i = 0; i < cells.size(); ++i)
                scoreFns.push_back(
                    [&result = results[i],
                     large = serving::scenarioModel(cells[i].params.large)] {
                        return eval::MetricSuite().report(
                            result.prompts, result.images,
                            bench::referenceImages(result.prompts, large));
                    });
            reports = bench::runCells(std::move(scoreFns), options, labels);
            renderQuality(scenario, cells, reports);
        } else {
            renderServing(scenario, cells, results);
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            auto text = serving::resultDigest(results[i]);
            if (quality)
                text += hexLines({reports[i].clip, reports[i].fid,
                                  reports[i].is, reports[i].pick});
            addCellDigest(i, workload::fnv1a64(text));
        }
    }
    digests += digestLine("combined", combined);

    std::fputs(digests.c_str(), stderr);
    if (!digestOut.empty()) {
        FILE *f = std::fopen(digestOut.c_str(), "w");
        if (!f)
            fatal("cannot write %s", digestOut.c_str());
        std::fputs(digests.c_str(), f);
        std::fclose(f);
    }
    return 0;
}
