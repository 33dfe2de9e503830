/**
 * @file
 * Scenario DSL tests: canonical fixpoint, digest stability, file:line
 * diagnostics on malformed input, workload equivalence against the
 * legacy bench helpers, scenario-vs-inline figure equivalence, knob
 * plumbing, and 1-vs-4-thread sweep determinism of scenario cells.
 *
 * MODM_SCENARIO_DIR (a compile definition) points at the checked-in
 * scenarios/ directory so the suite pins every shipped .scn file.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "bench/sweep.hh"
#include "src/cache/image_cache.hh"
#include "src/serving/k_decision.hh"
#include "src/serving/scenario_exec.hh"
#include "src/workload/scenario.hh"

namespace modm::workload {
namespace {

/** Parse from a string; returns the error ("" on success). */
std::string
parseText(const std::string &text, Scenario &out)
{
    std::istringstream in(text);
    return parseScenario(in, "test.scn", out);
}

Scenario
parseOk(const std::string &text)
{
    Scenario scenario;
    const auto err = parseText(text, scenario);
    EXPECT_EQ(err, "");
    return scenario;
}

/** Expect `text` to fail to parse with `what`, located at `where`. */
void
expectError(const std::string &text, const std::string &where,
            const std::string &what)
{
    Scenario out;
    const auto err = parseText(text, out);
    EXPECT_EQ(err.rfind(where, 0), 0u) << err;
    EXPECT_NE(err.find(what), std::string::npos) << err;
}

const char kSteadyText[] = "scenario steady\n"
                           "warm 50\n"
                           "requests 80\n"
                           "rate 10\n"
                           "cache 500\n"
                           "\n"
                           "cell \"modm\"\n"
                           "cell \"vanilla\" system=vanilla\n";

TEST(ScenarioParse, FixpointOnCanonicalText)
{
    const auto scenario = parseOk(kSteadyText);
    const auto canonical = canonicalScenario(scenario);
    const auto reparsed = parseOk(canonical);
    EXPECT_EQ(canonicalScenario(reparsed), canonical);
    EXPECT_EQ(scenarioDigest(reparsed), scenarioDigest(scenario));
}

TEST(ScenarioParse, DigestIgnoresFormattingAndComments)
{
    const auto a = parseOk(kSteadyText);
    const auto b = parseOk("scenario steady\n"
                           "# a comment\n"
                           "rate   10\n"
                           "cache 500   # trailing comment\n"
                           "requests 80\n"
                           "warm 50\n"
                           "\n"
                           "cell \"modm\"\n"
                           "cell \"vanilla\" system=vanilla\n");
    EXPECT_EQ(scenarioDigest(a), scenarioDigest(b));
}

TEST(ScenarioParse, DigestChangesWithMeaning)
{
    const auto a = parseOk(kSteadyText);
    auto changed = std::string(kSteadyText);
    changed.replace(changed.find("rate 10"), 7, "rate 11");
    const auto b = parseOk(changed);
    EXPECT_NE(scenarioDigest(a), scenarioDigest(b));
}

TEST(ScenarioParse, OpsRoundTripCanonically)
{
    const auto scenario = parseOk(
        "scenario shaped\n"
        "warm 10\n"
        "duration 3600\n"
        "rate 12\n"
        "nodes 3\n"
        "workers 6\n"
        "\n"
        "at 0 diurnal base 12 amp 6 period 900 for 1800 steps 12\n"
        "at 1800 ramp to 30 over 600 steps 6\n"
        "at 1900 flash x2.5 for 120\n"
        "at 2400 drift to seed 777 over 600\n"
        "at 2400 region 1 weight 0.25\n"
        "at 2500 kill 1\n"
        "at 2600 set mode quality\n"
        "at 2700 set cache 2000\n"
        "at 3000 rejoin 1\n");
    ASSERT_EQ(scenario.ops.size(), 9u);
    EXPECT_TRUE(scenario.mixesSources());
    EXPECT_TRUE(scenario.hasFaults());
    EXPECT_TRUE(scenario.hasKnobs());
    const auto canonical = canonicalScenario(scenario);
    EXPECT_EQ(canonicalScenario(parseOk(canonical)), canonical);

    const auto lines = scenarioOpLines(scenario);
    ASSERT_EQ(lines.size(), 9u);
    EXPECT_EQ(lines[5], "at 2500 kill 1");
    EXPECT_EQ(lines[6], "at 2600 set mode quality");
    EXPECT_EQ(lines[7], "at 2700 set cache 2000");
}

TEST(ScenarioParse, DiagnosticsCarryFileAndLine)
{
    Scenario out;

    // Unknown op verb, with the failing line number.
    EXPECT_EQ(parseText("scenario s\nrequests 10\nrate 5\n"
                        "at 10 explode 1\n",
                        out),
              "test.scn:4: unknown op 'explode'");

    // Out-of-order timestamps.
    const auto err = parseText("scenario s\nrequests 10\nrate 5\n"
                               "at 20 rate 6\nat 10 rate 7\n",
                               out);
    EXPECT_NE(err.find("test.scn:5:"), std::string::npos) << err;
    EXPECT_NE(err.find("time-ordered"), std::string::npos) << err;

    // Bad knob.
    const auto knobErr = parseText("scenario s\nrequests 10\nrate 5\n"
                                   "at 10 set turbo 9\n",
                                   out);
    EXPECT_NE(knobErr.find("test.scn:4:"), std::string::npos) << knobErr;
    EXPECT_NE(knobErr.find("unknown knob 'turbo'"), std::string::npos)
        << knobErr;
}

TEST(ScenarioParse, RejectsMalformedHeaders)
{
    Scenario out;
    EXPECT_NE(parseText("requests 10\n", out).find("first directive"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\nrequests 20\n", out)
                  .find("duplicate directive"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\nduration 5\n", out)
                  .find("exactly one of requests/duration"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\ngpu h100\n", out)
                  .find("unknown gpu"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\ntitle \"open\n", out)
                  .find("unterminated quote"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\n", out).find("requests or duration"),
              std::string::npos);
}

TEST(ScenarioParse, RejectsInvalidOps)
{
    Scenario out;
    // Rate shaping in a batch scenario.
    EXPECT_NE(parseText("scenario s\nrequests 10\nat 0 rate 5\n", out)
                  .find("batch"),
              std::string::npos);
    // Diurnal amplitude must stay below the base.
    EXPECT_NE(parseText("scenario s\nduration 100\nrate 5\n"
                        "at 0 diurnal base 5 amp 6 period 50 for 100 "
                        "steps 4\n",
                        out)
                  .find("amp must stay below base"),
              std::string::npos);
    // Region weight out of range.
    EXPECT_NE(parseText("scenario s\nrequests 10\nrate 5\n"
                        "at 0 region 1 weight 1.5\n",
                        out)
                  .find("weight"),
              std::string::npos);
    // Killing the only admitting node.
    EXPECT_NE(parseText("scenario s\nrequests 10\nrate 5\n"
                        "at 10 kill 0\n",
                        out)
                  .find("admitting"),
              std::string::npos);
    // Replicas knob without replicated partitioning.
    EXPECT_NE(parseText("scenario s\nrequests 10\nrate 5\nnodes 2\n"
                        "workers 4\nat 10 set replicas 2\n",
                        out)
                  .find("replicated"),
              std::string::npos);
    // MoDM cell without a small model.
    EXPECT_NE(parseText("scenario s\nrequests 10\nsmall none\n", out)
                  .find("non-empty small"),
              std::string::npos);
}

TEST(ScenarioRateList, RoundTripsCanonically)
{
    const auto scenario = parseOk("scenario sweep\n"
                                  "requests 80\n"
                                  "rate 2.5,4,10\n"
                                  "report p99-by-rate\n");
    EXPECT_EQ(scenario.rates, (std::vector<double>{2.5, 4.0, 10.0}));
    EXPECT_EQ(scenario.rate, 2.5);
    EXPECT_EQ(scenario.report, ScenarioReport::P99ByRate);
    const auto canonical = canonicalScenario(scenario);
    EXPECT_NE(canonical.find("\nrate 2.5,4,10\n"), std::string::npos)
        << canonical;
    EXPECT_EQ(canonicalScenario(parseOk(canonical)), canonical);

    // A one-element list is a plain rate: no sweep axis, and the
    // digest the scalar form had before rate lists existed.
    const auto single = parseOk("scenario one\nrequests 80\nrate 10\n");
    EXPECT_TRUE(single.rates.empty());
    EXPECT_EQ(single.rate, 10.0);
    EXPECT_EQ(scenarioDigest(single), 0x58701a1fe57edb9aULL);
    EXPECT_NE(scenarioDigest(single),
              scenarioDigest(parseOk("scenario one\nrequests 80\n"
                                     "rate 10,11\n")));
}

TEST(ScenarioRateList, RejectionsCarryFileAndLine)
{
    expectError("scenario s\nrequests 10\nrate 3,0,5\n", "test.scn:3:",
                "entries must be > 0");
    expectError("scenario s\nrequests 10\nrate 3,-1\n", "test.scn:3:",
                "entries must be > 0");
    expectError("scenario s\nrequests 10\nrate 3,\n", "test.scn:3:",
                "entries must be > 0");
    expectError("scenario s\nrequests 10\nrate 3,5,5\n", "test.scn:3:",
                "strictly increasing");
    expectError("scenario s\nrequests 10\nrate 5,3\n", "test.scn:3:",
                "strictly increasing");
    expectError("scenario s\nrequests 10\nrate 3,5\n\n"
                "at 10 rate 8\n",
                "test.scn:5:", "ops cannot be combined");
    expectError("scenario s\nrequests 10\nrate 3,5\nnodes 2\n\n"
                "at 10 kill 1\n",
                "test.scn:6:", "ops cannot be combined");
    expectError("scenario s\nduration 600\nrate 3,5\n", "test.scn:3:",
                "needs requests, not duration");
    expectError("scenario s\nmode cache-stream\nrequests 10\n"
                "rate 3,5\nreport hit-curve\n",
                "test.scn:4:", "cache-stream scenarios take no rate list");
    expectError("scenario s\nrequests 10\nrate 5\n"
                "report p99-by-rate\n",
                "test.scn:4:", "p99-by-rate needs a rate list");
    expectError("scenario s\nrequests 10\nreport slo-by-rate\n",
                "test.scn:3:", "slo-by-rate needs a rate list");
}

TEST(ScenarioValidation, RejectionsCarryFileAndLine)
{
    // A cache-stream window longer than the stream has no rows.
    expectError("scenario s\nmode cache-stream\nrequests 100\n"
                "window 1000\nreport hit-curve\n",
                "test.scn:4:", "window 1000 exceeds requests 100");
    expectError("scenario s\nmode cache-stream\nrequests 100\n"
                "report reuse\n",
                "test.scn:3:", "window 2000 exceeds requests 100");
    // Budgets split across nodes need at least one unit per node.
    expectError("scenario s\nrequests 10\nworkers 2\nnodes 4\n",
                "test.scn:4:", "workers 2 is below its 4 nodes");
    expectError("scenario s\nrequests 10\ncache 3\nnodes 4\n",
                "test.scn:4:", "cache 3 is below its 4 nodes");
    expectError("scenario s\nrequests 10\nworkers 8\n\n"
                "cell \"ok\" nodes=4\ncell \"thin\" nodes=4 workers=2\n",
                "test.scn:6:", "cell \"thin\": workers 2 is below");
    expectError("scenario s\nrequests 10\nrate 5\nnodes 4\n"
                "workers 8\n\nat 10 set cache 2\n",
                "test.scn:7:", "cache knob 2 is below the 4 nodes");
    // Report kinds belong to one mode.
    expectError("scenario s\nrequests 10\nreport reuse\n",
                "test.scn:3:", "report reuse requires mode cache-stream");
    expectError("scenario s\nrequests 10\nreport hit-curve\n",
                "test.scn:3:",
                "report hit-curve requires mode cache-stream");
    expectError("scenario s\nmode cache-stream\nrequests 10\n"
                "window 5\nreport quality\n",
                "test.scn:5:", "use report hit-curve or reuse");
    expectError("scenario s\nmode cache-stream\nrequests 10\n"
                "window 5\nreport cluster\n",
                "test.scn:5:", "use report hit-curve or reuse");
    // Quality's paper annotation is a <clip>,<fid> pair.
    expectError("scenario s\nrequests 10\nreport quality\n\n"
                "cell \"a\" paper=28.5\n",
                "test.scn:5:", "paper=<clip>,<fid>");

    // The boundaries themselves parse.
    parseOk("scenario s\nmode cache-stream\nrequests 100\n"
            "window 100\nreport reuse\n");
    parseOk("scenario s\nrequests 10\nrate 5\nnodes 4\nworkers 4\n"
            "cache 4\n\nat 10 set cache 4\n");
    parseOk("scenario s\nrequests 10\nreport quality\n\n"
            "cell \"a\" paper=28.55,6.29\ncell \"b\"\n");
}

TEST(ScenarioParseDeath, LoadOrDieReportsFileAndLine)
{
    std::istringstream in("scenario s\nrequests 10\nat 1 explode 2\n");
    EXPECT_DEATH(parseScenarioOrDie(in, "bad.scn"),
                 "bad.scn:3: unknown op");
}

std::string
scenarioPath(const std::string &name)
{
    return std::string(MODM_SCENARIO_DIR) + "/" + name;
}

/** Stems of the files in `dir` with extension `ext`, sorted. */
std::set<std::string>
stemsIn(const std::string &dir, const std::string &ext)
{
    std::set<std::string> stems;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ext)
            stems.insert(entry.path().stem().string());
    return stems;
}

TEST(ScenarioFiles, EveryCheckedInScenarioIsAFixpoint)
{
    const auto names = stemsIn(MODM_SCENARIO_DIR, ".scn");
    ASSERT_FALSE(names.empty());
    for (const auto &name : names) {
        SCOPED_TRACE(name);
        const auto scenario = loadScenarioFile(scenarioPath(name + ".scn"));
        const auto canonical = canonicalScenario(scenario);
        const auto reparsed = parseOk(canonical);
        EXPECT_EQ(canonicalScenario(reparsed), canonical);
        EXPECT_EQ(scenarioDigest(reparsed), scenarioDigest(scenario));
    }
}

TEST(ScenarioFiles, EveryScenarioHasGoldensAndNoGoldenIsOrphaned)
{
    // The scenario-goldens CI job diffs every scenario's stdout and
    // digests against goldens/<name>.{txt,digest}; both sets must
    // name exactly the checked-in scenarios.
    const auto names = stemsIn(MODM_SCENARIO_DIR, ".scn");
    const std::string goldens = scenarioPath("goldens");
    EXPECT_EQ(stemsIn(goldens, ".txt"), names);
    EXPECT_EQ(stemsIn(goldens, ".digest"), names);
    for (const auto &entry : std::filesystem::directory_iterator(goldens))
        EXPECT_TRUE(entry.path().extension() == ".txt" ||
                    entry.path().extension() == ".digest")
            << entry.path();
}

TEST(ScenarioFiles, PortedFigureDigestsArePinned)
{
    // Frozen digests of the figure, table and ablation ports. A change
    // here means the scenario's meaning changed — the matching golden,
    // which is the output of the binary the scenario replaced, must be
    // revisited, not just re-pinned.
    const std::pair<const char *, std::uint64_t> kPinned[] = {
        {"fig06_hit_rate", 0xea14f86034447e74ULL},
        {"fig07_diffusiondb", 0xa7fa5f822d4d0452ULL},
        {"fig07_mjhq", 0x5c3def68329d4729ULL},
        {"fig08_flux", 0xbe8e513aaafb929bULL},
        {"fig12_13_a40", 0xf2c4829ef0897e32ULL},
        {"fig12_13_mi210", 0x70ac54536032ce35ULL},
        {"fig16_a40", 0x5accb6aa6aef1867ULL},
        {"fig16_mi210", 0x0ccf054ae0878d6aULL},
        {"fig18_energy", 0xf09cbd0285e74bccULL},
        {"table2_diffusiondb", 0x536562eb78cdcd1eULL},
        {"table2_mjhq", 0xf343723efd368b3aULL},
        {"table3_flux", 0xe1c8695fcb489213ULL},
        {"ablation_cache_policy", 0x24766924932d5465ULL},
        {"ablation_multinode", 0x5a63156b182e598bULL},
    };
    for (const auto &[name, digest] : kPinned) {
        SCOPED_TRACE(name);
        EXPECT_EQ(scenarioDigest(loadScenarioFile(
                      scenarioPath(std::string(name) + ".scn"))),
                  digest);
    }
}

TEST(ScenarioWorkloadEquivalence, BatchMatchesLegacyBatchBundle)
{
    const auto scenario = parseOk("scenario batch\n"
                                  "warm 120\n"
                                  "requests 150\n");
    const auto built = buildScenarioWorkload(scenario);
    const auto legacy =
        bench::batchBundle(bench::Dataset::DiffusionDB, 120, 150);

    ASSERT_EQ(built.warm.size(), legacy.warm.size());
    ASSERT_EQ(built.trace.size(), legacy.trace.size());
    for (std::size_t i = 0; i < built.trace.size(); ++i) {
        EXPECT_EQ(built.trace[i].arrival, legacy.trace[i].arrival);
        EXPECT_EQ(built.trace[i].prompt.id, legacy.trace[i].prompt.id);
        EXPECT_EQ(built.trace[i].prompt.text,
                  legacy.trace[i].prompt.text);
        EXPECT_EQ(built.trace[i].prompt.visualConcept,
                  legacy.trace[i].prompt.visualConcept);
    }
}

TEST(ScenarioWorkloadEquivalence, PoissonMatchesLegacyPoissonBundle)
{
    const auto scenario = parseOk("scenario poisson\n"
                                  "warm 40\n"
                                  "requests 120\n"
                                  "rate 10\n");
    const auto built = buildScenarioWorkload(scenario);
    const auto legacy =
        bench::poissonBundle(bench::Dataset::DiffusionDB, 40, 120, 10.0);

    ASSERT_EQ(built.trace.size(), legacy.trace.size());
    for (std::size_t i = 0; i < built.trace.size(); ++i) {
        EXPECT_EQ(built.trace[i].arrival, legacy.trace[i].arrival);
        EXPECT_EQ(built.trace[i].prompt.id, legacy.trace[i].prompt.id);
        EXPECT_EQ(built.trace[i].prompt.text,
                  legacy.trace[i].prompt.text);
    }
}

TEST(ScenarioWorkloadEquivalence, MjhqDatasetSelectsTheMjhqGenerator)
{
    const auto scenario = parseOk("scenario mjhq\n"
                                  "dataset mjhq\n"
                                  "requests 50\n");
    const auto built = buildScenarioWorkload(scenario);
    const auto legacy =
        bench::batchBundle(bench::Dataset::MJHQ, 0, 50);
    ASSERT_EQ(built.trace.size(), legacy.trace.size());
    for (std::size_t i = 0; i < built.trace.size(); ++i)
        EXPECT_EQ(built.trace[i].prompt.text,
                  legacy.trace[i].prompt.text);
}

TEST(ScenarioEquivalence, ServingCellMatchesLegacyPresetRun)
{
    // A scenario cell that names the MoDM preset reproduces the
    // hard-coded bench path bit for bit (digest equality).
    const auto scenario = parseOk("scenario modm_small\n"
                                  "warm 150\n"
                                  "requests 150\n"
                                  "cache 1500\n");
    const auto cellResult =
        serving::runScenarioCell(scenario, scenario.cell(0));

    baselines::PresetParams params;
    params.cacheCapacity = 1500;
    const auto config =
        baselines::modm(diffusion::sd35Large(), diffusion::sdxl(),
                        params);
    const auto legacy = bench::runSystem(
        config, bench::batchBundle(bench::Dataset::DiffusionDB, 150,
                                   150));

    EXPECT_EQ(serving::resultDigest(cellResult),
              serving::resultDigest(legacy));
}

TEST(ScenarioEquivalence, CacheStreamMatchesInlineFig06Loop)
{
    // Scaled-down Fig. 6 and cache-policy ablation: the scenario
    // executor's streamed-cache loop against a verbatim transcription
    // of the legacy binaries' (hit curve, hits, similarity, reuse).
    const auto scenario = parseOk("scenario fig06_small\n"
                                  "mode cache-stream\n"
                                  "requests 4000\n"
                                  "window 500\n"
                                  "cache 800\n"
                                  "eviction utility\n"
                                  "report reuse\n");
    const auto stream =
        serving::runScenarioCacheStream(scenario, scenario.cell(0));

    auto gen = makeDiffusionDB(42);
    diffusion::Sampler sampler(7);
    cache::ImageCache cache(800, cache::EvictionPolicy::Utility);
    embedding::TextEncoder text;
    serving::KDecision kd;
    std::vector<double> expected;
    std::size_t hits = 0;
    std::uint64_t totalHits = 0;
    double simSum = 0.0;
    std::map<std::uint64_t, std::uint64_t> reuse;
    for (std::size_t i = 0; i < 4000; ++i) {
        const auto p = gen->next();
        const auto te =
            text.encode(p.visualConcept, p.lexicalStyle, p.text);
        const auto r = cache.retrieve(te);
        diffusion::Image img;
        if (r.found && kd.isHit(r.similarity)) {
            ++hits;
            ++totalHits;
            simSum += r.similarity;
            ++reuse[r.entryId];
            cache.recordHit(r.entryId, static_cast<double>(i));
            img = sampler.refine(diffusion::sdxl(), p,
                                 cache.entry(r.entryId).image,
                                 kd.decide(r.similarity),
                                 static_cast<double>(i));
        } else {
            img = sampler.generate(diffusion::sd35Large(), p,
                                   static_cast<double>(i));
        }
        cache.insert(img, static_cast<double>(i));
        if ((i + 1) % 500 == 0) {
            expected.push_back(static_cast<double>(hits) / 500);
            hits = 0;
        }
    }
    std::uint64_t maxReuse = 0;
    for (const auto &[id, count] : reuse)
        maxReuse = std::max(maxReuse, count);
    EXPECT_EQ(stream.curve, expected);
    EXPECT_EQ(stream.hits, totalHits);
    EXPECT_EQ(stream.similaritySum, simSum);
    EXPECT_EQ(stream.maxReuse, maxReuse);
    EXPECT_GT(stream.maxReuse, 1u);
}

TEST(ScenarioEquivalence, CacheStreamHitsMatchTheCurveWhenWindowsTile)
{
    // When the window divides the stream, the whole-stream hit count
    // is the curve's windows summed back into counts.
    const auto scenario = parseOk("scenario tiles\n"
                                  "mode cache-stream\n"
                                  "requests 3000\n"
                                  "window 250\n"
                                  "cache 400\n"
                                  "report reuse\n");
    const auto stream =
        serving::runScenarioCacheStream(scenario, scenario.cell(0));
    ASSERT_EQ(stream.curve.size(), 12u);
    double windowHits = 0.0;
    for (const double rate : stream.curve)
        windowHits += rate * 250.0;
    EXPECT_GT(stream.hits, 0u);
    EXPECT_EQ(static_cast<double>(stream.hits), std::round(windowHits));
    EXPECT_NEAR(static_cast<double>(stream.hits), windowHits, 1e-6);
}

TEST(ScenarioEquivalence, FaultOpsMatchHandBuiltFaultPlan)
{
    const auto scenario = parseOk("scenario fo\n"
                                  "warm 60\n"
                                  "requests 240\n"
                                  "rate 12\n"
                                  "workers 6\n"
                                  "nodes 3\n"
                                  "\n"
                                  "at 120 kill 1\n"
                                  "at 600 rejoin 1\n");
    const auto cellResult =
        serving::runScenarioCell(scenario, scenario.cell(0));

    baselines::PresetParams params;
    params.numWorkers = 6;
    auto config =
        baselines::modm(diffusion::sd35Large(), diffusion::sdxl(),
                        params);
    config.cluster.numNodes = 3;
    config.faults.add(120.0, 1, serving::FaultKind::Kill)
        .add(600.0, 1, serving::FaultKind::Rejoin);
    const auto legacy = bench::runSystem(
        config, bench::poissonBundle(bench::Dataset::DiffusionDB, 60,
                                     240, 12.0));

    EXPECT_EQ(serving::resultDigest(cellResult),
              serving::resultDigest(legacy));
    EXPECT_TRUE(cellResult.failover.active);
}

TEST(ScenarioKnobs, CacheShrinkEvictsDownInPolicy)
{
    const auto scenario = parseOk("scenario shrink\n"
                                  "warm 400\n"
                                  "requests 100\n"
                                  "rate 10\n"
                                  "cache 1000\n"
                                  "\n"
                                  "at 1 set cache 200\n");
    const auto result =
        serving::runScenarioCell(scenario, scenario.cell(0));
    EXPECT_LE(result.cacheSize, 200u);
    EXPECT_GT(result.cacheSize, 0u);
}

TEST(ScenarioKnobs, ModeFlipChangesTheRunAndEmptyPlanIsANoOp)
{
    const char kBase[] = "scenario knobs\n"
                         "warm 100\n"
                         "requests 200\n"
                         "rate 12\n"
                         "cache 800\n";
    const auto plain = parseOk(kBase);
    const auto flipped =
        parseOk(std::string(kBase) + "\nat 60 set mode quality\n");

    const auto plainResult =
        serving::runScenarioCell(plain, plain.cell(0));
    const auto flippedResult =
        serving::runScenarioCell(flipped, flipped.cell(0));
    EXPECT_NE(serving::resultDigest(plainResult),
              serving::resultDigest(flippedResult));

    // An explicitly empty knob plan is byte-identical to no plan.
    auto config = serving::scenarioCellConfig(plain, plain.cell(0));
    ASSERT_TRUE(config.knobs.empty());
    const auto workload = buildScenarioWorkload(plain);
    serving::ServingSystem system(config);
    system.warmCache(workload.warm);
    const auto rerun = system.run(workload.trace);
    EXPECT_EQ(serving::resultDigest(rerun),
              serving::resultDigest(plainResult));
}

TEST(ScenarioKnobsDeath, ReplicasKnobValidatesAgainstTopology)
{
    serving::ServingConfig config;
    config.knobs.setReplicationFactor(10.0, 2);
    EXPECT_DEATH(serving::ServingSystem{config}, "[Rr]eplica");
}

TEST(ScenarioRetrieval, CompoundValueRoundTripsCanonically)
{
    // Header sugar `retrieval hnsw ef=64` canonicalizes to the comma
    // form, which reparses to the same scenario (fixpoint).
    const auto scenario = parseOk("scenario r\n"
                                  "requests 10\n"
                                  "retrieval hnsw ef=64\n");
    EXPECT_EQ(scenario.params.retrieval, ScenarioRetrieval::Hnsw);
    EXPECT_EQ(scenario.params.retrievalEf, 64u);
    EXPECT_EQ(scenario.params.retrievalNprobe, 0u);
    const auto canonical = canonicalScenario(scenario);
    EXPECT_NE(canonical.find("retrieval hnsw,ef=64\n"),
              std::string::npos)
        << canonical;
    EXPECT_EQ(canonicalScenario(parseOk(canonical)), canonical);

    // Cell override in the comma form; selecting a backend resets the
    // header's knobs, so `retrieval=flat` drops the inherited ef.
    const auto cells = parseOk("scenario r\n"
                               "requests 10\n"
                               "retrieval hnsw,ef=32\n"
                               "\n"
                               "cell \"pq\" retrieval=ivf-pq,nprobe=16\n"
                               "cell \"exact\" retrieval=flat\n");
    EXPECT_EQ(cells.cell(0).params.retrieval, ScenarioRetrieval::IvfPq);
    EXPECT_EQ(cells.cell(0).params.retrievalNprobe, 16u);
    EXPECT_EQ(cells.cell(0).params.retrievalEf, 0u);
    EXPECT_EQ(cells.cell(1).params.retrieval, ScenarioRetrieval::Flat);
    EXPECT_EQ(cells.cell(1).params.retrievalEf, 0u);
    const auto cellCanonical = canonicalScenario(cells);
    EXPECT_NE(cellCanonical.find("retrieval=ivf-pq,nprobe=16"),
              std::string::npos)
        << cellCanonical;
    EXPECT_EQ(canonicalScenario(parseOk(cellCanonical)), cellCanonical);

    // Knobs change the digest; the bare backend token does not gain a
    // suffix (pre-knob scenarios keep their digests, pinned above by
    // PortedFigureDigestsArePinned).
    const auto bare = parseOk("scenario r\nrequests 10\n"
                              "retrieval hnsw\n");
    EXPECT_NE(scenarioDigest(bare), scenarioDigest(scenario));
    EXPECT_NE(canonicalScenario(bare).find("retrieval hnsw\n"),
              std::string::npos);
}

TEST(ScenarioRetrieval, RejectsMalformedCompoundValues)
{
    Scenario out;
    EXPECT_NE(parseText("scenario s\nrequests 10\n"
                        "retrieval annoy\n",
                        out)
                  .find("unknown retrieval backend 'annoy'"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\n"
                        "retrieval ivf,ef=8\n",
                        out)
                  .find("ef requires the hnsw backend"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\n"
                        "retrieval hnsw,nprobe=8\n",
                        out)
                  .find("nprobe requires an ivf backend"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\n"
                        "retrieval hnsw,ef=0\n",
                        out)
                  .find("n >= 1"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\n"
                        "retrieval hnsw,beamwidth=9\n",
                        out)
                  .find("unknown retrieval knob 'beamwidth'"),
              std::string::npos);
    const auto cellErr = parseText("scenario s\nrequests 10\n"
                                   "\ncell \"c\" retrieval=ivf-pq,ef=4\n",
                                   out);
    EXPECT_NE(cellErr.find("test.scn:4:"), std::string::npos) << cellErr;
    EXPECT_NE(cellErr.find("ef requires the hnsw backend"),
              std::string::npos)
        << cellErr;
}

TEST(ScenarioRetrieval, EfAndNprobeKnobOpsParseAndValidate)
{
    const auto scenario = parseOk("scenario k\n"
                                  "requests 10\nrate 5\n"
                                  "retrieval hnsw\n"
                                  "\n"
                                  "at 10 set ef 32\n");
    ASSERT_EQ(scenario.ops.size(), 1u);
    EXPECT_EQ(scenario.ops[0].knob, ScenarioKnob::Ef);
    EXPECT_EQ(scenario.ops[0].knobValue, 32.0);
    EXPECT_EQ(scenarioOpLines(scenario)[0], "at 10 set ef 32");
    const auto canonical = canonicalScenario(scenario);
    EXPECT_EQ(canonicalScenario(parseOk(canonical)), canonical);

    const auto pq = parseOk("scenario k\nrequests 10\nrate 5\n"
                            "retrieval ivf-pq\n"
                            "\nat 10 set nprobe 16\n");
    EXPECT_EQ(pq.ops[0].knob, ScenarioKnob::Nprobe);
    EXPECT_EQ(scenarioOpLines(pq)[0], "at 10 set nprobe 16");

    // Backend/knob mismatches surface as file:line diagnostics.
    Scenario out;
    const auto efErr = parseText("scenario s\nrequests 10\nrate 5\n"
                                 "at 10 set ef 32\n",
                                 out);
    EXPECT_NE(efErr.find("test.scn:4:"), std::string::npos) << efErr;
    EXPECT_NE(efErr.find("ef knob requires retrieval hnsw"),
              std::string::npos)
        << efErr;
    const auto npErr = parseText("scenario s\nrequests 10\nrate 5\n"
                                 "retrieval hnsw\n"
                                 "at 10 set nprobe 4\n",
                                 out);
    EXPECT_NE(npErr.find("nprobe knob requires an ivf"),
              std::string::npos)
        << npErr;
    // A single offending cell poisons the whole timeline.
    const auto cellErr = parseText("scenario s\nrequests 10\nrate 5\n"
                                   "retrieval hnsw\n"
                                   "at 10 set ef 32\n"
                                   "\ncell \"a\"\n"
                                   "cell \"b\" retrieval=flat\n",
                                   out);
    EXPECT_NE(cellErr.find("cell \"b\""), std::string::npos) << cellErr;
}

TEST(ScenarioRetrieval, CellRunsApproximateBackendsWithKnobs)
{
    // End-to-end lowering: the scenario's retrieval selection and ef
    // knob reach the serving run (backend tag + nonzero memory bytes
    // in the result), and a mid-run `set ef` changes the outcome of
    // an approximate-backend run deterministically.
    const char kBase[] = "scenario hnswrun\n"
                         "warm 200\n"
                         "requests 120\n"
                         "rate 30\n"
                         "cache 400\n"
                         "retrieval hnsw,ef=48\n";
    const auto scenario = parseOk(kBase);
    const auto result =
        serving::runScenarioCell(scenario, scenario.cell(0));
    EXPECT_EQ(result.retrievalBackend,
              embedding::RetrievalBackend::Hnsw);
    EXPECT_GT(result.retrievalMemoryBytes, 0u);

    const auto knobbed =
        parseOk(std::string(kBase) + "\nat 1 set ef 4\n");
    const auto knobbedResult =
        serving::runScenarioCell(knobbed, knobbed.cell(0));
    // ef=4 degrades retrieval vs ef=48; the digests must differ and
    // the degraded run cannot have better recall.
    EXPECT_NE(serving::resultDigest(result),
              serving::resultDigest(knobbedResult));
    EXPECT_LE(knobbedResult.retrievalRecallAt1,
              result.retrievalRecallAt1 + 1e-12);

    const auto pq = parseOk("scenario pqrun\n"
                            "warm 200\n"
                            "requests 80\n"
                            "cache 400\n"
                            "retrieval ivf-pq,nprobe=4\n");
    const auto pqResult = serving::runScenarioCell(pq, pq.cell(0));
    EXPECT_EQ(pqResult.retrievalBackend,
              embedding::RetrievalBackend::IvfPq);
    EXPECT_GT(pqResult.retrievalMemoryBytes, 0u);
}

TEST(ScenarioSweep, CellsAreDeterministicAcrossParallelism)
{
    const auto scenario = parseOk(kSteadyText);
    const auto runAll = [&](std::size_t parallelism) {
        std::vector<std::function<std::string()>> cells;
        for (std::size_t i = 0; i < scenario.cellCount(); ++i) {
            const auto cell = scenario.cell(i);
            cells.push_back([&scenario, cell] {
                return serving::resultDigest(
                    serving::runScenarioCell(scenario, cell));
            });
        }
        bench::SweepOptions options;
        options.parallelism = parallelism;
        options.progress = false;
        return bench::runCells<std::string>(cells, options);
    };
    const auto serial = runAll(1);
    const auto concurrent = runAll(4);
    EXPECT_EQ(serial, concurrent);
}

} // namespace
} // namespace modm::workload
