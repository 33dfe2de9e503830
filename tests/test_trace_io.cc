/**
 * @file
 * Unit tests for trace serialization: round-trip exactness (including
 * quoted text with commas/quotes), annotated traces carrying scenario
 * event timelines (faults, mid-trace knob changes), and rejection of
 * malformed input.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/workload/scenario.hh"
#include "src/workload/trace_io.hh"

namespace modm::workload {
namespace {

TEST(TraceIo, RoundTripPreservesEverything)
{
    auto gen = makeDiffusionDB(42);
    PoissonArrivals arrivals(10.0);
    Rng rng(7);
    const auto original = buildTrace(*gen, arrivals, 100, rng);

    std::stringstream buffer;
    saveTrace(original, buffer);
    const auto loaded = loadTrace(buffer);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto &a = original[i];
        const auto &b = loaded[i];
        EXPECT_NEAR(a.arrival, b.arrival, 1e-6);
        EXPECT_EQ(a.prompt.id, b.prompt.id);
        EXPECT_EQ(a.prompt.topicId, b.prompt.topicId);
        EXPECT_EQ(a.prompt.userId, b.prompt.userId);
        EXPECT_EQ(a.prompt.sessionId, b.prompt.sessionId);
        EXPECT_EQ(a.prompt.text, b.prompt.text);
        ASSERT_EQ(a.prompt.visualConcept.size(),
                  b.prompt.visualConcept.size());
        for (std::size_t d = 0; d < a.prompt.visualConcept.size(); ++d)
            EXPECT_NEAR(a.prompt.visualConcept[d],
                        b.prompt.visualConcept[d], 1e-6);
    }
}

TEST(TraceIo, QuotedTextWithCommasAndQuotes)
{
    Trace trace(1);
    trace[0].arrival = 1.5;
    trace[0].prompt.id = 7;
    trace[0].prompt.text = "a \"red\" dragon, highly detailed";
    trace[0].prompt.visualConcept = {0.5f, -0.5f};
    trace[0].prompt.lexicalStyle = {1.0f, 0.0f};

    std::stringstream buffer;
    saveTrace(trace, buffer);
    const auto loaded = loadTrace(buffer);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].prompt.text, "a \"red\" dragon, highly detailed");
}

TEST(TraceIo, AnnotatedRoundTripCarriesFaultAndKnobEvents)
{
    // A scenario with scripted faults and a mid-trace knob change,
    // frozen as an annotated trace: the rows round-trip exactly and
    // the event timeline survives in canonical op spelling.
    std::istringstream scn("scenario frozen\n"
                           "warm 0\n"
                           "requests 40\n"
                           "rate 12\n"
                           "workers 6\n"
                           "nodes 3\n"
                           "\n"
                           "at 60 kill 1\n"
                           "at 90 set cache 5000\n"
                           "at 240 rejoin 1\n");
    const auto scenario = parseScenarioOrDie(scn, "frozen.scn");

    AnnotatedTrace annotated;
    annotated.trace = buildScenarioWorkload(scenario).trace;
    annotated.events = scenarioOpLines(scenario);
    ASSERT_EQ(annotated.events.size(), 3u);

    std::stringstream buffer;
    saveAnnotatedTrace(annotated, buffer);
    const auto loaded = loadAnnotatedTrace(buffer);

    EXPECT_EQ(loaded.events,
              (std::vector<std::string>{"at 60 kill 1",
                                        "at 90 set cache 5000",
                                        "at 240 rejoin 1"}));
    ASSERT_EQ(loaded.trace.size(), annotated.trace.size());
    for (std::size_t i = 0; i < annotated.trace.size(); ++i) {
        EXPECT_NEAR(loaded.trace[i].arrival,
                    annotated.trace[i].arrival, 1e-6);
        EXPECT_EQ(loaded.trace[i].prompt.id,
                  annotated.trace[i].prompt.id);
        EXPECT_EQ(loaded.trace[i].prompt.text,
                  annotated.trace[i].prompt.text);
    }
}

TEST(TraceIo, AnnotatedTraceLoadsAsPlainTrace)
{
    AnnotatedTrace annotated;
    annotated.events = {"at 10 drain 2", "at 20 set mode quality"};
    Request request;
    request.arrival = 2.5;
    request.prompt.id = 11;
    request.prompt.text = "plain replay";
    request.prompt.visualConcept = {0.25f};
    request.prompt.lexicalStyle = {0.75f};
    annotated.trace.push_back(request);

    std::stringstream buffer;
    saveAnnotatedTrace(annotated, buffer);
    const auto plain = loadTrace(buffer);
    ASSERT_EQ(plain.size(), 1u);
    EXPECT_EQ(plain[0].prompt.text, "plain replay");
}

TEST(TraceIo, UnannotatedTraceLoadsWithEmptyEventList)
{
    Trace trace(1);
    trace[0].prompt.text = "no events";
    std::stringstream buffer;
    saveTrace(trace, buffer);
    const auto loaded = loadAnnotatedTrace(buffer);
    EXPECT_TRUE(loaded.events.empty());
    ASSERT_EQ(loaded.trace.size(), 1u);
    EXPECT_EQ(loaded.trace[0].prompt.text, "no events");
}

TEST(TraceIoDeath, RejectsEventAnnotationAfterRows)
{
    std::stringstream buffer;
    buffer << "arrival,prompt_id,topic_id,user_id,session_id,text,"
              "visual,lexical\n"
              "1.0,2,3,4,5,\"x\",0.5,0.5\n"
              "#@ at 10 kill 1\n";
    EXPECT_DEATH(loadAnnotatedTrace(buffer),
                 "annotation after the first row");
}

TEST(TraceIoDeath, RejectsForeignCsv)
{
    std::stringstream buffer("time,value\n1,2\n");
    EXPECT_DEATH(loadTrace(buffer), "bad header");
}

TEST(TraceIoDeath, RejectsTruncatedRow)
{
    std::stringstream buffer;
    buffer << "arrival,prompt_id,topic_id,user_id,session_id,text,"
              "visual,lexical\n1.0,2,3\n";
    EXPECT_DEATH(loadTrace(buffer), "trace line 2: malformed trace row");
}

/** A header, one good row on line 2, then `row` on line 3. */
std::string
traceWithThirdLine(const std::string &row)
{
    return "arrival,prompt_id,topic_id,user_id,session_id,text,visual,"
           "lexical\n"
           "1.0,2,3,4,5,\"ok\",0.5;0.25,0.5\n" +
        row + "\n";
}

void
expectFieldDeath(const std::string &row, const std::string &message)
{
    std::stringstream plain(traceWithThirdLine(row));
    EXPECT_DEATH(loadTrace(plain), message);
    std::stringstream annotated(traceWithThirdLine(row));
    EXPECT_DEATH(loadAnnotatedTrace(annotated), message);
}

TEST(TraceIoDeath, RejectsGarbageTokensWithLineAndField)
{
    // std::stoull used to throw an uncaught exception here.
    expectFieldDeath("2.0,abc,3,4,5,\"x\",0.5,0.5",
                     "trace line 3: field prompt_id: expected an unsigned "
                     "64-bit integer, got \"abc\"");
    expectFieldDeath("2.0,7,3,4,5,\"x\",0.5;zz,0.5",
                     "trace line 3: field visual: .*got \"zz\"");
}

TEST(TraceIoDeath, RejectsNonFiniteValues)
{
    expectFieldDeath("nan,7,3,4,5,\"x\",0.5,0.5",
                     "trace line 3: field arrival: expected a finite "
                     "number, got \"nan\"");
    expectFieldDeath("2.0,7,3,4,5,\"x\",0.5;inf,0.5",
                     "trace line 3: field visual: .*got \"inf\"");
    expectFieldDeath("2.0,7,3,4,5,\"x\",0.5,1e999",
                     "trace line 3: field lexical: .*got \"1e999\"");
}

TEST(TraceIoDeath, RejectsTrailingJunk)
{
    // std::stod("1.5x") used to read 1.5 and drop the rest.
    expectFieldDeath("1.5x,7,3,4,5,\"x\",0.5,0.5",
                     "trace line 3: field arrival: .*got \"1.5x\"");
    expectFieldDeath("2.0,7,3,4,5,\"x\",0.5,0.5;0.25q",
                     "trace line 3: field lexical: .*got \"0.25q\"");
}

TEST(TraceIoDeath, RejectsNegativeAndOutOfRangeIds)
{
    // std::stoul("-1") used to wrap to the largest id.
    expectFieldDeath("2.0,7,-1,4,5,\"x\",0.5,0.5",
                     "trace line 3: field topic_id: expected an unsigned "
                     "32-bit integer, got \"-1\"");
    expectFieldDeath("2.0,7,3,4294967296,5,\"x\",0.5,0.5",
                     "trace line 3: field user_id: .*got \"4294967296\"");
    expectFieldDeath("2.0,7,3,4,-5,\"x\",0.5,0.5",
                     "trace line 3: field session_id: .*got \"-5\"");
}

} // namespace
} // namespace modm::workload
