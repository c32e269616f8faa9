/** @file
 * aqreport core contracts.
 *
 * Bench gate: record-key matching, the exact failure message when a
 * baseline record is missing from the candidate (key and side must both
 * be named), candidate-only records surfacing as notes, modelled-field
 * drift detection, and the matched==0 fatal path.
 *
 * Report reader: a record keeps only its numeric members. (The JSON
 * reader's own hostile-input tests live in tests/obs/json_test.cc.)
 *
 * Structural diff: the exact wording for missing members (with side),
 * type mismatches, array lengths and the tolerance threshold.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "../../tools/report_core.hh"

namespace aquoman::tools {
namespace {

Record
makeRecord(double query, double devices, double wall, double modelled)
{
    Record r;
    r["query"] = query;
    r["devices"] = devices;
    r["wall_seconds"] = wall;
    r["modelled_seconds"] = modelled;
    return r;
}

bool
containsMessage(const std::vector<std::string> &msgs,
                const std::string &needle)
{
    for (const std::string &m : msgs)
        if (m.find(needle) != std::string::npos)
            return true;
    return false;
}

TEST(BenchDiff, IdenticalReportsMatchCleanly)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 4, 3.0, 4.0)};
    DiffResult d = diffReports(base, base, DiffOptions{});
    EXPECT_FALSE(d.fatal);
    EXPECT_EQ(d.failures, 0);
    EXPECT_EQ(d.matched, 2);
    EXPECT_DOUBLE_EQ(d.wallGeomean, 1.0);
    EXPECT_TRUE(d.notes.empty());
}

TEST(BenchDiff, BaselineOnlyRecordFailsNamingKeyAndSide)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 8, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.0, 2.0)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_FALSE(d.fatal);
    EXPECT_EQ(d.matched, 1);
    EXPECT_EQ(d.failures, 1);
    // The message must name the missing record's key AND which side
    // lacks it, so a CI log is actionable without rerunning locally.
    EXPECT_TRUE(containsMessage(
        d.failureMessages,
        "record 'query=14,devices=8' missing from candidate report"))
        << (d.failureMessages.empty() ? std::string("<none>")
                                      : d.failureMessages.front());
}

TEST(BenchDiff, CandidateOnlyRecordIsANoteNotAFailure)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(19, 4, 1.0, 2.0)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_EQ(d.failures, 0);
    EXPECT_EQ(d.matched, 1);
    EXPECT_TRUE(containsMessage(
        d.notes,
        "record 'query=19,devices=4' missing from baseline report"));
}

TEST(BenchDiff, ModelledDriftFails)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.0, 2.5)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_EQ(d.failures, 1);
    EXPECT_TRUE(containsMessage(d.failureMessages, "modelled_seconds"));
}

TEST(BenchDiff, MissingModelledFieldNamesFieldAndSide)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.0, 2.0)};
    cand[0].erase("modelled_seconds");
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_EQ(d.failures, 1);
    EXPECT_TRUE(containsMessage(
        d.failureMessages,
        "field 'modelled_seconds' missing from candidate report"));
}

TEST(BenchDiff, WallClockGateUsesGeomean)
{
    // Individual records may regress as long as the geomean holds.
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.3, 2.0),
                             makeRecord(14, 4, 0.8, 2.0)};
    DiffOptions opt;
    opt.wallThresholdPct = 10.0;
    DiffResult d = diffReports(base, cand, opt);
    // geomean(1.3 * 0.8) = sqrt(1.04) ~ 1.02 <= 1.10.
    EXPECT_EQ(d.failures, 0);
    EXPECT_NEAR(d.wallGeomean, 1.0198, 1e-3);

    cand[1]["wall_seconds"] = 1.3; // geomean 1.3 > 1.10
    DiffResult bad = diffReports(base, cand, opt);
    EXPECT_GE(bad.failures, 1);
    EXPECT_TRUE(containsMessage(bad.failureMessages, "geomean"));
}

TEST(BenchDiff, TrippedWallGateListsPerRecordRatiosWorstFirst)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 4, 1.0, 2.0),
                             makeRecord(19, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.2, 2.0),
                             makeRecord(14, 4, 2.0, 2.0),
                             makeRecord(19, 4, 0.9, 2.0)};
    DiffOptions opt;
    opt.wallThresholdPct = 10.0;
    DiffResult d = diffReports(base, cand, opt);
    ASSERT_GE(d.failures, 1);
    // Every matched record gets a ratio line, sorted worst first, so a
    // CI log pinpoints which queries dragged the geomean over.
    std::vector<std::string> ratio_lines;
    for (const std::string &m : d.failureMessages)
        if (m.find("wall_seconds '") != std::string::npos)
            ratio_lines.push_back(m);
    ASSERT_EQ(ratio_lines.size(), 3u);
    EXPECT_NE(ratio_lines[0].find("'query=14,devices=4' ratio 2.0000"),
              std::string::npos)
        << ratio_lines[0];
    EXPECT_NE(ratio_lines[1].find("'query=6,devices=4' ratio 1.2000"),
              std::string::npos)
        << ratio_lines[1];
    EXPECT_NE(ratio_lines[2].find("'query=19,devices=4' ratio 0.9000"),
              std::string::npos)
        << ratio_lines[2];
    // The breakdown includes the raw baseline -> candidate values.
    EXPECT_NE(ratio_lines[0].find("(1 -> 2)"), std::string::npos)
        << ratio_lines[0];
}

TEST(BenchDiff, HealthyWallGateEmitsNoPerRecordBreakdown)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.05, 2.0),
                             makeRecord(14, 4, 0.95, 2.0)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_EQ(d.failures, 0);
    EXPECT_FALSE(containsMessage(d.failureMessages, "wall_seconds '"));
}

TEST(BenchDiff, VerboseEmitsPerRecordRatioNotesWhenHealthy)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.05, 2.0),
                             makeRecord(14, 4, 0.95, 2.0)};
    DiffOptions opt;
    opt.verbose = true;
    DiffResult d = diffReports(base, cand, opt);
    EXPECT_EQ(d.failures, 0);
    // Ratio lines are notes (informational), never failure messages,
    // and appear even though the geomean gate passes.
    EXPECT_FALSE(containsMessage(d.failureMessages, "wall_seconds '"));
    std::vector<std::string> ratio_lines;
    for (const std::string &m : d.notes)
        if (m.find("wall_seconds '") != std::string::npos)
            ratio_lines.push_back(m);
    ASSERT_EQ(ratio_lines.size(), 2u);
    // Worst first.
    EXPECT_NE(ratio_lines[0].find("'query=6,devices=4' ratio 1.0500"),
              std::string::npos)
        << ratio_lines[0];
    EXPECT_NE(ratio_lines[1].find("'query=14,devices=4' ratio 0.9500"),
              std::string::npos)
        << ratio_lines[1];
}

TEST(BenchDiff, NonVerboseHealthyRunEmitsNoRatioNotes)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.02, 2.0)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_EQ(d.failures, 0);
    EXPECT_FALSE(containsMessage(d.notes, "wall_seconds '"));
}

TEST(BenchDiff, NoMatchedRecordsIsFatal)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(19, 8, 1.0, 2.0)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_TRUE(d.fatal);
    EXPECT_FALSE(d.fatalMessage.empty());
}

TEST(BenchDiff, RecordKeyComposition)
{
    Record r = makeRecord(6, 4, 1.0, 2.0);
    r["tenant"] = 2;
    EXPECT_EQ(recordKey(r), "query=6,devices=4,tenant=2");
    Record plain;
    plain["wall_seconds"] = 1.0;
    EXPECT_EQ(recordKey(plain), "");
}

// ---------------------------------------------------------------------
// Report reader
// ---------------------------------------------------------------------

std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path = testing::TempDir() + name;
    std::ofstream(path, std::ios::binary) << text;
    return path;
}

TEST(JsonReader, ReportRecordsKeepOnlyNumericMembers)
{
    std::string path = writeTemp(
        "records.json",
        R"({"title":"x","records":[{"query":6,"name":"q6","wall_seconds":)"
        R"(1.5,"ok":true}],"histograms":{}})");
    std::vector<Record> records;
    std::string error;
    ASSERT_TRUE(parseReport(path, &records, &error)) << error;
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].size(), 2u);
    EXPECT_EQ(records[0].at("wall_seconds"), 1.5);
}

// ---------------------------------------------------------------------
// Structural diff
// ---------------------------------------------------------------------

std::vector<std::string>
diffTexts(const std::string &a, const std::string &b, double tolerance)
{
    JsonValue va, vb;
    std::string error;
    EXPECT_TRUE(parseJson(a, &va, &error)) << error;
    EXPECT_TRUE(parseJson(b, &vb, &error)) << error;
    Findings f;
    diffJson("$", va, vb, tolerance, f);
    EXPECT_EQ(f.count, static_cast<int>(f.shown.size()));
    return f.shown;
}

using Msgs = std::vector<std::string>;

TEST(StructuralDiff, IdenticalDocumentsMatch)
{
    std::string doc = R"({"a":[1,{"b":"x"}],"c":null,"d":true})";
    EXPECT_EQ(diffTexts(doc, doc, 0.0), Msgs{});
}

TEST(StructuralDiff, MissingMemberNamesTheSide)
{
    EXPECT_EQ(diffTexts(R"({"a":1,"t":{"b":2}})",
                        R"({"a":1,"t":{"c":3}})", 0.0),
              (Msgs{"$.t.b: missing from candidate",
                    "$.t.c: missing from baseline"}));
}

TEST(StructuralDiff, TypeMismatch)
{
    EXPECT_EQ(diffTexts(R"({"x":1})", R"({"x":"1"})", 0.0),
              Msgs{"$.x: type number in baseline vs string in candidate"});
}

TEST(StructuralDiff, ArrayLengthThenCommonPrefix)
{
    EXPECT_EQ(diffTexts(R"({"r":[1,2,3]})", R"({"r":[1,5]})", 0.0),
              (Msgs{"$.r: array length 3 in baseline vs 2 in candidate",
                    "$.r[1]: 2 vs 5 (rel 1.5 > tol 0)"}));
}

TEST(StructuralDiff, ToleranceIsRelativeAndStrict)
{
    std::string a = R"({"v":1.0})";
    std::string b = R"({"v":1.05})";
    EXPECT_EQ(diffTexts(a, b, 0.1), Msgs{});
    EXPECT_EQ(diffTexts(a, b, 0.01),
              Msgs{"$.v: 1 vs 1.05 (rel 0.05 > tol 0.01)"});
    // A zero baseline compares absolutely.
    EXPECT_EQ(diffTexts(R"([0])", R"([0.5])", 0.0),
              Msgs{"$[0]: 0 vs 0.5 (rel 0.5 > tol 0)"});
}

TEST(StructuralDiff, StringAndBoolLeaves)
{
    EXPECT_EQ(diffTexts(R"(["a",true])", R"(["b",false])", 0.0),
              (Msgs{"$[0]: \"a\" vs \"b\"", "$[1]: true vs false"}));
}

TEST(StructuralDiff, CountsEveryDifferenceButKeepsTheFirst64)
{
    std::string a = "[", b = "[";
    for (int i = 0; i < 100; ++i) {
        a += (i ? ",0" : "0");
        b += (i ? ",1" : "1");
    }
    JsonValue va, vb;
    std::string error;
    ASSERT_TRUE(parseJson(a + "]", &va, &error));
    ASSERT_TRUE(parseJson(b + "]", &vb, &error));
    Findings f;
    diffJson("$", va, vb, 0.0, f);
    EXPECT_EQ(f.count, 100);
    EXPECT_EQ(f.shown.size(), Findings::kMaxShown);
    EXPECT_EQ(f.shown.back(), "$[63]: 0 vs 1 (rel 1 > tol 0)");
}

} // namespace
} // namespace aquoman::tools
