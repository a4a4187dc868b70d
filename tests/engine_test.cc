#include "src/core/engine.h"

#include <atomic>
#include <cstdio>
#include <thread>

#include <gtest/gtest.h>

#include "src/workload/flights.h"
#include "src/workload/tpch.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using namespace tde::expr;  // NOLINT

TEST(Engine, ImportQueryRoundTrip) {
  Engine engine;
  auto t = engine.ImportTextBuffer(
      "city,pop\n"
      "seattle,750000\n"
      "portland,650000\n"
      "spokane,230000\n",
      "cities");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t.value()->rows(), 3u);
  auto r = engine.Execute(Plan::Scan(t.value())
                              .Filter(Gt(Col("pop"), Int(500000))));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 2u);
}

TEST(Engine, SaveAndReopenDatabase) {
  Engine engine;
  auto t = engine.ImportTextBuffer("k,v\n1,a\n2,b\n", "t").MoveValue();
  const std::string path = ::testing::TempDir() + "/engine_test.tde";
  ASSERT_TRUE(engine.SaveDatabase(path).ok());
  auto reopened = Engine::OpenDatabase(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto t2 = reopened.value().database()->GetTable("t").value();
  EXPECT_EQ(t2->rows(), 2u);
  auto r = reopened.value().Execute(
      Plan::Scan(t2).Filter(Eq(Col("k"), Int(2))));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().ValueString(0, 1), "b");
  std::remove(path.c_str());
}

TEST(Engine, TpchLineitemImportEndToEnd) {
  Engine engine;
  ImportOptions opts;
  opts.text.field_separator = '|';
  auto t = engine.ImportTextBuffer(
      GenerateTpchTable(TpchTable::kLineitem, 0.001), "lineitem", opts);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const Table& li = *t.value();
  EXPECT_GT(li.rows(), 1000u);
  EXPECT_EQ(li.num_columns(), 16u);
  // Shipmode has 7 values: dictionary-encoded, sorted heap, 1-byte tokens.
  auto shipmode = li.ColumnByName("l_shipmode").value();
  EXPECT_EQ(shipmode->data()->type(), EncodingType::kDictionary);
  EXPECT_TRUE(shipmode->heap()->sorted());
  EXPECT_EQ(shipmode->TokenWidth(), 1);
  // Quantity is 1..50 -> narrowed to one byte.
  EXPECT_EQ(li.ColumnByName("l_quantity").value()->TokenWidth(), 1);
  // l_orderkey repeats per order and ascends -> sorted metadata.
  EXPECT_TRUE(li.ColumnByName("l_orderkey").value()->metadata().sorted);

  // A Tableau-ish query: returned-flag breakdown of quantities.
  auto r = engine.Execute(
      Plan::Scan(t.value())
          .Aggregate({"l_returnflag"}, {{AggKind::kSum, "l_quantity", "qty"},
                                        {AggKind::kCountStar, "", "n"}}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 3u);
}

TEST(Engine, FlightsImportShapes) {
  Engine engine;
  auto t = engine.ImportTextBuffer(GenerateFlights(20000), "flights");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const Table& fl = *t.value();
  EXPECT_EQ(fl.rows(), 20000u);
  // Dates ascend -> sorted; carrier domain is tiny -> dictionary.
  EXPECT_TRUE(fl.ColumnByName("flight_date").value()->metadata().sorted);
  auto carrier = fl.ColumnByName("carrier").value();
  EXPECT_EQ(carrier->data()->type(), EncodingType::kDictionary);
  EXPECT_TRUE(carrier->metadata().cardinality_known);
  EXPECT_LE(carrier->metadata().cardinality, 20u);
}

TEST(Engine, AlterColumnToDictionaryOnDictEncodedScalars) {
  Engine engine;
  // Dates with a small domain, out of order.
  std::string csv = "d\n";
  const char* dates[] = {"2001-03-15", "2001-01-02", "2001-02-10"};
  for (int i = 0; i < 900; ++i) csv += std::string(dates[i % 3]) + "\n";
  auto t = engine.ImportTextBuffer(csv, "dates").MoveValue();
  auto col = t->ColumnByName("d").value();
  ASSERT_EQ(col->data()->type(), EncodingType::kDictionary);

  ASSERT_TRUE(AlterColumnToDictionary(col.get()).ok());
  EXPECT_EQ(col->compression(), CompressionKind::kArrayDict);
  ASSERT_NE(col->array_dict(), nullptr);
  EXPECT_TRUE(col->array_dict()->sorted);
  EXPECT_EQ(col->array_dict()->values.size(), 3u);
  EXPECT_EQ(col->TokenWidth(), 1);

  // Scanning decodes through the dictionary.
  auto r = engine.Execute(Plan::Scan(t).Aggregate(
      {"d"}, {{AggKind::kCountStar, "", "n"}}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 3u);
}

TEST(Engine, AlterColumnRleRoute) {
  Engine engine;
  std::string csv = "v\n";
  for (int run = 0; run < 200; ++run) {
    for (int i = 0; i < 300; ++i) {
      csv += std::to_string(run % 7 * 1000) + "\n";
    }
  }
  auto t = engine.ImportTextBuffer(csv, "runs").MoveValue();
  auto col = t->ColumnByName("v").value();
  ASSERT_EQ(col->data()->type(), EncodingType::kRunLength);
  ASSERT_TRUE(AlterColumnToDictionary(col.get()).ok());
  // Scalar dictionary compression with an RLE token stream (Sect. 3.4.3).
  EXPECT_EQ(col->compression(), CompressionKind::kArrayDict);
  EXPECT_EQ(col->data()->type(), EncodingType::kRunLength);
  EXPECT_EQ(col->array_dict()->values.size(), 7u);
  std::vector<Lane> lanes(10);
  ASSERT_TRUE(col->GetLanes(0, 10, lanes.data()).ok());
  EXPECT_EQ(col->array_dict()->values[static_cast<size_t>(lanes[0])], 0);
}

TEST(Engine, InvisibleJoinEndToEndThroughOptimizer) {
  Engine engine;
  std::string csv = "region,sales\n";
  const char* regions[] = {"west", "east", "north", "south"};
  for (int i = 0; i < 2000; ++i) {
    csv += std::string(regions[i % 4]) + "," + std::to_string(i) + "\n";
  }
  auto t = engine.ImportTextBuffer(csv, "sales").MoveValue();
  auto r = engine.Execute(
      Plan::Scan(t)
          .Filter(Eq(Col("region"), Str("west")))
          .Aggregate({}, {{AggKind::kCountStar, "", "n"},
                          {AggKind::kSum, "sales", "total"}}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), 500);
  int64_t expect = 0;
  for (int i = 0; i < 2000; i += 4) expect += i;
  EXPECT_EQ(r.value().Value(0, 1), expect);
}

TEST(Engine, CountDistinctAndMedianSupplementTableau) {
  Engine engine;
  auto t = engine
               .ImportTextBuffer(
                   "g,v\n1,5\n1,5\n1,9\n2,1\n2,2\n2,3\n2,4\n", "t")
               .MoveValue();
  auto r = engine.Execute(Plan::Scan(t).Aggregate(
      {"g"}, {{AggKind::kCountDistinct, "v", "cd"},
              {AggKind::kMedian, "v", "med"}}));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_EQ(r.value().Value(0, 1), 2);  // distinct {5, 9}
  EXPECT_EQ(r.value().Value(0, 2), 5);
  EXPECT_EQ(r.value().Value(1, 1), 4);
  EXPECT_EQ(r.value().Value(1, 2), 2);  // lower median of 1,2,3,4
}

TEST(Engine, AlterColumnForRoute) {
  Engine engine;
  // Values in a narrow window with > 2^15 rows of repeats: FoR-encoded.
  std::string csv = "v\n";
  for (int i = 0; i < 3000; ++i) csv += std::to_string(500 + i * 7 % 90) + "\n";
  auto t = engine.ImportTextBuffer(csv, "t").MoveValue();
  auto col = t->ColumnByName("v").value();
  ASSERT_EQ(col->data()->type(), EncodingType::kFrameOfReference);
  ASSERT_TRUE(AlterColumnToDictionary(col.get()).ok());
  EXPECT_EQ(col->compression(), CompressionKind::kArrayDict);
  EXPECT_TRUE(col->array_dict()->sorted);
  // The envelope dictionary may hold absent values (the paper's caveat).
  EXPECT_GE(col->array_dict()->values.size(), 90u);
  std::vector<Lane> lanes(3);
  ASSERT_TRUE(col->GetLanes(0, 3, lanes.data()).ok());
  EXPECT_EQ(col->array_dict()->values[static_cast<size_t>(lanes[0])], 500);
}

TEST(Engine, AttachAndRefreshExternalFile) {
  const std::string path = ::testing::TempDir() + "/tde_attach.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("v\n1\n2\n3\n", f);
    std::fclose(f);
  }
  Engine engine;
  auto t = engine.AttachTextFile(path, "ext");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t.value()->rows(), 3u);

  // No change -> nothing rebuilt.
  auto n = engine.RefreshChanged();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);

  // Grow the file -> rebuilt on refresh (Sect. 8).
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("4\n5\n", f);
    std::fclose(f);
  }
  n = engine.RefreshChanged();
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 1);
  auto t2 = engine.database()->GetTable("ext").value();
  EXPECT_EQ(t2->rows(), 5u);
  std::remove(path.c_str());
}

TEST(Engine, InvisibleJoinOverScalarDictionaryBecomesFetchJoin) {
  // The full Sect. 4.1.2 story through the optimizer: a date column is
  // dictionary compressed (AlterColumn), a range predicate filters the
  // DictionaryTable to a dense token range, FlowTable reasserts density
  // and the join runs as a fetch join.
  Engine engine;
  std::string csv = "d,v\n";
  const int64_t start = DaysFromCivil(2019, 1, 1);
  for (int i = 0; i < 40000; ++i) {
    csv += FormatLane(TypeId::kDate, start + i / 200) + "," +
           std::to_string(i % 97) + "\n";
  }
  auto t = engine.ImportTextBuffer(csv, "events").MoveValue();
  auto col = t->ColumnByName("d").value();
  ASSERT_TRUE(AlterColumnToDictionary(col.get()).ok());
  ASSERT_EQ(col->compression(), CompressionKind::kArrayDict);

  auto make_plan = [&t] {
    return Plan::Scan(t)
        .Filter(And(Ge(Col("d"), Date(2019, 3, 1)),
                    Lt(Col("d"), Date(2019, 4, 1))))
        .Aggregate({}, {{AggKind::kCountStar, "", "n"},
                        {AggKind::kSum, "v", "s"}});
  };
  auto plan = make_plan();
  auto explain = ExplainPlan(plan);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain.value().find("InvisibleJoin(d)"), std::string::npos)
      << explain.value();
  EXPECT_NE(explain.value().find("fetch"), std::string::npos)
      << explain.value();

  auto rewritten = engine.Execute(plan).MoveValue();
  // The control runs on a plan no earlier call has seen, so it is the
  // unrewritten filter the switch leaves in place.
  StrategicOptions off;
  off.enable_invisible_join = false;
  auto control = engine.Execute(make_plan(), off).MoveValue();
  EXPECT_EQ(rewritten.Value(0, 0), control.Value(0, 0));
  EXPECT_EQ(rewritten.Value(0, 1), control.Value(0, 1));
  EXPECT_EQ(rewritten.Value(0, 0), 31 * 200);  // March days x 200 rows
}

TEST(Engine, OptimizeTableConvertsScalarDimensions) {
  Engine engine;
  // A dimension-shaped date column (small domain, many rows), a measure
  // (wide domain) and a string column.
  std::string csv = "d,measure,tag\n";
  const int64_t start = DaysFromCivil(2021, 1, 1);
  for (int i = 0; i < 30000; ++i) {
    csv += FormatLane(TypeId::kDate, start + i % 30) + "," +
           std::to_string(i * 7) + ",t" + std::to_string(i % 5) + "\n";
  }
  auto t = engine.ImportTextBuffer(csv, "dims").MoveValue();
  auto n = engine.OptimizeTable("dims");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_GE(n.value(), 1);
  // The date became dictionary compressed; the measure did not; the
  // string column keeps its heap compression.
  EXPECT_EQ(t->ColumnByName("d").value()->compression(),
            CompressionKind::kArrayDict);
  EXPECT_EQ(t->ColumnByName("measure").value()->compression(),
            CompressionKind::kNone);
  EXPECT_EQ(t->ColumnByName("tag").value()->compression(),
            CompressionKind::kHeap);
  // Queries still answer correctly, now through invisible joins.
  auto r = engine.ExecuteSql(
      "SELECT COUNT(*) AS n FROM dims WHERE d = DATE '2021-01-05'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), 1000);
  EXPECT_EQ(engine.OptimizeTable("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(Engine, NullSentinelsJoinLikeValues) {
  // Tableau's NULL join semantics (Sect. 2.3): NULL keys match NULL keys —
  // a natural consequence of the sentinel representation.
  Engine engine;
  auto dim = engine.ImportTextBuffer("k,name\n,missing\n1,one\n", "dim")
                 .MoveValue();
  ASSERT_TRUE(dim->ColumnByName("k").value()->metadata().has_nulls);
  auto fact =
      engine.ImportTextBuffer("k,v\n1,10\n,20\n1,30\n", "facts").MoveValue();
  HashJoinOptions join;
  join.outer_key = "k";
  join.inner_key = "k";
  join.inner_payload = {"name"};
  auto r = engine.Execute(Plan::Scan(fact).Join(dim, join)).MoveValue();
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.ValueString(1, 2), "missing");  // NULL joined to NULL
}

TEST(Engine, SortedImportImprovesEncoding) {
  // Dates arriving shuffled: without sorting the column cannot run-length
  // encode; sorting on import restores the runs (Sect. 5.2).
  std::string csv = "d\n";
  const int64_t start = DaysFromCivil(2015, 1, 1);
  for (int i = 0; i < 20000; ++i) {
    csv += FormatLane(TypeId::kDate, start + (i * 7919) % 60) + "\n";
  }
  Engine engine;
  auto unsorted = engine.ImportTextBuffer(csv, "unsorted").MoveValue();
  ImportOptions opts;
  opts.sort_by = {{"d", true}};
  auto sorted = engine.ImportTextBuffer(csv, "sorted", opts).MoveValue();
  auto uc = unsorted->ColumnByName("d").value();
  auto sc = sorted->ColumnByName("d").value();
  EXPECT_TRUE(sc->metadata().sorted);
  EXPECT_FALSE(uc->metadata().sorted);
  EXPECT_EQ(sc->data()->type(), EncodingType::kRunLength);
  EXPECT_LT(sc->PhysicalSize() * 4, uc->PhysicalSize());
}

TEST(Engine, ExplainReportsRewritesAndTactics) {
  Engine engine;
  std::string csv = "region,sales\n";
  const char* regions[] = {"west", "east", "north", "south"};
  for (int i = 0; i < 2000; ++i) {
    csv += std::string(regions[i % 4]) + "," + std::to_string(i % 100) + "\n";
  }
  auto t = engine.ImportTextBuffer(csv, "sales").MoveValue();
  auto explain = ExplainPlan(
      Plan::Scan(t)
          .Filter(Eq(Col("region"), Str("west")))
          .Aggregate({"sales"}, {{AggKind::kCountStar, "", "n"}}));
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  const std::string& s = explain.value();
  EXPECT_NE(s.find("InvisibleJoin"), std::string::npos) << s;
  EXPECT_NE(s.find("invisible join(region)"), std::string::npos) << s;
  EXPECT_NE(s.find("aggregate(sales)"), std::string::npos) << s;
}

TEST(Engine, QueryResultToCsv) {
  Engine engine;
  auto t = engine.ImportTextBuffer("name|n\nplain|1\na,b|2\n", "t",
                                   {{.field_separator = '|'}, {}, {}})
               .MoveValue();
  auto r = engine.Execute(Plan::Scan(t)).MoveValue();
  // Strings containing separators are quoted on export.
  EXPECT_EQ(r.ToCsv(), "name,n\nplain,1\n\"a,b\",2\n");
}

TEST(Engine, QueriesSurviveSaveAndReload) {
  // The single-file copy must preserve everything queries depend on:
  // encodings, heaps, dictionaries and metadata (tactical choices).
  Engine engine;
  ImportOptions opts;
  opts.text.field_separator = '|';
  auto t = engine
               .ImportTextBuffer(
                   GenerateTpchTable(TpchTable::kLineitem, 0.001),
                   "lineitem", opts)
               .MoveValue();
  const std::string q =
      "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty "
      "FROM lineitem WHERE l_shipmode IN ('MAIL', 'SHIP') "
      "GROUP BY l_returnflag ORDER BY l_returnflag";
  auto before = engine.ExecuteSql(q).MoveValue();

  const std::string path = ::testing::TempDir() + "/reload.tde";
  ASSERT_TRUE(engine.SaveDatabase(path).ok());
  auto reopened = Engine::OpenDatabase(path).MoveValue();
  auto after = reopened.ExecuteSql(q).MoveValue();
  std::remove(path.c_str());

  ASSERT_EQ(before.num_rows(), after.num_rows());
  for (uint64_t r = 0; r < before.num_rows(); ++r) {
    EXPECT_EQ(before.ValueString(r, 0), after.ValueString(r, 0));
    EXPECT_EQ(before.Value(r, 1), after.Value(r, 1));
    EXPECT_EQ(before.Value(r, 2), after.Value(r, 2));
  }
  // Reloaded columns keep their metadata (min/max, sortedness, heaps).
  auto col = reopened.database()->GetTable("lineitem").value()
                 ->ColumnByName("l_shipmode").value();
  EXPECT_TRUE(col->heap()->sorted());
  EXPECT_TRUE(col->metadata().cardinality_known);
}

// Regression: ReplaceTable while queries run. Readers resolve the table to
// a shared_ptr snapshot, so a concurrent swap must never crash them, and
// every answer must be consistent with one full version of the table —
// SUM(v) is either 1*N or 2*N, never a mix.
TEST(Engine, ReplaceTableWhileQueriesRun) {
  constexpr int kRows = 512;
  constexpr int kSwaps = 40;
  auto build = [&](int value) {
    std::string csv = "v\n";
    for (int i = 0; i < kRows; ++i) csv += std::to_string(value) + "\n";
    return csv;
  };

  Engine engine;
  ASSERT_TRUE(engine.ImportTextBuffer(build(1), "t").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto res = engine.ExecuteSql("SELECT SUM(v) AS s FROM t");
        if (!res.ok()) {
          ++bad;
          continue;
        }
        const Lane s = res.value().Value(0, 0);
        if (s != 1 * kRows && s != 2 * kRows) ++bad;
      }
    });
  }

  // Swap between the two versions; each replacement goes through a fresh
  // import so the new table is fully built before it enters the catalog.
  for (int i = 0; i < kSwaps; ++i) {
    Engine staging;
    auto t = staging.ImportTextBuffer(build(1 + i % 2), "t");
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_TRUE(engine.database()->ReplaceTable(t.value()).ok());
  }
  stop = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0);

  // The final state answers from the last version swapped in.
  auto res = engine.ExecuteSql("SELECT SUM(v) AS s FROM t");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().Value(0, 0),
            static_cast<Lane>((1 + (kSwaps - 1) % 2) * kRows));
}

TEST(Workload, TpchGeneratorDeterministic) {
  EXPECT_EQ(GenerateTpchTable(TpchTable::kNation, 1),
            GenerateTpchTable(TpchTable::kNation, 1));
}

}  // namespace
}  // namespace tde
