#include "src/plan/plan.h"

#include <map>

#include <gtest/gtest.h>

#include "src/exec/instrument.h"
#include "src/plan/executor.h"
#include "src/plan/strategic.h"
#include "src/workload/rle_data.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using testutil::VectorSource;
using namespace tde::expr;  // NOLINT

std::shared_ptr<Table> ColorTable() {
  auto src = VectorSource::Ints({{"id", {0, 1, 2, 3, 4, 5}},
                                 {"qty", {10, 20, 30, 40, 50, 60}}});
  src->AddStringColumn("color",
                       {"red", "blue", "red", "green", "blue", "red"});
  return FlowTable::Build(std::move(src)).MoveValue();
}

TEST(Strategic, InvisibleJoinRewriteFires) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t).Filter(Eq(Col("color"), Str("red")));
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kInvisibleJoin);
  EXPECT_EQ(optimized->dict_column, "color");
}

TEST(Strategic, InvisibleJoinDisabledLeavesFilter) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t).Filter(Eq(Col("color"), Str("red")));
  StrategicOptions opts;
  opts.enable_invisible_join = false;
  auto optimized = StrategicOptimize(plan.root(), opts).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kFilter);
}

TEST(Strategic, NoRewriteForMultiColumnPredicate) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t).Filter(
      And(Eq(Col("color"), Str("red")), Gt(Col("qty"), Int(10))));
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kFilter);
}

TEST(Strategic, RankJoinRewriteFires) {
  auto t = MakeRleTable(100000).MoveValue();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("primary"), Int(90)))
                  .Aggregate({"primary"},
                             {{AggKind::kMax, "secondary", "m"}});
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  ASSERT_EQ(optimized->kind, PlanNodeKind::kAggregate);
  EXPECT_EQ(optimized->children[0]->kind, PlanNodeKind::kIndexedScan);
  EXPECT_EQ(optimized->children[0]->index_column, "primary");
  EXPECT_EQ(optimized->children[0]->payload,
            (std::vector<std::string>{"secondary"}));
}

TEST(Strategic, RankJoinRequiresRleColumn) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("qty"), Int(20)))
                  .Aggregate({"qty"}, {{AggKind::kCountStar, "", "n"}});
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kAggregate);
  EXPECT_EQ(optimized->children[0]->kind, PlanNodeKind::kFilter);
}

TEST(Strategic, ExchangeUnderMaterializeForcedOrdered) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("qty"), Int(0)))
                  .ExchangeBy(4, /*order_preserving=*/false)
                  .Materialize();
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  ASSERT_EQ(optimized->kind, PlanNodeKind::kMaterialize);
  const PlanNodePtr& ex = optimized->children[0];
  ASSERT_EQ(ex->kind, PlanNodeKind::kExchange);
  EXPECT_TRUE(ex->order_preserving);
}

TEST(Strategic, ExchangeWithoutEncoderStaysUnordered) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("qty"), Int(0)))
                  .ExchangeBy(4, /*order_preserving=*/false);
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  EXPECT_FALSE(optimized->order_preserving);
}

TEST(Executor, InvisibleJoinPlanMatchesControl) {
  auto t = ColorTable();
  const auto pred = Eq(Col("color"), Str("red"));
  // Control: no rewrites.
  StrategicOptions off;
  off.enable_invisible_join = false;
  auto control = ExecutePlanNode(
      StrategicOptimize(Plan::Scan(t).Filter(pred).root(), off).MoveValue());
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  auto rewritten = ExecutePlanNode(
      StrategicOptimize(Plan::Scan(t).Filter(pred).root()).MoveValue());
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(control.value().num_rows(), 3u);
  EXPECT_EQ(rewritten.value().num_rows(), 3u);
  // Same ids survive (column order may differ; locate by name).
  const auto id_col = [](const QueryResult& r) {
    for (size_t i = 0; i < r.schema().num_fields(); ++i) {
      if (r.schema().field(i).name == "id") return i;
    }
    return size_t{999};
  };
  for (uint64_t row = 0; row < 3; ++row) {
    EXPECT_EQ(control.value().Value(row, id_col(control.value())),
              rewritten.value().Value(row, id_col(rewritten.value())));
  }
}

TEST(Executor, ExplainAndExecuteLeaveTheCallersPlanUnchanged) {
  // The strategic optimizer rewrites nodes in place; the public entry
  // points must optimize a copy, so a plan can be re-run under any mode.
  auto t = ColorTable();
  auto plan = Plan::Scan(t)
                  .Filter(Eq(Col("color"), Str("red")))
                  .Aggregate({}, {{AggKind::kSum, "qty", "s"}});
  const std::string before = PlanToString(plan.root());
  ASSERT_EQ(plan.root()->children[0]->kind, PlanNodeKind::kFilter);

  auto explain = ExplainPlan(plan);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain.value().find("InvisibleJoin(color)"), std::string::npos)
      << explain.value();
  EXPECT_EQ(PlanToString(plan.root()), before);
  EXPECT_EQ(plan.root()->children[0]->kind, PlanNodeKind::kFilter);

  auto run = ExecutePlan(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().Value(0, 0), 10 + 30 + 60);
  EXPECT_EQ(PlanToString(plan.root()), before);
  EXPECT_EQ(plan.root()->children[0]->kind, PlanNodeKind::kFilter);
}

TEST(Executor, RankJoinPlanMatchesControl) {
  auto t = MakeRleTable(300000).MoveValue();
  auto make_plan = [&]() {
    return Plan::Scan(t)
        .Filter(Ge(Col("primary"), Int(95)))
        .Aggregate({"primary"}, {{AggKind::kMax, "secondary", "m"},
                                 {AggKind::kCountStar, "", "n"}});
  };
  StrategicOptions off;
  off.enable_rank_join = false;
  off.enable_invisible_join = false;
  auto control = ExecutePlanNode(
      StrategicOptimize(make_plan().root(), off).MoveValue());
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  auto indexed =
      ExecutePlanNode(StrategicOptimize(make_plan().root()).MoveValue());
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();

  ASSERT_EQ(control.value().num_rows(), 5u);
  ASSERT_EQ(indexed.value().num_rows(), 5u);
  // Both report groups 95..99; compare as maps (order may differ).
  std::map<Lane, std::pair<Lane, Lane>> c, x;
  for (uint64_t r = 0; r < 5; ++r) {
    c[control.value().Value(r, 0)] = {control.value().Value(r, 1),
                                      control.value().Value(r, 2)};
    x[indexed.value().Value(r, 0)] = {indexed.value().Value(r, 1),
                                      indexed.value().Value(r, 2)};
  }
  EXPECT_EQ(c, x);
}

TEST(Executor, ProjectAggregateSortPipeline) {
  auto t = ColorTable();
  auto result = ExecutePlan(
      Plan::Scan(t)
          .Project({{Col("qty"), "qty"},
                    {Arith(ArithOp::kMod, Col("id"), Int(2)), "parity"}})
          .Aggregate({"parity"}, {{AggKind::kSum, "qty", "total"}})
          .OrderBy({{"parity", true}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), 2u);
  EXPECT_EQ(result.value().Value(0, 0), 0);
  EXPECT_EQ(result.value().Value(0, 1), 10 + 30 + 50);
  EXPECT_EQ(result.value().Value(1, 1), 20 + 40 + 60);
}

TEST(Executor, JoinTablePlan) {
  auto dim_src = VectorSource::Ints({{"k", {0, 1, 2}}});
  dim_src->AddStringColumn("name", {"zero", "one", "two"});
  auto dim = FlowTable::Build(std::move(dim_src)).MoveValue();
  auto fact = FlowTable::Build(VectorSource::Ints(
                                   {{"k", {2, 2, 0, 1}}, {"v", {1, 2, 3, 4}}}))
                  .MoveValue();
  HashJoinOptions join;
  join.outer_key = "k";
  join.inner_key = "k";
  join.inner_payload = {"name"};
  auto result = ExecutePlan(Plan::Scan(fact).Join(dim, join));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows(), 4u);
  EXPECT_EQ(result.value().ValueString(0, 2), "two");
  EXPECT_EQ(result.value().ValueString(2, 2), "zero");
}

TEST(Executor, TacticalHashChoiceFlowsFromMetadata) {
  // Narrow key column -> the aggregation should get a direct hash.
  std::vector<Lane> keys(5000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<Lane>(i % 7);
  auto t = FlowTable::Build(VectorSource::Ints({{"k", keys}})).MoveValue();
  ASSERT_EQ(t->ColumnByName("k").value()->TokenWidth(), 1);
  auto built = BuildExecutable(
      StrategicOptimize(
          Plan::Scan(t)
              .Aggregate({"k"}, {{AggKind::kCountStar, "", "n"}})
              .root())
          .MoveValue());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto* agg = dynamic_cast<HashAggregate*>(Unwrap(built.value().op.get()));
  ASSERT_NE(agg, nullptr);
  std::vector<Block> blocks;
  ASSERT_TRUE(DrainOperator(agg, &blocks).ok());
  EXPECT_EQ(agg->algorithm_used(), HashAlgorithm::kDirect);
}

TEST(Plan, ToStringRendersTree) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("qty"), Int(5)))
                  .Aggregate({"color"}, {{AggKind::kCountStar, "", "n"}});
  const std::string s = PlanToString(plan.root());
  EXPECT_NE(s.find("Aggregate"), std::string::npos);
  EXPECT_NE(s.find("Filter"), std::string::npos);
  EXPECT_NE(s.find("Scan(flow)"), std::string::npos);
}

}  // namespace
}  // namespace tde
