#include "src/plan/executor.h"

#include <algorithm>
#include <chrono>

#include "src/exec/compressed_predicate.h"
#include "src/exec/dictionary_table.h"
#include "src/exec/filter.h"
#include "src/exec/instrument.h"
#include "src/exec/limit.h"
#include "src/exec/ordered_aggregate.h"
#include "src/exec/parallel_rollup.h"
#include "src/exec/scheduler.h"
#include "src/exec/table_scan.h"
#include "src/exec/topn.h"
#include "src/observe/journal.h"
#include "src/observe/metrics.h"
#include "src/observe/trace.h"
#include "src/plan/strategic.h"

namespace tde {

namespace {

ColumnProps PropsOf(const Column& col) {
  ColumnProps p;
  p.meta = col.metadata();
  p.width = col.TokenWidth();
  return p;
}

/// Wraps the built plan's operator in the instrumentation layer: a stats
/// node named `name` with the given children (the stats nodes of the
/// operator's lowered inputs), recorded into by an Instrumented wrapper.
/// No-op when stats collection is disabled.
void Attach(BuiltPlan* out, std::string name,
            std::vector<std::shared_ptr<observe::OperatorStats>> children,
            std::function<void(observe::OperatorStats*)> on_close = {}) {
  if (!observe::StatsEnabled()) return;
  auto node = std::make_shared<observe::OperatorStats>();
  node->name = std::move(name);
  for (auto& c : children) {
    if (c != nullptr) node->children.push_back(std::move(c));
  }
  out->op = std::make_unique<Instrumented>(std::move(out->op), node,
                                           std::move(on_close));
  out->stats = std::move(node);
}

/// Fills `out->props` with the column properties a scan of `node` exposes.
Status ScanProps(const PlanNode& node, BuiltPlan* out) {
  if (node.columns.empty()) {
    for (size_t i = 0; i < node.table->num_columns(); ++i) {
      const Column& c = node.table->column(i);
      out->props[c.name()] = PropsOf(c);
    }
  } else {
    for (const std::string& n : node.columns) {
      TDE_ASSIGN_OR_RETURN(auto c, node.table->ColumnByName(n));
      out->props[n] = PropsOf(*c);
    }
  }
  for (const std::string& n : node.token_columns) {
    TDE_ASSIGN_OR_RETURN(auto c, node.table->ColumnByName(n));
    out->props[n + "$token"] = PropsOf(*c);
  }
  return Status::OK();
}

/// Segment boundaries of the first multi-segment column the scan reads, as
/// row ranges. Any consistent partition of the row space is correct for
/// parallel scans; aligning with one column's segments keeps that column's
/// blob faults partition-local. Empty when every scanned column is
/// monolithic.
std::vector<RowRange> SegmentAlignedRanges(const PlanNode& node) {
  std::vector<std::string> names = node.columns;
  if (names.empty()) {
    for (size_t i = 0; i < node.table->num_columns(); ++i) {
      names.push_back(node.table->column(i).name());
    }
  }
  for (const std::string& n : names) {
    auto c = node.table->ColumnByName(n);
    if (!c.ok()) continue;
    const std::vector<SegmentShape> shapes = c.value()->SegmentShapes();
    if (shapes.size() <= 1) continue;
    std::vector<RowRange> out;
    out.reserve(shapes.size());
    for (const SegmentShape& s : shapes) {
      out.push_back({s.start_row, s.start_row + s.rows});
    }
    return out;
  }
  return {};
}

Result<BuiltPlan> BuildScan(const PlanNode& node,
                            const SegmentPruneResult* prune = nullptr) {
  TableScanOptions opts;
  opts.columns = node.columns;
  opts.token_columns = node.token_columns;
  opts.code_columns = node.code_columns;
  if (prune != nullptr && prune->segments_pruned > 0) {
    opts.ranges = prune->ranges;
  }
  BuiltPlan out;
  out.op = std::make_unique<TableScan>(node.table, std::move(opts));
  TDE_RETURN_NOT_OK(ScanProps(node, &out));
  for (const std::string& n : node.code_columns) {
    out.notes.push_back("scan(" + n + "): dictionary codes (group key)");
  }
  std::function<void(observe::OperatorStats*)> on_close;
  if (prune != nullptr && prune->segments_pruned > 0) {
    out.notes.push_back("scan: " + std::to_string(prune->segments_pruned) +
                        " segment(s) zone-map pruned (" +
                        std::to_string(prune->rows_pruned) +
                        " rows skipped)");
    observe::QueryCount(observe::QueryCounter::kSegmentsPruned,
                        prune->segments_pruned);
    observe::QueryCount(observe::QueryCounter::kRowsPruned,
                        prune->rows_pruned);
    const uint64_t segs = prune->segments_pruned;
    const uint64_t rows = prune->rows_pruned;
    on_close = [segs, rows](observe::OperatorStats* s) {
      s->extras.emplace_back("segments_pruned", segs);
      s->extras.emplace_back("rows_pruned", rows);
    };
  }
  Attach(&out, "TableScan(" + node.table->name() + ")", {},
         std::move(on_close));
  return out;
}

/// Rewrites eligible string-column subtrees of `pred` into dictionary-code
/// predicates against `schema`, recording the rewrite count in metrics and
/// `notes`. Returns `pred` unchanged when the plan opted out.
ExprPtr LowerPredicate(const ExprPtr& pred, bool compressed_eval,
                       const Schema& schema, std::vector<std::string>* notes,
                       int* rewrites) {
  *rewrites = 0;
  if (!compressed_eval || pred == nullptr) return pred;
  ExprPtr lowered = expr::RewriteDictPredicates(pred, schema, rewrites);
  if (*rewrites > 0) {
    notes->push_back("filter: " + std::to_string(*rewrites) +
                     " dictionary-code predicate(s)");
    observe::QueryCount(observe::QueryCounter::kDictRewrites,
                        static_cast<uint64_t>(*rewrites));
  }
  return lowered;
}

Result<BuiltPlan> BuildFilter(const PlanNode& node, BuiltPlan child) {
  BuiltPlan out;
  out.notes = std::move(child.notes);
  int dict_rewrites = 0;
  ExprPtr pred =
      LowerPredicate(node.predicate, node.compressed_eval,
                     child.op->output_schema(), &out.notes, &dict_rewrites);
  out.op = std::make_unique<Filter>(std::move(child.op), std::move(pred));
  // Filtering keeps value bounds and order but can destroy density
  // (Sect. 3.4.2: "the filter will remove an existing dense attribute").
  out.props = std::move(child.props);
  for (auto& [name, p] : out.props) p.meta.dense = false;
  out.grouped_on = child.grouped_on;
  std::function<void(observe::OperatorStats*)> on_close;
  if (dict_rewrites > 0) {
    on_close = [dict_rewrites](observe::OperatorStats* s) {
      s->extras.emplace_back("dict_rewrites",
                             static_cast<uint64_t>(dict_rewrites));
    };
  }
  Attach(&out, "Filter", {std::move(child.stats)}, std::move(on_close));
  return out;
}

Result<BuiltPlan> BuildProject(const PlanNode& node, BuiltPlan child) {
  BuiltPlan out;
  out.notes = std::move(child.notes);
  for (const ProjectedColumn& pc : node.projections) {
    if (const std::string* ref = pc.expr->AsColumnRef()) {
      auto it = child.props.find(*ref);
      if (it != child.props.end()) out.props[pc.name] = it->second;
      if (child.grouped_on == *ref) out.grouped_on = pc.name;
    }
  }
  out.op = std::make_unique<Project>(std::move(child.op), node.projections);
  Attach(&out, "Project", {std::move(child.stats)});
  return out;
}

Result<BuiltPlan> BuildAggregate(const PlanNode& node, BuiltPlan child) {
  AggregateOptions agg = node.agg;
  agg.dict_code_keys = node.agg.dict_code_keys && node.compressed_agg;
  BuiltPlan out;
  out.notes = std::move(child.notes);
  // Dictionary-code grouping engages per string key (the operator decides
  // against the key's heap at run time); note it when a key is eligible.
  bool dict_keys = false;
  if (agg.dict_code_keys) {
    const Schema& in = child.op->output_schema();
    for (const std::string& k : agg.group_by) {
      auto idx = in.FieldIndex(k);
      if (idx.ok() && in.field(idx.value()).type == TypeId::kString) {
        dict_keys = true;
      }
    }
  }
  const bool ordered =
      !node.force_hash_agg &&
      (node.grouped_input ||
       (agg.group_by.size() == 1 && child.grouped_on == agg.group_by[0]));
  HashAggregate* hash_raw = nullptr;
  OrderedAggregate* ordered_raw = nullptr;
  if (ordered) {
    if (!agg.group_by.empty()) {
      out.notes.push_back("aggregate(" + agg.group_by[0] +
                          "): ordered (grouped input)");
    }
    auto op =
        std::make_unique<OrderedAggregate>(std::move(child.op), std::move(agg));
    ordered_raw = op.get();
    out.op = std::move(op);
  } else {
    if (agg.group_by.size() == 1 && !agg.hash_algorithm.has_value()) {
      auto it = child.props.find(agg.group_by[0]);
      if (it != child.props.end()) {
        const GroupingChoice gc = ChooseGrouping(it->second);
        agg.hash_algorithm = gc.algorithm;
        agg.key_min = gc.key_min;
        agg.key_max = gc.key_max;
      }
    }
    if (!agg.group_by.empty()) {
      out.notes.push_back(
          "aggregate(" + agg.group_by[0] + "): " +
          (dict_keys && agg.group_by.size() == 1
               ? std::string("dictionary codes (direct, late "
                             "materialization)")
               : HashAlgorithmName(
                     agg.hash_algorithm.value_or(HashAlgorithm::kCollision)) +
                     std::string(" hash")));
    }
    auto op =
        std::make_unique<HashAggregate>(std::move(child.op), std::move(agg));
    hash_raw = op.get();
    out.op = std::move(op);
  }
  for (const std::string& k : node.agg.group_by) {
    auto it = child.props.find(k);
    if (it != child.props.end()) out.props[k] = it->second;
  }
  std::function<void(observe::OperatorStats*)> on_close;
  if (dict_keys) {
    // The wrapper's Close runs after the aggregate's pipeline finishes, so
    // the group count is final here.
    on_close = [hash_raw, ordered_raw](observe::OperatorStats* s) {
      const uint64_t groups = hash_raw != nullptr
                                  ? hash_raw->groups_late_materialized()
                                  : ordered_raw->groups_late_materialized();
      if (groups == 0) return;
      s->extras.emplace_back("groups_late_materialized", groups);
      observe::QueryCount(observe::QueryCounter::kGroupsLateMaterialized,
                          groups);
    };
  }
  const std::string key =
      node.agg.group_by.empty() ? "" : "(" + node.agg.group_by[0] + ")";
  Attach(&out,
         (ordered ? "OrderedAggregate" : "HashAggregate") + key,
         {std::move(child.stats)}, std::move(on_close));
  return out;
}

/// Emits the one answer row of a metadata-answered whole-table aggregate
/// (TryMetadataAggregate). No scan ever opens — the answers were computed
/// from directory facts at strategic time.
class MetadataAggregateSource : public Operator {
 public:
  MetadataAggregateSource(Schema schema, std::vector<Lane> row)
      : schema_(std::move(schema)), row_(std::move(row)) {}

  Status Open() override {
    done_ = false;
    return Status::OK();
  }

  Status Next(Block* block, bool* eos) override {
    block->columns.clear();
    if (done_) {
      *eos = true;
      return Status::OK();
    }
    for (size_t i = 0; i < row_.size(); ++i) {
      ColumnVector cv;
      cv.type = schema_.field(i).type;
      cv.lanes.push_back(row_[i]);
      block->columns.push_back(std::move(cv));
    }
    done_ = true;
    *eos = false;
    return Status::OK();
  }

  const Schema& output_schema() const override { return schema_; }

 private:
  Schema schema_;
  std::vector<Lane> row_;
  bool done_ = false;
};

Result<BuiltPlan> BuildMetadataAggregate(const PlanNode& node) {
  const PlanNode& scan = *node.children[0];
  Schema schema;
  for (const AggSpec& a : node.agg.aggs) {
    TypeId input_type = TypeId::kInteger;
    if (a.kind != AggKind::kCountStar) {
      TDE_ASSIGN_OR_RETURN(auto c, scan.table->ColumnByName(a.input));
      input_type = c->type();
    }
    schema.AddField({a.output, agg_internal::OutputType(a.kind, input_type)});
  }
  BuiltPlan out;
  out.notes.push_back("aggregate: " + std::to_string(node.metadata_row.size()) +
                      " aggregate(s) answered from metadata, scan elided");
  observe::QueryCount(observe::QueryCounter::kMetadataAnswers,
                      node.metadata_row.size());
  const uint64_t answers = node.metadata_row.size();
  out.op = std::make_unique<MetadataAggregateSource>(std::move(schema),
                                                     node.metadata_row);
  Attach(&out, "MetadataAggregate(" + scan.table->name() + ")", {},
         [answers](observe::OperatorStats* s) {
           s->extras.emplace_back("metadata_answers", answers);
         });
  return out;
}

Result<BuiltPlan> BuildRunFoldAggregate(const PlanNode& node) {
  const PlanNode& isnode = *node.children[0];
  TDE_ASSIGN_OR_RETURN(auto col,
                       isnode.table->ColumnByName(isnode.index_column));
  TDE_ASSIGN_OR_RETURN(std::vector<IndexEntry> index, BuildIndexTable(*col));

  // Share the heap for cold token columns so it survives eviction (same as
  // BuildIndexedScan).
  std::shared_ptr<const StringHeap> value_heap;
  if (col->compression() == CompressionKind::kHeap) {
    TDE_ASSIGN_OR_RETURN(auto heap_pin, col->Pin());
    value_heap = heap_pin
                     ? std::shared_ptr<const StringHeap>(heap_pin->heap)
                     : std::shared_ptr<const StringHeap>(col, col->heap());
  }

  RunFoldOptions opts;
  opts.value_name = isnode.index_column;
  opts.value_type = col->type();
  opts.value_heap = std::move(value_heap);
  opts.group_by_value = !node.agg.group_by.empty();
  opts.aggs = node.agg.aggs;

  BuiltPlan out;
  out.notes.push_back("aggregate(" + isnode.index_column + "): folded " +
                      std::to_string(index.size()) + " runs (" +
                      std::to_string(IndexRowCount(index)) +
                      " rows) in the compressed domain");
  out.props[isnode.index_column] = PropsOf(*col);
  if (opts.group_by_value) out.grouped_on = isnode.index_column;
  auto op = std::make_unique<RunFoldAggregate>(std::move(index),
                                               std::move(opts));
  RunFoldAggregate* raw = op.get();
  out.op = std::move(op);
  Attach(&out, "RunFoldAggregate(" + isnode.index_column + ")", {},
         [raw](observe::OperatorStats* s) {
           s->extras.emplace_back("runs_folded", raw->runs_folded());
         });
  return out;
}

Result<BuiltPlan> BuildJoinTable(const PlanNode& node, BuiltPlan child) {
  BuiltPlan out;
  out.notes = std::move(child.notes);
  {
    auto choice = ChooseJoinStrategy(*node.inner_table, node.join.inner_key);
    if (choice.ok()) {
      out.notes.push_back("join(" + node.join.inner_key + "): " +
                          JoinStrategyName(choice.value().strategy));
    }
  }
  for (const std::string& p : node.join.inner_payload) {
    TDE_ASSIGN_OR_RETURN(auto c, node.inner_table->ColumnByName(p));
    out.props[p] = PropsOf(*c);
  }
  out.props.insert(child.props.begin(), child.props.end());
  out.op = std::make_unique<HashJoin>(std::move(child.op), node.inner_table,
                                      node.join);
  Attach(&out, "HashJoin(" + node.join.inner_key + ")",
         {std::move(child.stats)});
  return out;
}

Result<BuiltPlan> BuildInvisibleJoin(const PlanNode& node) {
  const PlanNode& scan = *node.children[0];
  if (scan.kind != PlanNodeKind::kScan) {
    return {Status::Internal("invisible join child must be a scan")};
  }
  const std::string& c = node.dict_column;
  TDE_ASSIGN_OR_RETURN(auto col, scan.table->ColumnByName(c));

  // Outer side: the main table with the compressed column as raw tokens.
  TableScanOptions outer_opts;
  if (scan.columns.empty()) {
    for (size_t i = 0; i < scan.table->num_columns(); ++i) {
      const std::string& n = scan.table->column(i).name();
      if (n != c) outer_opts.columns.push_back(n);
    }
  } else {
    for (const std::string& n : scan.columns) {
      if (n != c) outer_opts.columns.push_back(n);
    }
  }
  outer_opts.token_columns = {c};
  auto outer = std::make_unique<TableScan>(scan.table, outer_opts);

  // Inner side: DictionaryTable -> pushed-down filter/computations ->
  // FlowTable (restricted to random-access encodings, Sect. 4.3).
  // A possibly-nullable column gets an explicit NULL dictionary row so the
  // pushed-down predicate/computations decide the fate of NULL main-table
  // rows with ordinary expression semantics (IS NULL keeps them, LENGTH
  // maps them to NULL) instead of the join dropping them unconditionally.
  const ColumnMetadata& cmeta = col->metadata();
  const bool null_row = !cmeta.null_known || cmeta.has_nulls;
  TDE_ASSIGN_OR_RETURN(auto dict_table, BuildDictionaryTable(col, null_row));
  std::unique_ptr<Operator> inner_flow =
      std::make_unique<TableScan>(dict_table);
  if (node.inner_predicate != nullptr) {
    inner_flow = std::make_unique<Filter>(std::move(inner_flow),
                                          node.inner_predicate);
  }
  std::vector<std::string> payload = {c};
  if (!node.inner_projections.empty()) {
    std::vector<ProjectedColumn> projections;
    projections.push_back({expr::Col(c + "$token"), c + "$token"});
    projections.push_back({expr::Col(c), c});
    for (const ProjectedColumn& pc : node.inner_projections) {
      projections.push_back(pc);
      payload.push_back(pc.name);
    }
    inner_flow =
        std::make_unique<Project>(std::move(inner_flow), projections);
  }
  FlowTableOptions ft;
  ft.allowed = kAllowRandomAccess;
  ft.table_name = c + "$inner";
  TDE_ASSIGN_OR_RETURN(auto inner_table,
                       FlowTable::Build(std::move(inner_flow), ft));

  HashJoinOptions join;
  join.outer_key = c + "$token";
  join.inner_key = c + "$token";
  join.inner_payload = payload;
  auto joined =
      std::make_unique<HashJoin>(std::move(outer), inner_table, join);
  std::string note = "invisible join(" + c + "): " +
                     std::to_string(inner_table->rows()) +
                     " dictionary rows";
  if (auto choice = ChooseJoinStrategy(*inner_table, c + "$token");
      choice.ok()) {
    note += std::string(", ") + JoinStrategyName(choice.value().strategy);
  }

  // Drop the token column from the output and restore the scan's column
  // order: the dictionary column comes back at its original position, not
  // appended after the outer columns, so SELECT * keeps its shape. Pushed
  // computations (not part of the scan's schema) follow at the end.
  std::vector<std::string> original;
  if (scan.columns.empty()) {
    for (size_t i = 0; i < scan.table->num_columns(); ++i) {
      original.push_back(scan.table->column(i).name());
    }
  } else {
    original = scan.columns;
  }
  if (std::find(original.begin(), original.end(), c) == original.end()) {
    original.push_back(c);
  }
  std::vector<ProjectedColumn> keep;
  for (const std::string& n : original) {
    keep.push_back({expr::Col(n), n});
  }
  for (const std::string& n : payload) {
    if (n != c) keep.push_back({expr::Col(n), n});
  }
  BuiltPlan out;
  out.notes.push_back(std::move(note));
  for (const std::string& n : outer_opts.columns) {
    TDE_ASSIGN_OR_RETURN(auto oc, scan.table->ColumnByName(n));
    out.props[n] = PropsOf(*oc);
  }
  for (const std::string& n : payload) {
    auto ic = inner_table->ColumnByName(n);
    if (ic.ok()) out.props[n] = PropsOf(*ic.value());
  }
  out.op = std::make_unique<Project>(std::move(joined), std::move(keep));
  Attach(&out, "InvisibleJoin(" + c + ")", {});
  return out;
}

Result<BuiltPlan> BuildIndexedScan(const PlanNode& node, bool* grouped) {
  TDE_ASSIGN_OR_RETURN(auto col, node.table->ColumnByName(node.index_column));
  TDE_ASSIGN_OR_RETURN(std::vector<IndexEntry> index, BuildIndexTable(*col));

  // Share the payload heap for cold columns so it survives eviction; the
  // index-side predicate below needs it too when the values are tokens.
  std::shared_ptr<const StringHeap> value_heap;
  if (col->compression() == CompressionKind::kHeap) {
    TDE_ASSIGN_OR_RETURN(auto heap_pin, col->Pin());
    value_heap = heap_pin
                     ? std::shared_ptr<const StringHeap>(heap_pin->heap)
                     : std::shared_ptr<const StringHeap>(col, col->heap());
  }

  // Push the predicate down to the (tiny) index side: evaluate it once per
  // run over the entry values and keep qualifying ranges — whole runs are
  // emitted or skipped without ever touching their rows.
  uint64_t runs_skipped = 0;
  uint64_t rows_pruned = 0;
  const size_t total_runs = index.size();
  if (node.index_predicate != nullptr) {
    Schema index_schema;
    index_schema.AddField({node.index_column, col->type()});
    Block b;
    b.columns.resize(1);
    b.columns[0].type = col->type();
    b.columns[0].heap = value_heap;
    b.columns[0].lanes.reserve(index.size());
    for (const IndexEntry& e : index) b.columns[0].lanes.push_back(e.value);
    TDE_ASSIGN_OR_RETURN(ColumnVector mask,
                         node.index_predicate->Eval(b, index_schema));
    std::vector<IndexEntry> kept;
    kept.reserve(index.size());
    for (size_t i = 0; i < index.size(); ++i) {
      if (mask.lanes[i] == 1) {
        kept.push_back(index[i]);
      } else {
        ++runs_skipped;
        rows_pruned += index[i].count;
      }
    }
    index = std::move(kept);
    observe::QueryCount(observe::QueryCounter::kRunsSkipped, runs_skipped);
    observe::QueryCount(observe::QueryCounter::kRowsPruned, rows_pruned);
  }

  // Tactical decision (Sect. 4.2.2): sort the index for ordered retrieval
  // when the runs are long enough to pay for it.
  const bool value_ordered = col->metadata().sorted;
  IndexedAggChoice choice = ChooseIndexedAggregation(index, value_ordered);
  if (node.sort_index_by_value.has_value()) {
    choice.sort_index = *node.sort_index_by_value && !value_ordered;
    choice.ordered_aggregation = *node.sort_index_by_value || value_ordered;
  }
  if (choice.sort_index) SortIndexByValue(&index);
  *grouped = choice.ordered_aggregation;

  IndexedScanOptions opts;
  opts.value_name = node.index_column;
  opts.value_type = col->type();
  opts.value_heap = std::move(value_heap);
  opts.payload = node.payload;
  BuiltPlan out;
  out.notes.push_back(
      "indexed scan(" + node.index_column + "): " +
      std::to_string(index.size()) + " qualifying entries" +
      (choice.sort_index ? ", sorted by value" : "") +
      (choice.ordered_aggregation ? ", enables ordered aggregation" : ""));
  if (node.index_predicate != nullptr) {
    out.notes.push_back("run filter(" + node.index_column + "): skipped " +
                        std::to_string(runs_skipped) + "/" +
                        std::to_string(total_runs) + " runs (" +
                        std::to_string(rows_pruned) + " rows)");
  }
  out.props[node.index_column] = PropsOf(*col);
  for (const std::string& p : node.payload) {
    TDE_ASSIGN_OR_RETURN(auto pc, node.table->ColumnByName(p));
    out.props[p] = PropsOf(*pc);
  }
  if (choice.ordered_aggregation) out.grouped_on = node.index_column;
  uint64_t runs_sorted = 0;
  if (node.sort_runs) {
    // The run-sort rewrite: an ORDER BY became ordered run retrieval, so
    // the sort touched `index.size()` runs instead of their rows.
    runs_sorted = index.size();
    out.notes.push_back("sort(" + node.index_column + "): ordered " +
                        std::to_string(runs_sorted) +
                        " runs in the compressed domain, not " +
                        std::to_string(IndexRowCount(index)) + " rows");
    observe::QueryCount(observe::QueryCounter::kRunsSorted, runs_sorted);
    out.grouped_on = node.index_column;
    out.props[node.index_column].meta.sorted = true;
  }
  out.op = std::make_unique<IndexedScan>(node.table, std::move(index),
                                         std::move(opts));
  std::function<void(observe::OperatorStats*)> on_close;
  if (node.index_predicate != nullptr || runs_sorted > 0) {
    const bool filtered = node.index_predicate != nullptr;
    on_close = [filtered, runs_skipped, rows_pruned,
                runs_sorted](observe::OperatorStats* s) {
      if (filtered) {
        s->extras.emplace_back("runs_skipped", runs_skipped);
        s->extras.emplace_back("rows_pruned", rows_pruned);
      }
      if (runs_sorted > 0) s->extras.emplace_back("runs_sorted", runs_sorted);
    };
  }
  Attach(&out, "IndexedScan(" + node.index_column + ")", {},
         std::move(on_close));
  return out;
}

Result<BuiltPlan> BuildExchange(const PlanNode& node) {
  // If the exchange sits directly above a filter, route the filter into
  // the workers (that is the parallelized segment).
  const PlanNodePtr& child = node.children[0];
  ExchangeOptions opts;
  // <= 0 means "size from the shared pool": half the pool per query, so
  // concurrent queries cannot each claim every worker.
  opts.workers = node.exchange_workers > 0
                     ? node.exchange_workers
                     : TaskScheduler::Global().SuggestedQueryParallelism();
  opts.order_preserving = node.order_preserving;
  BuiltPlan built_child;
  int dict_rewrites = 0;
  if (child->kind == PlanNodeKind::kFilter) {
    const PlanNodePtr& grand = child->children[0];
    // Segment-partitioned route: an unordered exchange over filter(scan)
    // of a segmented table gives each worker its own range-restricted
    // TableScan over a disjoint subset of segments. Workers never contend
    // for a shared input queue, and zone-map pruning drops whole segments
    // before they are even assigned.
    if (!opts.order_preserving && opts.workers >= 2 &&
        grand->kind == PlanNodeKind::kScan && grand->table != nullptr &&
        child->predicate != nullptr) {
      SegmentPruneResult prune =
          PruneScanSegments(*grand->table, child->predicate);
      const std::vector<RowRange> visit =
          prune.segments_pruned > 0
              ? prune.ranges
              : std::vector<RowRange>{{0, grand->table->rows()}};
      std::vector<RowRange> pieces;
      for (const RowRange& s : SegmentAlignedRanges(*grand)) {
        for (const RowRange& v : visit) {
          const uint64_t b = std::max(s.begin, v.begin);
          const uint64_t e = std::min(s.end, v.end);
          if (b < e) pieces.push_back({b, e});
        }
      }
      if (pieces.size() >= 2) {
        const size_t nparts = std::min<size_t>(
            static_cast<size_t>(opts.workers), pieces.size());
        std::vector<std::vector<RowRange>> parts(nparts);
        for (size_t i = 0; i < pieces.size(); ++i) {
          parts[i % nparts].push_back(pieces[i]);
        }
        BuiltPlan out;
        TDE_RETURN_NOT_OK(ScanProps(*grand, &out));
        std::vector<std::unique_ptr<Operator>> sources;
        for (size_t p = 0; p < nparts; ++p) {
          TableScanOptions sopts;
          sopts.columns = grand->columns;
          sopts.token_columns = grand->token_columns;
          sopts.code_columns = grand->code_columns;
          sopts.ranges = NormalizeRanges(std::move(parts[p]));
          sources.push_back(
              std::make_unique<TableScan>(grand->table, std::move(sopts)));
        }
        ExprPtr pred = LowerPredicate(child->predicate, child->compressed_eval,
                                      sources[0]->output_schema(), &out.notes,
                                      &dict_rewrites);
        opts.transform = [pred](const Schema& schema,
                                Block* block) -> Status {
          TDE_ASSIGN_OR_RETURN(ColumnVector mask, pred->Eval(*block, schema));
          std::vector<char> keep(block->rows());
          for (size_t i = 0; i < keep.size(); ++i) {
            keep[i] = mask.lanes[i] == 1;
          }
          block->Compact(keep);
          return Status::OK();
        };
        for (auto& [name, p] : out.props) p.meta.dense = false;
        if (prune.segments_pruned > 0) {
          out.notes.push_back(
              "scan: " + std::to_string(prune.segments_pruned) +
              " segment(s) zone-map pruned (" +
              std::to_string(prune.rows_pruned) + " rows skipped)");
          observe::QueryCount(observe::QueryCounter::kSegmentsPruned,
                              prune.segments_pruned);
          observe::QueryCount(observe::QueryCounter::kRowsPruned,
                              prune.rows_pruned);
        }
        out.notes.push_back("exchange: segment-partitioned scan, " +
                            std::to_string(nparts) + " partitions over " +
                            std::to_string(pieces.size()) +
                            " segment ranges");
        auto exchange = std::make_unique<Exchange>(std::move(sources), opts);
        Exchange* raw = exchange.get();
        out.op = std::move(exchange);
        const uint64_t segs = prune.segments_pruned;
        const uint64_t rows = prune.rows_pruned;
        Attach(&out,
               "Exchange(partitioned, " + std::to_string(nparts) + " scans)",
               {}, [raw, segs, rows](observe::OperatorStats* s) {
                 const ExchangeRunStats& rs = raw->run_stats();
                 s->extras.emplace_back("blocks_in", rs.blocks_in);
                 if (segs > 0) {
                   s->extras.emplace_back("segments_pruned", segs);
                   s->extras.emplace_back("rows_pruned", rows);
                 }
                 for (size_t i = 0; i < rs.workers.size(); ++i) {
                   s->extras.emplace_back("w" + std::to_string(i) + "_blocks",
                                          rs.workers[i].blocks);
                   s->extras.emplace_back(
                       "w" + std::to_string(i) + "_rows_emitted",
                       rs.workers[i].rows_emitted);
                 }
               });
        return out;
      }
    }
    TDE_ASSIGN_OR_RETURN(built_child, BuildExecutable(child->children[0]));
    // The same dictionary-code lowering as BuildFilter; the wrapper's
    // translation cache is mutex-guarded, so workers share it safely.
    ExprPtr pred =
        LowerPredicate(child->predicate, child->compressed_eval,
                       built_child.op->output_schema(), &built_child.notes,
                       &dict_rewrites);
    opts.transform = [pred](const Schema& schema, Block* block) -> Status {
      TDE_ASSIGN_OR_RETURN(ColumnVector mask, pred->Eval(*block, schema));
      std::vector<char> keep(block->rows());
      for (size_t i = 0; i < keep.size(); ++i) keep[i] = mask.lanes[i] == 1;
      block->Compact(keep);
      return Status::OK();
    };
    for (auto& [name, p] : built_child.props) p.meta.dense = false;
  } else {
    TDE_ASSIGN_OR_RETURN(built_child, BuildExecutable(child));
  }
  BuiltPlan out;
  out.notes = std::move(built_child.notes);
  out.notes.push_back(std::string("exchange: ") +
                      (opts.order_preserving ? "order-preserving"
                                             : "unordered") +
                      " routing, " + std::to_string(opts.workers) +
                      " workers");
  out.props = std::move(built_child.props);
  auto exchange = std::make_unique<Exchange>(std::move(built_child.op), opts);
  Exchange* raw = exchange.get();
  out.op = std::move(exchange);
  if (opts.order_preserving) out.grouped_on = built_child.grouped_on;
  Attach(&out,
         "Exchange(" + std::to_string(opts.workers) + " workers, " +
             (opts.order_preserving ? "ordered" : "unordered") + ")",
         {std::move(built_child.stats)},
         // The wrapper's Close runs right after Exchange::Close joins the
         // threads, so the run stats are final here.
         [raw](observe::OperatorStats* s) {
           const ExchangeRunStats& rs = raw->run_stats();
           s->extras.emplace_back("blocks_in", rs.blocks_in);
           s->extras.emplace_back("producer_wait_us",
                                  rs.producer_wait_ns / 1000);
           s->extras.emplace_back("consumer_wait_us",
                                  rs.consumer_wait_ns / 1000);
           for (size_t i = 0; i < rs.workers.size(); ++i) {
             s->extras.emplace_back(
                 "w" + std::to_string(i) + "_blocks", rs.workers[i].blocks);
             s->extras.emplace_back(
                 "w" + std::to_string(i) + "_rows_emitted",
                 rs.workers[i].rows_emitted);
             s->extras.emplace_back(
                 "w" + std::to_string(i) + "_queue_wait_us",
                 rs.workers[i].queue_wait_ns / 1000);
           }
         });
  return out;
}

/// Lowers kTopN. Directly over a segmented scan (with sort_pruning on and
/// a lane-comparable first key) the input splits into one range-restricted
/// TableScan per segment, each carrying the key's zone: once the heap is
/// full, TopN skips — never opens, never faults — segments whose best
/// possible row cannot beat the current worst. Otherwise a single-source
/// TopN over the built child, with a sorted-input short-circuit when the
/// child is already ordered on the first key.
Result<BuiltPlan> BuildTopN(const PlanNodePtr& node) {
  TopNOptions topts;
  topts.dict_sort = node->dict_sort;
  const std::string key0 =
      node->sort_keys.empty() ? std::string() : node->sort_keys[0].column;

  const PlanNodePtr& child = node->children[0];
  if (node->sort_pruning && !key0.empty() &&
      child->kind == PlanNodeKind::kScan && child->table != nullptr &&
      child->token_columns.empty() && child->code_columns.empty()) {
    auto col_r = child->table->ColumnByName(key0);
    const bool key_scanned =
        child->columns.empty() ||
        std::find(child->columns.begin(), child->columns.end(), key0) !=
            child->columns.end();
    if (col_r.ok() && key_scanned &&
        (col_r.value()->type() == TypeId::kInteger ||
         col_r.value()->type() == TypeId::kDate ||
         col_r.value()->type() == TypeId::kDateTime ||
         col_r.value()->type() == TypeId::kBool)) {
      const std::vector<SegmentShape> shapes = col_r.value()->SegmentShapes();
      if (shapes.size() > 1) {
        BuiltPlan out;
        TDE_RETURN_NOT_OK(ScanProps(*child, &out));
        std::vector<TopNSource> sources;
        sources.reserve(shapes.size());
        for (const SegmentShape& s : shapes) {
          TableScanOptions sopts;
          sopts.columns = child->columns;
          sopts.ranges = {{s.start_row, s.start_row + s.rows}};
          TopNSource src;
          src.op = std::make_unique<TableScan>(child->table, std::move(sopts));
          if (s.zone.meta.min_max_known) {
            src.zone_known = true;
            src.min_value = s.zone.meta.min_value;
            src.max_value = s.zone.meta.max_value;
            src.has_nulls = !s.zone.meta.null_known || s.zone.meta.has_nulls;
          }
          sources.push_back(std::move(src));
        }
        const size_t nsegs = sources.size();
        auto topn = std::make_unique<TopN>(std::move(sources),
                                           node->sort_keys, node->limit,
                                           topts);
        TopN* raw = topn.get();
        out.op = std::move(topn);
        out.notes.push_back("topn(" + key0 + "): k=" +
                            std::to_string(node->limit) + ", " +
                            std::to_string(nsegs) +
                            " segment sources with zone skipping");
        out.grouped_on = key0;
        auto it = out.props.find(key0);
        if (it != out.props.end()) it->second.meta.sorted = true;
        Attach(&out, "TopN(" + std::to_string(node->limit) + ", " +
                         std::to_string(nsegs) + " segments)",
               {}, [raw](observe::OperatorStats* s) {
                 s->extras.emplace_back("input_rows", raw->input_rows());
                 s->extras.emplace_back("rows_materialized",
                                        raw->rows_materialized());
                 s->extras.emplace_back("segments_skipped",
                                        raw->segments_skipped());
                 observe::QueryCount(
                     observe::QueryCounter::kRowsMaterialized,
                     raw->rows_materialized());
                 observe::QueryCount(
                     observe::QueryCounter::kTopNSegmentsSkipped,
                     raw->segments_skipped());
                 if (raw->dict_keys() > 0) {
                   s->extras.emplace_back("dict_key_sorts", raw->dict_keys());
                   observe::QueryCount(observe::QueryCounter::kDictKeySorts,
                                       raw->dict_keys());
                 }
               });
        return out;
      }
    }
  }

  TDE_ASSIGN_OR_RETURN(BuiltPlan built_child, BuildExecutable(child));
  BuiltPlan out;
  out.notes = std::move(built_child.notes);
  out.props = std::move(built_child.props);
  if (!key0.empty()) {
    auto it = out.props.find(key0);
    if (it != out.props.end() && it->second.meta.sorted &&
        node->sort_keys[0].ascending) {
      // Child already ordered on the first key: the drain can stop at the
      // first row that cannot enter the full heap.
      topts.input_sorted = true;
      out.notes.push_back("topn(" + key0 +
                          "): sorted input, early stop enabled");
    }
    out.grouped_on = key0;
    if (it != out.props.end()) it->second.meta.sorted = true;
  }
  auto topn = std::make_unique<TopN>(std::move(built_child.op),
                                     node->sort_keys, node->limit, topts);
  TopN* raw = topn.get();
  out.op = std::move(topn);
  Attach(&out, "TopN(" + std::to_string(node->limit) + ")",
         {std::move(built_child.stats)}, [raw](observe::OperatorStats* s) {
           s->extras.emplace_back("input_rows", raw->input_rows());
           s->extras.emplace_back("rows_materialized",
                                  raw->rows_materialized());
           if (raw->early_stopped()) s->extras.emplace_back("early_stop", 1);
           observe::QueryCount(observe::QueryCounter::kRowsMaterialized,
                               raw->rows_materialized());
           if (raw->dict_keys() > 0) {
             s->extras.emplace_back("dict_key_sorts", raw->dict_keys());
             observe::QueryCount(observe::QueryCounter::kDictKeySorts,
                                 raw->dict_keys());
           }
         });
  return out;
}

}  // namespace

Result<BuiltPlan> BuildExecutable(const PlanNodePtr& node) {
  switch (node->kind) {
    case PlanNodeKind::kScan:
      return BuildScan(*node);
    case PlanNodeKind::kFilter: {
      // Zone-map segment pruning: when the filter sits directly on a scan
      // of a segmented table, fold the predicate against each segment's
      // zone map and hand the scan the surviving row ranges. Pruned
      // segments' blobs never fault in on the lazy v3 path.
      const PlanNodePtr& c = node->children[0];
      if (c->kind == PlanNodeKind::kScan && c->table != nullptr &&
          node->predicate != nullptr) {
        const SegmentPruneResult prune =
            PruneScanSegments(*c->table, node->predicate);
        if (prune.segments_pruned > 0) {
          TDE_ASSIGN_OR_RETURN(BuiltPlan child, BuildScan(*c, &prune));
          return BuildFilter(*node, std::move(child));
        }
      }
      TDE_ASSIGN_OR_RETURN(BuiltPlan child, BuildExecutable(node->children[0]));
      return BuildFilter(*node, std::move(child));
    }
    case PlanNodeKind::kProject: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child, BuildExecutable(node->children[0]));
      return BuildProject(*node, std::move(child));
    }
    case PlanNodeKind::kAggregate: {
      if (node->metadata_answered) return BuildMetadataAggregate(*node);
      if (node->fold_runs && !node->children.empty() &&
          node->children[0]->kind == PlanNodeKind::kIndexedScan) {
        return BuildRunFoldAggregate(*node);
      }
      TDE_ASSIGN_OR_RETURN(BuiltPlan child, BuildExecutable(node->children[0]));
      return BuildAggregate(*node, std::move(child));
    }
    case PlanNodeKind::kSort: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child, BuildExecutable(node->children[0]));
      BuiltPlan out;
      out.notes = std::move(child.notes);
      out.props = std::move(child.props);
      if (!node->sort_keys.empty()) {
        out.grouped_on = node->sort_keys[0].column;
        auto it = out.props.find(node->sort_keys[0].column);
        if (it != out.props.end()) it->second.meta.sorted = true;
      }
      SortOptions sopts;
      sopts.dict_sort = node->dict_sort;
      auto sort = std::make_unique<Sort>(std::move(child.op), node->sort_keys,
                                         sopts);
      // The wrapper owns the operator, so the raw pointer outlives Close.
      Sort* raw = sort.get();
      out.op = std::move(sort);
      Attach(&out,
             "Sort(" +
                 (node->sort_keys.empty() ? std::string()
                                          : node->sort_keys[0].column) +
                 ")",
             {std::move(child.stats)}, [raw](observe::OperatorStats* s) {
               s->extras.emplace_back("rows_materialized", raw->rows_sorted());
               observe::QueryCount(observe::QueryCounter::kRowsMaterialized,
                                   raw->rows_sorted());
               if (raw->dict_key_sorts() > 0) {
                 s->extras.emplace_back("dict_key_sorts",
                                        raw->dict_key_sorts());
                 observe::QueryCount(observe::QueryCounter::kDictKeySorts,
                                     raw->dict_key_sorts());
               }
               if (raw->parallel_chunks() > 0) {
                 s->extras.emplace_back("parallel_chunks",
                                        raw->parallel_chunks());
               }
             });
      return out;
    }
    case PlanNodeKind::kJoinTable: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child, BuildExecutable(node->children[0]));
      return BuildJoinTable(*node, std::move(child));
    }
    case PlanNodeKind::kInvisibleJoin:
      return BuildInvisibleJoin(*node);
    case PlanNodeKind::kIndexedScan: {
      bool grouped = false;
      return BuildIndexedScan(*node, &grouped);
    }
    case PlanNodeKind::kLimit: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child, BuildExecutable(node->children[0]));
      BuiltPlan out;
      out.notes = std::move(child.notes);
      out.props = std::move(child.props);
      out.grouped_on = child.grouped_on;
      out.op = std::make_unique<Limit>(std::move(child.op), node->limit);
      std::function<void(observe::OperatorStats*)> on_close;
      if (node->pruned_rows > 0) {
        // A metadata-pruned filter: the LIMIT 0 stands in for a scan whose
        // predicate the directory proved always-false.
        out.notes.push_back("metadata prune: filter provably false, " +
                            std::to_string(node->pruned_rows) +
                            " rows eliminated without scanning");
        observe::QueryCount(observe::QueryCounter::kRowsPruned,
                            node->pruned_rows);
        const uint64_t pruned = node->pruned_rows;
        on_close = [pruned](observe::OperatorStats* s) {
          s->extras.emplace_back("rows_pruned", pruned);
        };
      }
      Attach(&out, "Limit(" + std::to_string(node->limit) + ")",
             {std::move(child.stats)}, std::move(on_close));
      return out;
    }
    case PlanNodeKind::kTopN:
      return BuildTopN(node);
    case PlanNodeKind::kExchange:
      return BuildExchange(*node);
    case PlanNodeKind::kMaterialize: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child, BuildExecutable(node->children[0]));
      BuiltPlan out;
      out.notes = std::move(child.notes);
      out.op = std::make_unique<FlowTable>(std::move(child.op), node->flow);
      Attach(&out, "FlowTable(" + node->flow.table_name + ")",
             {std::move(child.stats)});
      return out;
    }
  }
  return {Status::Internal("unknown plan node kind")};
}

QueryResult::QueryResult(Schema schema, std::vector<Block> blocks)
    : schema_(std::move(schema)), blocks_(std::move(blocks)) {
  for (const Block& b : blocks_) rows_ += b.rows();
}

const ColumnVector* QueryResult::Locate(uint64_t row, size_t col,
                                        size_t* offset) const {
  for (const Block& b : blocks_) {
    if (row < b.rows()) {
      *offset = static_cast<size_t>(row);
      return &b.columns[col];
    }
    row -= b.rows();
  }
  return nullptr;
}

Lane QueryResult::Value(uint64_t row, size_t col) const {
  size_t off = 0;
  const ColumnVector* cv = Locate(row, col, &off);
  return cv == nullptr ? kNullSentinel : cv->lanes[off];
}

std::string QueryResult::ValueString(uint64_t row, size_t col) const {
  size_t off = 0;
  const ColumnVector* cv = Locate(row, col, &off);
  if (cv == nullptr) return "NULL";
  const Lane v = cv->lanes[off];
  if (v == kNullSentinel) return "NULL";
  if (cv->type == TypeId::kString && cv->heap != nullptr) {
    return std::string(cv->heap->Get(v));
  }
  return FormatLane(cv->type, v);
}

std::string QueryResult::ToString(uint64_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    if (c > 0) out += " | ";
    out += schema_.field(c).name;
  }
  out += "\n";
  const uint64_t n = std::min<uint64_t>(max_rows, rows_);
  for (uint64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      if (c > 0) out += " | ";
      out += ValueString(r, c);
    }
    out += "\n";
  }
  if (n < rows_) {
    out += "... (" + std::to_string(rows_ - n) + " more rows)\n";
  }
  return out;
}

namespace {

/// FNV-1a over the optimized plan's rendering: a stable shape fingerprint
/// that lets journal entries of recurring queries be grouped.
uint64_t PlanFingerprint(const PlanNodePtr& root) {
  const std::string text = PlanToString(root);
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Result<QueryResult> ExecutePlanNode(const PlanNodePtr& root) {
  if (!observe::StatsEnabled()) {
    // Stats-off hot path: no scope, no journal, no fingerprint — identical
    // to the pre-journal executor (the overhead-measurement mode).
    TDE_ASSIGN_OR_RETURN(BuiltPlan built, BuildExecutable(root));
    observe::TraceSpan span("execute", "query");
    std::vector<Block> blocks;
    TDE_RETURN_NOT_OK(DrainOperator(built.op.get(), &blocks));
    return QueryResult(built.op->output_schema(), std::move(blocks));
  }

  // The scope opens before lowering: strategic/tactical attribution (rows
  // pruned at plan time, dictionary rewrites, metadata answers) belongs to
  // this query too. Everything the operators and the pager count on this
  // thread — or on worker threads bound via StatsScope::Bind — lands here.
  // Concurrency gauge: how many queries this process is executing right
  // now (the load the shared TaskScheduler pool is divided across).
  struct InflightGuard {
    observe::Gauge* g;
    explicit InflightGuard(observe::Gauge* gauge) : g(gauge) { g->Add(1); }
    ~InflightGuard() { g->Add(-1); }
  } inflight(
      observe::MetricsRegistry::Global().GetGauge("queries_inflight"));

  observe::QueryJournal& journal = observe::QueryJournal::Global();
  observe::QueryJournalEntry entry;
  entry.id = journal.NextId();
  entry.sql = std::string(observe::CurrentQueryText()
                              .substr(0, observe::QueryJournal::kMaxSqlBytes));
  entry.plan_fingerprint = PlanFingerprint(root);
  observe::StatsScope scope;
  const auto t0 = std::chrono::steady_clock::now();
  auto finish = [&](bool ok, uint64_t rows) {
    entry.ok = ok;
    entry.rows_out = rows;
    entry.wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    entry.cpu_ns = scope.CpuNs();
    for (int i = 0; i < observe::kNumQueryCounters; ++i) {
      entry.counters[static_cast<size_t>(i)] =
          scope.value(static_cast<observe::QueryCounter>(i));
    }
    observe::SetLastJournalIdOnThread(entry.id);
    journal.Record(std::move(entry));
  };

  Result<BuiltPlan> build = BuildExecutable(root);
  if (!build.ok()) {
    finish(false, 0);
    return build.status();
  }
  BuiltPlan built = build.MoveValue();
  observe::TraceSpan span("execute", "query");
  std::vector<Block> blocks;
  if (Status st = DrainOperator(built.op.get(), &blocks); !st.ok()) {
    // A failed drain skips Close, so tear the tree down first: operator
    // destructors join any worker threads, completing attribution before
    // the entry's counters are snapshotted.
    built.op.reset();
    finish(false, 0);
    return st;
  }
  QueryResult result(built.op->output_schema(), std::move(blocks));
  if (built.stats != nullptr) {
    auto qs = std::make_shared<observe::QueryStats>();
    qs->root = std::move(built.stats);
    qs->notes = std::move(built.notes);
    qs->journal_id = entry.id;
    qs->total_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    observe::MetricsRegistry& reg = observe::MetricsRegistry::Global();
    reg.GetCounter("query.executed")->Add();
    reg.GetCounter("query.rows_returned")->Add(result.num_rows());
    reg.GetHistogram("query.latency_us")->Record(qs->total_ns / 1000);
    result.set_stats(std::move(qs));
  }
  finish(true, result.num_rows());
  return result;
}

std::string QueryResult::ToCsv() const {
  std::string out;
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    if (c > 0) out += ",";
    out += schema_.field(c).name;
  }
  out += "\n";
  for (uint64_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      if (c > 0) out += ",";
      std::string v = ValueString(r, c);
      if (schema_.field(c).type == TypeId::kString &&
          (v.find(',') != std::string::npos ||
           v.find('"') != std::string::npos ||
           v.find('\n') != std::string::npos)) {
        std::string quoted = "\"";
        for (char ch : v) {
          if (ch == '"') quoted += '"';
          quoted += ch;
        }
        quoted += "\"";
        v = std::move(quoted);
      }
      out += v;
    }
    out += "\n";
  }
  return out;
}

// StrategicOptimize rewrites nodes in place, so both entry points optimize
// a private deep copy and leave the caller's plan as it was (as
// Engine::Execute does).
Result<std::string> ExplainPlan(const Plan& plan) {
  TDE_ASSIGN_OR_RETURN(PlanNodePtr optimized,
                       StrategicOptimize(ClonePlan(plan.root())));
  TDE_ASSIGN_OR_RETURN(BuiltPlan built, BuildExecutable(optimized));
  std::string out = PlanToString(optimized);
  if (!built.notes.empty()) {
    out += "tactical decisions:\n";
    for (const std::string& n : built.notes) {
      out += "  " + n + "\n";
    }
  }
  return out;
}

Result<QueryResult> ExecutePlan(const Plan& plan) {
  TDE_ASSIGN_OR_RETURN(PlanNodePtr optimized,
                       StrategicOptimize(ClonePlan(plan.root())));
  return ExecutePlanNode(optimized);
}

Result<std::string> ExplainAnalyzePlan(const Plan& plan,
                                       QueryResult* result) {
  // Force collection on for the duration: EXPLAIN ANALYZE without numbers
  // would be useless.
  const bool was_enabled = observe::StatsEnabled();
  observe::SetStatsEnabled(true);
  Result<QueryResult> run = ExecutePlan(plan);
  observe::SetStatsEnabled(was_enabled);
  TDE_RETURN_NOT_OK(run.status());
  std::string out = run.value().stats() != nullptr
                        ? run.value().stats()->ToString()
                        : "(no stats collected)\n";
  if (result != nullptr) *result = run.MoveValue();
  return out;
}

}  // namespace tde
