#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "perfbench/src/bench.h"
#include "src/exec/block.h"
#include "src/observe/metrics.h"
#include "src/plan/executor.h"
#include "src/sql/parser.h"
#include "src/storage/segment/segmented_stream.h"

namespace perfbench {

using tde::Engine;
using tde::QueryResult;
using tde::Result;
using tde::Status;

tde::StrategicOptions AllRewritesOff() {
  tde::StrategicOptions o;
  o.enable_invisible_join = false;
  o.enable_rank_join = false;
  o.enforce_order_preserving_exchange = false;
  o.enable_simplification = false;
  o.enable_filter_pushdown = false;
  o.enable_projection_pruning = false;
  o.enable_metadata_pruning = false;
  o.enable_run_filters = false;
  o.enable_dict_predicates = false;
  o.enable_dict_grouping = false;
  o.enable_run_aggregation = false;
  o.enable_metadata_aggregates = false;
  o.enable_topn = false;
  o.enable_dict_sort = false;
  o.enable_sort_pruning = false;
  return o;
}

bool DisableSwitch(const std::string& name, tde::StrategicOptions* o) {
  const std::pair<const char*, bool*> switches[] = {
      {"enable_invisible_join", &o->enable_invisible_join},
      {"enable_rank_join", &o->enable_rank_join},
      {"enable_simplification", &o->enable_simplification},
      {"enable_filter_pushdown", &o->enable_filter_pushdown},
      {"enable_projection_pruning", &o->enable_projection_pruning},
      {"enable_metadata_pruning", &o->enable_metadata_pruning},
      {"enable_run_filters", &o->enable_run_filters},
      {"enable_dict_predicates", &o->enable_dict_predicates},
      {"enable_dict_grouping", &o->enable_dict_grouping},
      {"enable_run_aggregation", &o->enable_run_aggregation},
      {"enable_metadata_aggregates", &o->enable_metadata_aggregates},
      {"enable_topn", &o->enable_topn},
      {"enable_dict_sort", &o->enable_dict_sort},
      {"enable_sort_pruning", &o->enable_sort_pruning},
  };
  for (const auto& [n, flag] : switches) {
    if (name == n) {
      *flag = false;
      return true;
    }
  }
  return false;
}

// --- Samples ----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t idx = v.size() >= 11 ? v.size() - 11 : v.size() - 1;
  t.value = v[idx];
  t.beyond = v.size() - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

Tail WindowedTail(const std::vector<double>& v) {
  const size_t windows = v.size() / kTailWindow;
  if (windows < 2) return TailOf(v);
  std::vector<double> tails;
  Tail t;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(w * kTailWindow);
    const auto end = w + 1 == windows
                         ? v.end()
                         : begin + static_cast<std::ptrdiff_t>(kTailWindow);
    t = TailOf(std::vector<double>(begin, end));
    tails.push_back(t.value);
  }
  t.value = Median(tails);
  t.n = v.size();
  t.windows = windows;
  return t;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

void Latencies::Merge(const Latencies& other) {
  for (const auto& [shape, ms] : other.by_shape) {
    auto& dst = by_shape[shape];
    dst.insert(dst.end(), ms.begin(), ms.end());
  }
  all.insert(all.end(), other.all.begin(), other.all.end());
}

double Latencies::MedianOfMedians() const {
  std::vector<double> medians;
  for (const auto& [shape, ms] : by_shape) medians.push_back(Median(ms));
  return Median(medians);
}

double Latencies::GeoMeanOfMedians() const {
  std::vector<double> medians;
  for (const auto& [shape, ms] : by_shape) medians.push_back(Median(ms));
  return GeoMean(medians);
}

// --- Answers ----------------------------------------------------------------

namespace {

int CompareCells(const Answer::Cell& a, const Answer::Cell& b) {
  if (a.real != b.real) return a.real ? 1 : -1;
  if (a.real) return tde::CompareReals(a.d, b.d);
  return a.text.compare(b.text);
}

bool RealsMatch(double a, double b) {
  if (a == b || (std::isnan(a) && std::isnan(b))) return true;
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

Answer ToAnswer(const QueryResult& result, bool ordered) {
  Answer a;
  a.rows.resize(result.num_rows());
  for (uint64_t r = 0; r < result.num_rows(); ++r) {
    auto& row = a.rows[r];
    row.resize(result.num_columns());
    for (size_t c = 0; c < result.num_columns(); ++c) {
      const tde::Lane lane = result.Value(r, c);
      if (result.schema().field(c).type == tde::TypeId::kReal &&
          lane != tde::kNullSentinel) {
        row[c].real = true;
        std::memcpy(&row[c].d, &lane, sizeof(double));
      } else {
        row[c].text = result.ValueString(r, c);
      }
    }
  }
  if (!ordered) {
    std::sort(a.rows.begin(), a.rows.end(), [](const auto& x, const auto& y) {
      for (size_t c = 0; c < x.size(); ++c) {
        if (int cmp = CompareCells(x[c], y[c]); cmp != 0) return cmp < 0;
      }
      return false;
    });
  }
  return a;
}

bool SameAnswer(const Answer& got, const Answer& want, std::string* why) {
  if (got.rows.size() != want.rows.size()) {
    *why = "rows " + std::to_string(got.rows.size()) + " != " +
           std::to_string(want.rows.size());
    return false;
  }
  for (size_t r = 0; r < got.rows.size(); ++r) {
    const auto& g = got.rows[r];
    const auto& w = want.rows[r];
    if (g.size() != w.size()) {
      *why = "columns differ at row " + std::to_string(r);
      return false;
    }
    for (size_t c = 0; c < g.size(); ++c) {
      const bool same = g[c].real == w[c].real &&
                        (g[c].real ? RealsMatch(g[c].d, w[c].d)
                                   : g[c].text == w[c].text);
      if (!same) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "row %zu col %zu: got %s%.17g want %s%.17g",
                      r, c, g[c].text.c_str(), g[c].d, w[c].text.c_str(),
                      w[c].d);
        *why = buf;
        return false;
      }
    }
  }
  return true;
}

Status Checker::Prepare(const Engine& engine,
                        const std::vector<Statement>& statements) {
  const tde::StrategicOptions off = AllRewritesOff();
  for (const Statement& s : statements) {
    if (expected_.count(s.sql) > 0) continue;
    Result<QueryResult> r = engine.ExecuteSql(s.sql, off);
    if (!r.ok()) {
      return Status::Internal("reference answer failed for " + s.shape +
                              ": " + r.status().ToString());
    }
    expected_.emplace(s.sql, ToAnswer(r.value(), s.ordered));
  }
  return Status::OK();
}

void Checker::Corrupt(const std::string& sql) {
  auto it = expected_.find(sql);
  if (it == expected_.end()) return;
  Answer& a = it->second;
  if (a.rows.empty() || a.rows[0].empty()) {
    a.rows.push_back({Answer::Cell{false, 0, "corrupt"}});
    return;
  }
  Answer::Cell& cell = a.rows[0][0];
  if (cell.real) {
    cell.d = cell.d * (1 + 1e-6) + 1e-6;
  } else {
    cell.text += "#";
  }
}

bool Checker::Check(const Statement& s, const Result<QueryResult>& got) {
  std::string why;
  bool ok = false;
  auto it = expected_.find(s.sql);
  if (it == expected_.end()) {
    why = "no expected answer";
  } else if (!got.ok()) {
    why = got.status().ToString();
  } else {
    ok = SameAnswer(ToAnswer(got.value(), s.ordered), it->second, &why);
  }
  tally_->Record(ok);
  if (!ok) {
    std::lock_guard<std::mutex> lock(report_mu_);
    if (reported_++ < 5) {
      std::fprintf(stderr, "perfbench: wrong answer [%s]: %s\n",
                   s.shape.c_str(), why.c_str());
    }
  }
  return ok;
}

bool Checker::CheckCount(const char* what, uint64_t got, uint64_t want) {
  const bool ok = got == want;
  tally_->Record(ok);
  if (!ok) {
    std::lock_guard<std::mutex> lock(report_mu_);
    if (reported_++ < 5) {
      std::fprintf(stderr, "perfbench: %s is %llu, expected %llu\n", what,
                   static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(want));
    }
  }
  return ok;
}

double RunChecked(const Engine& engine, const Statement& s,
                  const tde::StrategicOptions& options, Checker* checker,
                  uint64_t id, QueryResult* out) {
  const auto t0 = Clock::now();
  Result<QueryResult> r = [&] {
    auto span = Span("core.execute_sql", id);
    return engine.ExecuteSql(s.sql, options);
  }();
  const double ms = SecondsSince(t0) * 1e3;
  checker->Check(s, r);
  if (out != nullptr && r.ok()) *out = r.MoveValue();
  return ms;
}

// --- Datasets and the extract round -----------------------------------------

Result<Imported> ImportAll(const Dataset& data, Engine* engine, uint64_t id) {
  Imported out;
  for (size_t i = 0; i < data.tables.size(); ++i) {
    const TableSource& t = data.tables[i];
    std::string text;
    if (data.text_files.empty()) {
      text = t.text();
    } else {
      std::error_code ec;
      const auto size = std::filesystem::file_size(data.text_files[i], ec);
      std::ifstream in(data.text_files[i], std::ios::binary);
      text.resize(ec ? 0 : size);
      if (ec || !in.read(text.data(), static_cast<std::streamsize>(size))) {
        return Status::IOError("cannot read " + data.text_files[i]);
      }
    }
    out.text_bytes += text.size();
    const auto t0 = Clock::now();
    auto span = Span("engine.import_text_buffer", id);
    TDE_ASSIGN_OR_RETURN(auto table, engine->ImportTextBuffer(
                                         std::move(text), t.name, t.options));
    (void)table;
    out.seconds += SecondsSince(t0);
  }
  return out;
}

Status WriteTextFiles(const std::string& prefix, Dataset* data) {
  for (const TableSource& t : data->tables) {
    const std::string path = prefix + "-" + t.name + ".txt";
    data->text_files.push_back(path);
    const std::string text = t.text();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!out.flush()) return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

void RemoveTextFiles(Dataset* data) {
  std::error_code ec;
  for (const std::string& path : data->text_files) {
    std::filesystem::remove(path, ec);
  }
  data->text_files.clear();
}

Status LoadAppendBatch(const TableSource& batch, Dataset* data) {
  Engine scratch;
  TDE_ASSIGN_OR_RETURN(auto table, scratch.ImportTextBuffer(
                                       batch.text(), batch.name, batch.options));
  (void)table;
  TDE_ASSIGN_OR_RETURN(QueryResult all,
                       scratch.ExecuteSql("SELECT * FROM " + batch.name));
  data->append_table = batch.name;
  data->append_blocks = all.blocks();
  data->append_rows = all.num_rows();
  return Status::OK();
}

std::map<std::string, uint64_t> CounterSnapshot(
    const std::vector<std::string>& names) {
  std::map<std::string, uint64_t> out;
  auto& reg = tde::observe::MetricsRegistry::Global();
  for (const std::string& n : names) out[n] = reg.GetCounter(n)->value();
  return out;
}

std::map<std::string, double> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : after) {
    out[name] = static_cast<double>(v - before.at(name));
  }
  return out;
}

const std::vector<std::string>& PathCounterNames() {
  static const std::vector<std::string> kNames = {
      "filter.segments_pruned", "filter.dict_rewrites",
      "filter.runs_skipped",    "agg.runs_folded",
      "agg.metadata_answers",   "sort.topn_segments_skipped",
      "scan.bytes_decoded"};
  return kNames;
}

const std::vector<std::string>& PagerCounterNames() {
  static const std::vector<std::string> kNames = {
      "pager.hits", "pager.misses", "pager.evictions", "pager.bytes_read"};
  return kNames;
}

namespace {

/// One reopen of `warm`: SaveDatabase, lazy OpenDatabase under
/// `budget_bytes`, the cold pass and the appends. Cold statement latencies
/// go to `cold_ms`; `resident_bytes`, when set, receives the cache
/// residency after the cold pass.
Result<Round::Reopen> RunReopen(const Engine& warm, const Dataset& data,
                                const std::vector<Statement>& cold_pass,
                                uint64_t budget_bytes, const Options& options,
                                Checker* checker, uint64_t id,
                                std::vector<std::pair<std::string, double>>* cold_ms,
                                uint64_t* file_bytes, uint64_t* resident_bytes) {
  const std::string path = options.tmpdir + "/extract-" + options.workload +
                           "-" + std::to_string(options.seed) + ".tde";
  Round::Reopen r;
  const auto t1 = Clock::now();
  {
    auto span = Span("engine.save_database", id);
    TDE_RETURN_NOT_OK(warm.SaveDatabase(path));
  }
  r.save_s = SecondsSince(t1);
  std::error_code ec;
  *file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot stat " + path);

  const auto t2 = Clock::now();
  Result<Engine> opened = [&] {
    auto span = Span("engine.open_database", id);
    Engine::OpenOptions open;
    open.lazy = true;
    open.cache_budget_bytes = budget_bytes;
    return Engine::OpenDatabase(path, open);
  }();
  if (!opened.ok()) return opened.status();
  Engine cold = opened.MoveValue();
  r.open_s = SecondsSince(t2);

  const auto before = CounterSnapshot(PagerCounterNames());
  const auto t3 = Clock::now();
  for (const Statement& s : cold_pass) {
    const double ms = RunChecked(cold, s, options.strategic, checker, id);
    cold_ms->emplace_back(s.shape, ms);
  }
  r.pass_s = SecondsSince(t3);
  r.pager = CounterDelta(before, CounterSnapshot(PagerCounterNames()));
  if (resident_bytes != nullptr && cold.column_cache() != nullptr) {
    *resident_bytes = cold.column_cache()->bytes_resident();
  }

  TDE_ASSIGN_OR_RETURN(auto table, cold.database()->GetTable(data.append_table));
  uint64_t rows = table->rows();
  const uint64_t want = rows + kAppendBatches * data.append_rows;
  const auto t4 = Clock::now();
  for (int batch = 0; batch < kAppendBatches; ++batch) {
    auto span = Span("engine.append_rows", id);
    for (const tde::Block& b : data.append_blocks) {
      Result<uint64_t> n = cold.AppendRows(data.append_table, b);
      if (!n.ok()) return n.status();
      rows = n.value();
    }
  }
  r.append_s = SecondsSince(t4);
  checker->CheckCount("row count after append", rows, want);
  std::filesystem::remove(path, ec);
  return r;
}

}  // namespace

Result<Round> RunRound(const Dataset& data,
                       const std::vector<Statement>& cold_pass,
                       uint64_t budget_bytes, int reps, const Options& options,
                       Checker* checker, uint64_t id,
                       const std::function<Status(const Engine&)>& before_save) {
  Round round;
  TDE_ASSIGN_OR_RETURN(Imported imported, ImportAll(data, &round.warm, id));
  round.import_s = imported.seconds;
  round.text_bytes = imported.text_bytes;
  for (const auto& imp : round.warm.import_stats()) {
    round.parse_s += imp.parse_seconds;
    round.encode_s += imp.encode_seconds;
  }
  if (before_save) TDE_RETURN_NOT_OK(before_save(round.warm));

  for (int rep = 0; rep < reps; ++rep) {
    TDE_ASSIGN_OR_RETURN(
        Round::Reopen r,
        RunReopen(round.warm, data, cold_pass, budget_bytes, options, checker,
                  id, &round.cold_ms, &round.file_bytes,
                  rep == 0 ? &round.resident_bytes : nullptr));
    round.total_s += r.save_s + r.open_s + r.pass_s + r.append_s;
    round.reopens.push_back(std::move(r));
  }
  round.total_s += round.import_s;
  return round;
}

// --- Traced layer passes ----------------------------------------------------

const std::vector<std::string>& OperatorKinds() {
  static const std::vector<std::string> kKinds = {
      "TableScan", "IndexedScan",      "Filter", "Project", "HashJoin",
      "HashAggregate", "OrderedAggregate", "Sort", "TopN",    "other"};
  return kKinds;
}

namespace {

struct TreeSums {
  std::map<std::string, double> self_ms;
  double scan_rows = 0, join_probe_rows = 0;
};

void WalkStats(const tde::observe::OperatorStats& node, TreeSums* sums) {
  std::string kind = node.name.substr(0, node.name.find('('));
  const auto& kinds = OperatorKinds();
  if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
    kind = "other";
  }
  sums->self_ms[kind] += static_cast<double>(node.self_ns()) / 1e6;
  if (kind == "TableScan" || kind == "IndexedScan") {
    sums->scan_rows += static_cast<double>(node.rows);
  }
  for (const auto& child : node.children) {
    if (kind == "HashJoin") {
      sums->join_probe_rows += static_cast<double>(child->rows);
    }
    WalkStats(*child, sums);
  }
}

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

Status LayerPasses(const Engine& engine, const std::vector<Statement>& pass,
                   int passes, const Options& options, Checker* checker,
                   std::atomic<uint64_t>* next_id,
                   LayerFigures* out) {
  for (int p = 0; p < passes; ++p) {
    double run_ms = 0;
    std::map<std::string, double> self_ms;
    for (const Statement& s : pass) {
      const uint64_t id = next_id->fetch_add(1);
      // The same statement through ExecuteSql, for the unattributed rest,
      // the operator profile and the counter deltas. It runs before the
      // layer calls on even passes and after them on odd ones, so neither
      // side always finds the caches warmed by the other.
      QueryResult result;
      double execute_ms = 0;
      std::map<std::string, double> delta;
      auto execute = [&] {
        const auto before = CounterSnapshot(PathCounterNames());
        execute_ms =
            RunChecked(engine, s, options.strategic, checker, id, &result);
        delta = CounterDelta(before, CounterSnapshot(PathCounterNames()));
      };
      if (p % 2 == 0) execute();

      // The layers one at a time, through their public entry points.
      const auto t0 = Clock::now();
      Result<tde::sql::ParsedQuery> parsed = [&] {
        auto span = Span("sql.parse", id);
        return tde::sql::ParseQuery(s.sql, engine.database());
      }();
      if (!parsed.ok()) return parsed.status();
      const auto t1 = Clock::now();
      Result<tde::PlanNodePtr> optimized = [&] {
        auto span = Span("plan.strategic", id);
        return tde::StrategicOptimize(
            tde::ClonePlan(parsed.value().plan.root()), options.strategic);
      }();
      if (!optimized.ok()) return optimized.status();
      const auto t2 = Clock::now();
      Result<tde::BuiltPlan> built = [&] {
        auto span = Span("plan.lower", id);
        return tde::BuildExecutable(optimized.value());
      }();
      if (!built.ok()) return built.status();
      const auto t3 = Clock::now();
      std::vector<tde::Block> blocks;
      {
        auto span = Span("exec.run", id);
        TDE_RETURN_NOT_OK(tde::DrainOperator(built.value().op.get(), &blocks));
      }
      const auto t4 = Clock::now();
      checker->Check(s, QueryResult(built.value().op->output_schema(),
                                    std::move(blocks)));
      if (p % 2 == 1) execute();

      const double parse = Us(t0, t1), strategic = Us(t1, t2),
                   lower = Us(t2, t3), run = Us(t3, t4);
      out->parse_us.push_back(parse);
      out->strategic_us.push_back(strategic);
      out->lower_us.push_back(lower);
      out->unattributed_us.push_back(execute_ms * 1e3 -
                                     (parse + strategic + lower + run));
      out->front_end_s += (parse + strategic + lower) / 1e6;
      out->execute_sql_s += execute_ms / 1e3;
      run_ms += run / 1e3;
      if (result.stats() != nullptr && result.stats()->root != nullptr) {
        TreeSums sums;
        WalkStats(*result.stats()->root, &sums);
        for (const auto& [kind, ms] : sums.self_ms) self_ms[kind] += ms;
        if (p == 0) {
          out->scan_rows += sums.scan_rows;
          out->join_probe_rows += sums.join_probe_rows;
        }
      }
      if (p == 0) {
        out->result_rows += static_cast<double>(result.num_rows());
        for (const auto& [name, v] : delta) out->counters[name] += v;
      }
    }
    out->run_ms_per_pass.push_back(run_ms);
    for (const std::string& kind : OperatorKinds()) {
      out->self_ms_per_pass[kind].push_back(self_ms[kind]);
    }
  }
  return Status::OK();
}

// --- Decode matrix ----------------------------------------------------------

namespace {

std::atomic<uint64_t> g_decode_sink{0};

/// Decodes rows [begin, end) of `s` in block-sized Get calls; returns ns.
double TimeGet(const tde::EncodedStream& s, uint64_t begin, uint64_t end) {
  std::vector<tde::Lane> out(tde::kBlockSize);
  uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (uint64_t row = begin; row < end; row += tde::kBlockSize) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(tde::kBlockSize, end - row));
    if (!s.Get(row, n, out.data()).ok()) return -1;
    sink ^= static_cast<uint64_t>(out[n - 1]);
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  g_decode_sink.fetch_xor(sink, std::memory_order_relaxed);
  return ns;
}

template <typename Fn>
void ForEachStream(const std::vector<const Engine*>& engines, Fn&& fn) {
  for (const Engine* e : engines) {
    for (const auto& table : e->database().tables()) {
      for (size_t i = 0; i < table->num_columns(); ++i) {
        const tde::Column& col = table->column(i);
        const tde::EncodedStream* stream = col.data();
        if (stream == nullptr) continue;
        fn(col, *stream);
      }
    }
  }
}

}  // namespace

std::map<std::string, DecodeCell> DecodeMatrix(
    const std::vector<const Engine*>& engines, int reps) {
  std::map<std::string, std::vector<double>> ns_by_rep;
  std::map<std::string, uint64_t> rows;
  for (int rep = 0; rep < reps; ++rep) {
    std::map<std::string, double> ns;
    ForEachStream(engines, [&](const tde::Column& col,
                               const tde::EncodedStream& stream) {
      const std::string type = tde::TypeName(col.type());
      auto add = [&](const tde::EncodedStream& inner, const char* shape,
                     double t, uint64_t n) {
        const std::string key =
            std::string(tde::EncodingName(inner.type())) + "." + type + "." +
            shape;
        ns[key] += t;
        if (rep == 0) rows[key] += n;
      };
      const auto* seg = dynamic_cast<const tde::SegmentedStream*>(&stream);
      if (seg == nullptr) {
        add(stream, "mono", TimeGet(stream, 0, stream.size()), stream.size());
        return;
      }
      const auto shapes = seg->Shapes();
      for (size_t idx = 0; idx < shapes.size(); ++idx) {
        if (shapes[idx].open_tail) continue;
        auto inner = seg->SegmentStreamForRead(idx);
        if (!inner.ok()) continue;
        const tde::EncodedStream& s = *inner.value();
        const uint64_t begin = shapes[idx].start_row;
        add(s, "mono", TimeGet(s, 0, s.size()), s.size());
        add(s, "seg", TimeGet(*seg, begin, begin + shapes[idx].rows),
            shapes[idx].rows);
      }
    });
    for (const auto& [key, t] : ns) ns_by_rep[key].push_back(t);
  }
  std::map<std::string, DecodeCell> out;
  for (const auto& [key, v] : ns_by_rep) {
    out[key] = DecodeCell{
        Median(v) / static_cast<double>(std::max<uint64_t>(1, rows[key])),
        rows[key]};
  }
  return out;
}

std::map<std::string, double> EncodingChoices(const Engine& engine) {
  std::map<std::string, double> out;
  for (auto t : {tde::EncodingType::kUncompressed,
                 tde::EncodingType::kFrameOfReference,
                 tde::EncodingType::kDelta, tde::EncodingType::kDictionary,
                 tde::EncodingType::kAffine, tde::EncodingType::kRunLength}) {
    out[tde::EncodingName(t)] = 0;
  }
  ForEachStream({&engine}, [&](const tde::Column&,
                               const tde::EncodedStream& stream) {
    const auto* seg = dynamic_cast<const tde::SegmentedStream*>(&stream);
    if (seg == nullptr) {
      out[tde::EncodingName(stream.type())] += 1;
      return;
    }
    for (const auto& shape : seg->Shapes()) {
      if (!shape.open_tail) out[tde::EncodingName(shape.encoding)] += 1;
    }
  });
  return out;
}

const std::vector<std::string>& DecodeCellNames() {
  // Every encoding x type the three workloads store, as measured at SF 0.1
  // and 2M Flights rows (the same for every seed). affine and uncompressed
  // reals occur only in customer, which is shorter than one segment, so
  // they have no segmented figure.
  static const std::vector<std::string> kNames = {
      "affine.integer.mono",           "affine.string.mono",
      "delta.integer.mono",            "delta.integer.seg",
      "delta.string.mono",             "delta.string.seg",
      "dictionary.real.mono",          "dictionary.real.seg",
      "dictionary.string.mono",        "dictionary.string.seg",
      "frame-of-reference.date.mono",  "frame-of-reference.date.seg",
      "frame-of-reference.integer.mono", "frame-of-reference.integer.seg",
      "frame-of-reference.real.mono",  "frame-of-reference.real.seg",
      "frame-of-reference.string.mono", "frame-of-reference.string.seg",
      "run-length.boolean.mono",       "run-length.boolean.seg",
      "run-length.date.mono",          "run-length.date.seg",
      "run-length.integer.mono",       "run-length.integer.seg",
      "uncompressed.real.mono"};
  return kNames;
}

}  // namespace perfbench
