#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared machinery of the repository benchmark: timing, percentiles, answer
// checking, spans, the extract round every workload runs in set-up, the
// traced layer pass and the per-encoding decode matrix. The benchmark
// drives the engine only through its public entry points and times the
// calls from outside; nothing here instruments src/.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/observe/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line configuration of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Input sizes. The defaults are the benchmark's; smaller values exist
  /// for the self-test only.
  double sf = 0.1;
  uint64_t flights_rows = 2000000;
  /// Set-up rounds (at least 2, and at least one per client): setup_s is
  /// their median import time.
  int rounds = 3;
  /// Scratch directory for saved extracts (inside the checkout).
  std::string tmpdir = ".bench_build/tmp";
  /// Where the traced run writes its spans (Chrome trace JSON); empty = none.
  std::string spans_path;
  /// Diagnostic kill switches applied to every measured ExecuteSql call.
  tde::StrategicOptions strategic;
  std::string disabled;  // the switch names, for the stamp
  /// Self-test: perturb one expected answer so every check of it fails.
  bool corrupt_expected = false;
};

/// Every StrategicOptions rewrite switched off: the answer reference.
tde::StrategicOptions AllRewritesOff();
/// Clears the named StrategicOptions switch; false for an unknown name.
bool DisableSwitch(const std::string& name, tde::StrategicOptions* options);

// --- Samples and percentiles ---------------------------------------------

struct Tail {
  double value = 0;
  double percentile = 100;  // the percentile `value` sits at
  size_t beyond = 0;        // samples above it
  size_t n = 0;
  size_t windows = 1;
};

double Median(std::vector<double> v);
/// The highest percentile with at least ten samples beyond it; the maximum
/// (flagged by beyond < 10) when fewer than eleven samples exist.
Tail TailOf(std::vector<double> v);
/// TailOf per window of kTailWindow consecutive samples (p96), and the
/// median over windows; TailOf of all samples when there are fewer than
/// two windows. One stall then moves one window, not the run's figure.
inline constexpr size_t kTailWindow = 250;
Tail WindowedTail(const std::vector<double>& v);
double GeoMean(const std::vector<double>& v);

/// Statement latencies keyed by statement shape, merged across clients.
struct Latencies {
  std::map<std::string, std::vector<double>> by_shape;  // ms
  void Add(const std::string& shape, double ms) {
    by_shape[shape].push_back(ms);
    all.push_back(ms);
  }
  void Merge(const Latencies& other);
  std::vector<double> all;  // in completion order (per client)
  /// Median over shapes of each shape's median.
  double MedianOfMedians() const;
  /// Geometric mean of each shape's median.
  double GeoMeanOfMedians() const;
};

// --- Answers --------------------------------------------------------------

/// One SQL statement a workload issues. `shape` groups statements that
/// differ only in their literals (for per-shape medians); `ordered` means
/// the statement's ORDER BY fixes the row order, so rows compare in order.
struct Statement {
  std::string shape;
  std::string sql;
  bool ordered = true;
};

/// Checks and failure counts shared by every thread of a run.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  void Record(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// A result reduced to comparable cells: reals as doubles (compared with a
/// relative tolerance), everything else as its formatted text.
struct Answer {
  struct Cell {
    bool real = false;
    double d = 0;
    std::string text;
  };
  std::vector<std::vector<Cell>> rows;
};

Answer ToAnswer(const tde::QueryResult& result, bool ordered);
/// True when `got` equals `want` (reals within 1e-9 relative); otherwise
/// `why` says where they first differ.
bool SameAnswer(const Answer& got, const Answer& want, std::string* why);

/// Expected answers, computed once in set-up through
/// ExecuteSql(sql, AllRewritesOff()), read-only afterwards.
class Checker {
 public:
  explicit Checker(Tally* tally) : tally_(tally) {}
  /// Computes the reference answer of every statement not seen yet.
  tde::Status Prepare(const tde::Engine& engine,
                      const std::vector<Statement>& statements);
  /// Perturbs the expected answer of `sql` (self-test of the checking).
  void Corrupt(const std::string& sql);
  /// Counts one check: the statement's result (or error) against its
  /// expected answer. Returns whether it matched.
  bool Check(const Statement& s, const tde::Result<tde::QueryResult>& got);
  /// Counts one non-answer check (e.g. a row count after an append).
  bool CheckCount(const char* what, uint64_t got, uint64_t want);
  Tally* tally() { return tally_; }

 private:
  Tally* tally_;
  std::map<std::string, Answer> expected_;  // by SQL text
  std::mutex report_mu_;
  int reported_ = 0;  // mismatches printed so far (stderr, capped)
};

// --- Spans ----------------------------------------------------------------

/// A span in the engine's own trace recorder (observe::TraceRecorder, which
/// only the traced run enables), cut at one public call. The spans of one
/// query or interaction share `id`, carried as the span's category.
inline tde::observe::TraceSpan Span(const char* name, uint64_t id) {
  return tde::observe::TraceSpan(
      name, tde::observe::TraceRecorder::Global().enabled()
                ? "id=" + std::to_string(id)
                : std::string());
}

/// Runs a statement through ExecuteSql inside a span and checks it.
/// Returns the latency in ms.
double RunChecked(const tde::Engine& engine, const Statement& s,
                  const tde::StrategicOptions& options, Checker* checker,
                  uint64_t id, tde::QueryResult* out = nullptr);

// --- Datasets and the extract round ---------------------------------------

/// One table of a workload: how to generate its text from the seed and the
/// import options it is read with. A run generates the text once into a
/// file (WriteTextFiles) and reads it back just before each import, handing
/// it to the engine, so the benchmark holds no copy of it between imports.
struct TableSource {
  std::string name;
  std::function<std::string()> text;
  tde::ImportOptions options;
};

/// A workload's inputs: the tables the engine imports and the seeded batch
/// AppendRows adds after a cold reopen.
struct Dataset {
  std::vector<TableSource> tables;
  /// Each table's text file (WriteTextFiles), which ImportAll reads back
  /// for every import; empty: ImportAll generates the text for each import.
  std::vector<std::string> text_files;
  std::string append_table;
  std::vector<tde::Block> append_blocks;
  uint64_t append_rows = 0;
};

/// Generates and imports every table of `data` into `engine` (one span per
/// table); `seconds` counts only the ImportTextBuffer calls.
struct Imported {
  double seconds = 0;
  uint64_t text_bytes = 0;
};
tde::Result<Imported> ImportAll(const Dataset& data, tde::Engine* engine,
                                uint64_t id);

/// Generates each table's text once and writes it to `prefix`-<table>.txt,
/// so a run generates its text once and holds no copy between imports.
tde::Status WriteTextFiles(const std::string& prefix, Dataset* data);
/// Removes the files WriteTextFiles wrote.
void RemoveTextFiles(Dataset* data);

/// Turns a text batch into AppendRows blocks: imports it into a scratch
/// engine with the table's options and reads it back with SELECT *.
tde::Status LoadAppendBatch(const TableSource& batch, Dataset* data);

/// Registry counter deltas (global MetricsRegistry).
std::map<std::string, uint64_t> CounterSnapshot(
    const std::vector<std::string>& names);
std::map<std::string, double> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after);

/// The registry counters the traced run reports: compressed-path counts
/// (per pass) and pager activity (per cold pass).
const std::vector<std::string>& PathCounterNames();
const std::vector<std::string>& PagerCounterNames();

/// One extract round: ImportTextBuffer every table, then `reps` times:
/// SaveDatabase to a temp file, lazy OpenDatabase under `budget_bytes`, one
/// cold pass of `cold_pass` (answers checked), AppendRows of the seeded batch
/// kAppendBatches times in a row (row count checked). `warm` keeps the
/// imported in-memory engine; the appends go to the reopened copies.
inline constexpr int kAppendBatches = 3;
struct Round {
  struct Reopen {
    double save_s = 0, open_s = 0, pass_s = 0;
    double append_s = 0;  // all kAppendBatches batches
    std::map<std::string, double> pager;  // counter deltas over the pass
  };
  tde::Engine warm;
  double import_s = 0, parse_s = 0, encode_s = 0;
  uint64_t text_bytes = 0;  // input text imported
  uint64_t file_bytes = 0;
  uint64_t resident_bytes = 0;  // cache residency after the first pass
  std::vector<Reopen> reopens;
  std::vector<std::pair<std::string, double>> cold_ms;  // (shape, ms)
  double total_s = 0;  // the timed engine calls, without text generation
};

/// `before_save`, when set, runs on the freshly imported engine before the
/// first save (set-up uses it to compute the expected answers).
tde::Result<Round> RunRound(
    const Dataset& data, const std::vector<Statement>& cold_pass,
    uint64_t budget_bytes, int reps, const Options& options,
    Checker* checker, uint64_t id,
    const std::function<tde::Status(const tde::Engine&)>& before_save = {});

// --- Traced run -----------------------------------------------------------

/// Per-layer figures from running every statement both through the public
/// layer calls (ParseQuery, StrategicOptimize, BuildExecutable,
/// DrainOperator) and through ExecuteSql.
struct LayerFigures {
  std::vector<double> parse_us, strategic_us, lower_us, unattributed_us;
  double front_end_s = 0, execute_sql_s = 0;
  std::vector<double> run_ms_per_pass;
  std::map<std::string, std::vector<double>> self_ms_per_pass;  // by kind
  double scan_rows = 0, join_probe_rows = 0, result_rows = 0;
  std::map<std::string, double> counters;  // per pass, from the first pass
};

/// Operator kinds exec.self_ms is reported for ("other" collects the rest).
const std::vector<std::string>& OperatorKinds();

tde::Status LayerPasses(const tde::Engine& engine,
                        const std::vector<Statement>& pass, int passes,
                        const Options& options, Checker* checker,
                        std::atomic<uint64_t>* next_id,
                        LayerFigures* out);

/// Decode cost of one encoding x type x stream shape.
struct DecodeCell {
  double ns = 0;
  uint64_t rows = 0;
};

/// Key "<encoding>.<type>.<mono|seg>". "mono" calls EncodedStream::Get on a
/// monolithic stream (a short column, or one segment's own stream); "seg"
/// calls it through the SegmentedStream over that segment's rows.
std::map<std::string, DecodeCell> DecodeMatrix(
    const std::vector<const tde::Engine*>& engines, int reps);

/// Stored encoded streams per encoding (monolithic columns + segments).
std::map<std::string, double> EncodingChoices(const tde::Engine& engine);

/// The encoding x type x shape cells the workloads store (the per_layer
/// metric list; a shape absent here is not stored at all).
const std::vector<std::string>& DecodeCellNames();

// --- Workloads --------------------------------------------------------------

/// A workload: its inputs, its statements and its closed-loop operation.
/// Built in place (the operation refers back to it), never copied.
struct Workload {
  /// One closed-loop operation of one client on its engine (none for
  /// refresh cycles): `i` numbers it within the run, `id` tags its spans.
  /// Records statement latencies in `q` (and, for refresh cycles, the
  /// cycle's figures in `rounds`); returns the op's ms.
  using Op = std::function<double(const tde::Engine* engine, uint64_t i,
                                  uint64_t id, Latencies* q,
                                  std::vector<Round>* rounds)>;
  std::string name;
  std::string dataset;        // "tpch" or "flights"
  std::string other_dataset;  // the rest of the decode matrix
  Dataset data;
  /// Client threads of the closed loop, each on its own engine imported
  /// in set-up from the same seed.
  int clients = 1;
  uint64_t budget_bytes = 0;  // cache budget of the cold reopen
  /// The loop runs in phases of this many seconds, with one extract round
  /// between two phases, so the extract figures are sampled over the whole
  /// run rather than only in set-up (0: one phase; extract_refresh's loop
  /// is extract rounds already).
  double phase_s = 0;
  /// The loop repeats the extract round (extract_refresh): its extract
  /// metrics come from the loop's cycles, it needs no warm engine, and
  /// query_tail_ms is the median over cycles of each cycle's slowest cold
  /// statement rather than the windowed tail over all statements.
  bool refresh = false;
  std::vector<Statement> statements;  // every distinct statement
  std::vector<Statement> cold_pass;   // one cold pass after a reopen
  std::vector<std::vector<Statement>> clicks;  // flights_dashboard only
  /// The clients' engines, set after set-up (the first also serves the
  /// traced passes).
  std::vector<const tde::Engine*> engines;
  Op op;
};

/// Generates the "tpch" (lineitem, orders, customer) or "flights" inputs.
tde::Status MakeDataset(const std::string& which, const Options& options,
                        Dataset* data);
/// Defines options.workload's statements and operation (not its data).
tde::Status MakeWorkload(const Options& options, Checker* checker,
                         Workload* workload);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
