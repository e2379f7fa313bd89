// Shared declarations of the CRM statement-cost benchmark: the seeded
// dataset and its shadow model, the four layouts under test, the
// workload runners and the traced (per-layer) pass. See README.md for
// why each workload and layout was chosen.
#ifndef CRMBENCH_BENCH_H_
#define CRMBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "core/layout.h"
#include "engine/database.h"

namespace crmbench {

using mtdb::Value;

enum class Workload { kPoint, kReport, kTxn };

const char* WorkloadName(Workload w);

/// The layouts under test, in run order.
inline constexpr std::array<const char*, 4> kLayouts = {
    "extension", "chunk", "pivot", "chunkfolding"};
inline constexpr int kNumLayouts = static_cast<int>(kLayouts.size());

/// Share of a run's seconds each layout is measured for. The slow generic
/// layouts get more time so that their tail rests on enough samples.
inline constexpr std::array<double, 4> kLayoutShare = {0.15, 0.20, 0.35,
                                                       0.30};

/// Data scale. Tenants come in threes (healthcare, automotive, none, as in
/// E11) and split evenly between the two clients.
struct Scale {
  int tenants = 6;
  int accounts = 1000;  // per tenant, ids 1..accounts
};

/// Each tenant has one opportunity per this many accounts.
inline constexpr int kAccountsPerOpportunity = 2;

inline constexpr int kClients = 2;

/// Fixed memory budgets. crm_point and crm_txn fit every layout's data in
/// the pool; crm_report's budget leaves every layout with at least twice
/// as many loaded pages as pool frames (checked after the load).
inline constexpr uint64_t kFitBudgetBytes = 256ull << 20;
inline constexpr uint64_t kReportBudgetBytes = 1792ull << 10;

// ---------------------------------------------------------------------
// Shadow model.

struct Account {
  std::string status;
  int64_t amount = 0;  // integer-valued, so sums are exact in a double
};

struct Opportunity {
  int64_t account_id = 0;
  std::string status;
  int64_t amount = 0;
};

struct TenantModel {
  std::string extension;  // "" for none
  std::map<int64_t, Account> accounts;
  std::map<int64_t, Opportunity> opportunities;
};

/// The seeded dataset every layout loads: the initial shadow model plus
/// the exact column values inserted.
struct Dataset {
  Scale scale;
  std::vector<TenantModel> tenants;
  /// Per tenant: the account and opportunity INSERTs with their params.
  struct Insert {
    std::string sql;
    std::vector<Value> params;
  };
  std::vector<std::vector<Insert>> inserts;
  /// Bytes of the non-NULL values loaded (8 for 64-bit numbers, 4 for
  /// 32-bit ones, the length of strings): the base of storage.space_amp.
  uint64_t logical_bytes = 0;
};

Dataset MakeDataset(const Scale& scale, uint64_t seed);

// ---------------------------------------------------------------------
// Layouts under test.

struct LayoutUnderTest {
  std::string name;
  std::string dir;
  std::unique_ptr<mtdb::Database> db;
  std::unique_ptr<mtdb::mapping::SchemaMapping> layout;
  std::vector<TenantModel> model;  // shadow state of this layout's data
  double setup_s = 0;
  uint64_t loaded_pages = 0;
  uint64_t pool_frames = 0;
  double space_amp = 0;
};

/// Opens one durable Database per layout under `root`, bootstraps the
/// layout, creates the tenants, enables their extensions, loads `data`
/// and checkpoints. The four layouts load in parallel threads; returns
/// the wall time, or a negative value (after printing why) on failure.
double SetupLayouts(const Dataset& data, const std::string& root,
                    uint64_t memory_budget_bytes,
                    std::vector<LayoutUnderTest>* out);

/// Closes the databases and removes their directories.
void TeardownLayouts(std::vector<LayoutUnderTest>* layouts);

// ---------------------------------------------------------------------
// Workload runner.

/// One logical operation: a statement on crm_point/crm_report, a whole
/// BEGIN..COMMIT/ROLLBACK transaction on crm_txn.
struct Op {
  enum Kind : uint8_t {
    kPointSelect,
    kPointUpdate,
    kInsert,
    kDelete,
    kRollup,
    kRange,
    kJoin,
    kTransfer,
  };
  Kind kind = kPointSelect;
  int tenant = 0;
  int64_t a = 0;  // key, range start, or first account
  int64_t b = 0;  // range end or second account
  int64_t value = 0;
  int64_t new_id = 0;     // id of the row an INSERT adds
  bool rollback = false;  // crm_txn: end in ROLLBACK instead of COMMIT
};

const char* OpKindName(Op::Kind k);

/// Deterministic per-client op stream: the same (workload, seed, client)
/// yields the same ops on every layout.
class OpStream {
 public:
  /// `phase` numbers the phases run on one database, so that the rows
  /// each phase inserts get ids no earlier phase used.
  OpStream(Workload w, const Scale& scale, uint64_t seed, int client,
           int phase = 0);
  Op Next();

 private:
  Workload w_;
  Scale scale_;
  int client_;
  uint64_t state_;
  int64_t next_insert_id_;
  uint64_t Rand();
  int64_t Uniform(int64_t lo, int64_t hi);
};

/// Per-statement record kept by traced runs (copied from
/// StatementTracer::last() after each statement).
struct StmtRecord {
  bool select = false;
  uint64_t root_ns = 0;
  uint64_t children_ns = 0;  // direct children of the root
  uint64_t admit_ns = 0;
  uint64_t lock_wait_ns = 0;
  uint64_t pool_reads = 0;  // hits + misses, whole tree
  uint64_t rows = 0;        // result rows (SELECT only)
};

/// Per-op outcome record.
struct OpRecord {
  Op::Kind kind;
  bool measured = false;  // started after the warm-up
  bool ok = true;
  bool rollback = false;
  uint64_t latency_ns = 0;
  bool checkpointed = false;  // the checkpoint counter advanced during it
};

struct PhaseOptions {
  Workload workload = Workload::kPoint;
  uint64_t seed = 1;
  int clients = kClients;
  int phase = 0;  // see OpStream
  double warmup_s = 0;
  double measure_s = 1;
  /// When > 0, each client runs exactly this many ops instead of a timed
  /// loop (the count-determinism self-check).
  int fixed_ops = 0;
  bool trace = false;
  /// Full span trees of traced statements are appended here as JSON
  /// lines when non-null (one per statement).
  std::vector<std::string>* span_sink = nullptr;
};

/// The measured phase runs in this many rounds, each visiting every layout
/// in turn; end-to-end figures are medians over the rounds, so a burst of
/// noise on the host that slows a few rounds moves none of them.
inline constexpr int kRounds = 8;

/// The timed phase of `layout` (index into kLayouts) in a pass over the
/// layouts lasting `seconds`: the layout's share of it, the first 10 %
/// of which warms the caches unmeasured.
PhaseOptions TimedPhase(Workload w, uint64_t seed, double seconds, int layout,
                        int phase);

struct PhaseResult {
  std::vector<OpRecord> ops;
  std::vector<StmtRecord> stmts;  // traced runs only
  uint64_t attempted = 0;
  uint64_t failed = 0;      // errors plus shadow-model mismatches
  uint64_t mismatches = 0;  // shadow-model disagreements alone
  uint64_t logical_writes = 0;
  uint64_t logical_statements = 0;
  uint64_t transactions = 0;
  double measured_wall_s = 0;
  std::vector<std::string> errors;  // first few, for the report

  /// Adds `r`'s records and counts (measured time included) to this one.
  void Append(PhaseResult&& r);
};

/// Runs one workload phase on one layout with `opts.clients` closed-loop
/// client threads, checking each result against the layout's shadow
/// model. crm_txn also checks conservation after the phase.
PhaseResult RunPhase(LayoutUnderTest* lut, const Scale& scale,
                     const PhaseOptions& opts);

/// One SELECT of a workload, as the stage probe replays it.
struct SampleSelect {
  int tenant = 0;
  std::string sql;
  std::vector<Value> params;
};

/// A sample of the workload's SELECTs (for crm_txn, its post-run
/// conservation queries).
std::vector<SampleSelect> SampleSelects(Workload w, const Scale& scale,
                                        uint64_t seed, int count);

// ---------------------------------------------------------------------
// Traced run (per-layer metrics).

/// The metrics object of the result line.
class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit);
  std::string Render(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::string body_;
};

struct TracedOutcome {
  bool ran = false;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Reruns the workload on each loaded layout with tracing on, then the
/// stage probe, the untraced reference phase (tracing overhead) and the
/// count-determinism self-check; adds every per-layer metric to `json`.
/// Span trees are written to `workdir`/spans-<workload>.jsonl.
TracedOutcome RunTraced(const Scale& scale, Workload w, uint64_t seed,
                        int seconds,
                        std::vector<LayoutUnderTest>* layouts,
                        uint64_t memory_budget_bytes,
                        const std::string& workdir, MetricsJson* json);

// ---------------------------------------------------------------------
// Small helpers.

double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double SecondsSince(uint64_t start_ns);
uint64_t NowNs();

/// Every counter of the registry whose name starts with `prefix`, summed.
uint64_t SumCounters(const mtdb::MetricsSnapshot& snap,
                     const std::string& prefix);

}  // namespace crmbench

#endif  // CRMBENCH_BENCH_H_
