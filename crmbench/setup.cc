// Dataset generation, the per-layout durable databases, and the small
// helpers shared by the other files.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/chunk_folding_layout.h"
#include "core/chunk_layout.h"
#include "core/extension_layout.h"
#include "core/pivot_layout.h"
#include "core/tenant_session.h"
#include "testbed/crm_schema.h"

namespace crmbench {

namespace {

const char* const kStatuses[] = {"new", "open", "won", "lost"};

/// Explicit checkpoint cadence during the load. Generic layouts run each
/// logical insert as a multi-statement bracket, which defers automatic
/// checkpoints, so without this the WAL of one load grows to gigabytes.
constexpr int kLoadCheckpointEvery = 250;

const mtdb::mapping::AppSchema& App() {
  static const auto* app =
      new mtdb::mapping::AppSchema(mtdb::testbed::BuildCrmAppSchema());
  return *app;
}

uint64_t ValueBytes(const Value& v) {
  if (v.is_null()) return 0;
  switch (v.type()) {
    case mtdb::TypeId::kString:
      return v.AsString().size();
    case mtdb::TypeId::kInt32:
    case mtdb::TypeId::kDate:
      return 4;
    case mtdb::TypeId::kBool:
      return 1;
    default:
      return 8;
  }
}

std::unique_ptr<mtdb::mapping::SchemaMapping> MakeLayout(
    const std::string& name, mtdb::Database* db) {
  using namespace mtdb::mapping;  // NOLINT
  if (name == "extension") {
    return std::make_unique<ExtensionTableLayout>(db, &App());
  }
  if (name == "chunk") return std::make_unique<ChunkTableLayout>(db, &App());
  if (name == "pivot") return std::make_unique<PivotTableLayout>(db, &App());
  return std::make_unique<ChunkFoldingLayout>(db, &App());
}

/// Open, bootstrap, provision and load one layout; "" on success.
std::string SetupOne(const Dataset& data, uint64_t budget,
                     LayoutUnderTest* lut) {
  const uint64_t start = NowNs();
  std::error_code ec;
  std::filesystem::remove_all(lut->dir, ec);
  mtdb::DatabaseOptions opts = mtdb::DatabaseOptions::WithPath(lut->dir);
  opts.engine.memory_budget_bytes = budget;
  // Admission on with caps that never bind, so its admit span is measured
  // without ever queueing or rejecting a statement.
  opts.admission.enabled = true;
  auto db = mtdb::Database::Open(opts);
  if (!db.ok()) return "open: " + db.status().ToString();
  lut->db = std::move(*db);
  lut->layout = MakeLayout(lut->name, lut->db.get());
  mtdb::Status st = lut->layout->Bootstrap();
  if (!st.ok()) return "bootstrap: " + st.ToString();
  int since_checkpoint = 0;
  for (int t = 0; t < data.scale.tenants; ++t) {
    st = lut->layout->CreateTenant(t);
    if (!st.ok()) return "create tenant: " + st.ToString();
    if (!data.tenants[t].extension.empty()) {
      st = lut->layout->EnableExtension(t, data.tenants[t].extension);
      if (!st.ok()) return "enable extension: " + st.ToString();
    }
    mtdb::mapping::TenantSession session = lut->layout->OpenSession(t);
    for (const Dataset::Insert& ins : data.inserts[t]) {
      auto r = session.Execute(ins.sql, ins.params);
      if (!r.ok()) return "load: " + r.status().ToString();
      if (++since_checkpoint == kLoadCheckpointEvery) {
        since_checkpoint = 0;
        st = lut->db->Checkpoint();
        if (!st.ok()) return "checkpoint: " + st.ToString();
      }
    }
  }
  st = lut->db->Checkpoint();
  if (!st.ok()) return "checkpoint: " + st.ToString();
  lut->model = data.tenants;
  lut->setup_s = SecondsSince(start);
  mtdb::EngineStats stats = lut->db->Stats();
  lut->loaded_pages = lut->db->page_store()->allocated_pages();
  lut->pool_frames = stats.buffer_capacity;
  lut->space_amp = static_cast<double>(lut->loaded_pages) *
                   lut->db->page_store()->page_size() /
                   static_cast<double>(data.logical_bytes);
  return "";
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPoint:
      return "crm_point";
    case Workload::kReport:
      return "crm_report";
    case Workload::kTxn:
      return "crm_txn";
  }
  return "?";
}

PhaseOptions TimedPhase(Workload w, uint64_t seed, double seconds,
                        int layout, int phase) {
  PhaseOptions opts;
  opts.workload = w;
  opts.seed = seed;
  opts.phase = phase;
  opts.warmup_s = seconds * kLayoutShare[layout] * 0.1;
  opts.measure_s = seconds * kLayoutShare[layout] * 0.9;
  return opts;
}

Dataset MakeDataset(const Scale& scale, uint64_t seed) {
  Dataset d;
  d.scale = scale;
  mtdb::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  d.tenants.resize(scale.tenants);
  d.inserts.resize(scale.tenants);
  for (int t = 0; t < scale.tenants; ++t) {
    TenantModel& m = d.tenants[t];
    m.extension = t % 3 == 0   ? "healthcare_account"
                  : t % 3 == 1 ? "automotive_account"
                               : "";
    std::string account_sql =
        "INSERT INTO account (id, campaign_id, name, status, amount";
    if (t % 3 == 0) account_sql += ", hospital, beds";
    if (t % 3 == 1) account_sql += ", dealers, fleet_size";
    account_sql += t % 3 == 2 ? ") VALUES (?, ?, ?, ?, ?)"
                              : ") VALUES (?, ?, ?, ?, ?, ?, ?)";
    auto add = [&](std::string sql, std::vector<Value> params) {
      for (const Value& v : params) d.logical_bytes += ValueBytes(v);
      d.inserts[t].push_back({std::move(sql), std::move(params)});
    };
    for (int64_t id = 1; id <= scale.accounts; ++id) {
      Account a{kStatuses[rng.Uniform(0, 3)], rng.Uniform(1, 10000)};
      std::vector<Value> p = {Value::Int64(id), Value::Int64(rng.Uniform(1, 50)),
                              Value::String(rng.Word(5, 12)),
                              Value::String(a.status),
                              Value::Double(static_cast<double>(a.amount))};
      if (t % 3 == 0) {
        p.push_back(Value::String(rng.Word(6, 14)));
        p.push_back(Value::Int32(static_cast<int32_t>(rng.Uniform(10, 900))));
      } else if (t % 3 == 1) {
        p.push_back(Value::Int32(static_cast<int32_t>(rng.Uniform(1, 40))));
        p.push_back(Value::Int32(static_cast<int32_t>(rng.Uniform(5, 5000))));
      }
      add(account_sql, std::move(p));
      m.accounts[id] = a;
    }
    const int64_t opportunities =
        scale.accounts / kAccountsPerOpportunity;
    for (int64_t id = 1; id <= opportunities; ++id) {
      Opportunity o{rng.Uniform(1, scale.accounts), kStatuses[rng.Uniform(0, 3)],
                    rng.Uniform(100, 50000)};
      add("INSERT INTO opportunity (id, account_id, name, status, amount) "
          "VALUES (?, ?, ?, ?, ?)",
          {Value::Int64(id), Value::Int64(o.account_id),
           Value::String(rng.Word(5, 12)), Value::String(o.status),
           Value::Double(static_cast<double>(o.amount))});
      m.opportunities[id] = o;
    }
  }
  return d;
}

double SetupLayouts(const Dataset& data, const std::string& root,
                    uint64_t memory_budget_bytes,
                    std::vector<LayoutUnderTest>* out) {
  out->clear();
  out->resize(kNumLayouts);
  std::vector<std::string> errors(kNumLayouts);
  const uint64_t start = NowNs();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kNumLayouts; ++i) {
      (*out)[i].name = kLayouts[i];
      (*out)[i].dir = root + "/" + kLayouts[i];
      threads.emplace_back([&, i] {
        errors[i] = SetupOne(data, memory_budget_bytes, &(*out)[i]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall = SecondsSince(start);
  bool ok = true;
  for (int i = 0; i < kNumLayouts; ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "setup %s: %s\n", kLayouts[i], errors[i].c_str());
      ok = false;
    }
  }
  return ok ? wall : -1;
}

void TeardownLayouts(std::vector<LayoutUnderTest>* layouts) {
  for (LayoutUnderTest& lut : *layouts) {
    lut.layout.reset();
    lut.db.reset();
    std::error_code ec;
    std::filesystem::remove_all(lut.dir, ec);
  }
  layouts->clear();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

uint64_t SumCounters(const mtdb::MetricsSnapshot& snap,
                     const std::string& prefix) {
  uint64_t sum = 0;
  for (const auto& c : snap.counters) {
    if (c.name.compare(0, prefix.size(), prefix) == 0) sum += c.value;
  }
  return sum;
}

}  // namespace crmbench
