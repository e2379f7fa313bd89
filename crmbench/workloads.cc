// The three CRM workloads: op streams, the closed-loop clients and
// the shadow-model checks.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "core/tenant_session.h"

namespace crmbench {

namespace {

using mtdb::QueryResult;
using mtdb::mapping::TenantSession;

const char kPointSelect[] = "SELECT * FROM account WHERE id = ?";
const char kPointUpdate[] = "UPDATE account SET amount = ? WHERE id = ?";
const char kInsertAccount[] =
    "INSERT INTO account (id, campaign_id, name, status, amount) "
    "VALUES (?, 0, ?, 'new', ?)";
const char kDeleteAccount[] = "DELETE FROM account WHERE id = ?";
const char kRollup[] =
    "SELECT status, COUNT(*), SUM(amount) FROM account GROUP BY status";
const char kRange[] =
    "SELECT COUNT(*), SUM(amount) FROM account WHERE id >= ? AND id < ?";
const char kJoin[] =
    "SELECT a.status, COUNT(*), SUM(o.amount) FROM account a "
    "JOIN opportunity o ON o.account_id = a.id "
    "WHERE a.id >= ? AND a.id < ? GROUP BY a.status";
const char kDebit[] = "UPDATE account SET amount = amount - ? WHERE id = ?";
const char kCredit[] = "UPDATE account SET amount = amount + ? WHERE id = ?";
const char kInsertOpportunity[] =
    "INSERT INTO opportunity (id, account_id, name, status, amount) "
    "VALUES (?, ?, 'deal', 'open', ?)";
const char kAccountTotals[] = "SELECT COUNT(*), SUM(amount) FROM account";
const char kOpportunityCount[] = "SELECT COUNT(*) FROM opportunity";

constexpr int64_t kRangeWidth = 250;
constexpr int64_t kJoinWidth = 100;
/// crm_txn's hot set: 90 % of account picks fall on ids 1..kHotAccounts.
constexpr int64_t kHotAccounts = 24;

}  // namespace

const char* OpKindName(Op::Kind k) {
  switch (k) {
    case Op::kPointSelect:
      return "point-select";
    case Op::kPointUpdate:
      return "point-update";
    case Op::kInsert:
      return "insert";
    case Op::kDelete:
      return "delete";
    case Op::kRollup:
      return "rollup";
    case Op::kRange:
      return "range";
    case Op::kJoin:
      return "join";
    case Op::kTransfer:
      return "transfer";
  }
  return "?";
}

namespace {

int64_t Int(const Value& v) { return v.is_null() ? 0 : v.AsInt64(); }
double Num(const Value& v) { return v.is_null() ? 0.0 : v.AsDouble(); }

int ColumnIndex(const QueryResult& r, const std::string& name) {
  for (size_t i = 0; i < r.columns.size(); ++i) {
    if (r.columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

struct Agg {
  int64_t count = 0;
  double sum = 0;
  bool operator==(const Agg& o) const {
    return count == o.count && sum == o.sum;
  }
};

std::string AggText(const std::map<std::string, Agg>& m) {
  std::string out;
  for (const auto& [k, v] : m) {
    out += k + ":" + std::to_string(v.count) + "/" +
           std::to_string(static_cast<int64_t>(v.sum)) + " ";
  }
  return out;
}

/// Renders a span tree as one JSON object.
void SpanJson(const mtdb::trace::Span& s, std::string* out) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\",\"ns\":%llu,\"io\":[%llu,%llu,%llu,%llu,%llu]",
                static_cast<unsigned long long>(s.elapsed_ns),
                static_cast<unsigned long long>(s.io.pool_hits),
                static_cast<unsigned long long>(s.io.pool_misses),
                static_cast<unsigned long long>(s.io.physical_reads),
                static_cast<unsigned long long>(s.io.physical_writes),
                static_cast<unsigned long long>(s.io.wal_bytes));
  *out += "{\"name\":\"";
  for (char c : s.name) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
  *out += buf;
  if (!s.children.empty()) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < s.children.size(); ++i) {
      if (i > 0) *out += ',';
      SpanJson(*s.children[i], out);
    }
    *out += ']';
  }
  *out += '}';
}

uint64_t SumSpans(const mtdb::trace::Span& s, const std::string& prefix) {
  uint64_t sum = s.name.compare(0, prefix.size(), prefix) == 0 ? s.elapsed_ns : 0;
  for (const auto& c : s.children) sum += SumSpans(*c, prefix);
  return sum;
}

/// One client thread's state and results.
class Client {
 public:
  Client(LayoutUnderTest* lut, const Scale& scale, const PhaseOptions& opts,
         int id)
      : lut_(lut), opts_(opts), id_(id), stream_(opts.workload, scale, opts.seed, id, opts.phase) {
    for (int t = 0; t < scale.tenants; ++t) {
      sessions_.push_back(lut->layout->OpenSession(t));
      if (opts.trace) sessions_.back().EnableTracing(true);
    }
    committed_inserts_.resize(scale.tenants);
  }

  void Run(uint64_t warm_end_ns, uint64_t end_ns) {
    mtdb::Database* db = lut_->db.get();
    // Checkpoint detection without a Stats() call per op: a checkpoint
    // writes the dirty pages back, so only ops during which the page
    // store wrote pages read the (costly) checkpoint counter.
    uint64_t checkpoints = opts_.trace ? db->Stats().durability.checkpoints : 0;
    for (int n = 0;; ++n) {
      if (opts_.fixed_ops > 0 ? n >= opts_.fixed_ops : NowNs() >= end_ns) {
        break;
      }
      Op op = stream_.Next();
      const uint64_t writes_before =
          opts_.trace ? db->page_store()->stats().physical_writes : 0;
      const uint64_t start = NowNs();
      bool ok = Execute(op);
      const uint64_t stop = NowNs();
      OpRecord rec{op.kind};
      rec.ok = ok;
      rec.rollback = op.rollback;
      rec.latency_ns = stop - start;
      rec.measured = opts_.fixed_ops > 0 || start >= warm_end_ns;
      if (opts_.trace &&
          db->page_store()->stats().physical_writes != writes_before) {
        const uint64_t now = db->Stats().durability.checkpoints;
        rec.checkpointed = now != checkpoints;
        checkpoints = now;
      }
      if (rec.measured) last_measured_stop_ = std::max(last_measured_stop_, stop);
      result_.attempted++;
      if (!ok) result_.failed++;
      result_.ops.push_back(rec);
    }
  }

  PhaseResult& result() { return result_; }
  std::vector<std::string>& span_lines() { return span_lines_; }
  uint64_t last_measured_stop() const { return last_measured_stop_; }
  /// crm_txn: opportunity ids this client committed, per tenant.
  const std::vector<std::vector<std::pair<int64_t, Opportunity>>>&
  committed_inserts() const {
    return committed_inserts_;
  }

 private:
  /// Records a failed op; returns false for the caller to pass on.
  bool Fail(const Op& op, const std::string& what, bool mismatch) {
    if (mismatch) result_.mismatches++;
    if (result_.errors.size() < 8) {
      char head[96];
      std::snprintf(head, sizeof(head), "%s client %d t%d %s a=%lld b=%lld: ",
                    lut_->name.c_str(), id_, op.tenant, OpKindName(op.kind),
                    static_cast<long long>(op.a), static_cast<long long>(op.b));
      result_.errors.push_back(head + what);
    }
    return false;
  }

  /// Records the statement just run on `s` (traced runs only).
  void Record(TenantSession& s, uint64_t traced_before, bool write,
              const QueryResult* rows) {
    if (!opts_.trace) return;
    result_.logical_statements++;
    if (write) result_.logical_writes++;
    mtdb::trace::StatementTracer* tr = s.tracer();
    if (tr->statements_traced() == traced_before || tr->last() == nullptr) {
      return;
    }
    const mtdb::trace::StatementTrace& st = *tr->last();
    StmtRecord r;
    r.select = !write;
    r.root_ns = st.root->elapsed_ns;
    for (const auto& c : st.root->children) r.children_ns += c->elapsed_ns;
    r.admit_ns = SumSpans(*st.root, "admit");
    r.lock_wait_ns = SumSpans(*st.root, "lock.wait");
    mtdb::trace::SpanIo io = st.root->TotalIo();
    r.pool_reads = io.pool_hits + io.pool_misses;
    r.rows = rows != nullptr ? rows->rows.size() : 0;
    result_.stmts.push_back(r);
    if (opts_.span_sink != nullptr) {
      std::string line = "{\"layout\":\"" + lut_->name + "\",\"tenant\":" +
                         std::to_string(st.tenant) + ",\"kind\":\"" + st.kind +
                         "\",\"ok\":" + (st.ok ? "true" : "false") +
                         ",\"root\":";
      SpanJson(*st.root, &line);
      line += '}';
      span_lines_.push_back(std::move(line));
    }
  }

  mtdb::Result<QueryResult> Query(TenantSession& s, const char* sql,
                                  std::vector<Value> params) {
    const uint64_t before = opts_.trace ? s.tracer()->statements_traced() : 0;
    auto r = s.Query(sql, params);
    Record(s, before, false, r.ok() ? &*r : nullptr);
    return r;
  }

  mtdb::Result<int64_t> Exec(TenantSession& s, const char* sql,
                             std::vector<Value> params) {
    const uint64_t before = opts_.trace ? s.tracer()->statements_traced() : 0;
    auto r = s.Execute(sql, params);
    Record(s, before, true, nullptr);
    return r;
  }

  /// Runs one op and checks it against the shadow model.
  bool Execute(const Op& op) {
    TenantSession& s = sessions_[op.tenant];
    TenantModel& m = lut_->model[op.tenant];
    switch (op.kind) {
      case Op::kPointSelect: {
        auto r = Query(s, kPointSelect, {Value::Int64(op.a)});
        if (!r.ok()) return Fail(op, r.status().ToString(), false);
        auto it = m.accounts.find(op.a);
        const size_t want = it == m.accounts.end() ? 0 : 1;
        if (r->rows.size() != want) {
          return Fail(op, "rows " + std::to_string(r->rows.size()) + " want " +
                       std::to_string(want), true);
        }
        if (want == 1) {
          const int id = ColumnIndex(*r, "id");
          const int st = ColumnIndex(*r, "status");
          const int am = ColumnIndex(*r, "amount");
          if (id < 0 || st < 0 || am < 0) {
            return Fail(op, "missing column", true);
          }
          const mtdb::Row& row = r->rows[0];
          if (Int(row[id]) != op.a || row[st].is_null() ||
              row[st].AsString() != it->second.status ||
              Num(row[am]) != static_cast<double>(it->second.amount)) {
            return Fail(op, "row " + row[st].ToString() + "/" + row[am].ToString() +
                         " want " + it->second.status + "/" +
                         std::to_string(it->second.amount), true);
          }
        }
        return true;
      }
      case Op::kPointUpdate: {
        auto r = Exec(s, kPointUpdate,
                      {Value::Double(static_cast<double>(op.value)),
                       Value::Int64(op.a)});
        if (!r.ok()) return Fail(op, r.status().ToString(), false);
        auto it = m.accounts.find(op.a);
        const int64_t want = it == m.accounts.end() ? 0 : 1;
        if (want == 1) it->second.amount = op.value;
        if (*r != want) {
          return Fail(op, "affected " + std::to_string(*r), true);
        }
        return true;
      }
      case Op::kInsert: {
        auto r = Exec(s, kInsertAccount,
                      {Value::Int64(op.new_id),
                       Value::String("acct" + std::to_string(op.new_id)),
                       Value::Double(static_cast<double>(op.value))});
        if (!r.ok()) return Fail(op, r.status().ToString(), false);
        m.accounts[op.new_id] = Account{"new", op.value};
        if (*r != 1) return Fail(op, "affected " + std::to_string(*r), true);
        return true;
      }
      case Op::kDelete: {
        auto r = Exec(s, kDeleteAccount, {Value::Int64(op.a)});
        if (!r.ok()) return Fail(op, r.status().ToString(), false);
        const int64_t want = static_cast<int64_t>(m.accounts.erase(op.a));
        if (*r != want) return Fail(op, "affected " + std::to_string(*r), true);
        return true;
      }
      case Op::kRollup:
      case Op::kJoin: {
        const bool join = op.kind == Op::kJoin;
        auto r = join ? Query(s, kJoin, {Value::Int64(op.a), Value::Int64(op.b)})
                      : Query(s, kRollup, {});
        if (!r.ok()) return Fail(op, r.status().ToString(), false);
        std::map<std::string, Agg> got, want;
        for (const mtdb::Row& row : r->rows) {
          got[row[0].ToString()] = Agg{Int(row[1]), Num(row[2])};
        }
        if (join) {
          for (const auto& [id, o] : m.opportunities) {
            if (o.account_id < op.a || o.account_id >= op.b) continue;
            auto a = m.accounts.find(o.account_id);
            if (a == m.accounts.end()) continue;
            Agg& g = want[a->second.status];
            g.count++;
            g.sum += static_cast<double>(o.amount);
          }
        } else {
          for (const auto& [id, a] : m.accounts) {
            Agg& g = want[a.status];
            g.count++;
            g.sum += static_cast<double>(a.amount);
          }
        }
        if (got != want) {
          return Fail(op, "got " + AggText(got) + "want " + AggText(want), true);
        }
        return true;
      }
      case Op::kRange: {
        auto r = Query(s, kRange, {Value::Int64(op.a), Value::Int64(op.b)});
        if (!r.ok()) return Fail(op, r.status().ToString(), false);
        Agg want;
        for (auto it = m.accounts.lower_bound(op.a);
             it != m.accounts.end() && it->first < op.b; ++it) {
          want.count++;
          want.sum += static_cast<double>(it->second.amount);
        }
        Agg got;
        if (r->rows.size() == 1) got = Agg{Int(r->rows[0][0]), Num(r->rows[0][1])};
        if (got != want) {
          return Fail(op, "got " + std::to_string(got.count) + "/" +
                       std::to_string(got.sum) + " want " +
                       std::to_string(want.count) + "/" +
                       std::to_string(want.sum), true);
        }
        return true;
      }
      case Op::kTransfer:
        return Transfer(s, op);
    }
    return false;
  }

  /// crm_txn: BEGIN; debit/credit two accounts in ascending id order; one
  /// opportunity INSERT; COMMIT (or ROLLBACK). Hot accounts are never
  /// deleted, so every UPDATE must hit exactly one row.
  bool Transfer(TenantSession& s, const Op& op) {
    auto abort = [&](const std::string& why, bool mismatch) {
      if (s.in_transaction()) (void)s.Rollback();
      return Fail(op, why, mismatch);
    };
    mtdb::Status st = s.Begin();
    if (!st.ok()) return abort("begin: " + st.ToString(), false);
    // op.value > 0 moves money from account a to account b.
    const bool a_pays = op.value > 0;
    const double amount = static_cast<double>(a_pays ? op.value : -op.value);
    auto a = Exec(s, a_pays ? kDebit : kCredit,
                  {Value::Double(amount), Value::Int64(op.a)});
    if (!a.ok()) return abort(a.status().ToString(), false);
    if (*a != 1) return abort("affected " + std::to_string(*a), true);
    auto b = Exec(s, a_pays ? kCredit : kDebit,
                  {Value::Double(amount), Value::Int64(op.b)});
    if (!b.ok()) return abort(b.status().ToString(), false);
    if (*b != 1) return abort("affected " + std::to_string(*b), true);
    auto ins = Exec(s, kInsertOpportunity,
                    {Value::Int64(op.new_id), Value::Int64(op.a),
                     Value::Double(amount)});
    if (!ins.ok()) return abort(ins.status().ToString(), false);
    if (*ins != 1) return abort("affected " + std::to_string(*ins), true);
    st = op.rollback ? s.Rollback() : s.Commit();
    if (!st.ok()) return abort("end: " + st.ToString(), false);
    if (opts_.trace) result_.transactions++;
    if (!op.rollback) {
      committed_inserts_[op.tenant].push_back(
          {op.new_id, Opportunity{op.a, "open", static_cast<int64_t>(amount)}});
    }
    return true;
  }

  LayoutUnderTest* lut_;
  const PhaseOptions& opts_;
  int id_;
  OpStream stream_;
  std::vector<TenantSession> sessions_;
  PhaseResult result_;
  uint64_t last_measured_stop_ = 0;
  std::vector<std::vector<std::pair<int64_t, Opportunity>>> committed_inserts_;
  std::vector<std::string> span_lines_;
};

/// crm_txn after the phase: every tenant's SUM(amount) is conserved and
/// its opportunity count equals the loaded ones plus committed inserts.
void CheckConservation(LayoutUnderTest* lut, PhaseResult* out) {
  for (size_t t = 0; t < lut->model.size(); ++t) {
    const TenantModel& m = lut->model[t];
    Agg want;
    for (const auto& [id, a] : m.accounts) {
      want.count++;
      want.sum += static_cast<double>(a.amount);
    }
    TenantSession s = lut->layout->OpenSession(static_cast<int>(t));
    auto totals = s.Query(kAccountTotals);
    auto opps = s.Query(kOpportunityCount);
    std::string err;
    if (!totals.ok() || !opps.ok()) {
      err = !totals.ok() ? totals.status().ToString() : opps.status().ToString();
    } else if (totals->rows.size() != 1 ||
               !(Agg{Int(totals->rows[0][0]), Num(totals->rows[0][1])} == want)) {
      err = "SUM(amount) not conserved";
    } else if (opps->rows.size() != 1 ||
               Int(opps->rows[0][0]) !=
                   static_cast<int64_t>(m.opportunities.size())) {
      err = "opportunity count " +
            (opps->rows.empty() ? std::string("?")
                                : std::to_string(Int(opps->rows[0][0]))) +
            " want " + std::to_string(m.opportunities.size());
    }
    out->attempted++;
    if (!err.empty()) {
      out->failed++;
      out->mismatches++;
      if (out->errors.size() < 8) {
        out->errors.push_back(lut->name + " t" + std::to_string(t) +
                              " conservation: " + err);
      }
    }
  }
}

}  // namespace

OpStream::OpStream(Workload w, const Scale& scale, uint64_t seed, int client,
                   int phase)
    : w_(w),
      scale_(scale),
      client_(client),
      state_(seed * 0x2545F4914F6CDD1Dull + 0x9E3779B97F4A7C15ull * (client + 1) +
             0xD1B54A32D192ED03ull * static_cast<uint64_t>(phase)),
      next_insert_id_(1000000 * (1 + client + kClients * static_cast<int64_t>(phase))) {}

uint64_t OpStream::Rand() {
  // splitmix64
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int64_t OpStream::Uniform(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Rand() % static_cast<uint64_t>(hi - lo + 1));
}

Op OpStream::Next() {
  Op op;
  const int roll = static_cast<int>(Uniform(0, 99));
  if (w_ == Workload::kTxn) {
    // Both clients share every tenant.
    op.kind = Op::kTransfer;
    op.tenant = static_cast<int>(Uniform(0, scale_.tenants - 1));
    auto pick = [&] {
      return Uniform(0, 9) < 9 ? Uniform(1, kHotAccounts)
                               : Uniform(1, scale_.accounts);
    };
    int64_t x = pick(), y = pick();
    while (y == x) y = pick();
    op.a = std::min(x, y);
    op.b = std::max(x, y);
    op.value = Uniform(1, 100) * (Uniform(0, 1) == 0 ? 1 : -1);
    op.rollback = roll < 5;
    op.new_id = next_insert_id_++;
    return op;
  }
  // crm_point and crm_report: each client owns every other tenant.
  op.tenant = client_ + kClients * static_cast<int>(
                            Uniform(0, scale_.tenants / kClients - 1));
  op.a = Uniform(1, scale_.accounts);
  op.value = Uniform(1, 10000);
  if (w_ == Workload::kPoint) {
    if (roll < 65) {
      op.kind = Op::kPointSelect;
    } else if (roll < 85) {
      op.kind = Op::kPointUpdate;
    } else if (roll < 95) {
      op.kind = Op::kInsert;
      op.new_id = next_insert_id_++;
    } else {
      op.kind = Op::kDelete;
    }
    return op;
  }
  if (roll < 30) {
    op.kind = Op::kRollup;
  } else if (roll < 55) {
    op.kind = Op::kRange;
    op.a = Uniform(1, scale_.accounts - kRangeWidth + 1);
    op.b = op.a + kRangeWidth;
  } else if (roll < 80) {
    op.kind = Op::kJoin;
    op.a = Uniform(1, scale_.accounts - kJoinWidth + 1);
    op.b = op.a + kJoinWidth;
  } else {
    op.kind = Op::kPointUpdate;
  }
  return op;
}

void PhaseResult::Append(PhaseResult&& r) {
  ops.insert(ops.end(), r.ops.begin(), r.ops.end());
  stmts.insert(stmts.end(), r.stmts.begin(), r.stmts.end());
  attempted += r.attempted;
  failed += r.failed;
  mismatches += r.mismatches;
  logical_writes += r.logical_writes;
  logical_statements += r.logical_statements;
  transactions += r.transactions;
  measured_wall_s += r.measured_wall_s;
  for (std::string& e : r.errors) {
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
}

PhaseResult RunPhase(LayoutUnderTest* lut, const Scale& scale,
                     const PhaseOptions& opts) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < opts.clients; ++c) {
    clients.push_back(std::make_unique<Client>(lut, scale, opts, c));
  }
  const uint64_t start = NowNs();
  const uint64_t warm_end = start + static_cast<uint64_t>(opts.warmup_s * 1e9);
  const uint64_t end = warm_end + static_cast<uint64_t>(opts.measure_s * 1e9);
  {
    std::vector<std::thread> threads;
    for (auto& c : clients) {
      threads.emplace_back([&c, warm_end, end] { c->Run(warm_end, end); });
    }
    for (std::thread& t : threads) t.join();
  }
  PhaseResult out;
  uint64_t last_stop = 0;
  const uint64_t window_start = opts.fixed_ops > 0 ? start : warm_end;
  for (auto& c : clients) {
    out.Append(std::move(c->result()));
    last_stop = std::max(last_stop, c->last_measured_stop());
    for (size_t t = 0; t < c->committed_inserts().size(); ++t) {
      for (const auto& [id, o] : c->committed_inserts()[t]) {
        lut->model[t].opportunities[id] = o;
      }
    }
    if (opts.span_sink != nullptr) {
      for (std::string& line : c->span_lines()) {
        opts.span_sink->push_back(std::move(line));
      }
    }
  }
  out.measured_wall_s =
      last_stop > window_start
          ? static_cast<double>(last_stop - window_start) / 1e9
          : 0;
  if (opts.workload == Workload::kTxn) CheckConservation(lut, &out);
  return out;
}

std::vector<SampleSelect> SampleSelects(Workload w, const Scale& scale,
                                        uint64_t seed, int count) {
  std::vector<SampleSelect> out;
  if (w == Workload::kTxn) {
    for (int i = 0; static_cast<int>(out.size()) < count; ++i) {
      const int t = (i / 2) % scale.tenants;
      out.push_back({t, i % 2 == 0 ? kAccountTotals : kOpportunityCount, {}});
    }
    return out;
  }
  // The workload's own stream, minus its writes; alternate the client so
  // every tenant is sampled.
  OpStream streams[kClients] = {OpStream(w, scale, seed, 0),
                                OpStream(w, scale, seed, 1)};
  for (int i = 0; static_cast<int>(out.size()) < count; ++i) {
    Op op = streams[i % kClients].Next();
    switch (op.kind) {
      case Op::kPointSelect:
        out.push_back({op.tenant, kPointSelect, {Value::Int64(op.a)}});
        break;
      case Op::kRollup:
        out.push_back({op.tenant, kRollup, {}});
        break;
      case Op::kRange:
        out.push_back({op.tenant, kRange, {Value::Int64(op.a), Value::Int64(op.b)}});
        break;
      case Op::kJoin:
        out.push_back({op.tenant, kJoin, {Value::Int64(op.a), Value::Int64(op.b)}});
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace crmbench
