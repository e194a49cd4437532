#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "handwritten/reference_sql.h"
#include "storage/latch.h"
#include "types/row_batch.h"
#include "workload/tasky.h"
#include "workload/wikimedia.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Recorder::Record(TvId tv, OpKind kind, double ns) {
  switch (kind) {
    case OpKind::kGet:
      get_ns.push_back(ns);
      break;
    case OpKind::kScan:
      scan_ns.push_back(ns);
      break;
    default:
      write_ns.push_back(ns);
  }
  class_ns[{quarter, tv, kind}].push_back(ns);
}

void Recorder::Fail(const std::string& what, const Status& status) {
  ++failed;
  if (first_failure.empty()) first_failure = what + ": " + status.ToString();
}

void Recorder::Mismatch(const std::string& what) {
  if (first_mismatch.empty()) first_mismatch = what;
}

void Recorder::Merge(const Recorder& other) {
  get_ns.insert(get_ns.end(), other.get_ns.begin(), other.get_ns.end());
  write_ns.insert(write_ns.end(), other.write_ns.begin(), other.write_ns.end());
  scan_ns.insert(scan_ns.end(), other.scan_ns.begin(), other.scan_ns.end());
  for (const auto& [key, ns] : other.class_ns) {
    std::vector<double>& mine = class_ns[key];
    mine.insert(mine.end(), ns.begin(), ns.end());
  }
  attempted += other.attempted;
  failed += other.failed;
  if (first_failure.empty()) first_failure = other.first_failure;
  if (first_mismatch.empty()) first_mismatch = other.first_mismatch;
}

namespace {

using inverda::KeyedRow;
using inverda::MaterializeRequest;
using inverda::Random;
using inverda::Value;
using inverda::WriteOp;
using inverda::WriteSet;
using inverda::plan::TvPlan;

// TasKy clients: 160 Get, 20 Update, 10 Insert, 10 Delete per round.
constexpr int kTaskyRoundOps = 200;
// Wiki clients: every (version, {Select, Get}) pair twice per round.
constexpr int kWikiRoundOps = 16;
constexpr int kWikiVersionIndex[] = {0, 27, 108, 170};  // v001 v028 v109 v171
constexpr int kWikiLoadVersion = 108;                   // v109
// Ledger: facade+layer sequences per sampled Get key (reads are
// idempotent, so repeating them on one key multiplies the samples).
constexpr int kLedgerRepeats = 8;
// Warm GetPlan and latch Acquire+Release are timed in batches of this many.
constexpr int kBatchCalls = 16;
constexpr auto kMigratePause = std::chrono::milliseconds(100);

double ElapsedNs(int64_t t0) { return static_cast<double>(NowNs() - t0); }

/// User+system CPU time of the whole process so far. Time the hypervisor
/// steals and time threads spend blocked are not in it.
int64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

template <typename T>
void Shuffle(std::vector<T>* v, Random* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextUint64(i)]);
  }
}

std::string RowText(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    out += (i ? ", " : "") + row[i].ToString();
  }
  return out + ")";
}

/// The cached plan of `tv`; nullptr (recorded as a failure) on error.
const TvPlan* PlanOf(Inverda* db, TvId tv, Recorder* rec) {
  auto plan = db->access().GetPlan(tv);
  if (plan.ok()) return plan.value();
  rec->Fail("GetPlan", plan.status());
  return nullptr;
}

double TimeLookup(Inverda* db, TvId tv) {
  const int64_t t0 = NowNs();
  for (int i = 0; i < kBatchCalls; ++i) (void)db->access().GetPlan(tv);
  return ElapsedNs(t0) / kBatchCalls;
}

double TimeLatch(Inverda* db, const TvPlan& p, bool exclusive) {
  const int64_t t0 = NowNs();
  for (int i = 0; i < kBatchCalls; ++i) {
    inverda::TableLatchSet latches;
    latches.Acquire(&db->db().latches(), p.footprint, exclusive);
  }
  return ElapsedNs(t0) / kBatchCalls;
}

/// Levels 2-4 of one ledger read (Find of `key`, or a full scan when
/// absent) plus the warm plan lookup and latch cost beside them. Level 1,
/// the facade call, is the caller's.
void LedgerRead(Inverda* db, TvId tv, std::optional<int64_t> key,
                LedgerSamples::Read* out, Recorder* rec) {
  int64_t rows = 0;
  auto count = [&rows](int64_t, const Row&) { ++rows; };
  int64_t t0 = NowNs();
  if (key) {
    auto found = db->access().FindVersion(tv, *key);
    out->l2.push_back(ElapsedNs(t0));
    if (!found.ok()) rec->Fail("FindVersion", found.status());
  } else {
    Status status = db->access().ScanVersion(tv, count);
    out->l2.push_back(ElapsedNs(t0));
    if (!status.ok()) rec->Fail("ScanVersion", status);
  }
  const TvPlan* plan = PlanOf(db, tv, rec);
  if (plan == nullptr) return;
  std::vector<const inverda::Table*> tables;
  for (const std::string& name : plan->footprint) {
    auto table = db->db().GetTableConst(name);
    if (table.ok()) tables.push_back(table.value());
  }
  double l3 = 0;
  if (!plan->physical) {
    const inverda::plan::PlanStep& step = plan->steps.front();
    Status status;
    if (key) {
      inverda::Table tmp(*plan->schema);
      t0 = NowNs();
      status = step.Derive(*key, &tmp);
      l3 = ElapsedNs(t0);
    } else {
      inverda::RowBatch batch;
      t0 = NowNs();
      status = step.DeriveBatch(&batch);
      l3 = ElapsedNs(t0);
    }
    if (!status.ok()) rec->Fail("PlanStep::Derive", status);
  }
  t0 = NowNs();
  for (const inverda::Table* table : tables) {
    if (key) {
      rows += table->Find(*key) != nullptr ? 1 : 0;
    } else {
      table->Scan(count);
    }
  }
  const double l4 = ElapsedNs(t0);
  out->l3.push_back(plan->physical ? l4 : l3);
  out->l4.push_back(l4);
  out->lookup.push_back(TimeLookup(db, tv));
  out->latch.push_back(TimeLatch(db, *plan, plan->derive_mutates));
  if (rows < 0) rec->Mismatch("negative row count");  // keeps `rows` live
}

void CountPlan(Inverda* db, TvId tv, LedgerSamples* s, Recorder* rec) {
  const TvPlan* plan = PlanOf(db, tv, rec);
  if (plan == nullptr) return;
  ++s->ops;
  s->hops += plan->distance();
  for (const auto& step : plan->steps) s->fused_steps += step.is_fused();
}

// --- TasKy clients -----------------------------------------------------------

enum class Flavor { kTasKy, kDo, kTasKy2 };

class TaskyClient final : public Client {
 public:
  TaskyClient(Flavor flavor, uint64_t seed, int num_authors)
      : flavor_(flavor), rng_(seed), num_authors_(num_authors) {
    switch (flavor) {
      case Flavor::kTasKy:
        version_ = "TasKy", table_ = "Task";
        break;
      case Flavor::kDo:
        version_ = "Do!", table_ = "Todo";
        break;
      case Flavor::kTasKy2:
        version_ = "TasKy2", table_ = "Task";
        break;
    }
    const int per100[] = {80, 10, 5, 5};  // Get, Update, Insert, Delete
    const OpKind kinds[] = {OpKind::kGet, OpKind::kUpdate, OpKind::kInsert,
                            OpKind::kDelete};
    for (int k = 0; k < 4; ++k) {
      schedule_.insert(schedule_.end(), per100[k] * kTaskyRoundOps / 100,
                       kinds[k]);
    }
  }

  /// Owned rows as visible in this client's version, and (TasKy2) the
  /// Author keys its rows may reference.
  Status Init(Inverda* db, const std::vector<int64_t>& owned,
              std::vector<int64_t> author_ids) {
    INVERDA_ASSIGN_OR_RETURN(tv_, db->catalog().ResolveTable(version_, table_));
    INVERDA_ASSIGN_OR_RETURN(std::vector<KeyedRow> rows,
                             db->Select(version_, table_));
    std::unordered_map<int64_t, Row> visible;
    for (KeyedRow& r : rows) visible.emplace(r.key, std::move(r.row));
    for (int64_t key : owned) {
      auto it = visible.find(key);
      if (it == visible.end()) {
        return Status::Internal("owned key not visible in " + name());
      }
      keys_.push_back(key);
      model_.emplace(key, it->second);
    }
    author_ids_ = std::move(author_ids);
    return Status::OK();
  }

  std::string name() const override { return version_ + "." + table_; }
  int RoundOps() const override { return kTaskyRoundOps; }
  void StartRound() override {
    Shuffle(&schedule_, &rng_);
    next_ = 0;
  }

  void RunOp(Inverda* db, Recorder* rec) override {
    Pending op = Prepare();
    double ns = 0;
    Facade(db, op, rec, &ns);
    rec->Record(tv_, op.kind, ns);
  }

  void RunLedgerOp(Inverda* db, bool traced,
                   std::map<std::string, LedgerSamples>* ledger,
                   Recorder* rec) override {
    LedgerSamples& s = (*ledger)[name()];
    Pending op = Prepare();
    double ns = 0;
    if (!traced) {
      Facade(db, op, rec, &ns);
      (op.kind == OpKind::kGet ? s.plain_get : s.plain_write).push_back(ns);
      return;
    }
    CountPlan(db, tv_, &s, rec);
    if (op.kind == OpKind::kGet) {
      for (int rep = 0; rep < kLedgerRepeats; ++rep) {
        Facade(db, op, rec, &ns);
        s.get.l1.push_back(ns);
        if (rep == 0) s.first_get.push_back(ns);
        LedgerRead(db, tv_, op.key, &s.get, rec);
      }
      return;
    }
    const TvPlan* plan = PlanOf(db, tv_, rec);
    if (plan == nullptr) return;
    s.w_lookup.push_back(TimeLookup(db, tv_));
    s.w_latch.push_back(TimeLatch(db, *plan, /*exclusive=*/true));
    switch (write_level_++ % 3) {
      case 0:
        Facade(db, op, rec, &ns);
        s.w_facade.push_back(ns);
        return;
      case 1: {
        WriteSet ws = MakeWriteSet(db, &op);
        const int64_t t0 = NowNs();
        Status status = db->access().ApplyToVersion(tv_, ws);
        s.w_access.push_back(ElapsedNs(t0));
        Finish(op, status, rec);
        return;
      }
      default: {
        WriteSet ws = MakeWriteSet(db, &op);
        Status status;
        if (plan->physical) {
          auto table = db->db().GetTable(plan->data_table);
          if (!table.ok()) {
            Finish(op, table.status(), rec);
            return;
          }
          const WriteOp& w = ws.ops.front();
          const int64_t t0 = NowNs();
          switch (w.kind) {
            case WriteOp::Kind::kInsert:
              status = table.value()->Insert(w.key, w.row);
              break;
            case WriteOp::Kind::kUpdate:
              status = table.value()->Update(w.key, w.row);
              break;
            case WriteOp::Kind::kDelete:
              if (!table.value()->Erase(w.key)) {
                status = Status::NotFound("delete of absent key");
              }
              break;
          }
          s.w_step.push_back(ElapsedNs(t0));
        } else {
          const int64_t t0 = NowNs();
          status = plan->steps.front().Propagate(ws);
          s.w_step.push_back(ElapsedNs(t0));
        }
        Finish(op, status, rec);
        return;
      }
    }
  }

  std::string Check(Inverda* db) override {
    for (int64_t key : keys_) {
      auto got = db->Get(version_, table_, key);
      if (!got.ok()) return name() + " Get failed: " + got.status().ToString();
      if (!got.value().has_value()) {
        return name() + " lost key " + std::to_string(key);
      }
      const Row& want = model_.at(key);
      if (!inverda::RowsEqual(*got.value(), want)) {
        return name() + " key " + std::to_string(key) + " reads " +
               RowText(*got.value()) + ", last written " + RowText(want);
      }
    }
    for (int64_t key : deleted_) {
      auto got = db->Get(version_, table_, key);
      if (!got.ok()) return name() + " Get failed: " + got.status().ToString();
      if (got.value().has_value()) {
        return name() + " deleted key " + std::to_string(key) + " still reads";
      }
    }
    return "";
  }

  void CorruptModelForTest() override {
    model_.at(keys_.front()).back() = Value::Int(-987654321);
  }

 private:
  struct Pending {
    OpKind kind = OpKind::kGet;
    size_t index = 0;
    int64_t key = 0;
    Row row;
  };

  Pending Prepare() {
    Pending op;
    op.kind = schedule_[next_++ % schedule_.size()];
    if (op.kind != OpKind::kInsert) {
      op.index = rng_.NextUint64(keys_.size());
      op.key = keys_[op.index];
    }
    if (op.kind == OpKind::kInsert || op.kind == OpKind::kUpdate) {
      op.row = MakeRow();
    }
    return op;
  }

  Row MakeRow() {
    Row r = inverda::RandomTaskRow(&rng_, num_authors_);  // author, task, prio
    switch (flavor_) {
      case Flavor::kTasKy:
        return r;
      case Flavor::kDo:
        return {r[0], r[1]};
      case Flavor::kTasKy2:
        return {r[1], r[2],
                Value::Int(author_ids_[rng_.NextUint64(author_ids_.size())])};
    }
    return r;
  }

  // The op through the facade, timed into *ns; updates the model.
  void Facade(Inverda* db, Pending& op, Recorder* rec, double* ns) {
    ++rec->attempted;
    switch (op.kind) {
      case OpKind::kGet: {
        const int64_t t0 = NowNs();
        auto got = db->Get(version_, table_, op.key);
        *ns = ElapsedNs(t0);
        if (!got.ok()) {
          rec->Fail(name() + " Get", got.status());
        } else if (!got.value().has_value() ||
                   !inverda::RowsEqual(*got.value(), model_.at(op.key))) {
          rec->Mismatch(name() + " Get of key " + std::to_string(op.key) +
                        " disagrees with the last write");
        }
        return;
      }
      case OpKind::kInsert: {
        Row arg = op.row;
        const int64_t t0 = NowNs();
        auto key = db->Insert(version_, table_, std::move(arg));
        *ns = ElapsedNs(t0);
        if (key.ok()) op.key = key.value();
        Commit(op, key.status(), rec);
        return;
      }
      case OpKind::kUpdate: {
        Row arg = op.row;
        const int64_t t0 = NowNs();
        Status status = db->Update(version_, table_, op.key, std::move(arg));
        *ns = ElapsedNs(t0);
        Commit(op, status, rec);
        return;
      }
      case OpKind::kDelete: {
        const int64_t t0 = NowNs();
        Status status = db->Delete(version_, table_, op.key);
        *ns = ElapsedNs(t0);
        Commit(op, status, rec);
        return;
      }
      case OpKind::kScan:
        return;
    }
  }

  // The op as the one-row WriteSet the facade would hand the access layer
  // (inserts draw their key from the global sequence, as Insert does).
  WriteSet MakeWriteSet(Inverda* db, Pending* op) {
    WriteSet ws;
    switch (op->kind) {
      case OpKind::kInsert:
        op->key = db->db().sequence().Next();
        ws.Add(WriteOp::Insert(op->key, op->row));
        break;
      case OpKind::kUpdate:
        ws.Add(WriteOp::Update(op->key, op->row));
        break;
      default:
        ws.Add(WriteOp::Delete(op->key));
        break;
    }
    return ws;
  }

  void Finish(const Pending& op, const Status& status, Recorder* rec) {
    ++rec->attempted;
    Commit(op, status, rec);
  }

  void Commit(const Pending& op, const Status& status, Recorder* rec) {
    if (!status.ok()) {
      rec->Fail(name() + " write", status);
      return;
    }
    switch (op.kind) {
      case OpKind::kInsert:
        keys_.push_back(op.key);
        model_[op.key] = op.row;
        break;
      case OpKind::kUpdate:
        model_[op.key] = op.row;
        break;
      case OpKind::kDelete:
        keys_[op.index] = keys_.back();
        keys_.pop_back();
        model_.erase(op.key);
        deleted_.push_back(op.key);
        break;
      default:
        break;
    }
  }

  Flavor flavor_;
  std::string version_;
  std::string table_;
  TvId tv_ = -1;
  Random rng_;
  int num_authors_;
  std::vector<OpKind> schedule_;
  size_t next_ = 0;
  int write_level_ = 0;
  std::vector<int64_t> keys_;  // owned, live
  std::unordered_map<int64_t, Row> model_;
  std::vector<int64_t> deleted_;
  std::vector<int64_t> author_ids_;
};

// --- Wikimedia clients -------------------------------------------------------

/// Setup-time expectation of one wiki version's page table.
struct WikiVersion {
  std::string version;
  std::string table;
  TvId tv = -1;
  Checksum checksum;
  std::unordered_map<int64_t, Row> rows;
};

Checksum ChecksumOf(const std::vector<KeyedRow>& rows) {
  Checksum sum;
  for (const KeyedRow& r : rows) sum.Add(r.key, inverda::HashRow(r.row));
  return sum;
}

class WikiClient final : public Client {
 public:
  WikiClient(uint64_t seed, std::shared_ptr<std::vector<WikiVersion>> versions,
             std::shared_ptr<const std::vector<int64_t>> pages)
      : rng_(seed), versions_(std::move(versions)), pages_(std::move(pages)) {
    for (int rep = 0; rep < kWikiRoundOps / 8; ++rep) {
      for (int v = 0; v < 4; ++v) {
        schedule_.push_back({v, OpKind::kGet});
        schedule_.push_back({v, OpKind::kScan});
      }
    }
  }

  std::string name() const override { return "wiki-reader"; }
  int RoundOps() const override { return kWikiRoundOps; }
  void StartRound() override {
    Shuffle(&schedule_, &rng_);
    next_ = 0;
  }

  void RunOp(Inverda* db, Recorder* rec) override {
    Pending op = Prepare();
    double ns = 0;
    Facade(db, op, rec, &ns);
    rec->Record((*versions_)[static_cast<size_t>(op.version)].tv, op.kind,
                ns);
  }

  void RunLedgerOp(Inverda* db, bool traced,
                   std::map<std::string, LedgerSamples>* ledger,
                   Recorder* rec) override {
    Pending op = Prepare();
    const WikiVersion& v = (*versions_)[static_cast<size_t>(op.version)];
    LedgerSamples& s = (*ledger)[v.version + "." + v.table];
    double ns = 0;
    if (!traced) {
      Facade(db, op, rec, &ns);
      (op.kind == OpKind::kGet ? s.plain_get : s.plain_scan).push_back(ns);
      return;
    }
    CountPlan(db, v.tv, &s, rec);
    if (op.kind == OpKind::kGet) {
      for (int rep = 0; rep < kLedgerRepeats; ++rep) {
        Facade(db, op, rec, &ns);
        s.get.l1.push_back(ns);
        if (rep == 0) s.first_get.push_back(ns);
        LedgerRead(db, v.tv, op.key, &s.get, rec);
      }
      return;
    }
    Facade(db, op, rec, &ns);
    s.scan.l1.push_back(ns);
    s.first_scan.push_back(ns);
    LedgerRead(db, v.tv, std::nullopt, &s.scan, rec);
  }

  std::string Check(Inverda* db) override {
    for (const WikiVersion& v : *versions_) {
      auto rows = db->Select(v.version, v.table);
      if (!rows.ok()) return "Select failed: " + rows.status().ToString();
      if (!(ChecksumOf(rows.value()) == v.checksum)) {
        return v.version + "." + v.table + " content changed";
      }
    }
    return "";
  }

  void CorruptModelForTest() override {
    WikiVersion& v = versions_->front();
    Checksum wrong;
    wrong.Add(-1, 0);
    for (const auto& [key, row] : v.rows) wrong.Add(key, inverda::HashRow(row));
    v.checksum = wrong;
  }

 private:
  struct Pending {
    int version = 0;
    OpKind kind = OpKind::kGet;
    int64_t key = 0;
  };

  Pending Prepare() {
    Pending op;
    op.version = schedule_[next_ % schedule_.size()].first;
    op.kind = schedule_[next_ % schedule_.size()].second;
    ++next_;
    if (op.kind == OpKind::kGet) {
      op.key = (*pages_)[rng_.NextUint64(pages_->size())];
    }
    return op;
  }

  void Facade(Inverda* db, const Pending& op, Recorder* rec, double* ns) {
    const WikiVersion& v = (*versions_)[static_cast<size_t>(op.version)];
    ++rec->attempted;
    if (op.kind == OpKind::kGet) {
      const int64_t t0 = NowNs();
      auto got = db->Get(v.version, v.table, op.key);
      *ns = ElapsedNs(t0);
      if (!got.ok()) {
        rec->Fail("wiki Get", got.status());
      } else if (!got.value().has_value() ||
                 !inverda::RowsEqual(*got.value(), v.rows.at(op.key))) {
        rec->Mismatch(v.version + " Get of page " + std::to_string(op.key) +
                      " disagrees with the set-up read");
      }
      return;
    }
    const int64_t t0 = NowNs();
    auto rows = db->Select(v.version, v.table);
    *ns = ElapsedNs(t0);
    if (!rows.ok()) {
      rec->Fail("wiki Select", rows.status());
    } else if (!(ChecksumOf(rows.value()) == v.checksum)) {
      rec->Mismatch(v.version + " scan row count or checksum differs from "
                    "set-up");
    }
  }

  Random rng_;
  std::shared_ptr<std::vector<WikiVersion>> versions_;
  std::shared_ptr<const std::vector<int64_t>> pages_;
  std::vector<std::pair<int, OpKind>> schedule_;
  size_t next_ = 0;
};

// --- set-up ------------------------------------------------------------------

uint64_t ClientSeed(uint64_t seed, int index) {
  return Mix64(seed * UINT64_C(0x100000001B3) + static_cast<uint64_t>(index) +
               1);
}

/// The measured configuration: view cache off, plan cache / batching /
/// fusion at their defaults, auto-materialize, tracer and the registry
/// timing gate off. (Shards and scan threads are pinned through the
/// environment before any engine object exists.)
void PinConfig(Inverda* db) {
  db->access().set_cache_enabled(false);
  db->advisor().set_auto_materialize_enabled(false);
  db->tracer().set_enabled(false);
  db->Metrics().set_timing_enabled(false);
}

Status Materialize(Inverda* db, const std::string& target) {
  return db->Materialize(MaterializeRequest::Targets({target}));
}

inverda::Result<Scenario> BuildTaskyScenario(const std::string& workload,
                                             uint64_t seed, const Sizes& sizes,
                                             bool with_clients) {
  Scenario sc;
  sc.workload = workload;
  const int64_t start = NowNs();
  inverda::TaskyOptions options;
  options.num_tasks = sizes.tasky_tasks;
  options.num_authors = sizes.tasky_authors;
  options.seed = seed;
  INVERDA_ASSIGN_OR_RETURN(inverda::TaskyScenario built,
                           inverda::BuildTasky(options));
  const double build_ns = ElapsedNs(start);
  sc.db = std::move(built.db);
  Inverda* db = sc.db.get();
  PinConfig(db);
  int64_t t0 = NowNs();
  INVERDA_RETURN_IF_ERROR(Materialize(db, "TasKy"));
  sc.initial_materialize_ns = ElapsedNs(t0);
  INVERDA_RETURN_IF_ERROR(db->access().PrewarmPlans());
  sc.total_ns = ElapsedNs(start);

  // BuildTasky evolves and loads in one call; the evolution share is timed
  // on a scratch instance, outside the set-up clock.
  {
    Inverda scratch;
    t0 = NowNs();
    INVERDA_RETURN_IF_ERROR(scratch.Execute(inverda::BidelInitialScript()));
    INVERDA_RETURN_IF_ERROR(scratch.Execute(inverda::BidelDoScript()));
    INVERDA_RETURN_IF_ERROR(scratch.Execute(inverda::BidelEvolutionScript()));
    sc.evolve_ns = ElapsedNs(t0);
  }
  sc.load_ns = build_ns - sc.evolve_ns;
  sc.expected_task_rows = sizes.tasky_tasks;
  if (!with_clients) return sc;

  // Disjoint owned key sets, each visible in its client's version: rows in
  // key order go round-robin to TasKy / Do! / TasKy2; Do! takes only its
  // share's prio = 1 rows (the ones Do! shows).
  INVERDA_ASSIGN_OR_RETURN(std::vector<KeyedRow> tasks,
                           db->Select("TasKy", "Task"));
  std::vector<int64_t> owned[3];
  for (size_t i = 0; i < tasks.size(); ++i) {
    const size_t slot = i % 3;
    if (slot == 1 && tasks[i].row[2] != Value::Int(1)) continue;
    owned[slot].push_back(tasks[i].key);
  }
  INVERDA_ASSIGN_OR_RETURN(std::vector<KeyedRow> authors,
                           db->Select("TasKy2", "Author"));
  std::vector<int64_t> author_ids;
  for (const KeyedRow& a : authors) author_ids.push_back(a.key);

  const bool migrate = workload == "tasky-migrate";
  sc.dba_migrations = migrate;
  const Flavor flavors[] = {Flavor::kTasKy, Flavor::kDo, Flavor::kTasKy2};
  for (int slot = 0; slot < 3; ++slot) {
    if (migrate && flavors[slot] == Flavor::kDo) continue;
    auto client = std::make_unique<TaskyClient>(
        flavors[slot], ClientSeed(seed, slot), sizes.tasky_authors);
    INVERDA_RETURN_IF_ERROR(client->Init(db, owned[slot], author_ids));
    sc.clients.push_back(std::move(client));
  }
  return sc;
}

inverda::Result<Scenario> BuildWikiScenario(uint64_t seed, const Sizes& sizes,
                                            bool with_clients) {
  Scenario sc;
  sc.workload = "wiki-scan";
  const int64_t start = NowNs();
  INVERDA_ASSIGN_OR_RETURN(inverda::WikimediaScenario wiki,
                           inverda::BuildWikimedia(inverda::WikimediaOptions{}));
  sc.evolve_ns = ElapsedNs(start);
  PinConfig(wiki.db.get());
  int64_t t0 = NowNs();
  INVERDA_ASSIGN_OR_RETURN(
      std::vector<int64_t> pages,
      inverda::LoadWikimediaData(&wiki, kWikiLoadVersion, sizes.wiki_pages,
                                 sizes.wiki_links, seed));
  sc.load_ns = ElapsedNs(t0);
  t0 = NowNs();
  INVERDA_RETURN_IF_ERROR(Materialize(
      wiki.db.get(), wiki.versions[static_cast<size_t>(kWikiLoadVersion)]));
  sc.initial_materialize_ns = ElapsedNs(t0);
  INVERDA_RETURN_IF_ERROR(wiki.db->access().PrewarmPlans());
  sc.total_ns = ElapsedNs(start);
  sc.db = std::move(wiki.db);
  if (!with_clients) return sc;

  auto versions = std::make_shared<std::vector<WikiVersion>>();
  for (int index : kWikiVersionIndex) {
    WikiVersion v;
    v.version = wiki.versions[static_cast<size_t>(index)];
    v.table = wiki.page_table[static_cast<size_t>(index)];
    INVERDA_ASSIGN_OR_RETURN(v.tv,
                             sc.db->catalog().ResolveTable(v.version, v.table));
    INVERDA_ASSIGN_OR_RETURN(std::vector<KeyedRow> rows,
                             sc.db->Select(v.version, v.table));
    if (static_cast<int>(rows.size()) != sizes.wiki_pages) {
      return Status::Internal(v.version + " does not show every loaded page");
    }
    v.checksum = ChecksumOf(rows);
    for (KeyedRow& r : rows) v.rows.emplace(r.key, std::move(r.row));
    versions->push_back(std::move(v));
  }
  auto page_keys =
      std::make_shared<const std::vector<int64_t>>(std::move(pages));
  for (int i = 0; i < 3; ++i) {
    sc.clients.push_back(
        std::make_unique<WikiClient>(ClientSeed(seed, i), versions, page_keys));
  }
  return sc;
}

/// The DBA of tasky-migrate: alternates online MATERIALIZE TasKy2 / TasKy,
/// each waited for and followed by a fixed pause, until `stop`. With
/// `record_phases`, a record-only on_phase hook timestamps each phase entry.
std::vector<MigrationRecord> RunDba(Inverda* db, const std::atomic<bool>& stop,
                                    bool record_phases, Recorder* rec) {
  using inverda::migrate::Phase;
  struct PhaseLog {
    std::mutex mu;
    std::map<Phase, int64_t> entered;
  };
  auto log = std::make_shared<PhaseLog>();
  if (record_phases) {
    inverda::migrate::TestHooks hooks;
    hooks.on_phase = [log](Phase phase) {
      std::lock_guard<std::mutex> lock(log->mu);
      log->entered[phase] = NowNs();
      return Status::OK();
    };
    db->set_migration_test_hooks(std::move(hooks));
  }
  std::vector<MigrationRecord> migrations;
  bool to_tasky2 = true;
  while (!stop.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(log->mu);
      log->entered.clear();
    }
    ++rec->attempted;
    const int64_t t0 = NowNs();
    Status status = db->Materialize(MaterializeRequest::Targets(
        {to_tasky2 ? "TasKy2" : "TasKy"}, /*online=*/true, /*wait=*/true));
    MigrationRecord m;
    m.call_ns = ElapsedNs(t0);
    if (!status.ok()) {
      rec->Fail("online MATERIALIZE", status);
      break;
    }
    const inverda::migrate::MigrationStatus state = db->MigrationState();
    m.flip_ns = static_cast<double>(state.flip_ns);
    m.rows_copied = state.rows_copied;
    m.keys_captured = state.keys_captured;
    m.catchup_rounds = state.catchup_rounds;
    m.refreshes = state.refreshes;
    {
      std::lock_guard<std::mutex> lock(log->mu);
      auto& at = log->entered;
      if (at.count(Phase::kCopy) && at.count(Phase::kCatchUp) &&
          at.count(Phase::kFlip)) {
        m.copy_ns = static_cast<double>(at[Phase::kCatchUp] - at[Phase::kCopy]);
        m.catchup_ns =
            static_cast<double>(at[Phase::kFlip] - at[Phase::kCatchUp]);
      }
    }
    migrations.push_back(m);
    to_tasky2 = !to_tasky2;
    const auto pause_end = std::chrono::steady_clock::now() + kMigratePause;
    while (!stop.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < pause_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (record_phases) db->set_migration_test_hooks(inverda::migrate::TestHooks{});
  return migrations;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tasky-point", "wiki-scan",
                                                 "tasky-migrate"};
  return names;
}

inverda::Result<Scenario> BuildScenario(const std::string& workload,
                                        uint64_t seed, const Sizes& sizes,
                                        bool with_clients) {
  if (workload == "wiki-scan") {
    return BuildWikiScenario(seed, sizes, with_clients);
  }
  if (workload == "tasky-point" || workload == "tasky-migrate") {
    return BuildTaskyScenario(workload, seed, sizes, with_clients);
  }
  return Status::InvalidArgument("unknown workload " + workload);
}

std::string Scenario::CheckGlobal() {
  if (workload == "wiki-scan") return "";
  auto tasky = db->Select("TasKy", "Task");
  auto tasky2 = db->Select("TasKy2", "Task");
  auto todo = db->Select("Do!", "Todo");
  auto authors = db->Select("TasKy2", "Author");
  for (const auto* r : {&tasky, &tasky2, &todo, &authors}) {
    if (!r->ok()) return "Select failed: " + r->status().ToString();
  }
  const auto n = static_cast<int64_t>(tasky.value().size());
  if (n != expected_task_rows) {
    return "|TasKy.Task| = " + std::to_string(n) + ", expected " +
           std::to_string(expected_task_rows) + " (inserts = deletes)";
  }
  if (static_cast<int64_t>(tasky2.value().size()) != n) {
    return "|TasKy2.Task| = " + std::to_string(tasky2.value().size()) +
           " != |TasKy.Task| = " + std::to_string(n);
  }
  int64_t urgent = 0;
  for (const KeyedRow& r : tasky.value()) urgent += r.row[2] == Value::Int(1);
  if (static_cast<int64_t>(todo.value().size()) != urgent) {
    return "|Do!.Todo| = " + std::to_string(todo.value().size()) +
           " != |TasKy prio = 1| = " + std::to_string(urgent);
  }
  std::set<int64_t> author_keys;
  for (const KeyedRow& a : authors.value()) author_keys.insert(a.key);
  for (const KeyedRow& r : tasky2.value()) {
    if (!r.row[2].is_int() || author_keys.count(r.row[2].AsInt()) == 0) {
      return "TasKy2.Task " + std::to_string(r.key) +
             " references a missing author";
    }
  }
  return "";
}

std::string RunOracle(Scenario* scenario) {
  for (auto& client : scenario->clients) {
    std::string failure = client->Check(scenario->db.get());
    if (!failure.empty()) return failure;
  }
  return scenario->CheckGlobal();
}

RunResult RunConcurrent(Scenario* scenario, int64_t rounds,
                        bool record_phases) {
  Inverda* db = scenario->db.get();
  const size_t n = scenario->clients.size();
  std::vector<Recorder> recs(n);

  // Written only by the barrier completion step (which runs while every
  // client waits); read after the barrier.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t start_cpu_ns = 0;
  int64_t end_cpu_ns = 0;
  int64_t done = -1;  // the first completion is the start barrier
  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  auto on_round = [&]() noexcept {
    const int64_t now = NowNs();
    if (++done == 0) {
      start_ns = now;
      start_cpu_ns = ProcessCpuNs();
      started.store(true, std::memory_order_release);
      started.notify_all();
    } else if (done >= rounds) {
      end_ns = now;
      end_cpu_ns = ProcessCpuNs();
      stop.store(true, std::memory_order_release);
    }
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(n), on_round);

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Client* client = scenario->clients[i].get();
      for (int64_t round = 0;; ++round) {
        sync.arrive_and_wait();
        if (stop.load(std::memory_order_acquire)) break;
        recs[i].quarter = static_cast<int>(round * 4 / rounds);
        client->StartRound();
        for (int k = 0; k < client->RoundOps(); ++k) {
          client->RunOp(db, &recs[i]);
        }
      }
    });
  }

  RunResult result;
  Recorder dba;
  if (scenario->dba_migrations) {
    started.wait(false, std::memory_order_acquire);
    result.migrations = RunDba(db, stop, record_phases, &dba);
  }
  for (std::thread& t : threads) t.join();

  for (const Recorder& r : recs) result.rec.Merge(r);
  result.rec.Merge(dba);
  result.per_client = std::move(recs);
  result.wall_ns = static_cast<double>(end_ns - start_ns);
  result.cpu_ns = static_cast<double>(end_cpu_ns - start_cpu_ns);
  result.oracle = result.rec.first_mismatch;
  if (result.oracle.empty()) result.oracle = RunOracle(scenario);
  return result;
}

std::map<std::string, LedgerSamples> RunLedger(Scenario* scenario, int blocks,
                                               Recorder* rec) {
  std::map<std::string, LedgerSamples> ledger;
  for (int b = 0; b < blocks; ++b) {
    const bool traced = b % 2 == 1;
    for (auto& client : scenario->clients) {
      client->StartRound();
      for (int k = 0; k < client->RoundOps(); ++k) {
        client->RunLedgerOp(scenario->db.get(), traced, &ledger, rec);
      }
    }
  }
  return ledger;
}

}  // namespace perfbench
