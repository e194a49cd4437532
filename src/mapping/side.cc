#include "mapping/side.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/thread_pool.h"

namespace inverda {

Status AccessBackend::ScanVersionBatch(TvId tv, RowBatch* out,
                                       const std::vector<int>* columns) {
  // Generic bridge: collect row-at-a-time. AccessLayer overrides this with
  // the real batch path; the bridge serves capture shims and tests.
  if (columns != nullptr && !out->empty()) {
    return Status::Internal("projected scan into a non-empty batch");
  }
  RowBatch full;
  RowBatch* into = columns == nullptr ? out : &full;
  Status status = Status::OK();
  INVERDA_RETURN_IF_ERROR(ScanVersion(tv, [&](int64_t key, const Row& row) {
    if (status.ok()) status = into->AppendRow(key, row);
  }));
  INVERDA_RETURN_IF_ERROR(status);
  if (columns == nullptr) return Status::OK();
  return out->AssignProjection(std::move(full), *columns);
}

Status Kernel::DeriveReadBatch(const SmoContext& ctx, SmoSide side, int which,
                               RowBatch* out) const {
  // Row-at-a-time fallback: derive into a scratch table, then convert. The
  // per-kernel overrides avoid both the map inserts and the conversion.
  const TvRef& self = ctx.side(side)[static_cast<size_t>(which)];
  Table scratch(*self.schema);
  INVERDA_RETURN_IF_ERROR(Derive(ctx, side, which, std::nullopt, &scratch));
  INVERDA_RETURN_IF_ERROR(out->SetNumColumns(self.schema->num_columns()));
  return BatchFromTable(scratch, out);
}

int64_t IdMemo::GetOrCreate(const std::string& role, const Row& payload,
                            Sequence& seq) {
  std::lock_guard<std::mutex> lock(mu_);
  RoleMaps& maps = maps_[role];
  auto it = maps.ids.find(payload);
  if (it != maps.ids.end()) return it->second;
  int64_t id = seq.Next();
  SeedLocked(maps, payload, id);
  return id;
}

void IdMemo::Seed(const std::string& role, const Row& payload, int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  SeedLocked(maps_[role], payload, id);
}

void IdMemo::SeedLocked(RoleMaps& maps, const Row& payload, int64_t id) {
  auto [it, inserted] = maps.payloads.try_emplace(id, payload);
  if (!inserted && !(it->second == payload)) {
    // The id now names another payload: the old one no longer maps to it.
    auto old = maps.ids.find(it->second);
    if (old != maps.ids.end() && old->second == id) maps.ids.erase(old);
    it->second = payload;
  }
  maps.ids[payload] = id;
}

void IdMemo::Forget(const std::string& role, const Row& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = maps_.find(role);
  if (it == maps_.end()) return;
  auto jt = it->second.ids.find(payload);
  if (jt == it->second.ids.end()) return;
  auto named = it->second.payloads.find(jt->second);
  if (named != it->second.payloads.end() && named->second == payload) {
    it->second.payloads.erase(named);
  }
  it->second.ids.erase(jt);
}

std::optional<int64_t> IdMemo::Find(const std::string& role,
                                    const Row& payload) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = maps_.find(role);
  if (it == maps_.end()) return std::nullopt;
  auto jt = it->second.ids.find(payload);
  if (jt == it->second.ids.end()) return std::nullopt;
  return jt->second;
}

std::optional<bool> IdMemo::Names(const std::string& role, int64_t id,
                                  const Row& payload) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = maps_.find(role);
  if (it == maps_.end()) return std::nullopt;
  auto jt = it->second.payloads.find(id);
  if (jt == it->second.payloads.end()) return std::nullopt;
  return jt->second == payload;
}

Result<Table*> SmoContext::Aux(const std::string& short_name) const {
  auto it = aux_names.find(short_name);
  if (it == aux_names.end()) {
    return Status::Internal("aux table " + short_name +
                            " not present in the current materialization of " +
                            smo->ToString());
  }
  return backend->db().GetTable(it->second);
}

bool AllNull(const Row& row) {
  for (const Value& v : row) {
    if (!v.is_null()) return false;
  }
  return true;
}

Row NullRow(int n) { return Row(static_cast<size_t>(n)); }

Row Project(const Row& row, const std::vector<int>& indexes) {
  Row out;
  out.reserve(indexes.size());
  for (int i : indexes) out.push_back(row[static_cast<size_t>(i)]);
  return out;
}

Result<RowMap> CollectVersion(AccessBackend* backend, TvId tv) {
  RowMap rows;
  INVERDA_RETURN_IF_ERROR(backend->ScanVersion(
      tv, [&rows](int64_t key, const Row& row) { rows[key] = row; }));
  return rows;
}

namespace {

std::atomic<int64_t> g_parallel_scan_min_rows{4096};

// Shard-parallel fill: gather every shard's sorted items concurrently,
// merge into one ascending-key sequence, then scatter keys and cells into
// the pre-grown batch in parallel row chunks. Produces byte-for-byte the
// same batch as the sequential Scan/AppendRow path.
// With `columns`, (*columns)[c] is the table column copied into batch
// column c.
Status ParallelBatchFromTable(const Table& table, RowBatch* out,
                              const std::vector<int>* columns) {
  ThreadPool& pool = ScanPool();
  const int shards = table.shard_count();
  std::vector<std::vector<std::pair<int64_t, const Row*>>> per_shard(
      static_cast<size_t>(shards));
  pool.ParallelFor(shards, [&](int64_t s) {
    per_shard[static_cast<size_t>(s)] =
        table.ShardItems(static_cast<int>(s));
  });

  std::vector<std::pair<int64_t, const Row*>> merged;
  merged.reserve(static_cast<size_t>(table.size()));
  for (auto& items : per_shard) {
    merged.insert(merged.end(), items.begin(), items.end());
  }
  // Each shard is already sorted, but the hash partition interleaves key
  // ranges, so a full sort (keys are unique) restores the global order.
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  CountRowsVisited(static_cast<int64_t>(merged.size()));

  const int64_t base = out->size();
  const int64_t n = static_cast<int64_t>(merged.size());
  INVERDA_RETURN_IF_ERROR(out->GrowRows(base + n));
  const int width = table.schema().num_columns();
  const int cols = out->num_columns();
  std::atomic<bool> width_ok{true};
  constexpr int64_t kChunk = 2048;
  const int64_t chunks = (n + kChunk - 1) / kChunk;
  pool.ParallelFor(chunks, [&](int64_t c) {
    const int64_t lo = c * kChunk;
    const int64_t hi = std::min(n, lo + kChunk);
    for (int64_t i = lo; i < hi; ++i) {
      const auto& [key, row] = merged[static_cast<size_t>(i)];
      if (static_cast<int>(row->size()) != width) {
        width_ok.store(false, std::memory_order_relaxed);
        return;
      }
      out->set_key(base + i, key);
      for (int col = 0; col < cols; ++col) {
        const int from =
            columns == nullptr ? col : (*columns)[static_cast<size_t>(col)];
        out->column(col)[static_cast<size_t>(base + i)] =
            (*row)[static_cast<size_t>(from)];
      }
    }
  });
  if (!width_ok.load(std::memory_order_relaxed)) {
    return Status::Internal("batch row width != " + std::to_string(width));
  }
  return Status::OK();
}

}  // namespace

int64_t ParallelScanMinRows() {
  return g_parallel_scan_min_rows.load(std::memory_order_relaxed);
}

void SetParallelScanMinRows(int64_t rows) {
  g_parallel_scan_min_rows.store(rows < 0 ? 0 : rows,
                                 std::memory_order_relaxed);
}

bool ParallelScanEligible(const Table& table) {
  return table.shard_count() > 1 && ScanPool().threads() > 0 &&
         table.size() >= ParallelScanMinRows();
}

Status BatchFromTable(const Table& table, RowBatch* out,
                      const std::vector<int>* columns) {
  const int width = table.schema().num_columns();
  if (columns != nullptr) {
    for (int c : *columns) {
      if (c < 0 || c >= width) {
        return Status::Internal("scan column " + std::to_string(c) +
                                " out of range for width " +
                                std::to_string(width));
      }
    }
  }
  INVERDA_RETURN_IF_ERROR(out->SetNumColumns(
      columns == nullptr ? width : static_cast<int>(columns->size())));
  if (ParallelScanEligible(table) && !out->has_selection()) {
    return ParallelBatchFromTable(table, out, columns);
  }
  out->Reserve(out->size() + table.size());
  Status status = Status::OK();
  table.Scan([&](int64_t key, const Row& row) {
    if (!status.ok()) return;
    status = columns == nullptr ? out->AppendRow(key, row)
                                : out->AppendProjected(key, row, *columns);
  });
  return status;
}

Status BatchToTable(const RowBatch& batch, Table* out) {
  for (int64_t i = 0; i < batch.size(); ++i) {
    if (!batch.selected(i)) continue;
    INVERDA_RETURN_IF_ERROR(out->Upsert(batch.key_at(i), batch.RowAt(i)));
  }
  return Status::OK();
}

}  // namespace inverda
