#include "inverda/inverda.h"

#include <mutex>
#include <shared_mutex>

#include "analysis/analyzer.h"
#include "bidel/parser.h"
#include "sqlgen/sqlgen.h"

namespace inverda {

Inverda::Inverda(int shards)
    : db_(shards),
      access_(&catalog_, &db_, &obs_),
      advisor_(this, &obs_),
      migrate_(this, &obs_) {}

Status Inverda::Reshard(int shards) {
  // Exclusive like DDL: re-bucketing moves rows between shard maps, so no
  // access may be in flight while the partition changes.
  std::unique_lock<std::shared_mutex> ddl(catalog_mu_);
  INVERDA_RETURN_IF_ERROR(CheckNoActiveMigration());
  db_.Reshard(shards);
  return Status::OK();
}

Status Inverda::CheckNoActiveMigration() const {
  if (migrate_.active()) {
    return Status::InvalidState(
        "an online migration is in progress; wait for it or abort it first");
  }
  return Status::OK();
}

Status Inverda::WaitForMigration() { return migrate_.Wait(); }

Status Inverda::AbortMigration() { return migrate_.Abort(); }

Status Inverda::Execute(const std::string& bidel_script) {
  INVERDA_ASSIGN_OR_RETURN(std::vector<BidelStatement> statements,
                           ParseBidel(bidel_script));
  for (const BidelStatement& stmt : statements) {
    if (const auto* evolution = std::get_if<EvolutionStatement>(&stmt)) {
      INVERDA_RETURN_IF_ERROR(CreateSchemaVersion(*evolution));
    } else if (const auto* drop = std::get_if<DropVersionStatement>(&stmt)) {
      INVERDA_RETURN_IF_ERROR(DropSchemaVersion(drop->version));
    } else if (const auto* mat = std::get_if<MaterializeStatement>(&stmt)) {
      INVERDA_RETURN_IF_ERROR(
          Materialize(MaterializeRequest::Targets(mat->targets)));
    }
  }
  return Status::OK();
}

Status Inverda::ProvisionSmo(SmoId id) {
  const SmoInstance& inst = catalog_.smo(id);
  // Data tables of targets that are physically stored right away (only
  // CREATE TABLE targets: all other new SMOs start virtualized, so the data
  // stays where it was).
  for (TvId tgt : inst.targets) {
    if (catalog_.IsPhysical(tgt)) {
      TableSchema schema = catalog_.table_version(tgt).schema;
      schema.set_name(catalog_.DataTableName(tgt));
      INVERDA_RETURN_IF_ERROR(db_.CreateTable(std::move(schema)));
    }
  }
  // Aux tables of the initial materialization state.
  for (const std::string& aux :
       catalog_.PhysicalAuxNames(id, inst.materialized)) {
    for (const AuxDef& def : inst.aux_defs) {
      if (def.short_name != aux) continue;
      INVERDA_RETURN_IF_ERROR(
          db_.CreateTable(def.PhysicalSchema(catalog_.AuxTableName(id, aux))));
    }
  }
  return Status::OK();
}

Status Inverda::CreateSchemaVersion(const EvolutionStatement& stmt) {
  // DDL: exclusive — no access may observe a half-registered evolution.
  std::unique_lock<std::shared_mutex> ddl(catalog_mu_);
  INVERDA_RETURN_IF_ERROR(CheckNoActiveMigration());
  // The static-analysis gate: errors reject the evolution before any
  // catalog mutation or delta-code provisioning; warnings and notes are
  // recorded on the created version (shown by DescribeCatalog).
  AnalysisReport report = AnalyzeEvolution(catalog_, stmt);
  INVERDA_RETURN_IF_ERROR(ReportToStatus(report));

  INVERDA_ASSIGN_OR_RETURN(std::vector<SmoId> new_smos,
                           catalog_.ApplyEvolution(stmt));
  for (SmoId id : new_smos) {
    INVERDA_RETURN_IF_ERROR(ProvisionSmo(id));
  }

  // Record the lint findings, cross-referencing the delta-code artifacts
  // (views/triggers) each registered SMO instance would install.
  std::vector<std::string> findings = RecordableWarnings(report);
  for (SmoId id : new_smos) {
    Result<std::vector<std::string>> artifacts =
        DeltaArtifactNames(catalog_, id);
    if (!artifacts.ok() || artifacts->empty()) continue;
    std::string line = "delta-code[" + catalog_.smo(id).smo->ToString() + "]:";
    for (const std::string& name : *artifacts) line += " " + name + ",";
    line.pop_back();
    findings.push_back(std::move(line));
  }
  INVERDA_RETURN_IF_ERROR(
      catalog_.SetLintWarnings(stmt.new_version, std::move(findings)));
  return Status::OK();
}

Status Inverda::DropSchemaVersion(const std::string& name) {
  // DDL: exclusive — physical tables disappear below any in-flight access
  // otherwise.
  std::unique_lock<std::shared_mutex> ddl(catalog_mu_);
  INVERDA_RETURN_IF_ERROR(CheckNoActiveMigration());
  access_.InvalidateCache();
  INVERDA_ASSIGN_OR_RETURN(DropResult result, catalog_.DropVersion(name));
  // Physical cleanup: aux tables of removed SMO instances. Removed table
  // versions are never physical (the catalog refuses otherwise), but their
  // data tables may linger from earlier materializations.
  std::vector<std::string> names = db_.TableNames();
  for (SmoId id : result.removed_smos) {
    std::string prefix = "a" + std::to_string(id) + "_";
    for (const std::string& table : names) {
      if (table.rfind(prefix, 0) == 0) {
        INVERDA_RETURN_IF_ERROR(db_.DropTable(table));
      }
    }
  }
  for (TvId id : result.removed_tables) {
    std::string data = "d" + std::to_string(id) + "_";
    for (const std::string& table : names) {
      if (table.rfind(data, 0) == 0) {
        INVERDA_RETURN_IF_ERROR(db_.DropTable(table));
      }
    }
  }
  return Status::OK();
}

Result<TvId> Inverda::Resolve(const std::string& version,
                              const std::string& table) {
  return catalog_.ResolveTable(version, table);
}

Result<std::vector<KeyedRow>> Inverda::Select(const std::string& version,
                                              const std::string& table) {
  // Declared before the lock so a triggered auto-materialize runs after the
  // shared latch is released (the migration admission path takes it
  // exclusively).
  advisor::AutoTickGuard auto_tick(&advisor_);
  std::shared_lock<std::shared_mutex> dml(catalog_mu_);
  INVERDA_ASSIGN_OR_RETURN(TvId tv, Resolve(version, table));
  std::vector<KeyedRow> rows;
  INVERDA_RETURN_IF_ERROR(access_.ScanVersion(
      tv, [&rows](int64_t key, const Row& row) {
        rows.push_back({key, row});
      }));
  return rows;
}

Result<std::vector<KeyedRow>> Inverda::SelectWhere(
    const std::string& version, const std::string& table,
    const Expression& predicate) {
  advisor::AutoTickGuard auto_tick(&advisor_);
  std::shared_lock<std::shared_mutex> dml(catalog_mu_);
  return SelectWhereLocked(version, table, predicate);
}

Result<std::vector<KeyedRow>> Inverda::SelectWhereLocked(
    const std::string& version, const std::string& table,
    const Expression& predicate) {
  INVERDA_ASSIGN_OR_RETURN(TvId tv, Resolve(version, table));
  const TableSchema& schema = catalog_.table_version(tv).schema;
  std::vector<KeyedRow> rows;
  Status status = Status::OK();
  INVERDA_RETURN_IF_ERROR(
      access_.ScanVersion(tv, [&](int64_t key, const Row& row) {
        if (!status.ok()) return;
        Result<bool> match = predicate.EvalBool(schema, row);
        if (!match.ok()) {
          status = match.status();
          return;
        }
        if (*match) rows.push_back({key, row});
      }));
  INVERDA_RETURN_IF_ERROR(status);
  return rows;
}

Result<std::optional<Row>> Inverda::Get(const std::string& version,
                                        const std::string& table,
                                        int64_t key) {
  advisor::AutoTickGuard auto_tick(&advisor_);
  std::shared_lock<std::shared_mutex> dml(catalog_mu_);
  INVERDA_ASSIGN_OR_RETURN(TvId tv, Resolve(version, table));
  return access_.FindVersion(tv, key);
}

Result<int64_t> Inverda::Insert(const std::string& version,
                                const std::string& table, Row row) {
  advisor::AutoTickGuard auto_tick(&advisor_);
  std::shared_lock<std::shared_mutex> dml(catalog_mu_);
  INVERDA_ASSIGN_OR_RETURN(TvId tv, Resolve(version, table));
  const TableSchema& schema = catalog_.table_version(tv).schema;
  if (static_cast<int>(row.size()) != schema.num_columns()) {
    return Status::InvalidArgument("row width does not match " +
                                   schema.ToString());
  }
  // Entirely-ω tuples are not representable across vertical SMOs (the
  // paper's rules use all-ω parts as the "absent" marker); reject them
  // uniformly so no version can create a tuple another SMO would lose.
  if (!row.empty() && AllNull(row)) {
    return Status::InvalidArgument("cannot insert an all-NULL tuple");
  }
  int64_t key = db_.sequence().Next();
  WriteSet ws;
  ws.Add(WriteOp::Insert(key, std::move(row)));
  INVERDA_RETURN_IF_ERROR(access_.ApplyToVersion(tv, ws));
  return key;
}

Status Inverda::Update(const std::string& version, const std::string& table,
                       int64_t key, Row row) {
  advisor::AutoTickGuard auto_tick(&advisor_);
  std::shared_lock<std::shared_mutex> dml(catalog_mu_);
  INVERDA_ASSIGN_OR_RETURN(TvId tv, Resolve(version, table));
  const TableSchema& schema = catalog_.table_version(tv).schema;
  if (static_cast<int>(row.size()) != schema.num_columns()) {
    return Status::InvalidArgument("row width does not match " +
                                   schema.ToString());
  }
  if (!row.empty() && AllNull(row)) {
    return Status::InvalidArgument("cannot update a tuple to all-NULL");
  }
  WriteSet ws;
  ws.Add(WriteOp::Update(key, std::move(row)));
  return access_.ApplyToVersion(tv, ws);
}

Status Inverda::Delete(const std::string& version, const std::string& table,
                       int64_t key) {
  advisor::AutoTickGuard auto_tick(&advisor_);
  std::shared_lock<std::shared_mutex> dml(catalog_mu_);
  INVERDA_ASSIGN_OR_RETURN(TvId tv, Resolve(version, table));
  WriteSet ws;
  ws.Add(WriteOp::Delete(key));
  return access_.ApplyToVersion(tv, ws);
}

Result<int64_t> Inverda::UpdateWhere(
    const std::string& version, const std::string& table,
    const Expression& predicate,
    const std::function<Row(const Row&)>& make_row) {
  advisor::AutoTickGuard auto_tick(&advisor_);
  std::shared_lock<std::shared_mutex> dml(catalog_mu_);
  INVERDA_ASSIGN_OR_RETURN(std::vector<KeyedRow> matches,
                           SelectWhereLocked(version, table, predicate));
  INVERDA_ASSIGN_OR_RETURN(TvId tv, Resolve(version, table));
  WriteSet ws;
  for (const KeyedRow& kr : matches) {
    ws.Add(WriteOp::Update(kr.key, make_row(kr.row)));
  }
  INVERDA_RETURN_IF_ERROR(access_.ApplyToVersion(tv, ws));
  return static_cast<int64_t>(matches.size());
}

Result<int64_t> Inverda::DeleteWhere(const std::string& version,
                                     const std::string& table,
                                     const Expression& predicate) {
  advisor::AutoTickGuard auto_tick(&advisor_);
  std::shared_lock<std::shared_mutex> dml(catalog_mu_);
  INVERDA_ASSIGN_OR_RETURN(std::vector<KeyedRow> matches,
                           SelectWhereLocked(version, table, predicate));
  INVERDA_ASSIGN_OR_RETURN(TvId tv, Resolve(version, table));
  WriteSet ws;
  for (const KeyedRow& kr : matches) {
    ws.Add(WriteOp::Delete(kr.key));
  }
  INVERDA_RETURN_IF_ERROR(access_.ApplyToVersion(tv, ws));
  return static_cast<int64_t>(matches.size());
}

Result<TableSchema> Inverda::GetSchema(const std::string& version,
                                       const std::string& table) {
  std::shared_lock<std::shared_mutex> dml(catalog_mu_);
  INVERDA_ASSIGN_OR_RETURN(TvId tv, Resolve(version, table));
  return catalog_.table_version(tv).schema;
}

Result<verify::VerifySummary> Inverda::VerifyPlans(
    const verify::VerifyOptions& options) {
  // Shared: verification only compiles and reads; the exclusive DDL side
  // keeps the catalog shape stable for the duration.
  std::shared_lock<std::shared_mutex> dml(catalog_mu_);
  verify::VerifyOptions opts = options;
  // The lock-order analysis models the latch granularity the executor
  // actually uses, so it needs the active shard count.
  if (opts.shards <= 0) opts.shards = db_.shards();
  return verify::VerifyGenealogy(catalog_, access_.compiler(), opts);
}

}  // namespace inverda
