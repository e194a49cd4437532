#include "inverda/inverda.h"

#include <mutex>
#include <set>
#include <shared_mutex>

#include "util/strings.h"

namespace inverda {

Status Inverda::Materialize(const MaterializeRequest& request) {
  const bool has_targets = !request.targets.empty();
  const bool has_schema = request.schema.has_value();
  if (has_targets && has_schema) {
    return Status::InvalidArgument(
        "materialize request: set targets or schema, not both");
  }
  if (!has_targets && !has_schema) {
    return Status::InvalidArgument(
        "materialize request: set targets or schema");
  }

  if (request.online) {
    // The coordinator takes the exclusive catalog lock itself during
    // admission and the flip; we must hold no locks here.
    INVERDA_RETURN_IF_ERROR(migrate_.Start(request));
    if (request.wait) return migrate_.Wait();
    return Status::OK();
  }

  // Blocking DDL: the same migration, run inline inside one exclusive
  // section — no access may observe a half-flipped state (clients see the
  // catalog epoch strictly before or strictly after).
  std::unique_lock<std::shared_mutex> ddl(catalog_mu_);
  INVERDA_RETURN_IF_ERROR(CheckNoActiveMigration());
  return migrate_.RunInlineLocked(request);
}

Result<std::set<SmoId>> Inverda::ResolveMaterializationLocked(
    const std::vector<std::string>& targets) {
  // Resolve the targets ("Version" or "Version.table") to table versions.
  std::vector<TvId> tables;
  for (const std::string& target : targets) {
    std::vector<std::string> parts = Split(target, '.');
    if (parts.size() == 1) {
      INVERDA_ASSIGN_OR_RETURN(const SchemaVersionInfo* info,
                               catalog_.FindVersion(parts[0]));
      for (const auto& [name, tv] : info->tables) {
        (void)name;
        tables.push_back(tv);
      }
    } else if (parts.size() == 2) {
      INVERDA_ASSIGN_OR_RETURN(TvId tv,
                               catalog_.ResolveTable(parts[0], parts[1]));
      tables.push_back(tv);
    } else {
      return Status::InvalidArgument("bad MATERIALIZE target: " + target);
    }
  }
  return catalog_.MaterializationForTables(tables);
}

}  // namespace inverda
