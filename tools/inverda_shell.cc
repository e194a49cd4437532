// inverda_shell — an interactive console for the InVerDa library, in the
// spirit of the authors' ICDE'16 demo: type BiDEL to evolve, SQL-ish DML to
// read and write through any schema version, and MATERIALIZE to move the
// physical data. Reads from stdin, so it is scriptable:
//
//   build/tools/inverda_shell < session.bidel
//
// Statements (each terminated by ';'; the SMO statements that follow a
// CREATE SCHEMA VERSION ... WITH belong to it, and the whole evolution runs
// once the next statement that is not an SMO, or the end of input, arrives):
//   CREATE SCHEMA VERSION ... / DROP SCHEMA VERSION ... / MATERIALIZE ...
//   SELECT FROM <version>.<table> [WHERE <condition>]
//   INSERT INTO <version>.<table> VALUES (<literal>, ...)
//   UPDATE <version>.<table> SET (<literal>, ...) WHERE <condition>
//   DELETE FROM <version>.<table> WHERE <condition>
//   SHOW VERSIONS | SHOW CATALOG | SHOW DOT
//   DESCRIBE <version>
//   DELTA <version>          -- the generated SQL delta code
//   CHECK <SMO statement>    -- the Section 5 bidirectionality checker
//   LINT <statement>         -- static analysis without applying anything
//   EXPLAIN <version>.<table> -- the compiled access plan (Figure 6 cases)
//   VERIFY [JSON]            -- static plan verifier (docs/verifier.md)
//   SHARDS [<n>]             -- show or set the physical shard count
//   MIGRATIONS [START <targets>|WAIT|ABORT]  -- online MATERIALIZE
//   ADVISE [APPLY|JSON|AUTO [ON|OFF]]  -- materialization advisor
//   HELP | QUIT

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "bidel/parser.h"
#include "bidel/rules.h"
#include "catalog/describe.h"
#include "datalog/print.h"
#include "datalog/simplify.h"
#include "expr/parser.h"
#include "inverda/export.h"
#include "inverda/inverda.h"
#include "plan/explain.h"
#include "sqlgen/sqlgen.h"
#include "util/strings.h"

namespace inverda {
namespace {

void PrintRows(Inverda* db, const std::string& version,
               const std::string& table,
               const std::vector<KeyedRow>& rows) {
  Result<TableSchema> schema = db->GetSchema(version, table);
  if (schema.ok()) {
    std::printf("  %-6s", "p");
    for (const Column& c : schema->columns()) {
      std::printf(" %-14s", c.name.c_str());
    }
    std::printf("\n");
  }
  for (const KeyedRow& kr : rows) {
    std::printf("  %-6lld", static_cast<long long>(kr.key));
    for (const Value& v : kr.row) {
      std::printf(" %-14s", v.ToString().c_str());
    }
    std::printf("\n");
  }
  std::printf("  (%zu rows)\n", rows.size());
}

// Parses "<version>.<table>" (the version name may contain '!' etc.).
Result<std::pair<std::string, std::string>> SplitTarget(
    const std::string& target) {
  size_t dot = target.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= target.size()) {
    return Status::InvalidArgument(
        "expected <version>.<table>, got: " + target);
  }
  return std::pair<std::string, std::string>{target.substr(0, dot),
                                             target.substr(dot + 1)};
}

// Parses a parenthesized literal list: (1, 'x', NULL).
Result<Row> ParseValues(const std::string& text) {
  std::string_view body = StripWhitespace(text);
  if (body.empty() || body.front() != '(' || body.back() != ')') {
    return Status::InvalidArgument("expected a (value, ...) list");
  }
  body.remove_prefix(1);
  body.remove_suffix(1);
  Row row;
  std::string current;
  bool in_string = false;
  auto flush = [&]() -> Status {
    std::string_view token = StripWhitespace(current);
    if (token.empty()) {
      return Status::InvalidArgument("empty value in list");
    }
    INVERDA_ASSIGN_OR_RETURN(ExprPtr expr,
                             ParseExpression(std::string(token)));
    TableSchema empty("values", {});
    INVERDA_ASSIGN_OR_RETURN(Value value, expr->Eval(empty, {}));
    row.push_back(std::move(value));
    current.clear();
    return Status::OK();
  };
  for (char c : body) {
    if (c == '\'') in_string = !in_string;
    if (c == ',' && !in_string) {
      INVERDA_RETURN_IF_ERROR(flush());
      continue;
    }
    current += c;
  }
  INVERDA_RETURN_IF_ERROR(flush());
  return row;
}

class Shell {
 public:
  int Run() {
    std::printf("InVerDa shell — co-existing schema versions. Type HELP;\n");
    std::string buffer;
    std::string line;
    // Prompts only for a person at a terminal; piped sessions (scripts,
    // smoke tests) get statement output alone.
    const bool interactive = isatty(fileno(stdin)) != 0;
    while (true) {
      if (interactive) std::printf(buffer.empty() ? "inverda> " : "    ...> ");
      if (!std::getline(std::cin, line)) break;
      buffer += line;
      buffer += "\n";
      size_t semi;
      while ((semi = FindStatementEnd(buffer)) != std::string::npos) {
        std::string statement(StripWhitespace(buffer.substr(0, semi)));
        buffer.erase(0, semi + 1);
        if (statement.empty()) continue;
        if (!evolution_.empty() && ParseSmo(statement).ok()) {
          evolution_ += ";\n" + statement;
          continue;
        }
        RunEvolution();
        if (EqualsIgnoreCase(statement, "QUIT") ||
            EqualsIgnoreCase(statement, "EXIT")) {
          return 0;
        }
        if (OpensEvolution(statement)) {
          evolution_ = statement;
          continue;
        }
        Report(statement);
      }
    }
    RunEvolution();
    return 0;
  }

 private:
  // True for a well-formed CREATE SCHEMA VERSION ... WITH statement: the
  // SMO statements after it may extend its SMO list.
  static bool OpensEvolution(const std::string& statement) {
    Result<std::vector<BidelStatement>> parsed = ParseBidel(statement);
    return parsed.ok() && parsed->size() == 1 &&
           std::holds_alternative<EvolutionStatement>(parsed->front());
  }

  // Sends the open evolution block, if any, to Inverda::Execute as one
  // script.
  void RunEvolution() {
    if (evolution_.empty()) return;
    const std::string block = std::move(evolution_);
    evolution_.clear();
    Report(block);
  }

  void Report(const std::string& statement) {
    Status status = Dispatch(statement);
    if (!status.ok()) {
      std::printf("ERROR: %s\n", status.ToString().c_str());
    }
  }

  static size_t FindStatementEnd(const std::string& text) {
    bool in_string = false;
    for (size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\'') in_string = !in_string;
      if (text[i] == ';' && !in_string) return i;
    }
    return std::string::npos;
  }

  bool ConsumeKeyword(std::istringstream* in, const char* kw) {
    std::streampos pos = in->tellg();
    std::string word;
    if ((*in >> word) && EqualsIgnoreCase(word, kw)) return true;
    in->clear();
    in->seekg(pos);
    return false;
  }

  Status Dispatch(const std::string& statement) {
    std::istringstream in(statement);
    std::string first;
    in >> first;
    std::string rest;
    std::getline(in, rest);
    rest = std::string(StripWhitespace(rest));

    if (EqualsIgnoreCase(first, "HELP")) return Help();
    if (EqualsIgnoreCase(first, "SHOW")) return Show(rest);
    if (EqualsIgnoreCase(first, "DESCRIBE")) {
      INVERDA_ASSIGN_OR_RETURN(std::string text,
                               DescribeVersion(db_.catalog(), rest));
      std::printf("%s", text.c_str());
      return Status::OK();
    }
    if (EqualsIgnoreCase(first, "DELTA")) {
      INVERDA_ASSIGN_OR_RETURN(
          std::string sql, GenerateDeltaCodeForVersion(db_.catalog(), rest));
      std::printf("%s", sql.c_str());
      return Status::OK();
    }
    if (EqualsIgnoreCase(first, "CHECK")) return Check(rest);
    if (EqualsIgnoreCase(first, "LINT")) return Lint(rest);
    if (EqualsIgnoreCase(first, "EXPLAIN")) return Explain(rest);
    if (EqualsIgnoreCase(first, "VERIFY")) return Verify(rest);
    if (EqualsIgnoreCase(first, "METRICS")) return Metrics(rest);
    if (EqualsIgnoreCase(first, "MIGRATIONS")) return Migrations(rest);
    if (EqualsIgnoreCase(first, "ADVISE")) return Advise(rest);
    if (EqualsIgnoreCase(first, "SHARDS")) return Shards(rest);
    if (EqualsIgnoreCase(first, "TRACE")) return Trace(rest);
    if (EqualsIgnoreCase(first, "EXPORT")) {
      INVERDA_ASSIGN_OR_RETURN(std::string script, ExportSession(&db_));
      std::printf("%s", script.c_str());
      return Status::OK();
    }
    if (EqualsIgnoreCase(first, "SELECT")) return Select(rest);
    if (EqualsIgnoreCase(first, "INSERT")) return Insert(rest);
    if (EqualsIgnoreCase(first, "UPDATE")) return Update(rest);
    if (EqualsIgnoreCase(first, "DELETE")) return Delete(rest);
    // Everything else is BiDEL (CREATE/DROP SCHEMA VERSION, MATERIALIZE).
    INVERDA_RETURN_IF_ERROR(db_.Execute(statement + ";"));
    std::printf("OK\n");
    return Status::OK();
  }

  Status Help() {
    std::printf(
        "  CREATE SCHEMA VERSION <v> [FROM <v>] WITH <smo>; ...\n"
        "  DROP SCHEMA VERSION <v>;      MATERIALIZE '<v>[.<table>]';\n"
        "  SELECT FROM <v>.<table> [WHERE <cond>];\n"
        "  INSERT INTO <v>.<table> VALUES (<lit>, ...);\n"
        "  UPDATE <v>.<table> SET (<lit>, ...) WHERE <cond>;\n"
        "  DELETE FROM <v>.<table> WHERE <cond>;\n"
        "  SHOW VERSIONS; SHOW CATALOG; SHOW DOT; DESCRIBE <v>; DELTA <v>;\n"
        "  CHECK <smo>;   -- Section 5 bidirectionality checker\n"
        "  LINT <stmt>;   -- static analysis without applying anything\n"
        "  EXPLAIN <v>.<table>;  -- the compiled access plan (Figure 6)\n"
        "  VERIFY [JSON];        -- static plan verifier (round-trip, fusion,\n"
        "                        --   lock order; docs/verifier.md)\n"
        "  METRICS [JSON|RESET]; -- the unified stats registry\n"
        "  MIGRATIONS [START <v>[.<table>] ...|WAIT|ABORT];\n"
        "                 -- online MATERIALIZE: background copy + brief\n"
        "                 --   flip (docs/migration.md); no argument shows\n"
        "                 --   the coordinator status\n"
        "  ADVISE [APPLY|JSON|AUTO [ON|OFF]];\n"
        "                 -- traffic-driven materialization advisor: rank\n"
        "                 --   every valid candidate against the observed\n"
        "                 --   workload (docs/advisor.md); APPLY runs the\n"
        "                 --   winner via online migration; AUTO toggles\n"
        "                 --   auto-materialize (no argument shows status)\n"
        "  SHARDS [<n>];  -- show or set the physical store's shard count\n"
        "  TRACE ON|OFF|LAST [n]|JSON [n];  -- per-operation span traces\n"
        "  EXPORT;        -- replayable genealogy + root data script\n"
        "  QUIT;\n");
    return Status::OK();
  }

  Status Show(const std::string& what) {
    if (EqualsIgnoreCase(what, "VERSIONS")) {
      for (const std::string& v : db_.catalog().VersionNames()) {
        std::printf("  %s\n", v.c_str());
      }
      return Status::OK();
    }
    if (EqualsIgnoreCase(what, "CATALOG")) {
      std::printf("%s", DescribeCatalog(db_.catalog()).c_str());
      return Status::OK();
    }
    if (EqualsIgnoreCase(what, "DOT")) {
      std::printf("%s", CatalogToDot(db_.catalog()).c_str());
      return Status::OK();
    }
    return Status::InvalidArgument("SHOW VERSIONS | CATALOG | DOT");
  }

  Status Explain(const std::string& target) {
    INVERDA_ASSIGN_OR_RETURN(auto vt, SplitTarget(target));
    INVERDA_ASSIGN_OR_RETURN(TvId tv,
                             db_.catalog().ResolveTable(vt.first, vt.second));
    INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* compiled,
                             db_.access().GetPlan(tv));
    std::printf("%s",
                plan::ExplainPlan(*compiled, target, db_.shards()).c_str());
    return Status::OK();
  }

  Status Verify(const std::string& what) {
    if (!what.empty() && !EqualsIgnoreCase(what, "JSON")) {
      return Status::InvalidArgument("VERIFY [JSON]");
    }
    INVERDA_ASSIGN_OR_RETURN(verify::VerifySummary summary, db_.VerifyPlans());
    if (EqualsIgnoreCase(what, "JSON")) {
      std::printf("%s\n", verify::VerifySummaryToJson(summary).c_str());
    } else {
      std::printf("%s", verify::FormatVerifySummary(summary).c_str());
    }
    return Status::OK();
  }

  Status Metrics(const std::string& what) {
    if (what.empty()) {
      std::printf("%s", db_.Metrics().Snapshot().ToText().c_str());
      return Status::OK();
    }
    if (EqualsIgnoreCase(what, "JSON")) {
      std::printf("%s\n", db_.Metrics().Snapshot().ToJson().c_str());
      return Status::OK();
    }
    if (EqualsIgnoreCase(what, "RESET")) {
      db_.ResetMetrics();
      std::printf("OK\n");
      return Status::OK();
    }
    return Status::InvalidArgument("METRICS [JSON|RESET]");
  }

  Status Migrations(const std::string& rest) {
    std::istringstream in(rest);
    std::string verb;
    in >> verb;
    if (verb.empty()) {
      std::printf("  %s\n",
                  migrate::FormatMigrationStatus(db_.MigrationState()).c_str());
      return Status::OK();
    }
    if (EqualsIgnoreCase(verb, "START")) {
      std::vector<std::string> targets;
      std::string target;
      while (in >> target) targets.push_back(target);
      if (targets.empty()) {
        return Status::InvalidArgument(
            "MIGRATIONS START <version>[.<table>] ...");
      }
      INVERDA_RETURN_IF_ERROR(db_.Materialize(MaterializeRequest::Targets(targets, /*online=*/true, /*wait=*/false)));
      std::printf("OK, migration started: %s\n",
                  migrate::FormatMigrationStatus(db_.MigrationState()).c_str());
      return Status::OK();
    }
    if (EqualsIgnoreCase(verb, "WAIT")) {
      INVERDA_RETURN_IF_ERROR(db_.WaitForMigration());
      std::printf("OK, %s\n",
                  migrate::FormatMigrationStatus(db_.MigrationState()).c_str());
      return Status::OK();
    }
    if (EqualsIgnoreCase(verb, "ABORT")) {
      INVERDA_RETURN_IF_ERROR(db_.AbortMigration());
      std::printf("OK, %s\n",
                  migrate::FormatMigrationStatus(db_.MigrationState()).c_str());
      return Status::OK();
    }
    return Status::InvalidArgument("MIGRATIONS [START <targets>|WAIT|ABORT]");
  }

  Status Advise(const std::string& rest) {
    std::istringstream in(rest);
    std::string verb;
    in >> verb;
    if (verb.empty() || EqualsIgnoreCase(verb, "JSON")) {
      INVERDA_ASSIGN_OR_RETURN(advisor::AdviseReport report, db_.Advise());
      if (EqualsIgnoreCase(verb, "JSON")) {
        std::printf("%s\n", report.ToJson().c_str());
      } else {
        std::printf("%s", report.ToText().c_str());
      }
      return Status::OK();
    }
    if (EqualsIgnoreCase(verb, "APPLY")) {
      INVERDA_ASSIGN_OR_RETURN(advisor::AdviseReport report, db_.Advise());
      std::printf("%s", report.ToText().c_str());
      const advisor::CandidateScore& best = report.best();
      if (best.is_current) {
        std::printf("OK, already on the recommended materialization\n");
        return Status::OK();
      }
      // Online so concurrent clients keep committing during the copy; wait
      // so the prompt returns only after the flip.
      INVERDA_RETURN_IF_ERROR(db_.Materialize(MaterializeRequest::Schema(
          best.materialization, /*online=*/true, /*wait=*/true)));
      std::printf("OK, materialized %s via online migration\n",
                  best.label.c_str());
      return Status::OK();
    }
    if (EqualsIgnoreCase(verb, "AUTO")) {
      std::string mode;
      in >> mode;
      if (EqualsIgnoreCase(mode, "ON") || EqualsIgnoreCase(mode, "OFF")) {
        db_.advisor().set_auto_materialize_enabled(EqualsIgnoreCase(mode, "ON"));
        std::printf("OK\n");
        return Status::OK();
      }
      if (!mode.empty()) {
        return Status::InvalidArgument("ADVISE AUTO [ON|OFF]");
      }
      advisor::Advisor::AutoStatus status = db_.advisor().auto_status();
      std::printf(
          "  auto-materialize: %s\n"
          "  ops observed: %lld (next check at %lld)\n"
          "  evaluations: %lld, applied: %lld, retries: %lld\n"
          "  last action: %s\n",
          status.enabled ? "on" : "off", static_cast<long long>(status.ops),
          static_cast<long long>(status.next_check_at),
          static_cast<long long>(status.evaluations),
          static_cast<long long>(status.applied),
          static_cast<long long>(status.retries),
          status.last_action.empty() ? "(none)" : status.last_action.c_str());
      return Status::OK();
    }
    return Status::InvalidArgument("ADVISE [APPLY|JSON|AUTO [ON|OFF]]");
  }

  Status Shards(const std::string& rest) {
    if (rest.empty()) {
      std::printf("  %d shard%s per physical table (max %d)\n", db_.shards(),
                  db_.shards() == 1 ? "" : "s", kMaxShards);
      return Status::OK();
    }
    char* end = nullptr;
    const long shards = std::strtol(rest.c_str(), &end, 10);
    if (end == rest.c_str() || *end != '\0') {
      return Status::InvalidArgument("SHARDS [<n>]");
    }
    if (shards < 1 || shards > kMaxShards) {
      return Status::InvalidArgument("shard count must be in [1, " +
                                     std::to_string(kMaxShards) + "]");
    }
    INVERDA_RETURN_IF_ERROR(db_.Reshard(static_cast<int>(shards)));
    std::printf("OK, %d shard%s per physical table\n", db_.shards(),
                db_.shards() == 1 ? "" : "s");
    return Status::OK();
  }

  Status Trace(const std::string& rest) {
    std::istringstream in(rest);
    std::string verb;
    in >> verb;
    if (EqualsIgnoreCase(verb, "ON")) {
      if (!obs::kObsBuild) {
        return Status::InvalidArgument(
            "tracing unavailable: built with -DINVERDA_OBS=OFF");
      }
      db_.tracer().set_enabled(true);
      // TRACE ON also opens the detailed-timing gate so METRICS shows the
      // latency histograms and per-kernel timers alongside the spans.
      db_.Metrics().set_timing_enabled(true);
      std::printf("OK, tracing on\n");
      return Status::OK();
    }
    if (EqualsIgnoreCase(verb, "OFF")) {
      db_.tracer().set_enabled(false);
      db_.Metrics().set_timing_enabled(false);
      std::printf("OK, tracing off\n");
      return Status::OK();
    }
    const bool as_json = EqualsIgnoreCase(verb, "JSON");
    if (EqualsIgnoreCase(verb, "LAST") || as_json) {
      size_t n = 1;
      long long parsed;
      if (in >> parsed) n = parsed > 0 ? static_cast<size_t>(parsed) : 1;
      auto traces = db_.tracer().Last(n);
      if (traces.empty()) {
        std::printf(db_.tracer().enabled()
                        ? "no completed traces yet\n"
                        : "no traces recorded (tracing is off; TRACE ON;)\n");
        return Status::OK();
      }
      for (const auto& t : traces) {
        if (as_json) {
          std::printf("%s\n", t->ToJson().c_str());
        } else {
          std::printf("%s", plan::RenderTrace(*t, "").c_str());
        }
      }
      return Status::OK();
    }
    return Status::InvalidArgument("TRACE ON | OFF | LAST [n] | JSON [n]");
  }

  Status Check(const std::string& smo_text) {
    INVERDA_ASSIGN_OR_RETURN(SmoPtr smo, ParseSmo(smo_text));
    INVERDA_ASSIGN_OR_RETURN(SmoRules rules, RulesForSmo(*smo));
    if (rules.uses_id_generation) {
      std::printf("id-generating SMO: verified by runtime property tests, "
                  "not the symbolic checker\n");
      return Status::OK();
    }
    if (rules.gamma_tgt.rules.empty()) {
      std::printf("catalog-only SMO: nothing to check\n");
      return Status::OK();
    }
    INVERDA_ASSIGN_OR_RETURN(
        datalog::RoundTripReport cond27,
        datalog::CheckRoundTrip(rules.gamma_tgt, rules.gamma_src,
                                rules.source_relations, rules.source_aux,
                                rules.source_aux));
    INVERDA_ASSIGN_OR_RETURN(
        datalog::RoundTripReport cond26,
        datalog::CheckRoundTrip(rules.gamma_src, rules.gamma_tgt,
                                rules.target_relations, rules.target_aux,
                                rules.target_aux));
    std::printf("condition 27: %s\ncondition 26: %s\n",
                cond27.holds ? "identity (holds)" : cond27.detail.c_str(),
                cond26.holds ? "identity (holds)" : cond26.detail.c_str());
    return Status::OK();
  }

  Status Lint(const std::string& script_body) {
    // Lint the statement against the live catalog without applying it.
    std::string script = script_body + ";";
    AnalysisReport report = AnalyzeScript(db_.catalog(), script);
    std::printf("%s", FormatReport(report, script).c_str());
    return Status::OK();
  }

  Status Select(const std::string& rest) {
    std::istringstream in(rest);
    if (!ConsumeKeyword(&in, "FROM")) {
      return Status::InvalidArgument("SELECT FROM <version>.<table> ...");
    }
    std::string target;
    in >> target;
    INVERDA_ASSIGN_OR_RETURN(auto vt, SplitTarget(target));
    std::string tail;
    std::getline(in, tail);
    std::string where(StripWhitespace(tail));
    std::vector<KeyedRow> rows;
    if (where.empty()) {
      INVERDA_ASSIGN_OR_RETURN(rows, db_.Select(vt.first, vt.second));
    } else {
      if (!StartsWith(ToLower(where), "where ")) {
        return Status::InvalidArgument("expected WHERE, got: " + where);
      }
      INVERDA_ASSIGN_OR_RETURN(ExprPtr pred,
                               ParseExpression(where.substr(6)));
      INVERDA_ASSIGN_OR_RETURN(rows,
                               db_.SelectWhere(vt.first, vt.second, *pred));
    }
    PrintRows(&db_, vt.first, vt.second, rows);
    return Status::OK();
  }

  Status Insert(const std::string& rest) {
    std::istringstream in(rest);
    if (!ConsumeKeyword(&in, "INTO")) {
      return Status::InvalidArgument("INSERT INTO <version>.<table> VALUES");
    }
    std::string target;
    in >> target;
    INVERDA_ASSIGN_OR_RETURN(auto vt, SplitTarget(target));
    if (!ConsumeKeyword(&in, "VALUES")) {
      return Status::InvalidArgument("expected VALUES (...)");
    }
    std::string values;
    std::getline(in, values);
    INVERDA_ASSIGN_OR_RETURN(Row row, ParseValues(values));
    INVERDA_ASSIGN_OR_RETURN(int64_t key,
                             db_.Insert(vt.first, vt.second, std::move(row)));
    std::printf("OK, p=%lld\n", static_cast<long long>(key));
    return Status::OK();
  }

  Status Update(const std::string& rest) {
    // UPDATE <target> SET (<values>) WHERE <cond>
    size_t set_pos = ToLower(rest).find(" set ");
    size_t where_pos = ToLower(rest).find(" where ");
    if (set_pos == std::string::npos || where_pos == std::string::npos ||
        where_pos < set_pos) {
      return Status::InvalidArgument(
          "UPDATE <version>.<table> SET (<values>) WHERE <cond>");
    }
    INVERDA_ASSIGN_OR_RETURN(
        auto vt,
        SplitTarget(std::string(StripWhitespace(rest.substr(0, set_pos)))));
    INVERDA_ASSIGN_OR_RETURN(
        Row row,
        ParseValues(rest.substr(set_pos + 5, where_pos - set_pos - 5)));
    INVERDA_ASSIGN_OR_RETURN(ExprPtr pred,
                             ParseExpression(rest.substr(where_pos + 7)));
    INVERDA_ASSIGN_OR_RETURN(
        int64_t count,
        db_.UpdateWhere(vt.first, vt.second, *pred,
                        [&row](const Row&) { return row; }));
    std::printf("OK, %lld rows\n", static_cast<long long>(count));
    return Status::OK();
  }

  Status Delete(const std::string& rest) {
    std::istringstream in(rest);
    if (!ConsumeKeyword(&in, "FROM")) {
      return Status::InvalidArgument(
          "DELETE FROM <version>.<table> WHERE <cond>");
    }
    std::string target;
    in >> target;
    INVERDA_ASSIGN_OR_RETURN(auto vt, SplitTarget(target));
    std::string tail;
    std::getline(in, tail);
    std::string where(StripWhitespace(tail));
    if (!StartsWith(ToLower(where), "where ")) {
      return Status::InvalidArgument("expected WHERE <cond>");
    }
    INVERDA_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpression(where.substr(6)));
    INVERDA_ASSIGN_OR_RETURN(int64_t count,
                             db_.DeleteWhere(vt.first, vt.second, *pred));
    std::printf("OK, %lld rows\n", static_cast<long long>(count));
    return Status::OK();
  }

  Inverda db_;
  // The CREATE SCHEMA VERSION statement being assembled, with the SMO
  // statements that joined it ("" when none is open).
  std::string evolution_;
};

}  // namespace
}  // namespace inverda

int main() {
  inverda::Shell shell;
  return shell.Run();
}
