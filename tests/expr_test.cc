#include <gtest/gtest.h>

#include "expr/expression.h"
#include "expr/parser.h"

namespace inverda {
namespace {

TableSchema TaskSchema() {
  return TableSchema("Task", {{"author", DataType::kString},
                              {"task", DataType::kString},
                              {"prio", DataType::kInt64}});
}

Row TaskRow(const char* author, const char* task, int64_t prio) {
  return {Value::String(author), Value::String(task), Value::Int(prio)};
}

Result<Value> Eval(const std::string& text, const Row& row) {
  Result<ExprPtr> expr = ParseExpression(text);
  if (!expr.ok()) return expr.status();
  return (*expr)->Eval(TaskSchema(), row);
}

Result<bool> EvalBool(const std::string& text, const Row& row) {
  Result<ExprPtr> expr = ParseExpression(text);
  if (!expr.ok()) return expr.status();
  return (*expr)->EvalBool(TaskSchema(), row);
}

TEST(ExprTest, Comparisons) {
  Row row = TaskRow("Ann", "write", 1);
  EXPECT_TRUE(*EvalBool("prio = 1", row));
  EXPECT_FALSE(*EvalBool("prio <> 1", row));
  EXPECT_TRUE(*EvalBool("prio < 2", row));
  EXPECT_TRUE(*EvalBool("prio >= 1", row));
  EXPECT_TRUE(*EvalBool("author = 'Ann'", row));
  EXPECT_TRUE(*EvalBool("author != 'Ben'", row));
}

TEST(ExprTest, BooleanConnectives) {
  Row row = TaskRow("Ann", "write", 2);
  EXPECT_TRUE(*EvalBool("prio = 2 AND author = 'Ann'", row));
  EXPECT_FALSE(*EvalBool("prio = 1 AND author = 'Ann'", row));
  EXPECT_TRUE(*EvalBool("prio = 1 OR author = 'Ann'", row));
  EXPECT_TRUE(*EvalBool("NOT prio = 1", row));
  EXPECT_TRUE(*EvalBool("prio = 1 OR prio = 2 AND author = 'Ann'", row));
}

TEST(ExprTest, Arithmetic) {
  Row row = TaskRow("Ann", "write", 3);
  EXPECT_EQ(*Eval("prio * 2 + 1", row), Value::Int(7));
  EXPECT_EQ(*Eval("prio % 2", row), Value::Int(1));
  EXPECT_EQ(*Eval("-prio", row), Value::Int(-3));
  EXPECT_FALSE(Eval("prio / 0", row).ok());
}

TEST(ExprTest, Concat) {
  Row row = TaskRow("Ann", "write", 1);
  EXPECT_EQ(*Eval("author || '!'", row), Value::String("Ann!"));
  EXPECT_EQ(*Eval("author || prio", row), Value::String("Ann1"));
}

TEST(ExprTest, NullSemantics) {
  Row row = {Value::Null(), Value::String("t"), Value::Int(1)};
  EXPECT_TRUE(*EvalBool("author IS NULL", row));
  EXPECT_FALSE(*EvalBool("author IS NOT NULL", row));
  // Ordering comparisons with NULL collapse to false.
  EXPECT_FALSE(*EvalBool("author < 'x'", row));
  // NULL equals NULL (ω-preserving round trips).
  EXPECT_TRUE(*EvalBool("author = NULL", row));
  // Arithmetic with NULL yields NULL, which is false as a condition.
  EXPECT_FALSE(*EvalBool("prio + NULL = 1", row));
}

TEST(ExprTest, Functions) {
  Row row = TaskRow("Ann", "write", 1);
  EXPECT_EQ(*Eval("UPPER(author)", row), Value::String("ANN"));
  EXPECT_EQ(*Eval("LENGTH(task)", row), Value::Int(5));
  EXPECT_EQ(*Eval("COALESCE(NULL, author)", row), Value::String("Ann"));
  EXPECT_EQ(*Eval("CONCAT(author, '-', prio)", row),
            Value::String("Ann-1"));
  EXPECT_FALSE(ParseExpression("NO_SUCH_FN(1)").ok());
}

TEST(ExprTest, ParserErrors) {
  EXPECT_FALSE(ParseExpression("prio = ").ok());
  EXPECT_FALSE(ParseExpression("(prio = 1").ok());
  EXPECT_FALSE(ParseExpression("prio = 'unterminated").ok());
  EXPECT_FALSE(ParseExpression("prio = 1 extra").ok());
}

// Literals outside their type's range are diagnosed at the literal's
// line:column instead of throwing.
TEST(ExprTest, LiteralOverflowIsAnError) {
  Result<ExprPtr> big_int = ParseExpression("prio = 99999999999999999999999");
  ASSERT_FALSE(big_int.ok());
  EXPECT_EQ(big_int.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(big_int.status().message().find("out of range at 1:8"),
            std::string::npos)
      << big_int.status().ToString();

  Result<ExprPtr> big_double =
      ParseExpression("prio <\n  " + std::string(400, '9') + ".5");
  ASSERT_FALSE(big_double.ok());
  EXPECT_EQ(big_double.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(big_double.status().message().find("out of range at 2:3"),
            std::string::npos)
      << big_double.status().ToString();

  // The extremes of the types still parse.
  EXPECT_TRUE(ParseExpression("prio = 9223372036854775807").ok());
  EXPECT_TRUE(ParseExpression("prio = -9223372036854775807").ok());
  EXPECT_TRUE(ParseExpression("prio = 1.5").ok());
  EXPECT_FALSE(ParseExpression("prio = 1.2.3").ok());
}

// Nesting deeper than kMaxExpressionDepth fails cleanly instead of
// exhausting the stack; parentheses, unary minus and NOT count alike.
TEST(ExprTest, NestingDepthIsCapped) {
  auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '(') + "prio" +
           std::string(static_cast<size_t>(depth), ')') + " = 1";
  };
  Result<ExprPtr> ok200 = ParseExpression(nested(200));
  ASSERT_TRUE(ok200.ok()) << ok200.status().ToString();
  EXPECT_TRUE(*(*ok200)->EvalBool(TaskSchema(), TaskRow("Ann", "x", 1)));
  EXPECT_TRUE(ParseExpression(nested(kMaxExpressionDepth)).ok());

  Result<ExprPtr> too_deep = ParseExpression(nested(kMaxExpressionDepth + 1));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_deep.status().message().find(
                "at 1:" + std::to_string(kMaxExpressionDepth + 1)),
            std::string::npos)
      << too_deep.status().ToString();

  const std::string minuses(static_cast<size_t>(kMaxExpressionDepth), '-');
  EXPECT_TRUE(ParseExpression("prio = " + minuses + "1").ok());
  EXPECT_FALSE(ParseExpression("prio = -" + minuses + "1").ok());
  std::string nots;
  for (int i = 0; i <= kMaxExpressionDepth; ++i) nots += "NOT ";
  EXPECT_FALSE(ParseExpression(nots + "prio = 1").ok());
  // Far past the cap (the depth that used to overflow the stack).
  EXPECT_FALSE(ParseExpression(nested(100000)).ok());
}

// A binary operator chain parses iteratively but builds a left-deep tree
// one level per link, which Eval walks recursively; the chain's height
// counts against the same cap, and the parse fails at the first operator
// past it.
TEST(ExprTest, OperatorChainHeightIsCapped) {
  // `terms` operands joined by `op`; the first one is `first`.
  auto chain = [](int terms, const std::string& op,
                  const std::string& first = "prio") {
    std::string text = first;
    for (int i = 1; i < terms; ++i) text.append(op).append("prio");
    return text;
  };
  // kMaxExpressionDepth links: a tree exactly that tall parses and runs.
  Result<ExprPtr> tallest =
      ParseExpression(chain(kMaxExpressionDepth + 1, " + "));
  ASSERT_TRUE(tallest.ok()) << tallest.status().ToString();
  EXPECT_EQ(*(*tallest)->Eval(TaskSchema(), TaskRow("Ann", "x", 1)),
            Value::Int(kMaxExpressionDepth + 1));

  const std::string too_tall = chain(kMaxExpressionDepth + 2, " + ");
  Result<ExprPtr> rejected = ParseExpression(too_tall);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find(
                "at 1:" + std::to_string(too_tall.rfind('+') + 1)),
            std::string::npos)
      << rejected.status().ToString();

  for (const char* op : {" - ", " * ", " / ", " || ", " OR ", " AND "}) {
    EXPECT_TRUE(ParseExpression(chain(kMaxExpressionDepth + 1, op)).ok())
        << op;
    EXPECT_FALSE(ParseExpression(chain(kMaxExpressionDepth + 2, op)).ok())
        << op;
  }
  // A chain's tree stacks on the operands' trees: 200 links inside the
  // parentheses plus 100 outside are 300 levels.
  auto parenthesised = [](const std::string& text) {
    return std::string("(").append(text).append(")");
  };
  EXPECT_FALSE(
      ParseExpression(chain(101, " * ", parenthesised(chain(201, " + "))))
          .ok());
  EXPECT_FALSE(
      ParseExpression(chain(101, " + ", parenthesised(chain(201, " * "))))
          .ok());
  EXPECT_TRUE(
      ParseExpression(chain(50, " + ", parenthesised(chain(201, " * "))))
          .ok());
  // 60 000 terms: the length that crashed a read, then Execute itself.
  Result<ExprPtr> huge = ParseExpression(chain(60000, "+"));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExprTest, UnknownColumnFailsAtEval) {
  Row row = TaskRow("Ann", "write", 1);
  Result<Value> v = Eval("nope = 1", row);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(ExprTest, CheckColumnsResolve) {
  ExprPtr good = *ParseExpression("prio = 1 AND author = 'x'");
  ExprPtr bad = *ParseExpression("missing = 1");
  EXPECT_TRUE(CheckColumnsResolve(*good, TaskSchema()).ok());
  EXPECT_FALSE(CheckColumnsResolve(*bad, TaskSchema()).ok());
}

TEST(ExprTest, TypeInference) {
  TableSchema s = TaskSchema();
  EXPECT_EQ((*ParseExpression("prio + 1"))->InferType(s), DataType::kInt64);
  EXPECT_EQ((*ParseExpression("prio = 1"))->InferType(s), DataType::kBool);
  EXPECT_EQ((*ParseExpression("author || 'x'"))->InferType(s),
            DataType::kString);
  EXPECT_EQ((*ParseExpression("1.5 * prio"))->InferType(s),
            DataType::kDouble);
}

TEST(ExprTest, ToStringRoundTripsThroughParser) {
  ExprPtr e = *ParseExpression("prio = 1 AND (author = 'Ann' OR prio > 2)");
  Result<ExprPtr> again = ParseExpression(e->ToString());
  ASSERT_TRUE(again.ok());
  Row row = TaskRow("Ann", "x", 1);
  EXPECT_EQ(*e->EvalBool(TaskSchema(), row),
            *(*again)->EvalBool(TaskSchema(), row));
}

}  // namespace
}  // namespace inverda
