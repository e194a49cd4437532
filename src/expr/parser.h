#ifndef INVERDA_EXPR_PARSER_H_
#define INVERDA_EXPR_PARSER_H_

#include <string>

#include "expr/expression.h"
#include "util/status.h"

namespace inverda {

/// Parses a scalar expression / condition in the small SQL-like language
/// used inside BiDEL SMOs, e.g. "prio = 1", "a < 5 AND b = 'x'",
/// "author || '!'", "COALESCE(nick, name)".
///
/// Grammar (precedence low to high): OR, AND, NOT, comparison / IS [NOT]
/// NULL, additive (+ - ||), multiplicative (* / %), unary minus, primary.
///
/// Errors come back as InvalidArgument, never as an exception: an INT
/// literal outside int64 or a DOUBLE literal outside double range names
/// the literal's line:column, and so does nesting or an operator chain
/// deeper than kMaxExpressionDepth.
Result<ExprPtr> ParseExpression(const std::string& text);

/// Deepest accepted nesting of parenthesised (or function-argument)
/// sub-expressions, unary minuses and NOTs, counted together; the parser
/// recurses once per level, so the cap bounds its stack use. The same cap
/// bounds the tree height at each link of a binary operator chain (`a+a+...`
/// of n terms is n - 1 levels tall), since every recursive walk of the
/// parsed expression, Eval included, descends the tree level by level.
inline constexpr int kMaxExpressionDepth = 256;

}  // namespace inverda

#endif  // INVERDA_EXPR_PARSER_H_
