#include "expr/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <system_error>
#include <vector>

#include "bidel/source_span.h"
#include "util/strings.h"

namespace inverda {
namespace {

enum class TokenKind {
  kIdent,
  kNumber,
  kString,
  kOperator,  // = <> != <= >= < > + - * / % || ( ) ,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  size_t offset = 0;  // byte offset of the token in the expression text
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          ++pos_;
        }
        tokens.push_back(
            {TokenKind::kIdent, text_.substr(start, pos_ - start), start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.')) {
          ++pos_;
        }
        tokens.push_back(
            {TokenKind::kNumber, text_.substr(start, pos_ - start), start});
        continue;
      }
      if (c == '\'') {
        const size_t start = pos_;
        ++pos_;
        std::string value;
        bool closed = false;
        while (pos_ < text_.size()) {
          if (text_[pos_] == '\'') {
            if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '\'') {
              value += '\'';
              pos_ += 2;
              continue;
            }
            ++pos_;
            closed = true;
            break;
          }
          value += text_[pos_++];
        }
        if (!closed) {
          return Status::InvalidArgument("unterminated string literal in: " +
                                         text_);
        }
        tokens.push_back({TokenKind::kString, std::move(value), start});
        continue;
      }
      // Two-character operators first.
      static const char* kTwoChar[] = {"<>", "!=", "<=", ">=", "||"};
      bool matched = false;
      for (const char* op : kTwoChar) {
        if (text_.compare(pos_, 2, op) == 0) {
          tokens.push_back({TokenKind::kOperator, op, pos_});
          pos_ += 2;
          matched = true;
          break;
        }
      }
      if (matched) continue;
      static const std::string kOneChar = "=<>+-*/%(),";
      if (kOneChar.find(c) != std::string::npos) {
        tokens.push_back({TokenKind::kOperator, std::string(1, c), pos_});
        ++pos_;
        continue;
      }
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "' in: " + text_);
    }
    tokens.push_back({TokenKind::kEnd, "", pos_});
    return tokens;
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  Parser(const std::string& text, std::vector<Token> tokens)
      : text_(text), tokens_(std::move(tokens)) {}

  Result<ExprPtr> Parse() {
    INVERDA_ASSIGN_OR_RETURN(ExprPtr expr, ParseOr());
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("trailing input after expression: " +
                                     Peek().text);
    }
    return expr;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Advance() { return tokens_[pos_++]; }

  bool MatchKeyword(const char* kw) {
    if (Peek().kind == TokenKind::kIdent && EqualsIgnoreCase(Peek().text, kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool MatchOperator(const char* op) {
    if (Peek().kind == TokenKind::kOperator && Peek().text == op) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string Where(const Token& token) const {
    const LineCol at = LocateOffset(text_, token.offset);
    return std::to_string(at.line) + ":" + std::to_string(at.column);
  }

  Status TooDeep(const Token& at) const {
    return Status::InvalidArgument("expression nested deeper than " +
                                   std::to_string(kMaxExpressionDepth) +
                                   " levels at " + Where(at));
  }

  // Runs `parse` one nesting level deeper: a parenthesised or argument
  // sub-expression, a unary minus or a NOT, opened by `opener`. Past
  // kMaxExpressionDepth the parse fails instead of exhausting the stack.
  template <typename Parse>
  Result<ExprPtr> Nested(const Token& opener, Parse parse) {
    if (depth_ == kMaxExpressionDepth) return TooDeep(opener);
    ++depth_;
    Result<ExprPtr> result = parse();
    --depth_;
    return result;
  }

  // Counts one link of a binary operator chain a OP b OP c ...: the
  // operator `op` and its right operand, just parsed and height_ tall.
  // `*height` is the chain's tree height so far. The chain parses
  // iteratively, but the left-deep tree it builds grows one level per
  // link, and Eval, CollectColumns, ToString and the destructor all
  // recurse once per level; so a link that makes the tree taller than
  // kMaxExpressionDepth fails the parse.
  Status ChainLink(const Token& op, int* height) const {
    *height = std::max(*height, height_) + 1;
    if (*height > kMaxExpressionDepth) return TooDeep(op);
    return Status::OK();
  }

  // A numeric token as an INT (no '.') or DOUBLE literal; a literal that
  // does not fit the type is an error, not an exception.
  Result<ExprPtr> NumberLiteral(const Token& token) const {
    const char* first = token.text.data();
    const char* last = first + token.text.size();
    std::from_chars_result parsed;
    Value value;
    if (token.text.find('.') != std::string::npos) {
      double d = 0;
      parsed = std::from_chars(first, last, d);
      value = Value::Double(d);
    } else {
      int64_t i = 0;
      parsed = std::from_chars(first, last, i);
      value = Value::Int(i);
    }
    if (parsed.ec == std::errc::result_out_of_range) {
      return Status::InvalidArgument("numeric literal out of range at " +
                                     Where(token) + ": " + token.text);
    }
    if (parsed.ec != std::errc() || parsed.ptr != last) {
      return Status::InvalidArgument("malformed numeric literal at " +
                                     Where(token) + ": " + token.text);
    }
    return MakeLiteral(std::move(value));
  }

  Result<ExprPtr> ParseOr() {
    INVERDA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    int height = height_;
    while (MatchKeyword("OR")) {
      const Token& op = tokens_[pos_ - 1];
      INVERDA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      INVERDA_RETURN_IF_ERROR(ChainLink(op, &height));
      lhs = MakeOr(std::move(lhs), std::move(rhs));
    }
    height_ = height;
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    INVERDA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    int height = height_;
    while (MatchKeyword("AND")) {
      const Token& op = tokens_[pos_ - 1];
      INVERDA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      INVERDA_RETURN_IF_ERROR(ChainLink(op, &height));
      lhs = MakeAnd(std::move(lhs), std::move(rhs));
    }
    height_ = height;
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    const Token& opener = Peek();
    if (MatchKeyword("NOT")) {
      INVERDA_ASSIGN_OR_RETURN(ExprPtr operand,
                               Nested(opener, [&] { return ParseNot(); }));
      ++height_;
      return MakeNot(std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    INVERDA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (MatchKeyword("IS")) {
      bool negated = MatchKeyword("NOT");
      if (!MatchKeyword("NULL")) {
        return Status::InvalidArgument("expected NULL after IS");
      }
      ++height_;
      return MakeIsNull(std::move(lhs), negated);
    }
    struct OpEntry {
      const char* text;
      CompareOp op;
    };
    static constexpr OpEntry kOps[] = {
        {"=", CompareOp::kEq},  {"<>", CompareOp::kNe}, {"!=", CompareOp::kNe},
        {"<=", CompareOp::kLe}, {">=", CompareOp::kGe}, {"<", CompareOp::kLt},
        {">", CompareOp::kGt},
    };
    const int lhs_height = height_;
    for (const OpEntry& e : kOps) {
      if (MatchOperator(e.text)) {
        INVERDA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        height_ = std::max(lhs_height, height_) + 1;
        return MakeComparison(e.op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    INVERDA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    int height = height_;
    while (true) {
      ArithOp op;
      if (MatchOperator("+")) {
        op = ArithOp::kAdd;
      } else if (MatchOperator("-")) {
        op = ArithOp::kSub;
      } else if (MatchOperator("||")) {
        op = ArithOp::kConcat;
      } else {
        break;
      }
      const Token& op_token = tokens_[pos_ - 1];
      INVERDA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      INVERDA_RETURN_IF_ERROR(ChainLink(op_token, &height));
      lhs = MakeArith(op, std::move(lhs), std::move(rhs));
    }
    height_ = height;
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    INVERDA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    int height = height_;
    while (true) {
      ArithOp op;
      if (MatchOperator("*")) {
        op = ArithOp::kMul;
      } else if (MatchOperator("/")) {
        op = ArithOp::kDiv;
      } else if (MatchOperator("%")) {
        op = ArithOp::kMod;
      } else {
        break;
      }
      const Token& op_token = tokens_[pos_ - 1];
      INVERDA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      INVERDA_RETURN_IF_ERROR(ChainLink(op_token, &height));
      lhs = MakeArith(op, std::move(lhs), std::move(rhs));
    }
    height_ = height;
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    const Token& opener = Peek();
    if (MatchOperator("-")) {
      INVERDA_ASSIGN_OR_RETURN(ExprPtr operand,
                               Nested(opener, [&] { return ParseUnary(); }));
      ++height_;
      return MakeArith(ArithOp::kSub, MakeLiteral(Value::Int(0)),
                       std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token token = Advance();
    height_ = 0;
    switch (token.kind) {
      case TokenKind::kNumber:
        return NumberLiteral(token);
      case TokenKind::kString:
        return MakeLiteral(Value::String(token.text));
      case TokenKind::kIdent: {
        if (EqualsIgnoreCase(token.text, "NULL")) {
          return MakeLiteral(Value::Null());
        }
        if (EqualsIgnoreCase(token.text, "TRUE")) {
          return MakeLiteral(Value::Bool(true));
        }
        if (EqualsIgnoreCase(token.text, "FALSE")) {
          return MakeLiteral(Value::Bool(false));
        }
        if (MatchOperator("(")) {
          const Token& opener = tokens_[pos_ - 1];
          std::vector<ExprPtr> args;
          int height = 0;
          if (!MatchOperator(")")) {
            while (true) {
              INVERDA_ASSIGN_OR_RETURN(
                  ExprPtr arg, Nested(opener, [&] { return ParseOr(); }));
              height = std::max(height, height_ + 1);
              args.push_back(std::move(arg));
              if (MatchOperator(")")) break;
              if (!MatchOperator(",")) {
                return Status::InvalidArgument(
                    "expected ',' or ')' in argument list of " + token.text);
              }
            }
          }
          height_ = height;
          return MakeFunctionCall(token.text, std::move(args));
        }
        return MakeColumnRef(token.text);
      }
      case TokenKind::kOperator:
        if (token.text == "(") {
          INVERDA_ASSIGN_OR_RETURN(ExprPtr inner,
                                   Nested(token, [&] { return ParseOr(); }));
          if (!MatchOperator(")")) {
            return Status::InvalidArgument("missing closing parenthesis");
          }
          return inner;
        }
        return Status::InvalidArgument("unexpected operator '" + token.text +
                                       "'");
      case TokenKind::kEnd:
        return Status::InvalidArgument("unexpected end of expression");
    }
    return Status::Internal("unreachable token kind");
  }

  const std::string& text_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;   // nesting levels open in Nested
  int height_ = 0;  // tree height of the expression parsed last (leaf: 0)
};

}  // namespace

Result<ExprPtr> ParseExpression(const std::string& text) {
  Lexer lexer(text);
  INVERDA_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(text, std::move(tokens));
  return parser.Parse();
}

}  // namespace inverda
