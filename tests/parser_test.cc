#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "hom/isomorphism.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "parser/printer.h"

namespace twchase {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("p(a, X) :- q(Y). % comment\n?");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens.value()) kinds.push_back(t.kind);
  std::vector<TokenKind> expected = {
      TokenKind::kIdentifier, TokenKind::kLParen,  TokenKind::kIdentifier,
      TokenKind::kComma,      TokenKind::kVariable, TokenKind::kRParen,
      TokenKind::kImplies,    TokenKind::kIdentifier, TokenKind::kLParen,
      TokenKind::kVariable,   TokenKind::kRParen,  TokenKind::kPeriod,
      TokenKind::kQuestion,   TokenKind::kEnd};
  EXPECT_EQ(kinds, expected);
}

TEST(LexerTest, TracksLineNumbers) {
  auto tokens = Tokenize("p(a).\nq(b).");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value().front().line, 1);
  // "q" is the 6th token (index 5).
  EXPECT_EQ(tokens.value()[5].line, 2);
}

TEST(LexerTest, RejectsBadCharacters) {
  auto tokens = Tokenize("p(a) & q(b)");
  EXPECT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("line 1"), std::string::npos);
}

TEST(ParserTest, FactsRulesAndQueries) {
  auto program = ParseProgram(R"(
    % a small program
    e(a, b). e(b, c).
    [trans] t(X, Z) :- e(X, Y), t(Y, Z).
    [base]  t(X, Y) :- e(X, Y).
    ? :- t(a, c).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->kb.facts.size(), 2u);
  ASSERT_EQ(program->kb.rules.size(), 2u);
  EXPECT_EQ(program->kb.rules[0].label(), "trans");
  EXPECT_TRUE(program->kb.rules[1].IsDatalog());
  ASSERT_EQ(program->queries.size(), 1u);
  EXPECT_EQ(program->queries[0].atoms.size(), 1u);
  EXPECT_TRUE(program->queries[0].answer_vars.empty());
}

TEST(ParserTest, AnswerVariables) {
  auto program = ParseProgram("?(X, Y) :- e(X, Z), e(Z, Y).");
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_EQ(program->queries.size(), 1u);
  EXPECT_EQ(program->queries[0].answer_vars.size(), 2u);
  EXPECT_EQ(program->queries[0].atoms.size(), 2u);
  // Answer vars are shared with the body scope.
  for (Term v : program->queries[0].answer_vars) {
    EXPECT_TRUE(program->queries[0].atoms.ContainsTerm(v));
  }
}

TEST(ParserTest, AnswerVariableMustOccurInBody) {
  auto program = ParseProgram("?(W) :- e(X, Y).");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("answer variable"),
            std::string::npos);
}

TEST(ParserTest, ExistentialVariables) {
  auto program = ParseProgram("r(Y, Z) :- r(X, Y).");
  ASSERT_TRUE(program.ok());
  const Rule& rule = program->kb.rules[0];
  EXPECT_EQ(rule.existential().size(), 1u);
  EXPECT_EQ(rule.frontier().size(), 1u);
}

TEST(ParserTest, VariablesAreStatementScoped) {
  auto program = ParseProgram("p(X) :- q(X). r(X) :- s(X).");
  ASSERT_TRUE(program.ok());
  Term x1 = program->kb.rules[0].frontier()[0];
  Term x2 = program->kb.rules[1].frontier()[0];
  EXPECT_NE(x1, x2);
}

TEST(ParserTest, VariablesInFactsBecomeNulls) {
  auto program = ParseProgram("e(a, X), f(X).");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->kb.facts.Variables().size(), 1u);
}

TEST(ParserTest, ArityClashReported) {
  auto program = ParseProgram("p(a). p(a, b).");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("arity"), std::string::npos);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseProgram("p(a)").ok());            // missing period
  EXPECT_FALSE(ParseProgram("p(a,).").ok());          // dangling comma
  EXPECT_FALSE(ParseProgram(":- p(a).").ok());        // missing head
  EXPECT_FALSE(ParseProgram("[l] p(a).").ok());       // label on fact
  EXPECT_FALSE(ParseProgram("? p(a).").ok());         // missing :-
}

TEST(ParserTest, UnderscoreLeadingIsVariable) {
  auto program = ParseProgram("p(_x, a).");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->kb.facts.Variables().size(), 1u);
}

TEST(PrinterTest, RoundTripFacts) {
  auto program = ParseProgram("e(a, X), e(X, b).");
  ASSERT_TRUE(program.ok());
  std::string text = PrintProgram(program->kb, program->queries);
  auto reparsed = ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  EXPECT_TRUE(AreIsomorphic(program->kb.facts, reparsed->kb.facts));
}

TEST(PrinterTest, RoundTripRules) {
  auto program = ParseProgram(
      "[grow] r(Y, Z) :- r(X, Y).\n"
      "t(X, Y) :- r(X, Y).\n"
      "? :- r(a, X).\n");
  ASSERT_TRUE(program.ok());
  std::string text = PrintProgram(program->kb, program->queries);
  auto reparsed = ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  ASSERT_EQ(reparsed->kb.rules.size(), 2u);
  EXPECT_EQ(reparsed->kb.rules[0].label(), "grow");
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(AreIsomorphic(program->kb.rules[i].body_and_head(),
                              reparsed->kb.rules[i].body_and_head()));
  }
  ASSERT_EQ(reparsed->queries.size(), 1u);
  EXPECT_TRUE(
      AreIsomorphic(program->queries[0].atoms, reparsed->queries[0].atoms));
}

TEST(PrinterTest, RoundTripAnswerVariables) {
  auto program = ParseProgram("?(A, B) :- e(A, C), e(C, B).");
  ASSERT_TRUE(program.ok());
  std::string text = PrintProgram(program->kb, program->queries);
  auto reparsed = ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  ASSERT_EQ(reparsed->queries.size(), 1u);
  EXPECT_EQ(reparsed->queries[0].answer_vars.size(), 2u);
  EXPECT_TRUE(
      AreIsomorphic(program->queries[0].atoms, reparsed->queries[0].atoms));
}

// The verdict lines keep the historical printf layout ("%-40s" query
// column) the CLI-vs-daemon diff depends on; a non-entailment is hedged
// unless the chase terminated.
TEST(PrinterTest, QueryVerdictsRenderTheCliLines) {
  auto program = ParseProgram(R"(
    e(a, b). e(b, c).
    ? :- e(a, b).
    ? :- e(c, a).
    ?(X) :- e(a, X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  const Vocabulary& vocab = *program->kb.vocab;
  auto line = [&](size_t q, const std::string& outcome) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "query %zu: %-40s -> %s\n", q + 1,
                  PrintQuery(program->queries[q], vocab).c_str(),
                  outcome.c_str());
    return std::string(buf);
  };
  QueryVerdicts budget = EvaluateQueries(program->queries, program->kb.facts,
                                         /*terminated=*/false, vocab);
  ASSERT_EQ(budget.verdicts.size(), 3u);
  EXPECT_TRUE(budget.verdicts[0].entailed);
  EXPECT_TRUE(budget.verdicts[0].certain);
  EXPECT_FALSE(budget.verdicts[1].entailed);
  EXPECT_FALSE(budget.verdicts[1].certain);
  ASSERT_EQ(budget.verdicts[2].answers.size(), 1u);
  EXPECT_EQ(budget.text, line(0, "entailed") +
                             line(1, "not entailed (within budget)") +
                             line(2, "1 certain answer(s)") + "    (b)\n");

  QueryVerdicts fixpoint = EvaluateQueries(
      program->queries, program->kb.facts, /*terminated=*/true, vocab);
  EXPECT_TRUE(fixpoint.verdicts[1].certain);
  EXPECT_EQ(fixpoint.text, line(0, "entailed") + line(1, "not entailed") +
                               line(2, "1 certain answer(s)") + "    (b)\n");
}

}  // namespace
}  // namespace twchase
