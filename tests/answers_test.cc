#include <gtest/gtest.h>

#include "core/chase.h"
#include "hom/answers.h"
#include "kb/examples.h"
#include "parser/parser.h"

namespace twchase {
namespace {

TEST(AnswersTest, EnumeratesDistinctTuples) {
  auto program = ParseProgram("e(a, b). e(a, c). e(b, c).");
  ASSERT_TRUE(program.ok());
  auto q = ParseProgram("?(X, Y) :- e(X, Y).", program->kb.vocab);
  ASSERT_TRUE(q.ok());
  auto answers = AnswerQuery(program->kb.facts, q->queries[0].atoms,
                             q->queries[0].answer_vars);
  EXPECT_EQ(answers.size(), 3u);
}

TEST(AnswersTest, ProjectionDeduplicates) {
  auto program = ParseProgram("e(a, b). e(a, c).");
  ASSERT_TRUE(program.ok());
  auto q = ParseProgram("?(X) :- e(X, Y).", program->kb.vocab);
  ASSERT_TRUE(q.ok());
  auto answers = AnswerQuery(program->kb.facts, q->queries[0].atoms,
                             q->queries[0].answer_vars);
  // Two homs, one distinct projection.
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(program->kb.vocab->TermName(answers[0][0]), "a");
}

TEST(AnswersTest, JoinQuery) {
  auto program = ParseProgram("e(a, b). e(b, c). e(c, d).");
  ASSERT_TRUE(program.ok());
  auto q = ParseProgram("?(X, Z) :- e(X, Y), e(Y, Z).", program->kb.vocab);
  ASSERT_TRUE(q.ok());
  auto answers = AnswerQuery(program->kb.facts, q->queries[0].atoms,
                             q->queries[0].answer_vars);
  // (a,c) and (b,d).
  EXPECT_EQ(answers.size(), 2u);
}

TEST(AnswersTest, GroundOnlyFiltersNulls) {
  // Chase introduces nulls; certain answers exclude tuples containing them.
  auto program = ParseProgram("p(a). q(X, Y) :- p(X).");
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  auto run = RunChase(program->kb, options);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->stop_reason, StopReason::kFixpoint);
  auto q = ParseProgram("?(X, Y) :- q(X, Y).", program->kb.vocab);
  ASSERT_TRUE(q.ok());
  AnswerOptions all;
  auto with_nulls = AnswerQuery(run->derivation.Last(), q->queries[0].atoms,
                                q->queries[0].answer_vars, all);
  EXPECT_EQ(with_nulls.size(), 1u);  // (a, _null)
  AnswerOptions ground;
  ground.ground_only = true;
  auto certain = AnswerQuery(run->derivation.Last(), q->queries[0].atoms,
                             q->queries[0].answer_vars, ground);
  EXPECT_TRUE(certain.empty());
}

TEST(AnswersTest, MaxAnswersCapsEnumeration) {
  auto program = ParseProgram("e(a, b). e(b, c). e(c, d). e(d, a).");
  ASSERT_TRUE(program.ok());
  auto q = ParseProgram("?(X) :- e(X, Y).", program->kb.vocab);
  ASSERT_TRUE(q.ok());
  AnswerOptions options;
  options.max_answers = 2;
  auto answers = AnswerQuery(program->kb.facts, q->queries[0].atoms,
                             q->queries[0].answer_vars, options);
  EXPECT_EQ(answers.size(), 2u);
}

TEST(AnswersTest, NoMatchesMeansNoAnswers) {
  auto program = ParseProgram("e(a, b).");
  ASSERT_TRUE(program.ok());
  auto q = ParseProgram("?(X) :- e(X, X).", program->kb.vocab);
  ASSERT_TRUE(q.ok());
  auto answers = AnswerQuery(program->kb.facts, q->queries[0].atoms,
                             q->queries[0].answer_vars);
  EXPECT_TRUE(answers.empty());
}

TEST(AnswersTest, BooleanQueryYieldsEmptyTupleWhenEntailed) {
  auto program = ParseProgram("e(a, b).");
  ASSERT_TRUE(program.ok());
  auto q = ParseProgram("? :- e(X, Y).", program->kb.vocab);
  ASSERT_TRUE(q.ok());
  auto answers =
      AnswerQuery(program->kb.facts, q->queries[0].atoms, /*answer_vars=*/{});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].empty());
}

}  // namespace
}  // namespace twchase
