// Quickstart: parse a knowledge base from text, run the chase, answer
// Boolean conjunctive queries, and inspect the structural measures the
// paper is about.
#include <cstdio>

#include "core/chase.h"
#include "core/entailment.h"
#include "hom/answers.h"
#include "hom/matcher.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "tw/treewidth.h"

int main() {
  using namespace twchase;

  // A small program: employees, a management hierarchy that must be headed
  // somewhere (an existential rule), and queries.
  const char* text = R"(
    % facts
    works(alice, widgets). works(bob, widgets). works(carol, gizmos).

    % every department has a head, who works in it
    [head]  heads(H, D), works(H, D) :- works(X, D).
    % heads manage everyone in their department
    [mgmt]  manages(H, X) :- heads(H, D), works(X, D).

    ? :- manages(M, alice).
    ? :- manages(M, M).
    ? :- manages(M, dave).
    ?(W, D) :- manages(M, W), works(W, D).
  )";

  auto program = ParseProgram(text);
  if (!program.ok()) {
    std::printf("parse error: %s\n", program.status().ToString().c_str());
    return 1;
  }
  std::printf("parsed program:\n%s\n",
              PrintProgram(program->kb, program->queries).c_str());

  // Run the core chase: it terminates here and yields the smallest
  // universal model, which decides every CQ.
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 200;
  auto run = RunChase(program->kb, options);
  if (!run.ok()) {
    std::printf("chase error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const AtomSet& model = run->derivation.Last();
  std::printf("core chase terminated: %s after %zu steps\n",
              run->stop_reason == StopReason::kFixpoint ? "yes" : "no",
              run->steps);
  std::printf("universal model (%zu atoms): %s\n\n", model.size(),
              model.ToString(*program->kb.vocab).c_str());

  TreewidthResult tw = ComputeTreewidth(model);
  std::printf("treewidth of the universal model: [%d, %d]\n\n", tw.lower_bound,
              tw.upper_bound);

  for (size_t q = 0; q < program->queries.size(); ++q) {
    const ParsedQuery& query = program->queries[q];
    std::printf("query %zu: %s", q + 1,
                PrintQuery(query, *program->kb.vocab).c_str());
    if (query.answer_vars.empty()) {
      bool entailed = ExistsHomomorphism(query.atoms, model);
      std::printf("  =>  %s\n", entailed ? "entailed" : "not entailed");
    } else {
      // Certain answers: ground tuples over the universal model.
      AnswerOptions answer_options;
      answer_options.ground_only = true;
      auto answers =
          AnswerQuery(model, query.atoms, query.answer_vars, answer_options);
      std::printf("  =>  %zu certain answer(s):", answers.size());
      for (const auto& tuple : answers) {
        std::printf(" (");
        for (size_t i = 0; i < tuple.size(); ++i) {
          std::printf("%s%s", i ? ", " : "",
                      program->kb.vocab->TermName(tuple[i]).c_str());
        }
        std::printf(")");
      }
      std::printf("\n");
    }
  }
  return 0;
}
