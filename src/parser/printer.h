// Serialisation of programs back to the twchase text format. Variables are
// renamed to statement-scoped canonical names (V1, V2, ...) so the output
// always re-parses; round-trips are faithful up to variable renaming. Also
// the one renderer of query verdicts against a chase result.
#ifndef TWCHASE_PARSER_PRINTER_H_
#define TWCHASE_PARSER_PRINTER_H_

#include <string>
#include <vector>

#include "kb/knowledge_base.h"
#include "model/atom_set.h"
#include "parser/parser.h"

namespace twchase {

/// One statement worth of atoms ("a, b, c") with canonical variable names.
std::string PrintAtoms(const AtomSet& atoms, const Vocabulary& vocab);

/// One query statement ("? :- ..." or "?(V1, V2) :- ...").
std::string PrintQuery(const ParsedQuery& query, const Vocabulary& vocab);

/// One query evaluated against a chase result.
struct QueryVerdict {
  std::string query;      // PrintQuery form
  bool entailed = false;  // Boolean queries only
  bool certain = false;   // Boolean: the verdict holds beyond the budget
  std::vector<std::vector<Term>> answers;  // certain (ground) answer tuples
};

struct QueryVerdicts {
  std::vector<QueryVerdict> verdicts;  // one per query, in program order
  std::string text;  // "query N: ... -> ..." lines, as the CLI prints them
};

/// Evaluates every query against `instance`, the last chase element. A
/// non-entailment is certain only when the chase `terminated`; answers are
/// the ground tuples. The CLI prints `text`; the daemon serves the same
/// bytes and fills its JSON from the verdicts.
QueryVerdicts EvaluateQueries(const std::vector<ParsedQuery>& queries,
                              const AtomSet& instance, bool terminated,
                              const Vocabulary& vocab);

/// Whole program: facts (one statement), rules, then queries.
std::string PrintProgram(const KnowledgeBase& kb,
                         const std::vector<ParsedQuery>& queries);

}  // namespace twchase

#endif  // TWCHASE_PARSER_PRINTER_H_
