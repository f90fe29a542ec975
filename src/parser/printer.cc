#include "parser/printer.h"

#include <algorithm>
#include <unordered_map>

#include "hom/answers.h"
#include "hom/matcher.h"

namespace twchase {
namespace {

// Canonical, re-parseable variable naming for one statement scope.
class VarNamer {
 public:
  std::string NameOf(Term var) {
    auto it = names_.find(var);
    if (it != names_.end()) return it->second;
    std::string name = "V" + std::to_string(names_.size() + 1);
    names_.emplace(var, name);
    return name;
  }

 private:
  std::unordered_map<Term, std::string, TermHash> names_;
};

std::string PrintAtomsWith(const std::vector<Atom>& atoms,
                           const Vocabulary& vocab, VarNamer* namer) {
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += vocab.predicate(atoms[i].predicate()).name;
    out += '(';
    const auto& args = atoms[i].args();
    for (size_t j = 0; j < args.size(); ++j) {
      if (j > 0) out += ", ";
      out += args[j].is_variable() ? namer->NameOf(args[j])
                                   : vocab.TermName(args[j]);
    }
    out += ')';
  }
  return out;
}

std::vector<Atom> SortedAtoms(const AtomSet& atoms) {
  std::vector<Atom> out = atoms.Atoms();
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string PrintAtoms(const AtomSet& atoms, const Vocabulary& vocab) {
  VarNamer namer;
  return PrintAtomsWith(SortedAtoms(atoms), vocab, &namer);
}

std::string PrintQuery(const ParsedQuery& query, const Vocabulary& vocab) {
  VarNamer namer;
  std::string out = "?";
  if (!query.answer_vars.empty()) {
    out += '(';
    for (size_t i = 0; i < query.answer_vars.size(); ++i) {
      if (i > 0) out += ", ";
      out += namer.NameOf(query.answer_vars[i]);
    }
    out += ')';
  }
  out += " :- ";
  out += PrintAtomsWith(SortedAtoms(query.atoms), vocab, &namer);
  return out;
}

QueryVerdicts EvaluateQueries(const std::vector<ParsedQuery>& queries,
                              const AtomSet& instance, bool terminated,
                              const Vocabulary& vocab) {
  QueryVerdicts out;
  for (size_t q = 0; q < queries.size(); ++q) {
    const ParsedQuery& query = queries[q];
    QueryVerdict& verdict = out.verdicts.emplace_back();
    verdict.query = PrintQuery(query, vocab);
    std::string outcome;
    if (query.answer_vars.empty()) {
      verdict.entailed = ExistsHomomorphism(query.atoms, instance);
      verdict.certain = terminated || verdict.entailed;
      outcome = verdict.entailed ? "entailed" : "not entailed";
      if (!verdict.certain) outcome += " (within budget)";
    } else {
      AnswerOptions answer_options;
      answer_options.ground_only = true;
      verdict.answers = AnswerQuery(instance, query.atoms, query.answer_vars,
                                    answer_options);
      outcome = std::to_string(verdict.answers.size()) + " certain answer(s)";
    }
    // "query N: %-40s -> outcome": the printed query left-aligned in 40.
    out.text += "query " + std::to_string(q + 1) + ": " + verdict.query;
    if (verdict.query.size() < 40) {
      out.text.append(40 - verdict.query.size(), ' ');
    }
    out.text += " -> " + outcome + "\n";
    for (const std::vector<Term>& tuple : verdict.answers) {
      out.text += "    (";
      for (size_t i = 0; i < tuple.size(); ++i) {
        if (i > 0) out.text += ", ";
        out.text += vocab.TermName(tuple[i]);
      }
      out.text += ")\n";
    }
  }
  return out;
}

std::string PrintProgram(const KnowledgeBase& kb,
                         const std::vector<ParsedQuery>& queries) {
  std::string out;
  if (!kb.facts.empty()) {
    out += PrintAtoms(kb.facts, *kb.vocab);
    out += ".\n";
  }
  for (const Rule& rule : kb.rules) {
    VarNamer namer;  // shared across head and body of one rule
    if (!rule.label().empty()) out += "[" + rule.label() + "] ";
    out += PrintAtomsWith(SortedAtoms(rule.head()), *kb.vocab, &namer);
    out += " :- ";
    out += PrintAtomsWith(SortedAtoms(rule.body()), *kb.vocab, &namer);
    out += ".\n";
  }
  for (const ParsedQuery& query : queries) {
    out += PrintQuery(query, *kb.vocab);
    out += ".\n";
  }
  return out;
}

}  // namespace twchase
