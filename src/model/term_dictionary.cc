#include "model/term_dictionary.h"

namespace twchase {

TermId TermDictionary::Intern(Term term) {
  std::vector<TermId>& table = term.is_variable() ? vars_ : consts_;
  uint32_t index = term.index();
  if (index >= table.size()) table.resize(index + 1, kNoId);
  TermId& slot = table[index];
  if (slot != kNoId) return slot;
  slot = static_cast<TermId>(size_++);
  return slot;
}

}  // namespace twchase
