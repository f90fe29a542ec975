#!/usr/bin/env sh
# Keeps src/ free of test-only code: every src/**/*.h must be included by
# some file of a run path — another file under src/ (its own .cc does not
# count), or tools/, bench/, examples/, perfbench/ or fuzz/. A header only
# tests reach is a module no run path uses; delete it or give it a caller.
#
# Allowed exceptions, each kept for the paper's Section 5 remark (see the
# Section 5 row of EXPERIMENTS.md's claim map):
#   core/containment.h  CQ containment under TGDs, the chase's classical
#                       application (containment_test);
#   tw/hypergraph.h     alpha-acyclicity and hypertree-width bounds on the
#                       paper's structures (hypergraph_test).
#
# Run from anywhere: sh tools/check_headers.sh. Exits 1 and lists the
# orphaned headers when there are any.
set -eu

cd "$(dirname "$0")/.."

ALLOWED="core/containment.h tw/hypergraph.h"

orphans=""
for header in $(cd src && find . -name '*.h' | sed 's|^\./||' | sort); do
  case " $ALLOWED " in
    *" $header "*) continue ;;
  esac
  own_source="src/${header%.h}.cc"
  if grep -rlF --include='*.h' --include='*.cc' --include='*.cpp' \
      "#include \"$header\"" src tools bench examples perfbench fuzz \
      | grep -vxF "$own_source" | grep -q .; then
    continue
  fi
  orphans="$orphans $header"
done

if [ -n "$orphans" ]; then
  for header in $orphans; do
    echo "ORPHANED HEADER: src/$header is included by no run path" >&2
  done
  exit 1
fi
echo "check_headers: every src/ header has a run-path includer"
