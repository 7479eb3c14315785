#!/usr/bin/env bash
# Docs-consistency check: every "DESIGN.md section N[.M]" citation in the
# sources (and PAPER.md) must resolve to a numbered heading in DESIGN.md,
# and the test-suite list in tests/CMakeLists.txt must match both the
# suite files on disk and PAPER.md's suite count.
# Run from anywhere; CI runs it on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f DESIGN.md ]; then
  echo "FAIL: DESIGN.md does not exist"
  exit 1
fi

# Citations look like "DESIGN.md section N", "DESIGN.md N.M", or the
# markdown-flavored "`DESIGN.md` section N". This script excludes itself
# so its own pattern text can never satisfy (or pollute) the check.
refs=$(grep -rhoE --exclude=check_docs.sh \
         'DESIGN\.md`?,?( section)? [0-9]+(\.[0-9]+)?' \
         src tests bench tools examples PAPER.md 2>/dev/null |
       grep -oE '[0-9]+(\.[0-9]+)?$' | sort -uV || true)

if [ -z "$refs" ]; then
  echo "FAIL: found no DESIGN.md section references (pattern drift?)"
  exit 1
fi

fail=0
for ref in $refs; do
  # Section N is "## N. Title"; subsection N.M is "### N.M Title".
  if ! grep -qE "^#{2,3} ${ref//./\\.}[. ]" DESIGN.md; then
    echo "FAIL: DESIGN.md has no heading for cited section $ref"
    fail=1
  fi
done

# Anchor sanity: every numbered heading must be unique, otherwise a
# citation silently resolves to two places (renumbering hazard when a
# section like 6 is rewritten and regains subsections).
dupes=$(grep -oE '^#{2,3} [0-9]+(\.[0-9]+)?' DESIGN.md |
        grep -oE '[0-9]+(\.[0-9]+)?$' | sort | uniq -d)
if [ -n "$dupes" ]; then
  echo "FAIL: duplicated DESIGN.md heading number(s): $(echo "$dupes" | tr '\n' ' ')"
  fail=1
fi

# Suite registry: every tests/**/*_test.cc is listed in
# CLOUDWALKER_TEST_SUITES (tests/CMakeLists.txt), every listed suite
# exists, and PAPER.md's "All N test suites" matches the list's length.
listed=$(sed -n '/^set(CLOUDWALKER_TEST_SUITES/,/^)/p' tests/CMakeLists.txt |
         grep -oE '^[[:space:]]+[A-Za-z0-9_/]+_test\.cc' | tr -d ' ' |
         sort || true)
on_disk=$(cd tests && find . -name '*_test.cc' | sed 's|^\./||' | sort)
unlisted=$(comm -13 <(echo "$listed") <(echo "$on_disk"))
if [ -n "$unlisted" ]; then
  echo "FAIL: not in CLOUDWALKER_TEST_SUITES: $(echo "$unlisted" | tr '\n' ' ')"
  fail=1
fi
absent=$(comm -23 <(echo "$listed") <(echo "$on_disk"))
if [ -n "$absent" ]; then
  echo "FAIL: CLOUDWALKER_TEST_SUITES lists missing files:" \
       "$(echo "$absent" | tr '\n' ' ')"
  fail=1
fi
suites=$(echo "$listed" | grep -c . || true)
claims=$(grep -oE 'All [0-9]+ test suites' PAPER.md | grep -oE '[0-9]+' || true)
if [ -z "$claims" ]; then
  echo "FAIL: PAPER.md states no \"All N test suites\" count"
  fail=1
fi
for claim in $claims; do
  if [ "$claim" != "$suites" ]; then
    echo "FAIL: PAPER.md says All $claim test suites;" \
         "tests/CMakeLists.txt lists $suites"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "docs-consistency OK: sections $(echo "$refs" | tr '\n' ' ')all" \
       "resolve; $suites test suites registered"
fi
exit $fail
