#!/usr/bin/env bash
# loc.sh — print the repository's non-test Go line count: every .go file
# except *_test.go, outside the adcbench/ benchmark module. CHANGES.md
# records this number per change.
#
# Usage (from the repository root):
#   scripts/loc.sh
set -euo pipefail
find . -name '*.go' -not -name '*_test.go' -not -path './adcbench/*' -print0 |
  xargs -0 wc -l | tail -1 | awk '{print $1}'
