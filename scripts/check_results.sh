#!/usr/bin/env bash
# Re-run every archived experiment and compare its stdout with the copy
# under results/. Prints one line per experiment and exits 1 if any
# output differs. Needs the release binaries:
#   cargo build --release && scripts/check_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
status=0

# check <archived file> <binary> [args...]
check() {
  local file=$1
  shift
  if ! "./target/release/$1" "${@:2}" >"$out/$file" 2>"$out/$file.err"; then
    echo "FAILED   results/$file  ($*)"
    tail -n 5 "$out/$file.err"
    status=1
  elif cmp -s "$out/$file" "results/$file"; then
    echo "same     results/$file  ($*)"
  else
    echo "DIFFERS  results/$file  ($*)"
    diff "results/$file" "$out/$file" | head -n 20 || true
    status=1
  fi
}

check fig1.txt fig1 25
check fig1_paper.txt fig1 10 --paper
check fig3_fig4.txt fig3 4 --full-grid
check fig5.txt fig5 30
check fig6.txt fig6 7
check fig7_fig8.txt fig7 20
check fig9.txt fig9 20
check multiplexing.txt exp_multiplexing 8
check tslp2017.txt exp_tslp2017 14
check cc_variants.txt exp_cc_variants 6
check ablation.txt exp_feature_ablation 3
check sack_ablation.txt exp_sack_ablation 8
check web100_mode.txt exp_web100_mode 2
check fig_impair.txt fig_impair 4 --jobs 2

exit $status
