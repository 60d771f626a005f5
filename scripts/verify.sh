#!/usr/bin/env bash
# Full verification gate: build, test, format, lint, docs.
# Run from the repository root: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> liveness: random TCP transfers over every CC kind and SACK setting drain (soak)"
cargo run --release -q -p csig-tcp --example soak

echo "==> liveness soak with debug assertions (scoreboard, pipe and reassembly checks)"
cargo run -q -p csig-tcp --example soak

echo "==> observability: same-seed campaign snapshots are jobs-invariant and pinned"
obsdir="$(mktemp -d)"
trap 'rm -rf "$obsdir"' EXIT
./target/release/fig1 2 --seed 7 --jobs 1 \
  --metrics-out "$obsdir/m1.json" --trace-out "$obsdir/t1.jsonl" >/dev/null 2>&1
./target/release/fig1 2 --seed 7 --jobs 4 \
  --metrics-out "$obsdir/m2.json" --trace-out "$obsdir/t2.jsonl" >/dev/null 2>&1
test -s "$obsdir/m1.json" || { echo "verify: empty metrics snapshot"; exit 1; }
test -s "$obsdir/t1.jsonl" || { echo "verify: empty trace"; exit 1; }
grep -q '"sim.events"' "$obsdir/m1.json" || { echo "verify: snapshot missing sim.events"; exit 1; }
cmp -s "$obsdir/m1.json" "$obsdir/m2.json" || { echo "verify: metrics snapshot differs across --jobs"; exit 1; }
cmp -s "$obsdir/t1.jsonl" "$obsdir/t2.jsonl" || { echo "verify: trace differs across --jobs"; exit 1; }
# The snapshot is pinned: a deliberate change to a metric's name or
# value updates the file and says so in CHANGES.md.
cmp -s "$obsdir/m1.json" scripts/fig1_metrics_seed7.json ||
  { echo "verify: metrics snapshot differs from scripts/fig1_metrics_seed7.json"; exit 1; }
# Every counted drop is traced, once, under its packet id.
drops="$(grep -c '"kind": "drop"' "$obsdir/t1.jsonl" || true)"
counted="$(sed -n 's/^ *"sim.packets_dropped": \([0-9]*\),\{0,1\}$/\1/p' "$obsdir/m1.json")"
test "$drops" = "$counted" ||
  { echo "verify: $drops drop lines traced, ${counted:-no} sim.packets_dropped counted"; exit 1; }
named="$(grep -c '"kind": "drop", .*"packet": ' "$obsdir/t1.jsonl" || true)"
test "$named" = "$drops" || { echo "verify: $((drops - named)) traced drops name no packet"; exit 1; }
# Wall-clock timing belongs to perfbench: no timer or histogram may
# leak into the deterministic snapshot.
if grep -q -e '"time\.' -e '"buckets"' "$obsdir/m1.json"; then
  echo "verify: metrics snapshot holds wall-clock timers or histograms"; exit 1
fi

echo "==> jobs invariance: fig3, fig5, fig6, fig7, fig9, fig_impair, exp_cc_variants, exp_feature_ablation, exp_sack_ablation, exp_multiplexing, exp_tslp2017 and exp_web100_mode stdout"
for bin in fig3 fig5 fig6 fig7 fig9 fig_impair exp_cc_variants exp_feature_ablation exp_sack_ablation exp_multiplexing exp_tslp2017 exp_web100_mode; do
  ./target/release/$bin 2 --seed 7 --jobs 1 >"$obsdir/$bin-j1.txt" 2>/dev/null
  ./target/release/$bin 2 --seed 7 --jobs 4 >"$obsdir/$bin-j4.txt" 2>/dev/null
  test -s "$obsdir/$bin-j1.txt" || { echo "verify: empty $bin output"; exit 1; }
  cmp -s "$obsdir/$bin-j1.txt" "$obsdir/$bin-j4.txt" || { echo "verify: $bin output differs across --jobs"; exit 1; }
done

echo "==> an undeclared flag exits 2: fig1 --deadline 1"
status=0
./target/release/fig1 --deadline 1 >/dev/null 2>&1 || status=$?
test "$status" -eq 2 || { echo "verify: fig1 --deadline 1 exited $status, expected 2"; exit 1; }

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -p csig-rng -p csig-netsim -p csig-tcp -p csig-trace -p csig-features -p csig-testbed -p csig-mlab --all-targets -- -D clippy::perf (hot-path perf gate)"
cargo clippy -p csig-rng -p csig-netsim -p csig-tcp -p csig-trace -p csig-features -p csig-testbed -p csig-mlab --all-targets -- -D clippy::perf

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> bit identity: perfbench outputs_digest matches scripts/outputs_digests.txt"
# Building perfbench may rewrite its lock file; the EXIT trap puts the
# committed one back, on success or failure, so a run leaves the tree
# clean.
cp perfbench/Cargo.lock "$obsdir/perfbench.Cargo.lock"
trap 'cp "$obsdir/perfbench.Cargo.lock" perfbench/Cargo.lock; rm -rf "$obsdir"' EXIT
while read -r workload want; do
  case "$workload" in '' | '#'*) continue ;; esac
  last="$(cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 0xBEEF --seconds 1 --trace 0 </dev/null 2>"$obsdir/$workload.err" | tail -n 1 || true)"
  case "$last" in
    *'"correct": true'*) ;;
    *)
      echo "verify: perfbench $workload run is not correct: $last"
      tail -n 5 "$obsdir/$workload.err"
      exit 1
      ;;
  esac
  got="$(sed -n "s/^perfbench: $workload outputs_digest //p" "$obsdir/$workload.err")"
  if [ "$got" != "$want" ]; then
    echo "verify: $workload outputs_digest ${got:-missing}, expected $want"; exit 1
  fi
done <scripts/outputs_digests.txt

echo "==> scripts/check_results.sh (archived experiment outputs are reproduced)"
scripts/check_results.sh

echo "verify: all checks passed"
