#!/usr/bin/env bash
# Full verification pipeline: format, build, lint, test, docs, experiments.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all -- --check

echo "== architecture invariants (every test in tests/architecture.rs; the newest are one step signature below the round body, one declaration per wire type with its allowlist of hand-written codecs, one overrun-free rerun, one lockstep entry and short CHANGES entries) =="
cargo test --locked --test architecture

echo "== build =="
cargo build --workspace --all-targets --locked

echo "== clippy (incl. perf lints: redundant_clone, needless_collect) =="
cargo clippy --workspace --all-targets --locked -- \
  -D warnings -D clippy::perf \
  -D clippy::redundant_clone -D clippy::needless_collect

echo "== tests =="
cargo test --workspace --locked

echo "== benchmark crate (its own workspace, so --workspace never compiles it) =="
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

echo "== example smoke (pipelined replicated log) =="
cargo run --release --locked --example replicated_log

echo "== loopback TCP integration (meba-wire) =="
cargo test --locked --test cluster_integration -- tcp handshake

echo "== recovery chaos (crash-restart sweep, both runtimes) =="
cargo test --release --locked --test recovery_integration

echo "== example smoke (TCP cluster; includes one process killed and relaunched) =="
cargo run --release --locked --example tcp_cluster

echo "== large-n acceptance (sparse virtual time: n = 4097 f=0 under 2 s and f=1 in the n(f+1) envelope, n = 16,385 f=0 within 25n words; n = 65 f=t dense guard; n = 1025 rushing wasteful leaders in the envelope) =="
cargo test --release --locked -p meba-testkit --test large_n -- --include-ignored

echo "== benchmark smoke (E21 oracle: des_bb_n2049_f0 must report exactly 32,768 words in 16,401 rounds, every repetition) =="
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload des_bb_n2049_f0 --seconds 5 --trace 0

echo "== benchmark smoke, dense (E21 oracle: des_bb_n257_ft must report exactly 2,048,738 words in 4,497 rounds, every repetition) =="
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload des_bb_n257_ft --seconds 5 --trace 0

echo "== reactor-mesh scale (real loopback sockets: n = 65 smoke, n = 101 acceptance; words vs DES, O(n) threads) =="
cargo test --release --locked -p meba-testkit --test tcp_scale -- --include-ignored

echo "== timing chaos (event-driven rounds: skew, mis-estimated delta, GST matrix) =="
cargo test --release --locked -p meba-testkit --test timing_chaos

echo "== example smoke (101-replica log on the discrete-event backend) =="
cargo run --release --locked --example large_n

echo "== service integration (admission control + crash-restart exactly-once) =="
cargo test --release --locked --test service_integration

echo "== example smoke (SMR service: 3 replicas + 2 client processes over loopback, one client killed and relaunched) =="
cargo run --release --locked --example smr_service

echo "== state-transfer churn (rolling restarts converge to the committed prefix; lying donor rejected) =="
cargo test --release --locked --test state_transfer

echo "== experiments (release) =="
cargo bench -p meba-bench

echo "All checks passed."
