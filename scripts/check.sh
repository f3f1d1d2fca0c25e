#!/usr/bin/env bash
# Full verification pipeline: format, build, lint, test, docs, experiments.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all -- --check

echo "== retired names (one fault vocabulary: meba_sim::faults::{LinkFate, LinkPolicy}; one StrongBa; one testkit path: cluster / sim / des / oracle::decided; one ledger: Metrics is plain data billed through Metrics::bill; one round body, EngineProcess::step: no sim-only Trace, rushing is not optional, meba-sim holds no body; one oracle: meba_testkit::oracle; one slot lifecycle: ReplicatedLog, no Mux layer) =="
! git grep -nE 'SendFate|SocketFate|SendPolicy|SocketPolicy|socket_policy|LinkPolicySendAdapter|adapt_link_policy|RotatingStrongBa|strong_ba_rotating|Mutex<Metrics>|link_key|BbViaStrong|bb_via_strong|\b(bb|weak_ba|strong_ba)_(sim|des|des_timed|decisions|report_decisions)\b|\blog_(sim|des|entries|report_entries)\b|TraceEvent|trace::Trace|record_trace|\.rushing\(|SimBuilder::trace|audit_proposals|assert_exactly_once|assert_churn_converged|assert_agreement|\bagree\(|outputs::<|DecisionStats|BB_FAILURE_FREE_WORDS_PER_N|GuardedKey|LinkDelayFloor|link_floor_ns|channel_capacity|inbox_capacity|outbox_capacity|\.crash_at\(|run_live_round|RoundState|LiveRoundOutcome|meba_sim::body|\bMux\b|MuxHost|LogHost|live_sessions' -- crates src tests examples README.md docs || exit 1

echo "== one oracle (meba_testkit::oracle's journal fold is the only reader of Record::Proposed in the testkit; word-bound constants live only in the Probe::word_bound impls) =="
test "$(git grep -n 'Record::Proposed {' -- crates/testkit/src | wc -l)" -eq 1
! git grep -nE 'words <= [0-9]+ \*' -- 'tests/*' 'crates/testkit/tests/*' 'crates/bench/src/*' || exit 1

echo "== one certificate site (ThresholdSignature is built in pki.rs only; ShareCollector::new is the only non-test combiner() call outside it) =="
! git grep -nE 'ThresholdSignature \{ *(threshold|\.\.)' -- crates src tests examples ':!crates/crypto/src/pki.rs' || exit 1
test "$(git grep -n 'certificate threshold is within 1..=n' -- 'crates/*/src/*' | wc -l)" -eq 1

echo "== one digest per share (individual tags MAC a message digest, never the message; the fallback's shares go through ShareCollector) =="
! git grep -n 'mac.update(msg)' -- crates/crypto/src/pki.rs || exit 1
! git grep -n 'pki.verify(' -- crates/fallback/src || exit 1

echo "== one billing site (MessageCost::of carries the only 1-word floor; every backend bills through it) =="
test "$(git grep -n 'words().max(1)' -- 'crates/*/src/*' | wc -l)" -eq 1

echo "== one round body (every backend steps a process only through EngineProcess::step — drive_mesh's lone TCP process included — which bills every copy, tallies the advance cause, and whose finish collects the refusals) =="
test "$(git grep -n 'metrics.bill(' -- 'crates/*/src/*' | wc -l)" -eq 1
test "$(git grep -n 'cause.record(' -- 'crates/*/src/*' ':!crates/engine/src/driver.rs' | cut -d: -f1 | tr '\n' ' ')" = "crates/engine/src/process.rs "
test -z "$(awk '/#\[cfg\(test\)\]/{exit} /cause.record\(/' crates/engine/src/driver.rs)"
test "$(git grep -n 'refused_equivocations()' -- crates/engine/src crates/wire/src | cut -d: -f1 | tr '\n' ' ')" = "crates/engine/src/process.rs "

echo "== one payload per outbox entry (EngineProcess::dispatch wraps each entry in one Arc; the in-memory transports clone the handle, never the message) =="
test "$(awk '/^    fn dispatch/,/^    }/' crates/engine/src/process.rs | grep -c 'Arc::new(')" -eq 1
! git grep -n 'msg\.clone()' -- crates/engine/src/des.rs crates/engine/src/channel.rs || exit 1

echo "== one virtual clock (the lockstep Simulation is the discrete-event loop; no wave loop, no lane transport, no outbox-tampering wrappers) =="
! git grep -nE 'LaneTransport|struct Lanes|TransformActor|send_only_to' -- crates src tests examples || exit 1

echo "== one fault plan (CrashAt and Lossy are engine fates and link-policy layers read from the fault vector by meba_testkit::with_faults; no fault wrappers; one per-sender policy factory on every backend) =="
! git grep -nE 'LossyLinkActor|CrashActor|AmnesiacActor|SharedPolicy|sim_builder' -- crates src tests examples README.md DESIGN.md docs || exit 1

echo "== one cluster builder (meba-bench's runners build every cluster through meba-testkit; its golden test pins SimBuilder's own three settings: corrupt, process_fate, link_policy) =="
! git grep -n 'SimBuilder::new' -- crates/bench/src || exit 1
! git grep -n 'trusted_setup(' -- crates/bench/src || exit 1

echo "== one slot path (retired names; a slot's decision is stored once in meba-smr and becomes state through ServiceReplica::apply only) =="
! git grep -nE 'accept_unsolicited|Gradecast|GcSend|GcValSig|slot_cfg\b|apply_transferred|replay_op' -- crates src tests examples README.md DESIGN.md docs || exit 1
test "$(git grep -n 'self\.kv\.insert(' -- crates/service/src | wc -l)" -eq 1
test "$(git grep -n '&Record::Committed' -- crates/service/src | wc -l)" -eq 1
test "$(git grep -n '&Record::Transferred' -- crates/service/src | wc -l)" -eq 1
test "$(git grep -n 'push_event(ServiceReply::Committed' -- crates/service/src | wc -l)" -eq 2 # admit's idempotent re-ack + apply
test "$(git grep -n '1_000_003' -- crates tests examples | wc -l)" -eq 1
! git grep -nE 'applied: BTreeSet|entries: BTreeMap|\.values\(\)\.cloned\(\)\.collect\(\)' -- crates/service/src/replica.rs crates/smr/src/log.rs || exit 1
! git grep -n 'stride()' -- crates/service/src || exit 1 # the service asks the log's schedule, never re-derives it

echo "== doc paths (every crates/ tests/ examples/ scripts/ path and BENCH_*.json the docs name exists) =="
./scripts/doc_paths.sh

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
