//! E20 — the zero-copy hot path: what the borrowed codec, pooled frame
//! buffers, one-block keyed tags, and the event-queue DES buy.
//!
//! Four measurements, published as `BENCH_E20_hotpath.json`:
//!
//! 1. **Codec pipeline msgs/sec** — one message's full wire trip
//!    (encode → frame → read back → decode) under the *pre-refactor
//!    allocation pattern* (fresh `Vec` per encoder, per frame, per read,
//!    owned copies for decoded byte strings — reconstructed here
//!    faithfully from the retired implementations) against the zero-copy
//!    path (reused scratch encoder, reused frame/read buffers, borrowed
//!    decode). The acceptance bar is ≥ 2×.
//! 2. **Signature verification** — a certificate's k shares, k ∈
//!    {5, 9, 17}, verified two ways: each alone through `verify`, which
//!    digests the preimage and expands the share block on every call, and
//!    all k offered to one `Combiner`, as the protocols verify them — the
//!    preimage digested and the share block expanded once per
//!    certificate, the combiner's creation included in the rate. Plus
//!    threshold-certificate verifications/sec. (A share tag is one
//!    compression from the signer's keyed midstate; the pre-refactor
//!    per-verify key derivation measured ≈ 340k sigs/sec on this
//!    hardware — see EXPERIMENTS.md E20.)
//! 3. **DES** — failure-free BB wall clock at n ∈ {257, 1025, 4097},
//!    trusted set-up included, best of [`DES_REPS`]. Under sparse
//!    virtual time (DESIGN.md §18) a failure-free run executes a handful
//!    of rounds per process out of ~8·n, so `n × rounds / seconds` counts ticks that never happen and
//!    grows without bound; wall seconds per row is what a user waits for
//!    and what the gate holds. One **dense row** (median of [`SLICES`]) — n = 257 with f = t
//!    silent, ~1 M messages of fallback traffic — keeps an events/sec
//!    figure: deliveries plus `(n − f) × rounds` per second. Its events
//!    are nominal: the fallback sleeps through the segments of scopes a
//!    process is not in, so a correct process executes about 300 of the
//!    ~4,500 rounds, not all of them. The figure still moves with the
//!    run's wall time, which is what the gate holds.
//! 4. **Regression gate** — before overwriting the JSON, the committed
//!    `gate_*` bounds are parsed back and each fresh measurement must
//!    stay on the right side of its bound. Bounds are committed at 15%
//!    slack from the baseline measurement (0.85× for rates, 1.15× plus
//!    5 ms for seconds — the small rows run for milliseconds), so a
//!    regression beyond 15% fails `cargo bench`; a bound the committed
//!    file does not have yet is established by this run. The four
//!    throughput gates (codec, verify, combiner, dense row) compare
//!    **host-normalised** rates: each loop runs as [`SLICES`] slices with a fixed compute kernel
//!    ([`host_index`]) timed between them, every slice's rate is scaled
//!    by how much slower than [`NOMINAL_INDEX_S`] the host ran the kernel
//!    around it, and the median slice is gated — this shared VM drifts
//!    10–40 % for minutes at a time and stalls for tens of milliseconds,
//!    which used to trip these gates with codec, crypto and engine
//!    untouched. The sparse sweep rows stay raw seconds (best of
//!    [`DES_REPS`], 5 ms of absolute slack).

use meba_bench::runs::run_des_bb;
use meba_bench::table::{flt, num, Table};
use meba_core::{signing::VoteSig, CommitProof, SystemConfig};
use meba_crypto::{
    trusted_setup, Decoder, Digest, Encoder, ProcessId, Signable, Signature, WireCodec,
};
use meba_wire::frame::{read_frame, write_frame};
use std::time::Instant;

const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E20_hotpath.json");

/// Repetitions per DES row; the fastest is reported. The sparse rows
/// take milliseconds, where one scheduler hiccup is a 15% swing.
const DES_REPS: usize = 5;

/// Allowed regression against a committed gate bound.
const GATE_TOLERANCE: f64 = 0.15;

/// Absolute slack added to a wall-seconds ceiling: the n = 257 and
/// n = 1025 rows run for milliseconds, where 15% is inside host noise.
const SECONDS_SLACK: f64 = 0.005;

/// What [`host_index`] reads on the reference host when it is quiet, so
/// that a normalised rate reads as a plain rate there.
const NOMINAL_INDEX_S: f64 = 0.055;

/// How fast the host is right now: wall seconds of a fixed compute-bound
/// kernel (40 M SplitMix64 steps) that shares no code with the program
/// under test. The idea of the E21 benchmark's `HostProbe`, without its
/// memory-latency half: the codec and verify loops live in L1.
fn host_index() -> f64 {
    let started = Instant::now();
    let (mut state, mut acc) = (1u64, 0u64);
    for _ in 0..40_000_000u32 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= z ^ (z >> 31);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Slices per host-normalised measurement; the median one is reported.
const SLICES: usize = 5;

/// Runs `slice` (which returns the rate it measured) [`SLICES`] times with
/// a host reading between every two, and returns the median raw rate and
/// the median of the rates as the quiet reference host would have
/// measured them.
fn normalised_rate(mut slice: impl FnMut() -> f64) -> (f64, f64) {
    let mut index = host_index();
    let (mut raw, mut norm) = (Vec::new(), Vec::new());
    for _ in 0..SLICES {
        let rate = slice();
        let after = host_index();
        raw.push(rate);
        norm.push(rate * (index + after) / 2.0 / NOMINAL_INDEX_S);
        index = after;
    }
    let median = |mut rates: Vec<f64>| {
        rates.sort_by(f64::total_cmp);
        rates[SLICES / 2]
    };
    (median(raw), median(norm))
}

/// One gated measurement: its JSON key, this run's value, and which way
/// is better.
struct Gate {
    key: String,
    fresh: f64,
    higher_is_better: bool,
}

impl Gate {
    /// The committed bound if there is one, else the bound this run
    /// establishes: [`GATE_TOLERANCE`] of slack on the worse side, plus
    /// [`SECONDS_SLACK`] on a seconds ceiling.
    fn bound(&self, committed: Option<&str>) -> f64 {
        committed.and_then(|json| json_number(json, &self.key)).unwrap_or(
            if self.higher_is_better {
                self.fresh * (1.0 - GATE_TOLERANCE)
            } else {
                self.fresh * (1.0 + GATE_TOLERANCE) + SECONDS_SLACK
            },
        )
    }

    fn holds(&self, bound: f64) -> bool {
        if self.higher_is_better {
            self.fresh >= bound
        } else {
            self.fresh <= bound
        }
    }
}

/// Fastest of [`DES_REPS`] runs of failure-free BB at `n`.
fn best_des_run(n: usize) -> (f64, meba_bench::runs::DesRunStats) {
    let mut best: Option<(f64, meba_bench::runs::DesRunStats)> = None;
    for _ in 0..DES_REPS {
        let started = Instant::now();
        let s = run_des_bb(n, 0, 0xe20);
        let secs = started.elapsed().as_secs_f64();
        assert!(s.agreement, "E20 n={n}: agreement");
        if best.as_ref().is_none_or(|(b, _)| secs < *b) {
            best = Some((secs, s));
        }
    }
    best.expect("DES_REPS > 0")
}

/// A round's certificate-bearing vote — the heaviest message shape on
/// the BB hot path (commit proof + signature share).
#[derive(Clone, Debug)]
struct HotMsg {
    round: u64,
    from: ProcessId,
    value: u64,
    proof: CommitProof,
    share: Signature,
}

impl WireCodec for HotMsg {
    fn encode_wire(&self, enc: &mut Encoder) {
        enc.put_u64(self.round);
        enc.put_id(self.from);
        enc.put_u64(self.value);
        self.proof.encode_wire(enc);
        self.share.encode_wire(enc);
    }
    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, meba_crypto::DecodeError> {
        Ok(HotMsg {
            round: dec.get_u64()?,
            from: dec.get_id()?,
            value: dec.get_u64()?,
            proof: CommitProof::decode_wire(dec)?,
            share: Signature::decode_wire(dec)?,
        })
    }
}

/// The decoded fields of [`HotMsg`] under the *pre-refactor* byte-string
/// semantics: every length-prefixed field becomes an owned `Vec<u8>`
/// (the retired `get_bytes` copied; `Signature`/`ThresholdSignature`
/// decoding then converted the copy into its fixed array). Field-for-
/// field the same wire layout, so the two decoders read identical bytes.
#[allow(dead_code)]
struct OldHotMsg {
    round: u64,
    from: ProcessId,
    value: u64,
    level: u32,
    threshold: u64,
    digest: Digest,
    qc_tag: Vec<u8>,
    signer: ProcessId,
    sig_tag: Vec<u8>,
}

fn decode_old_style(bytes: &[u8]) -> OldHotMsg {
    let mut dec = Decoder::new(bytes);
    let out = OldHotMsg {
        round: dec.get_u64().unwrap(),
        from: dec.get_id().unwrap(),
        value: dec.get_u64().unwrap(),
        level: dec.get_u32().unwrap(),
        threshold: dec.get_u64().unwrap(),
        digest: dec.get_digest().unwrap(),
        qc_tag: dec.get_bytes().unwrap(),
        signer: dec.get_id().unwrap(),
        sig_tag: dec.get_bytes().unwrap(),
    };
    dec.finish().unwrap();
    out
}

fn per_sec(iters: u64, started: Instant) -> f64 {
    iters as f64 / started.elapsed().as_secs_f64()
}

/// Extracts `"key": <number>` from a flat JSON string (the bench JSONs
/// are written by this file, so the shape is known; no serde needed).
fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest.find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn main() {
    println!("=== E20: zero-copy hot path (codec, signature verify, event-queue DES) ===\n");
    let committed = std::fs::read_to_string(JSON_PATH).ok();

    let cfg = SystemConfig::new(33, 7).unwrap();
    let (pki, keys) = trusted_setup(33, 0xbeef);
    let value = 42u64;
    let payload = VoteSig { session: cfg.session(), value: &value, level: 3 };
    let shares: Vec<_> =
        keys.iter().take(cfg.quorum()).map(|k| k.sign(&payload.signing_bytes())).collect();
    let qc = pki.combine(cfg.quorum(), &payload.signing_bytes(), &shares).unwrap();
    let msg = HotMsg {
        round: 9,
        from: ProcessId(3),
        value,
        proof: CommitProof { level: 3, qc },
        share: shares[0].clone(),
    };
    let msg_bytes = msg.to_wire_bytes().len();

    // 1) Codec pipeline: encode → frame → read → decode, before vs after.
    let iters = 1_000_000u64;
    let mut sink = 0u64;
    let started = Instant::now();
    for _ in 0..iters {
        // Pre-refactor shape: every stage allocates.
        let payload = msg.to_wire_bytes();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        let len = u32::from_be_bytes(wire[..4].try_into().unwrap()) as usize;
        r = &r[4..];
        let frame = r[..len].to_vec(); // old read_frame: fresh Vec per frame
        sink ^= decode_old_style(&frame).round;
    }
    let before_codec = per_sec(iters, started);

    let mut enc = Encoder::new();
    let mut wire = Vec::new();
    let mut scratch = Vec::new();
    let (after_codec, after_codec_norm) = normalised_rate(|| {
        let iters = iters / SLICES as u64;
        let started = Instant::now();
        for _ in 0..iters {
            // Zero-copy shape: reused encoder, reused frame + read
            // buffers, borrowed decode.
            msg.encode_wire_into(&mut enc);
            wire.clear();
            write_frame(&mut wire, enc.as_bytes()).unwrap();
            let mut r = &wire[..];
            read_frame(&mut r, &mut scratch).unwrap();
            let mut dec = Decoder::new(&scratch);
            sink ^= HotMsg::decode_wire(&mut dec).unwrap().round;
            dec.finish().unwrap();
        }
        per_sec(iters, started)
    });
    let codec_speedup = after_codec / before_codec;

    let mut tab = Table::new(&["codec pipeline", "msgs/sec", "ns/msg"]);
    tab.row(&["before (alloc per stage)".into(), flt(before_codec), flt(1e9 / before_codec)]);
    tab.row(&["after (zero-copy)".into(), flt(after_codec), flt(1e9 / after_codec)]);
    tab.print();
    println!(
        "{msg_bytes}-byte certificate message; speedup {codec_speedup:.2}x; zero-copy \
         host-normalised {after_codec_norm:.0} msgs/sec (host index now {:.4} s, nominal \
         {NOMINAL_INDEX_S} s) (sink {})\n",
        host_index(),
        sink & 1
    );
    assert!(
        codec_speedup >= 2.0,
        "E20 acceptance: zero-copy codec must be >= 2x the pre-refactor \
         pipeline (got {codec_speedup:.2}x)"
    );

    // 2) Verification of a certificate's k shares, k ∈ {5, 9, 17}: one
    // `verify` per share, and one `Combiner` per certificate.
    let pre = payload.signing_bytes();
    let mut tab = Table::new(&[
        "k",
        "single sigs/sec",
        "host-normalised",
        "combiner sigs/sec",
        "host-normalised",
    ]);
    let mut verify_rows = Vec::new();
    let (mut single_at_9_norm, mut combined_at_9_norm) = (0.0f64, 0.0f64);
    for k in [5usize, 9, 17] {
        let ks: Vec<_> = shares.iter().take(k).cloned().collect();
        let reps = 400_000u64 / k as u64 / SLICES as u64;
        let (single, single_norm) = normalised_rate(|| {
            let started = Instant::now();
            for _ in 0..reps {
                for s in &ks {
                    pki.verify(&pre, s).unwrap();
                }
            }
            per_sec(reps * k as u64, started)
        });
        let (combined, combined_norm) = normalised_rate(|| {
            let started = Instant::now();
            for _ in 0..reps {
                let mut combiner = pki.combiner(k, &pre).unwrap();
                for s in &ks {
                    combiner.offer(s).unwrap();
                }
                std::hint::black_box(combiner.admitted());
            }
            per_sec(reps * k as u64, started)
        });
        if k == 9 {
            single_at_9_norm = single_norm;
            combined_at_9_norm = combined_norm;
        }
        tab.row(&[num(k as u64), flt(single), flt(single_norm), flt(combined), flt(combined_norm)]);
        verify_rows.push(format!(
            "    {{\"k\": {k}, \"single_sigs_per_sec\": {single:.0}, \
             \"norm_sigs_per_sec\": {single_norm:.0}, \
             \"combiner_sigs_per_sec\": {combined:.0}, \
             \"norm_combiner_sigs_per_sec\": {combined_norm:.0}}}"
        ));
    }
    tab.print();

    let reps = 400_000u64;
    let started = Instant::now();
    for _ in 0..reps {
        pki.verify_threshold(&pre, &msg.proof.qc).unwrap();
    }
    let certs = per_sec(reps, started);
    println!("threshold certificates: {certs:.0} verifies/sec\n");

    // 3) DES: failure-free sweep (sparse time) and one dense row.
    let mut gates = vec![
        Gate {
            key: "gate_codec_msgs_per_sec".into(),
            fresh: after_codec_norm,
            higher_is_better: true,
        },
        Gate {
            key: "gate_verify_sigs_per_sec".into(),
            fresh: single_at_9_norm,
            higher_is_better: true,
        },
        Gate {
            key: "gate_combiner_sigs_per_sec".into(),
            fresh: combined_at_9_norm,
            higher_is_better: true,
        },
    ];
    let mut tab = Table::new(&["n", "seconds", "words", "words/n", "rounds"]);
    let mut sweep_rows = Vec::new();
    for n in [257usize, 1025, 4097] {
        let (secs, s) = best_des_run(n);
        tab.row(&[
            num(n as u64),
            format!("{secs:.4}"),
            num(s.words),
            flt(s.words as f64 / n as f64),
            num(s.rounds),
        ]);
        sweep_rows.push(format!(
            "    {{\"n\": {n}, \"seconds\": {secs:.4}, \"words\": {}, \"rounds\": {}}}",
            s.words, s.rounds
        ));
        gates.push(Gate {
            key: format!("gate_des_seconds_n{n}"),
            fresh: secs,
            higher_is_better: false,
        });
    }
    tab.print();
    println!("(failure-free, best of {DES_REPS}, trusted set-up included)\n");

    let (dense_n, dense_f) = (257usize, 128usize);
    // Deliveries plus the correct processes' nominal process-rounds
    // (`(n − f) × rounds`; most of them are slept through).
    // Seconds-long and memory-heavy, this row feels the host's slow
    // phases most, so it is sliced and normalised like the loops
    // above: one run per slice, the median gated.
    let mut dense = None;
    let (dense_events_per_sec, dense_events_per_sec_norm) = normalised_rate(|| {
        let started = Instant::now();
        let s = run_des_bb(dense_n, dense_f, 0xe20);
        let secs = started.elapsed().as_secs_f64();
        assert!(s.agreement, "E20 n={dense_n} f={dense_f}: agreement");
        let events = s.messages + (dense_n - dense_f) as u64 * s.rounds;
        dense = Some(s);
        events as f64 / secs
    });
    let dense = dense.expect("SLICES > 0");
    let dense_secs =
        (dense.messages + (dense_n - dense_f) as u64 * dense.rounds) as f64 / dense_events_per_sec;
    println!(
        "dense row: n = {dense_n}, f = {dense_f}: {dense_secs:.3} s, {} words, {} messages, \
         {} rounds, {dense_events_per_sec:.0} events/sec (host-normalised \
         {dense_events_per_sec_norm:.0}; median of {SLICES})\n",
        dense.words, dense.messages, dense.rounds
    );
    gates.push(Gate {
        key: "gate_des_dense_events_per_sec".into(),
        fresh: dense_events_per_sec_norm,
        higher_is_better: true,
    });

    // 4) Regression gate against the committed bounds (kept across
    // re-runs, so later runs are compared against the baseline that
    // set them).
    let mut gate_rows = Vec::new();
    for gate in &gates {
        let bound = gate.bound(committed.as_deref());
        assert!(
            gate.holds(bound),
            "E20 regression gate: {} is {:.4}, committed bound {bound:.4} \
             (bounds carry 15% slack from the committed baseline, so this is a \
             > 15% regression)",
            gate.key,
            gate.fresh
        );
        println!("gate ok: {} {:.4} vs bound {bound:.4}", gate.key, gate.fresh);
        let digits = if gate.higher_is_better { 0 } else { 4 };
        gate_rows.push(format!("  \"{}\": {bound:.digits$}", gate.key));
    }

    let json = format!(
        "{{\n  \"experiment\": \"E20\",\n  \"msg_bytes\": {msg_bytes},\n  \
         \"codec\": {{\"before_msgs_per_sec\": {before_codec:.0}, \
         \"after_msgs_per_sec\": {after_codec:.0}, \
         \"after_norm_msgs_per_sec\": {after_codec_norm:.0}, \
         \"speedup\": {codec_speedup:.2}}},\n  \
         \"host_nominal_index_s\": {NOMINAL_INDEX_S},\n  \
         \"verify\": [\n{}\n  ],\n  \
         \"verify_threshold_certs_per_sec\": {certs:.0},\n  \
         \"des_sweep\": [\n{}\n  ],\n  \
         \"des_dense\": {{\"n\": {dense_n}, \"f\": {dense_f}, \"seconds\": {dense_secs:.3}, \
         \"words\": {}, \"messages\": {}, \"rounds\": {}, \
         \"events_per_sec\": {dense_events_per_sec:.0}, \
         \"norm_events_per_sec\": {dense_events_per_sec_norm:.0}}},\n  \
         \"gate_tolerance\": {GATE_TOLERANCE},\n{}\n}}\n",
        verify_rows.join(",\n"),
        sweep_rows.join(",\n"),
        dense.words,
        dense.messages,
        dense.rounds,
        gate_rows.join(",\n"),
    );
    std::fs::write(JSON_PATH, &json).expect("write BENCH_E20_hotpath.json");
    println!("\nwrote BENCH_E20_hotpath.json");
}
