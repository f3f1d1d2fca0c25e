//! Zero-allocation regression for the steady-state hot path.
//!
//! One protocol round's worth of message handling — encode into the
//! scratch encoder, frame, read the frame back through the reusable
//! scratch, decode, and verify the signature — must perform **zero**
//! heap allocations once the buffers have warmed up. This pins the
//! zero-copy refactor (borrowed decoding, pooled frame buffers, primed
//! HMAC states) against regressions that would silently reintroduce a
//! per-message allocation.
//!
//! The counter bills only the thread that opened the section, so
//! libtest's own threads and any parallel test cannot pollute it.

use meba_core::{signing::VoteSig, SystemConfig};
use meba_crypto::{
    trusted_setup, Decoder, Encoder, Pki, ProcessId, Signable, Signature, WireCodec,
};
use meba_sim::Message;
use meba_testkit::alloc_count::{count_allocations, CountingAlloc};
use meba_wire::frame::{read_frame, write_frame};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

meba_core::wire_schema! {
    /// A round's vote as it crosses a link: header fields plus the sender's
    /// signature share, declared like every protocol message. All fields
    /// are fixed-size, so decoding borrows from the frame and allocates
    /// nothing, and its length is summed without encoding.
    #[derive(Clone, Debug, PartialEq)]
    struct Vote: Message {
        round: u64 as Meta,
        from: ProcessId,
        value: u64 as Val,
        share: Signature,
    } in "weak-ba/phases"
}

/// One steady-state cycle: encode → frame → read → decode → verify.
/// Every buffer involved is caller-owned and reused across cycles.
fn cycle(
    msg: &Vote,
    pki: &Pki,
    value: u64,
    session: u64,
    enc: &mut Encoder,
    wire: &mut Vec<u8>,
    payload: &mut Vec<u8>,
) -> u64 {
    msg.encode_wire_into(enc);
    assert_eq!(msg.wire_bytes(), enc.as_bytes().len() as u64);
    wire.clear();
    write_frame(wire, enc.as_bytes()).expect("frame fits");
    let mut r = &wire[..];
    read_frame(&mut r, payload).expect("frame reads back");
    let mut dec = Decoder::new(payload);
    let got = Vote::decode_wire(&mut dec).expect("canonical bytes decode");
    dec.finish().expect("no trailing bytes");
    let sig = VoteSig { session, value: &value, level: 3 };
    sig.with_signing_bytes(|pre| pki.verify(pre, &got.share).expect("share verifies"));
    got.round
}

#[test]
fn steady_state_round_cycle_allocates_nothing() {
    let cfg = SystemConfig::new(9, 7).expect("valid config");
    let (pki, keys) = trusted_setup(9, 0xa110c);
    let value = 42u64;
    let payload = VoteSig { session: cfg.session(), value: &value, level: 3 };
    let share = payload.with_signing_bytes(|pre| keys[3].sign(pre));
    let msg = Vote { round: 11, from: ProcessId(3), value, share };

    let mut enc = Encoder::new();
    let mut wire = Vec::new();
    let mut scratch = Vec::new();

    // Warm-up: grow the encoder, the frame buffer, the read scratch, and
    // the thread-local signing scratch to their steady-state sizes.
    for _ in 0..8 {
        cycle(&msg, &pki, value, cfg.session(), &mut enc, &mut wire, &mut scratch);
    }

    let (allocs, sink) = count_allocations(|| {
        let mut acc = 0u64;
        for _ in 0..1_000 {
            acc ^= cycle(&msg, &pki, value, cfg.session(), &mut enc, &mut wire, &mut scratch);
        }
        acc
    });
    assert_eq!(sink, 0, "1000 xors of round 11 cancel out");
    assert_eq!(
        allocs, 0,
        "steady-state encode→frame→decode→verify must not touch the heap \
         ({allocs} allocations in 1000 cycles)"
    );
}
