//! E13 — the byte-level cost of the word-level protocol: adaptive BB over
//! real loopback TCP sockets at n = 9, f = 0 and f = t, every message in
//! its canonical codec encoding.
//!
//! `meba_wire::BYTES_PER_WORD` is the budget a word may cost on the wire;
//! each row asserts its codec bytes stay within `words × BYTES_PER_WORD`,
//! so the adaptive word bound is also an adaptive byte bound on real
//! sockets.

use meba_bench::runs::run_wire_bb;
use meba_bench::table::{flt, num, Table};
use meba_wire::BYTES_PER_WORD;
use std::time::Duration;

fn main() {
    let n = 9usize;
    let t = (n - 1) / 2;
    println!("=== E13: byte-level cost over loopback TCP (n = {n}, canonical codec) ===\n");
    let mut tab = Table::new(&[
        "f",
        "words",
        "codec bytes",
        "bytes/word",
        "frames",
        "frames/round",
        "socket bytes",
    ]);
    for f in [0usize, t] {
        let s = run_wire_bb(n, f, Duration::from_millis(5));
        assert!(s.agreement, "E13 f={f}: correct processes must agree over TCP");
        assert!(
            s.bytes <= s.words * BYTES_PER_WORD,
            "E13 f={f}: bytes/word exceeds the {BYTES_PER_WORD} budget"
        );
        tab.row(&[
            num(f as u64),
            num(s.words),
            num(s.bytes),
            flt(s.bytes_per_word()),
            num(s.frames),
            flt(s.frames_per_round()),
            num(s.socket_bytes),
        ]);
    }
    tab.print();
    println!(
        "\nEvery word fits the {BYTES_PER_WORD}-byte wire budget at f = 0 and f = t alike: the"
    );
    println!("adaptive word bound is also an adaptive byte bound on real sockets.");
}
