//! Architecture invariants: each test pins one seam of the design — one
//! ledger, one round body, one oracle, one certificate site, … — by
//! searching the sources the way `git grep` would, and a failure names
//! every offending `path:line`.
//!
//! A pathspec is a file, a directory (everything under it), a glob whose
//! `*` also matches `/`, or a `:!` exclusion. Build output (`target`) and
//! hidden directories are never searched, and neither is this file: it
//! spells every pattern out. Patterns are POSIX extended regular
//! expressions, matched one line at a time by the small matcher at the
//! end of this file (std only): literals, `\` escapes, `.`, `[…]` and
//! `[^…]` classes, `*` `+` `?`, `(…|…)` groups, `|` and `\b`.

use std::fs;
use std::path::Path;

/// The top-level entries a pathspec can reach.
const SEARCHED: &[&str] =
    &["crates", "src", "tests", "examples", "docs", "README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The crates' library and binary sources.
const CRATE_SOURCES: &[&str] = &["crates/*/src/*"];

/// One matching source line.
#[derive(Clone)]
struct Hit {
    path: String,
    line: usize,
    text: String,
}

/// Renders hits one `path:line: text` per line.
fn report(hits: &[Hit]) -> String {
    hits.iter().map(|h| format!("\n  {}:{}: {}", h.path, h.line, h.text.trim())).collect()
}

/// Every searched file, as a `/`-separated path from the repository root.
fn all_files() -> Vec<String> {
    fn walk(root: &Path, rel: &str, out: &mut Vec<String>) {
        let path = root.join(rel);
        if path.is_file() {
            if rel != "tests/architecture.rs" {
                out.push(rel.to_string());
            }
            return;
        }
        let Ok(entries) = fs::read_dir(&path) else { return };
        let mut names: Vec<String> =
            entries.filter_map(|e| e.ok()?.file_name().into_string().ok()).collect();
        names.sort();
        for name in names.iter().filter(|n| !n.starts_with('.') && *n != "target") {
            walk(root, &format!("{rel}/{name}"), out);
        }
    }
    let mut out = Vec::new();
    for top in SEARCHED {
        walk(Path::new(env!("CARGO_MANIFEST_DIR")), top, &mut out);
    }
    out
}

/// Whether `path` is named by `spec`: the path itself, a directory above
/// it, or a glob matching it.
fn named_by(spec: &str, path: &str) -> bool {
    fn glob(pat: &[u8], s: &[u8]) -> bool {
        match pat.split_first() {
            None => s.is_empty(),
            Some((b'*', rest)) => (0..=s.len()).any(|i| glob(rest, &s[i..])),
            Some((c, rest)) => s.first() == Some(c) && glob(rest, &s[1..]),
        }
    }
    path == spec
        || path.strip_prefix(spec).is_some_and(|rest| rest.starts_with('/'))
        || glob(spec.as_bytes(), path.as_bytes())
}

/// The files `specs` name, in path order.
fn files(specs: &[&str]) -> Vec<String> {
    let (exclude, include): (Vec<&str>, Vec<&str>) =
        specs.iter().partition(|s| s.starts_with(":!"));
    all_files()
        .into_iter()
        .filter(|p| include.iter().any(|s| named_by(s, p)))
        .filter(|p| !exclude.iter().any(|s| named_by(&s[2..], p)))
        .collect()
}

/// The lines of a file (1-based numbers).
fn lines(path: &str) -> Vec<Hit> {
    let bytes = fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join(path)).unwrap();
    String::from_utf8_lossy(&bytes)
        .lines()
        .enumerate()
        .map(|(i, text)| Hit { path: path.to_string(), line: i + 1, text: text.to_string() })
        .collect()
}

/// The lines of `within` that match `pattern`.
fn matching(within: &[Hit], pattern: &str) -> Vec<Hit> {
    let re = Regex::new(pattern);
    within.iter().filter(|h| re.is_match(&h.text)).cloned().collect()
}

/// Every line matching `pattern` in the files `specs` name: `git grep -nE`.
fn grep(pattern: &str, specs: &[&str]) -> Vec<Hit> {
    matching(&files(specs).iter().flat_map(|p| lines(p)).collect::<Vec<_>>(), pattern)
}

/// A file's lines above its first `#[cfg(test)]`: the non-test code.
fn non_test(path: &str) -> Vec<Hit> {
    let test_mod = Regex::new(r"#\[cfg\(test\)\]");
    lines(path).into_iter().take_while(|h| !test_mod.is_match(&h.text)).collect()
}

/// The block that opens on the first line matching `start` in `within`
/// and closes at the first later line that is its indentation plus `}`.
fn block(within: &[Hit], start: &str) -> Vec<Hit> {
    let re = Regex::new(start);
    let at = within.iter().position(|h| re.is_match(&h.text)).expect("block start");
    let indent = &within[at].text[..within[at].text.len() - within[at].text.trim_start().len()];
    let close = format!("{indent}}}");
    let len = within[at..].iter().position(|h| h.text.starts_with(&close)).expect("block end");
    within[at..=at + len].to_vec()
}

/// `pattern` matches nowhere in `specs`.
fn assert_none(pattern: &str, specs: &[&str]) {
    let hits = grep(pattern, specs);
    assert!(hits.is_empty(), "`{pattern}` must not appear in {specs:?}:{}", report(&hits));
}

/// `pattern` matches exactly `n` lines in `specs`.
fn assert_count(pattern: &str, specs: &[&str], n: usize) {
    let hits = grep(pattern, specs);
    assert_eq!(hits.len(), n, "`{pattern}` must match {n} line(s) in {specs:?}:{}", report(&hits));
}

/// `pattern` matches exactly one line in `specs`, and it is in `file`.
fn assert_one_line_in(pattern: &str, specs: &[&str], file: &str) {
    let hits = grep(pattern, specs);
    assert!(
        hits.len() == 1 && hits[0].path == file,
        "`{pattern}` must match one line in {specs:?}, in {file}:{}",
        report(&hits)
    );
}

/// One fault vocabulary (`meba_sim::faults::{LinkFate, LinkPolicy}`), one
/// `StrongBa`, one testkit path (`cluster` / `des` /
/// `oracle::decided`), one ledger (`Metrics` is plain data), one round body
/// (no sim-only trace; rushing is not optional; `meba-sim` holds no body),
/// one oracle, one slot lifecycle (`ReplicatedLog`, no mux layer), one
/// DES event queue (no calendar queue), one handshake (the reactor's), one
/// definition per experiment (no report binary, no stretch knobs), one
/// fixed δ per wall-clock run (no in-run escalation, no hand-rolled
/// overrun retry): the retired names stay retired.
#[test]
fn retired_names_stay_retired() {
    assert_none(
        r"SendFate|SocketFate|SendPolicy|SocketPolicy|socket_policy|LinkPolicySendAdapter|adapt_link_policy|RotatingStrongBa|strong_ba_rotating|Mutex<Metrics>|link_key|BbViaStrong|bb_via_strong|\b(bb|weak_ba|strong_ba)_(sim|des|des_timed|decisions|report_decisions)\b|\blog_(sim|des|entries|report_entries)\b|TraceEvent|trace::Trace|record_trace|\.rushing\(|audit_proposals|assert_exactly_once|assert_churn_converged|assert_agreement|\bagree\(|outputs::<|DecisionStats|BB_FAILURE_FREE_WORDS_PER_N|GuardedKey|LinkDelayFloor|link_floor_ns|channel_capacity|inbox_capacity|outbox_capacity|\.crash_at\(|run_live_round|RoundState|LiveRoundOutcome|meba_sim::body|\bMux\b|MuxHost|LogHost|live_sessions|CalendarQueue|TimeKeyed|calendar_width_ns|--bin report|client_handshake|server_handshake|MEBA_E15_STRETCH|MEBA_E20_STRETCH|OverrunAction::Escalate|Escalation\b|escalations|delta_at|clean_run|clean_tcp_run",
        &["crates", "src", "tests", "examples", "README.md", "docs"],
    );
    // The journal holds only what a restart reads: step inboxes and
    // signature bindings (plus the service's records). A step reports a
    // signature through its sink, and nothing compacts the journal.
    assert_none(
        r"RecoveryEvent|recovery_events|cert_kind|CertReceived|CommitLevel|Record::Decided|Record::Snapshot|compact_journal|Journal::compact|fn compact\b|ServiceSnapshot",
        &["crates", "src", "tests", "examples", "README.md", "docs", "DESIGN.md"],
    );
}

/// One oracle: `meba_testkit::oracle`'s journal fold is the only reader of
/// `Record::Proposed` in the testkit, and word-bound constants live only
/// in the `Probe::word_bound` impls.
#[test]
fn one_oracle() {
    assert_count(r"Record::Proposed \{", &["crates/testkit/src"], 1);
    assert_none(
        r"words <= [0-9]+ \*",
        &["tests/*", "crates/testkit/tests/*", "crates/bench/src/*"],
    );
}

/// One certificate site: `ThresholdSignature` is built in `pki.rs` only,
/// and `ShareCollector::new` is the only non-test `combiner()` call
/// outside it.
#[test]
fn one_certificate_site() {
    assert_none(
        r"ThresholdSignature \{ *(threshold|\.\.)",
        &["crates", "src", "tests", "examples", ":!crates/crypto/src/pki.rs"],
    );
    assert_count(r"certificate threshold is within 1..=n", CRATE_SOURCES, 1);
}

/// One digest per share: individual tags MAC a message digest, never the
/// message, and the fallback's shares go through `ShareCollector`.
#[test]
fn one_digest_per_share() {
    assert_none(r"mac.update\(msg\)", &["crates/crypto/src/pki.rs"]);
    assert_none(r"pki.verify\(", &["crates/fallback/src"]);
}

/// One billing site: `MessageCost::of` carries the only 1-word floor, and
/// every backend bills through it.
#[test]
fn one_billing_site() {
    assert_count(r"words\(\).max\(1\)", CRATE_SOURCES, 1);
}

/// One round body: every backend steps a process only through
/// `EngineProcess::step` — `drive_mesh`'s lone TCP process included —
/// which bills every outbox entry and tallies the advance cause, and
/// whose `finish` collects the refusals.
#[test]
fn one_round_body() {
    const PROCESS: &str = "crates/engine/src/process.rs";
    assert_count(r"metrics.bill\(", CRATE_SOURCES, 1);
    assert_one_line_in(
        r"cause.record\(",
        &["crates/*/src/*", ":!crates/engine/src/driver.rs"],
        PROCESS,
    );
    let in_driver = matching(&non_test("crates/engine/src/driver.rs"), r"cause.record\(");
    assert!(
        in_driver.is_empty(),
        "the driver's non-test code records no cause:{}",
        report(&in_driver)
    );
    assert_one_line_in(
        r"refused_equivocations\(\)",
        &["crates/engine/src", "crates/wire/src"],
        PROCESS,
    );
}

/// One ledger site: the round body is the only non-test code that moves
/// the ledger per message. `bill`, `carry` and `admit` are each called
/// once, in `process.rs`; inside `dispatch`'s copy loop the ledger is
/// reached only through `carry`, and `bill` charges the entry after the
/// loop, once for all its copies.
#[test]
fn one_ledger_site() {
    const PROCESS: &str = "crates/engine/src/process.rs";
    let sources: Vec<Hit> = files(CRATE_SOURCES).iter().flat_map(|p| non_test(p)).collect();
    for call in [r"metrics\.bill\(", r"metrics\.carry\(", r"metrics\.admit\("] {
        let hits = matching(&sources, call);
        assert!(
            hits.len() == 1 && hits[0].path == PROCESS,
            "`{call}` must be called once in non-test crate code, in {PROCESS}:{}",
            report(&hits)
        );
    }
    let dispatch = block(&non_test(PROCESS), r"^    fn dispatch");
    let copy_loop = block(&dispatch, r"for to in targets\(");
    let touches = matching(&copy_loop, r"metrics\.");
    assert!(
        touches.len() == 1 && touches[0].text.contains("metrics.carry("),
        "the copy loop must touch the ledger once, through `carry`:{}",
        report(&touches)
    );
    let loop_end = copy_loop.last().unwrap().line;
    let billed = matching(&dispatch, r"metrics\.bill\(");
    assert!(
        billed.len() == 1 && billed[0].line > loop_end,
        "`dispatch` must bill once, after its copy loop (which ends at {PROCESS}:{loop_end}):{}",
        report(&billed)
    );
}

/// One payload per outbox entry: `EngineProcess::dispatch` wraps each
/// entry in one `Arc`; the in-memory transports clone the handle, never
/// the message; the round body moves the handle into the inbox, and every
/// `on_step` is lent its inbox as an `impl Inbox<'a, M>`, a projection
/// that yields `&M`.
#[test]
fn one_payload_per_outbox_entry() {
    let dispatch = block(&lines("crates/engine/src/process.rs"), r"^    fn dispatch");
    let wraps = matching(&dispatch, r"Arc::new\(");
    assert_eq!(wraps.len(), 1, "`dispatch` wraps each entry in one Arc:{}", report(&wraps));
    assert_none(r"msg\.clone\(\)", &["crates/engine/src/des.rs", "crates/engine/src/channel.rs"]);
    assert_none(r"unwrap_or_clone", &["crates/engine/src", "crates/core/src"]);
    let on_step = Regex::new(r"fn on_step");
    let (inbox, lent) = (Regex::new(r"\binbox: "), Regex::new(r"\binbox: impl Inbox<'[a-z]+, "));
    let owned = |h: &&Hit| inbox.is_match(&h.text) && !lent.is_match(&h.text);
    let mut hits = Vec::new();
    for path in files(&["crates", "src", "tests", "examples"]) {
        let file = lines(&path);
        // `git grep -A3`: the signature line and the three after it.
        for (i, _) in file.iter().enumerate().filter(|(_, h)| on_step.is_match(&h.text)) {
            hits.extend(file[i..file.len().min(i + 4)].iter().filter(owned).cloned());
        }
    }
    assert!(hits.is_empty(), "every `on_step` is lent its inbox:{}", report(&hits));
}

/// One step signature below the round body: every layer is lent a
/// projection of its caller's inbox and sends into a sink its host maps
/// onto its own (`out.map(BbMsg::Ba)`), so no layer copies its inbox
/// into a lent `Vec`, steps its protocol into an outbox of its own or
/// re-wraps one. `Outbox` is the one root sink; in non-test crate code
/// one is made only by the round, by `Recoverable` (its write-ahead
/// staging and its replay) and by the `hint_contract` checker's twins.
#[test]
fn one_step_signature() {
    let sources: Vec<Hit> = files(CRATE_SOURCES).iter().flat_map(|p| non_test(p)).collect();
    let allowed = [
        ("crates/sim/src/actor.rs", "RoundCtx { round, me, n, inbox, outbox: Outbox::new() }"),
        ("crates/sim/src/actor.rs", "entries: Vec<(Recipients, M)>,"),
        ("crates/core/src/recovery.rs", "Staged { sends: Outbox::new(), signed: Vec::new() }"),
        (
            "crates/core/src/subprotocol.rs",
            "let (mut out_d, mut out_s) = (Outbox::new(), Outbox::new());",
        ),
    ];
    let root = r"\.forward\(|Vec<\(ProcessId, &|Outbox::new\(\)|Vec<\(Recipients";
    let hits: Vec<Hit> = matching(&sources, root)
        .into_iter()
        .filter(|h| !allowed.iter().any(|&(path, text)| h.path == path && h.text.trim() == text))
        .collect();
    assert!(
        hits.is_empty(),
        "a layer lends a projection and maps its sink; only the round, `Recoverable` and \
         `hint_contract` make a root `Outbox` in non-test crate code:{}",
        report(&hits)
    );
}

/// One entry per multicast: from `RecursiveBa` to the round body, an
/// outbox entry is one payload and its recipients (`meba_sim::Outbox`).
/// A list with one destination per entry, `Vec<(Dest, …)>`, appears in
/// non-test crate code only as `RoundCtx::take_outbox`'s return type —
/// the expanded view a wrapping actor forwards — so no layer re-expands
/// a multicast into per-member entries.
#[test]
fn one_entry_per_multicast() {
    let sources: Vec<Hit> = files(CRATE_SOURCES).iter().flat_map(|p| non_test(p)).collect();
    let hits = matching(&sources, r"Vec<\(Dest,");
    assert!(
        hits.len() == 1
            && hits[0].path == "crates/sim/src/actor.rs"
            && hits[0].text.contains("pub fn take_outbox(self)"),
        "`Vec<(Dest,` must appear in non-test crate code only as `take_outbox`'s return type:{}",
        report(&hits)
    );
}

/// No payload on the event queue: the discrete-event backend puts a copy
/// in its receiver's mailbox at send, so `des.rs`'s `Event` — and the
/// queue holding it, and every type either names — is payload-free (no
/// `Delivery`, no message type `M`, no `Arc`); `des.rs` keeps one
/// event-queue field; and a drain takes the mailbox in the send order it
/// already has, without sorting.
#[test]
fn no_payload_on_the_event_queue() {
    const DES: &str = "crates/engine/src/des.rs";
    let code: Vec<Hit> =
        non_test(DES).into_iter().filter(|h| !h.text.trim_start().starts_with("//")).collect();
    let payload = Regex::new(r"Delivery|\bM\b|\bArc\b");
    let type_name = Regex::new(r"^[A-Z][A-Za-z0-9_]*$");
    let mut seen = vec!["Event".to_string(), "EventQueue".to_string()];
    let mut todo = seen.clone();
    let mut hits = Vec::new();
    while let Some(name) = todo.pop() {
        let def = format!(r"^(pub(\(crate\))? )?(type|struct|enum) {name}\b");
        let Some(first) = matching(&code, &def).into_iter().next() else {
            assert!(!["Event", "EventQueue"].contains(&name.as_str()), "{DES} defines `{name}`");
            continue;
        };
        let lines = if first.text.contains("type ") { vec![first] } else { block(&code, &def) };
        hits.extend(lines.iter().filter(|h| payload.is_match(&h.text)).cloned());
        let named =
            lines.iter().flat_map(|h| h.text.split(|c: char| !c.is_alphanumeric() && c != '_'));
        for word in named.filter(|w| type_name.is_match(w)) {
            if !seen.iter().any(|s| s == word) {
                seen.push(word.to_string());
                todo.push(word.to_string());
            }
        }
    }
    assert!(hits.is_empty(), "an event must not carry a payload:{}", report(&hits));
    let queue = block(&code, r"^struct EventQueue\b");
    let queue_lines = queue.first().unwrap().line..=queue.last().unwrap().line;
    let fields: Vec<Hit> = matching(
        &code,
        r"^ +(pub(\(crate\))? )?[a-z_]+: (EventQueue|BinaryHeap|BTreeMap<u128|BTreeSet|VecDeque)(<.*>)?,$",
    )
    .into_iter()
    .filter(|h| !queue_lines.contains(&h.line))
    .collect();
    assert!(
        fields.len() == 1 && fields[0].text.contains(": EventQueue,"),
        "{DES} declares exactly one event-queue field, an `EventQueue`:{}",
        report(&fields)
    );
    let sorts = matching(&block(&code, r"^    fn drain"), r"sort");
    assert!(
        sorts.is_empty(),
        "a mailbox is in send order; `drain` must not sort:{}",
        report(&sorts)
    );
}

/// Every repository path the docs name exists: each `crates/…`,
/// `tests/…`, `examples/…`, `scripts/…` path, each crate-relative
/// `meba-<crate>/…` path (read as `crates/<crate>/…`) and each
/// `BENCH_*.json` in README.md, DESIGN.md, docs/CORRECTNESS.md and
/// EXPERIMENTS.md. A path right after a word character, `/`, `.` or `-`
/// is not seen.
#[test]
fn doc_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for doc in ["README.md", "DESIGN.md", "docs/CORRECTNESS.md", "EXPERIMENTS.md"] {
        for path in doc_paths(&fs::read_to_string(root.join(doc)).unwrap()) {
            if !root.join(&path).exists() && !missing.contains(&path) {
                missing.push(path);
            }
        }
    }
    assert!(missing.is_empty(), "named in the docs but missing: {missing:?}");
}

/// The repository paths `text` names, in order: `(?<![\w/.-])` followed
/// by `(crates|tests|examples|scripts)/[\w./-]*\w`, `meba-[a-z]+/[\w./-]*\w`
/// (returned as `crates/[a-z]+/…`) or `BENCH_\w+\.json`, read left to
/// right without overlaps, as `grep -oP` would.
fn doc_paths(text: &str) -> Vec<String> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let chars: Vec<char> = text.chars().collect();
    let run = |from: usize, ok: &dyn Fn(char) -> bool| {
        chars[from.min(chars.len())..].iter().take_while(|&&c| ok(c)).count()
    };
    let text_of = |from: usize, len: usize| -> String { chars[from..from + len].iter().collect() };
    // The length of the path body at `from`: word characters and `./-`,
    // ending on a word character.
    let body = |from: usize| -> Option<usize> {
        let len = run(from, &|c| word(c) || "./-".contains(c));
        (from..from + len).rev().find(|&j| word(chars[j])).map(|end| end + 1 - from)
    };
    // The characters a path at `i` spans, and the path it names.
    let path_at = |i: usize| -> Option<(usize, String)> {
        let rest = text_of(i, (chars.len() - i).min(10));
        if let Some(top) = ["crates/", "tests/", "examples/", "scripts/"]
            .into_iter()
            .find(|top| rest.starts_with(top))
        {
            let len = top.len() + body(i + top.len())?;
            return Some((len, text_of(i, len)));
        }
        if rest.starts_with("meba-") {
            let name = run(i + 5, &|c| c.is_ascii_lowercase());
            let from = i + 5 + name + 1;
            if name == 0 || chars.get(from - 1) != Some(&'/') {
                return None;
            }
            let len = body(from)?;
            return Some((
                from + len - i,
                format!("crates/{}/{}", text_of(i + 5, name), text_of(from, len)),
            ));
        }
        let stem = rest.strip_prefix("BENCH_").map(|_| run(i + 6, &word))?;
        let tail: String = chars[i + 6 + stem..].iter().take(5).collect();
        (stem > 0 && tail == ".json").then(|| (6 + stem + 5, text_of(i, 6 + stem + 5)))
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let free = i == 0 || !(word(chars[i - 1]) || "/.-".contains(chars[i - 1]));
        match free.then(|| path_at(i)).flatten() {
            Some((len, path)) => {
                out.push(path);
                i += len;
            }
            None => i += 1,
        }
    }
    out
}

/// One definition per experiment: every `## E<k>` heading of
/// EXPERIMENTS.md names, in its "(bench: …)" suffix, the one file under
/// `crates/bench/benches/` whose first line is `//! E<k> — …`; each
/// `E<k>` heads at most one file there and every head has a heading; and
/// no second runner re-declares the grids (`crates/bench/src/bin` is gone).
#[test]
fn one_definition_per_experiment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(!root.join("crates/bench/src/bin").exists(), "crates/bench/src/bin must stay gone");
    let id = |text: &str, prefix: &str| -> Option<String> {
        let rest = text.strip_prefix(prefix)?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        (!digits.is_empty() && rest[digits.len()..].starts_with(" —")).then(|| format!("E{digits}"))
    };
    let mut heads: Vec<(String, String)> = files(&["crates/bench/benches"])
        .into_iter()
        .filter_map(|path| id(&lines(&path)[0].text, "//! E").map(|e| (e, path)))
        .collect();
    heads.sort();
    for pair in heads.windows(2) {
        assert_ne!(
            pair[0].0, pair[1].0,
            "{} heads both {} and {}",
            pair[0].0, pair[0].1, pair[1].1
        );
    }
    let mut documented = Vec::new();
    for h in lines("EXPERIMENTS.md") {
        let Some(e) = id(&h.text, "## E") else { continue };
        let bench = h.text.split("(bench: `").nth(1).and_then(|b| b.split('`').next());
        let path = format!("crates/bench/benches/{}.rs", bench.unwrap_or("?"));
        assert!(
            heads.iter().any(|(head, p)| *head == e && *p == path),
            "EXPERIMENTS.md:{}: {e} must name the bench it heads, not {path}",
            h.line
        );
        documented.push(e);
    }
    let undocumented: Vec<_> = heads.iter().filter(|(e, _)| !documented.contains(e)).collect();
    assert!(
        undocumented.is_empty(),
        "bench heads without an EXPERIMENTS.md section: {undocumented:?}"
    );
}

/// Fallback traffic is held by handle: `SkewEnvelope::msg` is an `Arc`,
/// and what keeps a fallback message past its round — `FallbackHost`'s
/// pending list, `SkewAdapter`'s per-vstep buffer, `Instance`'s inbox —
/// stores that handle, never the message.
#[test]
fn fallback_traffic_is_held_by_handle() {
    const SUB: &str = "crates/core/src/subprotocol.rs";
    let code = non_test(SUB);
    let session = non_test("crates/sim/src/session.rs");
    let held = [
        (block(&code, r"^ *pub struct SkewEnvelope"), r"pub msg: Arc<M>,"),
        (block(&code, r"^pub struct SkewAdapter"), r"buffer: BTreeMap<u64, Held<P::Msg>>,"),
        (matching(&code, r"^type Held<"), r"^type Held<M> = Vec<\(ProcessId, Arc<M>\)>;"),
        (block(&code, r"^enum Handoff"), r"pending: Vec<\(ProcessId, SkewEnvelope<P::Msg>\)>"),
        (block(&session, r"^pub struct Instance"), r"inbox: Vec<\(ProcessId, Arc<P::Msg>\)>"),
    ];
    for (within, field) in held {
        assert!(
            matching(&within, field).len() == 1,
            "`{field}` must hold the handle in:{}",
            report(&within)
        );
    }
}

/// One virtual clock: a lockstep run is the discrete-event loop — no wave
/// loop, no lane transport, no outbox-tampering wrappers.
#[test]
fn one_virtual_clock() {
    assert_none(
        r"LaneTransport|struct Lanes|TransformActor|send_only_to",
        &["crates", "src", "tests", "examples"],
    );
}

/// One fault plan: `CrashAt` and `Lossy` are engine fates and link-policy
/// layers read from the fault vector by `meba_testkit::with_faults`; no
/// fault wrappers; one per-sender policy factory on every backend.
#[test]
fn one_fault_plan() {
    assert_none(
        r"LossyLinkActor|CrashActor|AmnesiacActor|SharedPolicy|sim_builder",
        &["crates", "src", "tests", "examples", "README.md", "DESIGN.md", "docs"],
    );
}

/// One cluster builder: `meba-bench`'s runners build every cluster
/// through `meba-testkit`; its golden test pins the three engine
/// settings a fault plan sets (`corrupt`, `process_fate`, `link_policy`).
#[test]
fn one_cluster_builder() {
    assert_none(r"trusted_setup\(", &["crates/bench/src"]);
}

/// One lockstep entry: every lockstep run goes through `run_des_cluster`
/// (or the testkit's `des`) and runs to completion — no stepped façade,
/// no second builder of the run settings `DesConfig` holds.
#[test]
fn one_lockstep_entry() {
    assert_none(
        r"\b(SimBuilder|Simulation|RunError)\b|run_until_done|testkit::sim\(",
        &["crates", "src", "tests", "examples", "README.md", "DESIGN.md"],
    );
}

/// One slot path: retired names stay retired; a slot's decision is stored
/// once in `meba-smr` and becomes state through `ServiceReplica::apply`
/// only; the service asks the log's schedule, never re-derives it.
#[test]
fn one_slot_path() {
    assert_none(
        r"accept_unsolicited|Gradecast|GcSend|GcValSig|slot_cfg\b|apply_transferred|replay_op",
        &["crates", "src", "tests", "examples", "README.md", "DESIGN.md", "docs"],
    );
    const SERVICE: &[&str] = &["crates/service/src"];
    assert_count(r"self\.kv\.insert\(", SERVICE, 1);
    assert_count(r"&Record::Committed", SERVICE, 1);
    assert_count(r"&Record::Transferred", SERVICE, 1);
    // `admit`'s idempotent re-ack, and `apply`.
    assert_count(r"push_event\(ServiceReply::Committed", SERVICE, 2);
    assert_count(r"1_000_003", &["crates", "tests", "examples"], 1);
    assert_none(
        r"applied: BTreeSet|entries: BTreeMap|\.values\(\)\.cloned\(\)\.collect\(\)",
        &["crates/service/src/replica.rs", "crates/smr/src/log.rs"],
    );
    assert_none(r"stride\(\)", SERVICE);
}

/// One overrun-free rerun: only `meba_testkit::overrun_free` reads a
/// wall-clock run's zero overrun count as "inside the model".
#[test]
fn one_overrun_free_rerun() {
    assert_one_line_in(
        r"overruns == 0",
        &["crates", "tests", "examples"],
        "crates/testkit/src/wall_clock.rs",
    );
}

/// One declaration per message: each wire type's words, signatures,
/// component and codec are derived by `wire_schema!` from its one
/// declaration, and no hand-written copy sits beside it. The protocol
/// families, the service, transfer and handshake frames, and the fallback's
/// instance ids are all declared; a hand-written `WireCodec` is left only
/// where the schema cannot reach: the crypto leaves and `Record` and
/// `SessionEnvelope`, whose crates sit below `meba-core`, and test fixtures.
#[test]
fn one_declaration_per_message() {
    let families = [
        "crates/core/src/bb.rs",
        "crates/core/src/weak_ba.rs",
        "crates/core/src/strong_ba.rs",
        "crates/core/src/fallback.rs",
        "crates/core/src/signing.rs",
        "crates/core/src/subprotocol.rs",
        "crates/fallback/src/messages.rs",
        "crates/fallback/src/instance.rs",
        "crates/service/src/batch.rs",
        "crates/service/src/protocol.rs",
        "crates/service/src/replica.rs",
        "crates/service/src/transfer.rs",
        "crates/smr/src/log.rs",
        "crates/wire/src/handshake.rs",
    ];
    let code: Vec<Hit> = families.iter().flat_map(|f| non_test(f)).collect();
    let hits = matching(
        &code,
        r"fn (words|constituent_sigs|component|session|encode_wire|decode_wire|wire_len|wire_bytes|put_field|get_field|field_len)\b",
    );
    assert!(hits.is_empty(), "hand-written message impls beside the schema:{}", report(&hits));
    assert_count(r"fn words\(&self\) -> u64 \{", &["crates", "src", "tests", "examples"], 20);

    let allowed = [
        "crates/bench/benches/hotpath.rs: HotMsg",
        "crates/core/src/schema.rs: $($ty)*",
        "crates/crypto/src/encoding.rs: Digest",
        "crates/crypto/src/encoding.rs: ProcessId",
        "crates/crypto/src/pki.rs: AggregateSignature",
        "crates/crypto/src/pki.rs: Signature",
        "crates/crypto/src/pki.rs: ThresholdSignature",
        "crates/journal/src/record.rs: Record",
        "crates/sim/src/session.rs: Ping",
        "crates/sim/src/session.rs: SessionEnvelope<M>",
    ];
    let mut codecs: Vec<String> =
        grep(r"impl\b.*\bWireCodec for ", &["crates", "src", "tests", "examples"])
            .iter()
            .map(|h| {
                let ty = h.text.split("WireCodec for ").nth(1).unwrap_or("");
                format!("{}: {}", h.path, ty.trim_end_matches(['{', ' ']))
            })
            .collect();
    codecs.sort();
    assert_eq!(codecs, allowed, "hand-written WireCodec impls beside the schema");
}

/// CHANGES.md is a log, not a report: from PR 46 on an entry is at most
/// 4,000 bytes and each `FOUND:`/`MENDED:` note at most 1,000; longer
/// evidence goes to EXPERIMENTS.md.
#[test]
fn changes_entries_stay_short() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("CHANGES.md");
    let long = long_changes_items(&fs::read_to_string(path).unwrap());
    assert!(long.is_empty(), "CHANGES.md items over their cap:{}", long.concat());
    // Every route around the caps is caught, and only from PR 46 on.
    let x = |n: usize| "x".repeat(n);
    for text in [
        format!("- PR 46: {}", x(4000)),
        format!("- PR 46: a\n- {}", x(4000)),
        format!("- PR 46: a\n  {}", x(4000)),
        format!("- PR 46: a\nFOUND: {}", x(1000)),
        format!("- PR 46: a\nMENDED: a\n- {}", x(1000)),
    ] {
        assert_eq!(long_changes_items(&text).len(), 1, "{text:.30}");
    }
    let within = format!("- PR 46: {}\nFOUND: {}\n- PR 45: {}", x(3990), x(990), x(9000));
    assert!(long_changes_items(&within).is_empty());
}

/// The CHANGES.md items from PR 46 on that exceed their cap. An entry
/// opens with `- PR <n>`; a `FOUND:`/`MENDED:` note belongs to the entry
/// above it; every other line continues the item above it.
fn long_changes_items(text: &str) -> Vec<String> {
    let mut items: Vec<(u32, usize, usize)> = Vec::new(); // (PR, cap, bytes)
    for line in text.lines() {
        let pr = line
            .strip_prefix("- PR ")
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok());
        let note = line.starts_with("FOUND:") || line.starts_with("MENDED:");
        let owner = pr.or(items.last().map(|item| item.0)).unwrap_or(0);
        match items.last_mut() {
            Some((_, _, bytes)) if pr.is_none() && !note => *bytes += 1 + line.len(),
            _ => items.push((owner, if note { 1000 } else { 4000 }, line.len())),
        }
    }
    items
        .iter()
        .filter(|&&(pr, cap, bytes)| pr >= 46 && bytes > cap)
        .map(|(pr, cap, bytes)| format!("\n  PR {pr}: {bytes} bytes > {cap}"))
        .collect()
}

/// The matcher reads the extended-regex subset the invariants use.
#[test]
fn the_matcher_reads_extended_regexes() {
    let cases = [
        (r"\b(bb|weak_ba)_(sim|des)\b", "let x = weak_ba_des(1);", true),
        (r"\b(bb|weak_ba)_(sim|des)\b", "let x = weak_ba_des_timed(1);", false),
        (r"\b(bb|weak_ba)_(sim|des)\b", "let x = abb_sim;", false),
        (r"\bMux\b", "struct Mux;", true),
        (r"\bMux\b", "MuxHost", false),
        (r"words <= [0-9]+ \*", "assert!(words <= 25 * n)", true),
        (r"words <= [0-9]+ \*", "assert!(words <= n * 25)", false),
        (r"ThresholdSignature \{ *(threshold|\.\.)", "ThresholdSignature {  ..x }", true),
        (r"ThresholdSignature \{ *(threshold|\.\.)", "ThresholdSignature { signers }", false),
        (r"inbox: &\[\(ProcessId, [^&]", "inbox: &[(ProcessId, Msg)],", true),
        (r"inbox: &\[\(ProcessId, [^&]", "inbox: &[(ProcessId, &Msg)],", false),
        (r"mac.update\(msg\)", "mac.update(msg);", true),
        (r"slot_cfg\b", "slot_cfgs", false),
        (r"^    fn dispatch", "    fn dispatch(", true),
        (r"^    fn dispatch", "        fn dispatch(", false),
        (r"a?b+c*$", "xbbb", true),
    ];
    for (pattern, line, expected) in cases {
        assert_eq!(Regex::new(pattern).is_match(line), expected, "`{pattern}` on {line:?}");
    }
}

/// A parsed extended regular expression: alternatives of sequences.
struct Regex {
    alts: Vec<Seq>,
    anchored: bool,
    /// The characters every match starts with, where the pattern says:
    /// only those positions are tried.
    first: Option<Vec<char>>,
}

type Seq = Vec<(Node, Rep)>;

enum Node {
    Char(char),
    Any,
    /// Inclusive ranges; `true` when negated.
    Class(Vec<(char, char)>, bool),
    Group(Vec<Seq>),
    WordBoundary,
    End,
}

#[derive(Clone, Copy)]
enum Rep {
    One,
    Opt,
    Star,
    Plus,
}

impl Regex {
    fn new(pattern: &str) -> Regex {
        let (anchored, body) = match pattern.strip_prefix('^') {
            Some(rest) => (true, rest),
            None => (false, pattern),
        };
        let mut p = Parser { s: body.chars().collect(), i: 0 };
        let alts = p.alternatives();
        assert_eq!(p.i, p.s.len(), "unbalanced `)` in `{pattern}`");
        let first = first_chars(&alts);
        Regex { alts, anchored, first }
    }

    /// Whether the pattern matches anywhere in `line`.
    fn is_match(&self, line: &str) -> bool {
        let t: Vec<char> = line.chars().collect();
        let starts = if self.anchored { 0..=0 } else { 0..=t.len() };
        starts
            .filter(|&i| {
                self.first.as_ref().is_none_or(|f| t.get(i).is_some_and(|c| f.contains(c)))
            })
            .any(|i| self.alts.iter().any(|seq| seq_at(seq, &t, i, &mut |_| true)))
    }
}

/// The characters a match of any of `alts` can start with, if each
/// alternative begins (after any `\b`) with a literal or a group of them.
fn first_chars(alts: &[Seq]) -> Option<Vec<char>> {
    let first = |seq: &Seq| {
        let (node, rep) = seq.iter().find(|(node, _)| !matches!(node, Node::WordBoundary))?;
        match (node, rep) {
            (Node::Char(c), Rep::One | Rep::Plus) => Some(vec![*c]),
            (Node::Group(alts), Rep::One | Rep::Plus) => first_chars(alts),
            _ => None,
        }
    };
    alts.iter().map(first).collect::<Option<Vec<_>>>().map(|v| v.concat())
}

struct Parser {
    s: Vec<char>,
    i: usize,
}

impl Parser {
    fn alternatives(&mut self) -> Vec<Seq> {
        let mut alts = vec![self.sequence()];
        while self.s.get(self.i) == Some(&'|') {
            self.i += 1;
            alts.push(self.sequence());
        }
        alts
    }

    fn sequence(&mut self) -> Seq {
        let mut seq = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            if c == '|' || c == ')' {
                break;
            }
            self.i += 1;
            let node = match c {
                '.' => Node::Any,
                '$' => Node::End,
                '(' => {
                    let group = self.alternatives();
                    assert_eq!(self.s.get(self.i), Some(&')'), "unclosed `(`");
                    self.i += 1;
                    Node::Group(group)
                }
                '[' => self.class(),
                '\\' => {
                    self.i += 1;
                    match self.s[self.i - 1] {
                        'b' => Node::WordBoundary,
                        escaped => Node::Char(escaped),
                    }
                }
                c => Node::Char(c),
            };
            let rep = match self.s.get(self.i) {
                Some('?') => Rep::Opt,
                Some('*') => Rep::Star,
                Some('+') => Rep::Plus,
                _ => Rep::One,
            };
            if !matches!(rep, Rep::One) {
                self.i += 1;
            }
            seq.push((node, rep));
        }
        seq
    }

    fn class(&mut self) -> Node {
        let negated = self.s.get(self.i) == Some(&'^');
        if negated {
            self.i += 1;
        }
        let mut ranges = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            if c == ']' {
                return Node::Class(ranges, negated);
            }
            if self.s.get(self.i) == Some(&'-') && self.s.get(self.i + 1).is_some_and(|&e| e != ']')
            {
                ranges.push((c, self.s[self.i + 1]));
                self.i += 2;
            } else {
                ranges.push((c, c));
            }
        }
        panic!("unclosed `[`");
    }
}

/// Matches `seq` at `i`, handing every end position to `k` until it
/// accepts one (backtracking).
fn seq_at(seq: &[(Node, Rep)], t: &[char], i: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
    let Some(((node, rep), rest)) = seq.split_first() else { return k(i) };
    match rep {
        Rep::One => node_at(node, t, i, &mut |j| seq_at(rest, t, j, k)),
        Rep::Opt => node_at(node, t, i, &mut |j| seq_at(rest, t, j, k)) || seq_at(rest, t, i, k),
        Rep::Star => repeat_at(node, rest, t, i, 0, k),
        Rep::Plus => repeat_at(node, rest, t, i, 1, k),
    }
}

/// Greedy repetition of `node`, at least `min` times, then `rest`.
fn repeat_at(
    node: &Node,
    rest: &[(Node, Rep)],
    t: &[char],
    i: usize,
    min: usize,
    k: &mut dyn FnMut(usize) -> bool,
) -> bool {
    node_at(node, t, i, &mut |j| j > i && repeat_at(node, rest, t, j, min.saturating_sub(1), k))
        || (min == 0 && seq_at(rest, t, i, k))
}

fn node_at(node: &Node, t: &[char], i: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
    let word = |c: Option<&char>| c.is_some_and(|c| c.is_alphanumeric() || *c == '_');
    match node {
        Node::Char(c) => t.get(i) == Some(c) && k(i + 1),
        Node::Any => i < t.len() && k(i + 1),
        Node::Class(ranges, negated) => {
            t.get(i).is_some_and(|&c| ranges.iter().any(|&(a, b)| a <= c && c <= b) != *negated)
                && k(i + 1)
        }
        Node::Group(alts) => alts.iter().any(|seq| seq_at(seq, t, i, k)),
        Node::WordBoundary => (i > 0 && word(t.get(i - 1))) != word(t.get(i)) && k(i),
        Node::End => i == t.len() && k(i),
    }
}
