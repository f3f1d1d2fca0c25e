//! Unique validity as a design tool (paper §3): weak BA with the example
//! predicate "a value is valid if it is signed by at least `t + 1`
//! processes stating that this value was their initial value".
//!
//! With that predicate, unique validity yields exactly strong unanimity
//! on the underlying signed values — and Byzantine processes cannot
//! fabricate a valid value at all unless `t + 1` processes (hence at
//! least one correct) really attested to it.
//!
//! ```text
//! cargo run --example unique_validity
//! ```

use meba::prelude::*;
use meba_crypto::{DecodeError, Decoder, Encoder, Signable, ThresholdSignature};

/// The attested value: a `u64` together with a `(t+1, n)` certificate
/// that this many processes declared it as their initial value.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Attested {
    value: u64,
    cert: ThresholdSignature,
}

impl Value for Attested {
    fn encode_value(&self, enc: &mut Encoder) {
        enc.put_u64(self.value);
        self.cert.encode(enc);
    }
    fn decode_value(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let value = dec.get_u64()?;
        let cert = ThresholdSignature::decode(dec)?;
        Ok(Attested { value, cert })
    }
    fn value_words(&self) -> u64 {
        2
    }
}

/// Signed payload: "my initial value is v".
struct InitialSig {
    session: u64,
    value: u64,
}

impl Signable for InitialSig {
    const DOMAIN: &'static str = "example/initial-value";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        enc.put_u64(self.value);
    }
}

/// The §3 example predicate.
#[derive(Clone)]
struct AttestedValidity {
    cfg: SystemConfig,
    pki: Pki,
}

impl Validity<Attested> for AttestedValidity {
    fn validate(&self, v: &Attested) -> bool {
        v.cert.threshold() == self.cfg.idk_threshold()
            && self
                .pki
                .verify_threshold(
                    &InitialSig { session: self.cfg.session(), value: v.value }.signing_bytes(),
                    &v.cert,
                )
                .is_ok()
    }
}

type Wba = WeakBa<Attested, AttestedValidity, RecursiveBaFactory>;
type Msg = <Wba as SubProtocol>::Msg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0)?;
    let (pki, keys) = trusted_setup(n, 123);
    let shared_value = 5_000u64;

    // Setup phase (outside the BA, as §3 envisions): every process signs
    // its initial value; since all correct processes agree, a (t+1, n)
    // certificate for that value — and only that value — can be formed.
    let payload = InitialSig { session: cfg.session(), value: shared_value };
    let shares: Vec<_> = keys.iter().map(|k| k.sign(&payload.signing_bytes())).collect();
    let cert = pki.combine(cfg.idk_threshold(), &payload.signing_bytes(), &shares)?;
    let input = Attested { value: shared_value, cert };

    // Sanity: a forged attestation (wrong value) does not validate.
    let validity = AttestedValidity { cfg, pki: pki.clone() };
    let forged = Attested { value: 9_999, cert: input.cert.clone() };
    assert!(validity.validate(&input));
    assert!(!validity.validate(&forged));
    println!("predicate check: genuine attestation accepted, forged one rejected ✓\n");

    // Run weak BA over attested values, with two crashed processes.
    let crashed = [5u32, 6];
    let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        if crashed.contains(&(i as u32)) {
            actors.push(Box::new(IdleActor::new(id)));
            continue;
        }
        let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
        let wba = WeakBa::new(cfg, id, key, pki.clone(), validity.clone(), factory, input.clone());
        actors.push(Box::new(LockstepAdapter::new(id, wba)));
    }
    let corrupt = crashed.iter().map(|&c| ProcessId(c)).collect();
    let run = run_des_cluster(actors, None, DesConfig { corrupt, ..DesConfig::default() })?;
    assert!(run.completed, "every correct process finished its schedule");

    println!("weak BA over attested values (n = {n}, 2 crashed):");
    for i in (0..n as u32).filter(|i| !crashed.contains(i)) {
        let a: &LockstepAdapter<Wba> = run.actors[i as usize].as_any().downcast_ref().unwrap();
        let d = a.inner().output().unwrap();
        match &d {
            Decision::Value(att) => println!("  p{i}: decided attested value {}", att.value),
            Decision::Bot => println!("  p{i}: decided ⊥"),
        }
        assert_eq!(
            d.value().map(|a| a.value),
            Some(shared_value),
            "unique validity must deliver the attested value"
        );
    }
    println!(
        "\nBecause only one valid value exists in this run (the t+1-attested one),\n\
         unique validity forces every correct process to decide it — strong\n\
         unanimity recovered from a weak primitive, exactly as §3 describes."
    );
    Ok(())
}
