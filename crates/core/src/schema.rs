//! One declaration per wire message: [`wire_schema!`](crate::wire_schema).
//!
//! A wire type is declared once, inside the schema: its type definition
//! with docs, each variant's wire tag, its fields in wire order, and what
//! it costs: a component string or the inner message it delegates to for
//! a message family, nothing more for a type carried inside messages, and
//! no cost at all for a frame that is never billed.
//!
//! # The cost rule
//!
//! The paper's model (§2): a word is a constant number of signatures and
//! values, and every message costs at least one. A message costs
//! `max(1, Σ fields)` words and `Σ fields` signatures, each field billed
//! by its role: [`Meta`], [`Val`], [`Signed`], [`Msg`] or [`Bytes`]. An
//! option costs its content when present, a pair its halves, and a
//! length-prefixed vector its elements; the count itself, like a tag, is
//! free.
//!
//! A field's role follows from its type. Where the type alone is
//! ambiguous the declaration names the role with `as`, or the field does
//! not compile: a `u32` or `u64` is both a [`Value`] and a counter, so a
//! phase is `phase: u32 as Meta`; a [`BbBaValue`](crate::BbBaValue) is a
//! [`Value`] that carries a signature, so BB's vetting messages bill it
//! `as Signed`; a `Vec<u8>` is a value, a vector of counters and a byte
//! string, so a byte string is `as Bytes`. Roles nest as their types do:
//! `Option<u64> as Option<Meta>`, `Vec<(u64, Vec<u8>)> as Vec<(Meta,
//! Bytes)>`. A field typed by a protocol's generic value `V` is always
//! [`Val`]: a signature inside a weak BA value is billed its word but not
//! counted as a signature.

use crate::value::Value;
use std::sync::Arc;

#[doc(hidden)]
pub use meba_crypto::{encoding::len, DecodeError, Decoder, Encoder, WireCodec, WordCost};
#[doc(hidden)]
pub use meba_sim::Message;

/// Role of a field that identifies rather than carries (a phase, level,
/// instance, `ProcessId`, `vstep` or wire tag): it costs nothing.
pub struct Meta;

/// Role of an agreement value (`V`, `bool`): it costs `value_words()` and
/// no signature.
pub struct Val;

/// Role of a signature, threshold signature or aggregate, or of a
/// certificate declared here: it costs its [`WordCost`], one word and its
/// constituent signatures.
pub struct Signed;

/// Role of an embedded message, inline or behind an `Arc`: it costs what
/// the message costs.
pub struct Msg;

/// Role of a byte string (`Vec<u8>`): its length is one word, and every 8
/// bytes of it, or part thereof, another.
pub struct Bytes;

/// How a field of role `R` is encoded, sized and billed. The one trait
/// every field type of a [`wire_schema!`](crate::wire_schema) implements;
/// a field costs nothing unless its role says otherwise.
pub trait Field<R>: Sized {
    /// Writes the field's canonical encoding.
    fn put_field(&self, enc: &mut Encoder);
    /// Reads the field back.
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;
    /// Length of the field's encoding in bytes, without encoding it.
    fn field_len(&self) -> u64;
    /// Words the field costs.
    fn field_words(&self) -> u64 {
        0
    }
    /// Individual signatures the field carries.
    fn field_sigs(&self) -> u64 {
        0
    }
}

/// Counters and identities as [`Meta`] fields.
macro_rules! meta_field {
    ($($t:ty: $put:ident, $get:ident, $len:expr;)*) => {$(
        impl Field<Meta> for $t {
            fn put_field(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                dec.$get()
            }
            fn field_len(&self) -> u64 {
                $len
            }
        }
    )*};
}

meta_field! {
    u32: put_u32, get_u32, len::U32;
    u64: put_u64, get_u64, len::U64;
    meba_crypto::ProcessId: put_id, get_id, len::ID;
}

/// A small counter travels as a `u32`; a decoded one above 255 is refused.
impl Field<Meta> for u8 {
    fn put_field(&self, enc: &mut Encoder) {
        enc.put_u32(u32::from(*self));
    }
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        u8::try_from(dec.get_u32()?).map_err(|_| DecodeError::Invalid { what: "u8 field > 255" })
    }
    fn field_len(&self) -> u64 {
        len::U32
    }
}

impl Field<Bytes> for Vec<u8> {
    fn put_field(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_bytes()
    }
    fn field_len(&self) -> u64 {
        len::bytes(self.len())
    }
    fn field_words(&self) -> u64 {
        1 + (self.len() as u64).div_ceil(8)
    }
}

impl<V: Value> Field<Val> for V {
    fn put_field(&self, enc: &mut Encoder) {
        self.encode_value(enc);
    }
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        V::decode_value(dec)
    }
    fn field_len(&self) -> u64 {
        self.value_len()
    }
    fn field_words(&self) -> u64 {
        self.value_words()
    }
}

impl<T: WordCost + WireCodec> Field<Signed> for T {
    fn put_field(&self, enc: &mut Encoder) {
        self.encode_wire(enc);
    }
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        T::decode_wire(dec)
    }
    fn field_len(&self) -> u64 {
        self.wire_len()
    }
    fn field_words(&self) -> u64 {
        WordCost::words(self)
    }
    fn field_sigs(&self) -> u64 {
        WordCost::constituent_sigs(self)
    }
}

impl<M: Message + WireCodec> Field<Msg> for M {
    fn put_field(&self, enc: &mut Encoder) {
        self.encode_wire(enc);
    }
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        M::decode_wire(dec)
    }
    fn field_len(&self) -> u64 {
        self.wire_len()
    }
    fn field_words(&self) -> u64 {
        Message::words(self)
    }
    fn field_sigs(&self) -> u64 {
        Message::constituent_sigs(self)
    }
}

/// The handle is invisible to the codec and to the word count.
impl<R, T: Field<R>> Field<Arc<R>> for Arc<T> {
    fn put_field(&self, enc: &mut Encoder) {
        T::put_field(self, enc);
    }
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        T::get_field(dec).map(Arc::new)
    }
    fn field_len(&self) -> u64 {
        T::field_len(self)
    }
    fn field_words(&self) -> u64 {
        T::field_words(self)
    }
    fn field_sigs(&self) -> u64 {
        T::field_sigs(self)
    }
}

/// An optional field (a decision and its proof, a certificate): a
/// presence byte, then the content if present.
impl<R, T: Field<R>> Field<Option<R>> for Option<T> {
    fn put_field(&self, enc: &mut Encoder) {
        enc.put_option(self, |e, x| x.put_field(e));
    }
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_option(T::get_field)
    }
    fn field_len(&self) -> u64 {
        len::PRESENCE + self.as_ref().map_or(0, T::field_len)
    }
    fn field_words(&self) -> u64 {
        self.as_ref().map_or(0, T::field_words)
    }
    fn field_sigs(&self) -> u64 {
        self.as_ref().map_or(0, T::field_sigs)
    }
}

/// Two fields in a row.
impl<RA, RB, A: Field<RA>, B: Field<RB>> Field<(RA, RB)> for (A, B) {
    fn put_field(&self, enc: &mut Encoder) {
        self.0.put_field(enc);
        self.1.put_field(enc);
    }
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::get_field(dec)?, B::get_field(dec)?))
    }
    fn field_len(&self) -> u64 {
        self.0.field_len() + self.1.field_len()
    }
    fn field_words(&self) -> u64 {
        self.0.field_words() + self.1.field_words()
    }
    fn field_sigs(&self) -> u64 {
        self.0.field_sigs() + self.1.field_sigs()
    }
}

/// A `u64` count, then the elements. Decoding reserves nothing from the
/// count it reads: every element encodes to at least one byte, so a count
/// beyond the bytes left is refused before the first element is read.
impl<R, T: Field<R>> Field<Vec<R>> for Vec<T> {
    fn put_field(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for x in self {
            x.put_field(enc);
        }
    }
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = dec.get_u64()?;
        if count > dec.remaining() as u64 {
            return Err(DecodeError::Invalid { what: "vector count exceeds the frame" });
        }
        let mut out = Vec::new();
        for _ in 0..count {
            out.push(T::get_field(dec)?);
        }
        Ok(out)
    }
    fn field_len(&self) -> u64 {
        len::U64 + self.iter().map(T::field_len).sum::<u64>()
    }
    fn field_words(&self) -> u64 {
        self.iter().map(T::field_words).sum()
    }
    fn field_sigs(&self) -> u64 {
        self.iter().map(T::field_sigs).sum()
    }
}

/// Declares a wire type once and derives its codec and its cost.
///
/// Derives [`WireCodec`], with `wire_len` summed per field and no
/// encoding, and what the declaration's kind names:
/// - `Message`, a message family: its cost, component and session (see
///   the [module docs](crate::schema) for the cost rule);
/// - `WordCost`, a type carried inside messages: its cost;
/// - `WireCodec`, a frame that is never billed: nothing more. Embedded in
///   another declaration it is a [`Meta`] field.
///
/// A role is named bare, `as Meta`, with nothing to import, and nests as
/// its type does: `as Option<Meta>`.
///
/// ```text
/// wire_schema! {
///     pub enum Family<V: Value, FM: Message + WireCodec>: Message {
///         0 => Variant { phase: u32 as Meta, value: V, sig: Signature } in "component",
///         1 => Inner(Embedded<FM>),            // delegates to a Message
///     }
/// }
/// wire_schema! {
///     pub struct Proof: WordCost { pub level: u32 as Meta, pub qc: ThresholdSignature }
/// }
/// wire_schema! {
///     pub struct Wrapped<V: Value>(pub V): Message in "component";
/// }
/// wire_schema! {
///     pub enum Mode: WireCodec { 0 => Fast, 1 => Slow }
/// }
/// ```
///
/// An enum encodes its variant's tag as a `u32`, then the fields in
/// order; an unknown tag decodes to `DecodeError::Invalid` naming the
/// enum. A struct encodes its fields only; its component is a string or
/// the name of the `Arc<M>` field whose message it delegates to. A
/// delegating variant or struct takes its inner message's component and
/// session.
#[macro_export]
macro_rules! wire_schema {
    // The role a field is billed in: the declared one, or its type's.
    (@role) => { _ };
    (@role $r:ty) => { $r };

    // Calls one `Field` method of a field of type `$t`.
    (@f $m:ident ($($arg:tt)*) $t:ty [$($r:ty)?]) => {
        <$t as $crate::schema::Field<$crate::wire_schema!(@role $($r)?)>>::$m($($arg)*)
    };

    // A component and session: a string and none, or those of the message
    // bound to `$x`.
    (@component $c:literal) => { $c };
    (@component $x:ident $($t:ty)?) => {{
        #[allow(unused_imports)]
        use $crate::schema::Message as _;
        $x.component()
    }};
    (@session $c:literal) => { None };
    (@session $x:ident $($t:ty)?) => {{
        #[allow(unused_imports)]
        use $crate::schema::Message as _;
        $x.session()
    }};

    // A struct decodes its fields; an enum its tag first.
    (@decode $dec:ident $name:ident [$($p:tt)+] { $($f:tt $t:ty [$($r:ty)?]),* }) => {
        Ok($($p)+ { $($f: $crate::wire_schema!(@f get_field ($dec) $t [$($r)?])?),* })
    };
    (@decode $dec:ident $name:ident
        $([$($p:tt)+] $tag:literal { $($f:tt $t:ty [$($r:ty)?]),* })+
    ) => {
        match $dec.get_u32()? {
            $($tag => Ok($($p)+ { $($f: $crate::wire_schema!(@f get_field ($dec) $t [$($r)?])?),* }),)+
            _ => Err($crate::schema::DecodeError::Invalid {
                what: concat!(stringify!($name), " variant tag"),
            }),
        }
    };

    // What the kind adds to the codec: a frame is a free field; a carried
    // type its cost; a message family its cost, component and session.
    (@cost [$($g:tt)*] [$($ty:tt)*] WireCodec $($arm:tt)*) => {
        impl $($g)* $crate::schema::Field<$crate::schema::Meta> for $($ty)* {
            fn put_field(&self, enc: &mut $crate::schema::Encoder) {
                $crate::schema::WireCodec::encode_wire(self, enc);
            }
            fn get_field(
                dec: &mut $crate::schema::Decoder<'_>,
            ) -> Result<Self, $crate::schema::DecodeError> {
                <Self as $crate::schema::WireCodec>::decode_wire(dec)
            }
            fn field_len(&self) -> u64 {
                $crate::schema::WireCodec::wire_len(self)
            }
        }
    };
    (@cost [$($g:tt)*] [$($ty:tt)*] $kind:ident
        $([$($p:tt)+] { $($f:tt $x:ident: $t:ty [$($r:ty)?]),* } ($($c:tt)*))+
    ) => {
        impl $($g)* $crate::schema::$kind for $($ty)* {
            fn words(&self) -> u64 {
                match self {$(
                    $($p)+ { $($f: $x),* } => ::core::cmp::max(
                        1,
                        0 $(+ $crate::wire_schema!(@f field_words ($x) $t [$($r)?]))*,
                    ),
                )+}
            }

            fn constituent_sigs(&self) -> u64 {
                match self {$(
                    $($p)+ { $($f: $x),* } => 0
                        $(+ $crate::wire_schema!(@f field_sigs ($x) $t [$($r)?]))*,
                )+}
            }

            $crate::wire_schema!(@message $kind $([$($p)+] { $($f: $x),* } ($($c)*))+);
        }
    };

    (@message WordCost $($arm:tt)*) => {};
    (@message Message $([$($p:tt)+] { $($f:tt: $x:ident),* } ($($c:tt)*))+) => {
        #[allow(unused_variables)]
        fn component(&self) -> &'static str {
            match self {
                $($($p)+ { $($f: $x),* } => $crate::wire_schema!(@component $($c)*),)+
            }
        }
        #[allow(unused_variables)]
        fn session(&self) -> Option<u64> {
            match self {
                $($($p)+ { $($f: $x),* } => $crate::wire_schema!(@session $($c)*),)+
            }
        }
        fn wire_bytes(&self) -> u64 {
            $crate::schema::WireCodec::wire_len(self)
        }
    };

    // Every shape ends here, one arm per variant (one for a struct):
    // `[pattern path] tag? { field binding: type [role], … } (component?)`.
    // The roles are in scope for the declared `as` roles to name.
    (@impl [$($g:tt)*] [$($ty:tt)*] $kind:ident $name:ident
        $([$($p:tt)+] $($tag:literal)? { $($f:tt $x:ident: $t:ty [$($r:ty)?]),* } ($($c:tt)*))+
    ) => {
        const _: () = {
            #[allow(unused_imports)]
            use $crate::schema::{Bytes, Meta, Msg, Signed, Val};

            impl $($g)* $crate::schema::WireCodec for $($ty)* {
                fn encode_wire(&self, enc: &mut $crate::schema::Encoder) {
                    match self {$(
                        $($p)+ { $($f: $x),* } => {
                            $(enc.put_u32($tag);)?
                            $($crate::wire_schema!(@f put_field ($x, enc) $t [$($r)?]);)*
                        }
                    )+}
                }

                fn decode_wire(
                    dec: &mut $crate::schema::Decoder<'_>,
                ) -> Result<Self, $crate::schema::DecodeError> {
                    $crate::wire_schema!(@decode dec $name
                        $([$($p)+] $($tag)? { $($f $t [$($r)?]),* })+)
                }

                fn wire_len(&self) -> u64 {
                    match self {$(
                        $($p)+ { $($f: $x),* } => 0
                            $(+ $crate::wire_schema!(@f field_len (&$tag) u32 [Meta]))?
                            $(+ $crate::wire_schema!(@f field_len ($x) $t [$($r)?]))*,
                    )+}
                }
            }

            $crate::wire_schema!(@cost [$($g)*] [$($ty)*] $kind
                $([$($p)+] { $($f $x: $t [$($r)?]),* } ($($c)*))+);
        };
    };

    // A tagged union. A variant has named fields, delegates to one inner
    // message, or is a unit.
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident $(<$($g:ident $(: $b0:ident $(+ $b:ident)*)?),+>)? : $kind:ident {
            $(
                $(#[$vattr:meta])*
                $tag:literal => $variant:ident
                $({ $($(#[$fattr:meta])* $field:ident : $fty:ty $(as $role:ty)?),* $(,)? }
                    $(in $comp:literal)?)?
                $(($inner:ty))?
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name $(<$($g),+>)? {
            $(
                $(#[$vattr])*
                $variant $({ $($(#[$fattr])* $field: $fty),* })? $(($inner))?,
            )*
        }

        $crate::wire_schema!(@impl
            [$(<$($g: $($b0 $(+ $b)*)?),+>)?] [$name $(<$($g),+>)?] $kind $name
            $(
                [Self::$variant] $tag {
                    $($($field $field: $fty [$($role)?]),*)?
                    $(0 inner: $inner [Msg])?
                } ($($($comp)?)? $(inner $inner)?)
            )*
        );
    };

    // A struct with named fields.
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident $(<$($g:ident $(: $b0:ident $(+ $b:ident)*)?),+>)? : $kind:ident {
            $($(#[$fattr:meta])* $fvis:vis $field:ident : $fty:ty $(as $role:ty)?),* $(,)?
        }
        $(in $comp:tt)?
    ) => {
        $(#[$attr])*
        $vis struct $name $(<$($g),+>)? {
            $($(#[$fattr])* $fvis $field: $fty),*
        }

        $crate::wire_schema!(@impl
            [$(<$($g: $($b0 $(+ $b)*)?),+>)?] [$name $(<$($g),+>)?] $kind $name
            [Self] { $($field $field: $fty [$($role)?]),* } ($($comp)?)
        );
    };

    // A struct with one unnamed field.
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident $(<$($g:ident $(: $b0:ident $(+ $b:ident)*)?),+>)?
            ($(#[$fattr:meta])* $fvis:vis $fty:ty $(as $role:ty)?) : $kind:ident
        $(in $comp:literal)?;
    ) => {
        $(#[$attr])*
        $vis struct $name $(<$($g),+>)? ($(#[$fattr])* $fvis $fty);

        $crate::wire_schema!(@impl
            [$(<$($g: $($b0 $(+ $b)*)?),+>)?] [$name $(<$($g),+>)?] $kind $name
            [Self] { 0 inner: $fty [$($role)?] } ($($comp)?)
        );
    };
}
