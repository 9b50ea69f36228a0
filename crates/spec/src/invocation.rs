//! Operation invocations.

use crate::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The method names of the eight object types this crate defines, spelled
/// once: the types build and match their invocations through these, and
/// [`VOCABULARY`] lists them all.
pub(crate) mod name {
    pub const FETCH_INC: &str = "fetch_inc";
    pub const READ: &str = "read";
    pub const WRITE: &str = "write";
    pub const CAS: &str = "cas";
    pub const PROPOSE: &str = "propose";
    pub const INC: &str = "inc";
    pub const ADD: &str = "add";
    pub const WRITE_MAX: &str = "write_max";
    pub const READ_MAX: &str = "read_max";
    pub const ENQUEUE: &str = "enqueue";
    pub const DEQUEUE: &str = "dequeue";
    pub const TEST_AND_SET: &str = "test_and_set";
}

/// The spec vocabulary: every method name of [`crate::Register`],
/// [`crate::FetchIncrement`], [`crate::Consensus`], [`crate::TestAndSet`],
/// [`crate::CompareAndSwap`], [`crate::Counter`], [`crate::Queue`] and
/// [`crate::MaxRegister`].
///
/// An [`Invocation`] of one of these names carries the name as its index
/// here ([`Invocation::vocabulary_index`]), whichever constructor and
/// whichever spelling (`&str`, `String`, bytes off a wire) it was built from;
/// any other name is carried as an `Arc<str>`.  The difference is cost only — equality, ordering and
/// hashing are by content.
pub static VOCABULARY: [&str; 12] = [
    name::FETCH_INC,
    name::READ,
    name::WRITE,
    name::CAS,
    name::PROPOSE,
    name::INC,
    name::ADD,
    name::WRITE_MAX,
    name::READ_MAX,
    name::ENQUEUE,
    name::DEQUEUE,
    name::TEST_AND_SET,
];

/// A method name: the index of a [`VOCABULARY`] entry, or a shared copy of
/// any other name.
#[derive(Clone)]
enum Method {
    Vocabulary(u8),
    Other(Arc<str>),
}

impl Method {
    fn resolve(name: &str) -> Self {
        match VOCABULARY.iter().position(|known| *known == name) {
            Some(index) => Method::Vocabulary(index as u8),
            None => Method::Other(Arc::from(name)),
        }
    }
}

/// An operation invocation: a method name together with its arguments.
///
/// Following the paper, "the name of an operation includes all of the
/// operation's arguments" — an `Invocation` is exactly that pairing, kept
/// structured so that specifications can pattern-match on the method name and
/// inspect the arguments.
///
/// A nullary invocation of a [`VOCABULARY`] method (`read()`, `fetch_inc()`,
/// …) is a plain value: building, cloning, sending across threads and
/// dropping it allocates nothing and touches no reference count.  That is
/// the shape of almost every event a monitored run records, and an event is
/// built on a producer thread and dropped on the checking thread.  Other
/// names and non-empty argument lists are reference-counted (`Arc<str>` /
/// `Arc<[Value]>`), so cloning — once per recorded event every time the
/// exhaustive explorer clones a configuration, and once per operation in
/// every checker's candidate table — is at most two reference-count bumps,
/// never a string or a vector allocation.
///
/// `Eq`, `Ord` and `Hash` are by content — `(method(), args())`, exactly
/// what deriving them on `{ method: Arc<str>, args: Arc<[Value]> }` gives —
/// because interned tables, Zobrist folds and checkpoint bytes are keyed on
/// them.
///
/// # Example
///
/// ```
/// use evlin_spec::{Invocation, Value};
///
/// let write = Invocation::unary("write", Value::from(7i64));
/// assert_eq!(write.method(), "write");
/// assert_eq!(write.arg(0), Some(&Value::from(7i64)));
/// ```
#[derive(Clone)]
pub struct Invocation {
    method: Method,
    /// `None` for the empty argument list; never `Some` of an empty one.
    args: Option<Arc<[Value]>>,
}

impl Invocation {
    fn build(method: &str, args: Option<Arc<[Value]>>) -> Self {
        Invocation {
            method: Method::resolve(method),
            args,
        }
    }

    /// Creates an invocation with an arbitrary argument list.
    pub fn new<S: AsRef<str>>(method: S, args: Vec<Value>) -> Self {
        Invocation::build(method.as_ref(), (!args.is_empty()).then(|| Arc::from(args)))
    }

    /// Creates an invocation with no arguments, e.g. `read()` or `fetch_inc()`.
    pub fn nullary<S: AsRef<str>>(method: S) -> Self {
        Invocation::build(method.as_ref(), None)
    }

    /// Creates an invocation with one argument, e.g. `write(v)` or `propose(v)`.
    pub fn unary<S: AsRef<str>>(method: S, arg: Value) -> Self {
        Invocation::build(method.as_ref(), Some(Arc::from([arg])))
    }

    /// Creates an invocation with two arguments, e.g. `cas(expected, new)`.
    pub fn binary<S: AsRef<str>>(method: S, a: Value, b: Value) -> Self {
        Invocation::build(method.as_ref(), Some(Arc::from([a, b])))
    }

    /// The method name, without arguments.
    pub fn method(&self) -> &str {
        match &self.method {
            Method::Vocabulary(index) => VOCABULARY[usize::from(*index)],
            Method::Other(name) => name,
        }
    }

    /// The method's position in [`VOCABULARY`], or `None` for any other
    /// name: read off the representation, since the name was resolved once
    /// when the invocation was built.
    pub fn vocabulary_index(&self) -> Option<usize> {
        match self.method {
            Method::Vocabulary(index) => Some(usize::from(index)),
            Method::Other(_) => None,
        }
    }

    /// All arguments, in order.
    pub fn args(&self) -> &[Value] {
        self.args.as_deref().unwrap_or_default()
    }

    /// The `i`-th argument, if present.
    pub fn arg(&self, i: usize) -> Option<&Value> {
        self.args().get(i)
    }
}

impl PartialEq for Invocation {
    fn eq(&self, other: &Self) -> bool {
        self.method() == other.method() && self.args() == other.args()
    }
}

impl Eq for Invocation {}

impl PartialOrd for Invocation {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Invocation {
    fn cmp(&self, other: &Self) -> Ordering {
        self.method()
            .cmp(other.method())
            .then_with(|| self.args().cmp(other.args()))
    }
}

impl Hash for Invocation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.method().hash(state);
        self.args().hash(state);
    }
}

impl fmt::Debug for Invocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Invocation")
            .field("method", &self.method())
            .field("args", &self.args())
            .finish()
    }
}

impl fmt::Display for Invocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.method())?;
        for (i, a) in self.args().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_store_arguments() {
        let i = Invocation::nullary("read");
        assert_eq!(i.method(), "read");
        assert!(i.args().is_empty());

        let i = Invocation::unary("write", Value::from(3i64));
        assert_eq!(i.args(), &[Value::from(3i64)]);

        let i = Invocation::binary("cas", Value::from(0i64), Value::from(1i64));
        assert_eq!(i.arg(0), Some(&Value::from(0i64)));
        assert_eq!(i.arg(1), Some(&Value::from(1i64)));
        assert_eq!(i.arg(2), None);
    }

    #[test]
    fn display_formats_like_a_call() {
        let i = Invocation::binary("cas", Value::from(0i64), Value::from(1i64));
        assert_eq!(format!("{i}"), "cas(0, 1)");
        assert_eq!(
            format!("{}", Invocation::nullary("fetch_inc")),
            "fetch_inc()"
        );
    }

    #[test]
    fn equality_includes_arguments() {
        let a = Invocation::unary("write", Value::from(1i64));
        let b = Invocation::unary("write", Value::from(2i64));
        assert_ne!(a, b);
        assert_eq!(a, Invocation::unary("write", Value::from(1i64)));
    }

    /// The bytes an invocation feeds a hasher.
    fn hashed_bytes(i: &Invocation) -> Vec<u8> {
        struct Bytes(Vec<u8>);
        impl Hasher for Bytes {
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
            fn finish(&self) -> u64 {
                0
            }
        }
        let mut bytes = Bytes(Vec::new());
        i.hash(&mut bytes);
        bytes.0
    }

    #[test]
    fn vocabulary_names_are_carried_static_from_any_spelling() {
        for known in VOCABULARY {
            for built in [
                Invocation::nullary(known),
                Invocation::nullary(String::from(known)),
                Invocation::new(known, Vec::new()),
                Invocation::unary(String::from(known), Value::Unit),
            ] {
                match built.method {
                    Method::Vocabulary(index) => {
                        assert_eq!(VOCABULARY[usize::from(index)], known)
                    }
                    Method::Other(_) => panic!("{known} was not resolved"),
                }
            }
        }
        for (index, known) in VOCABULARY.iter().enumerate() {
            assert_eq!(Invocation::nullary(known).vocabulary_index(), Some(index));
        }
        let other = Invocation::nullary("knock");
        assert!(matches!(other.method, Method::Other(_)));
        assert_eq!(other.vocabulary_index(), None);
        assert_eq!(other.method(), "knock");
        assert!(Invocation::new("read", Vec::new()).args.is_none());
    }

    #[test]
    fn the_representation_of_a_name_is_invisible() {
        let arg_lists: [Option<Arc<[Value]>>; 3] = [
            None,
            Some(Arc::from([Value::from(1i64)])),
            Some(Arc::from([Value::Bottom, Value::sym("x")])),
        ];
        for known in VOCABULARY {
            for args in &arg_lists {
                let fixed = Invocation::build(known, args.clone());
                let shared = Invocation {
                    method: Method::Other(Arc::from(known)),
                    args: args.clone(),
                };
                assert_eq!(fixed, shared);
                assert_eq!(fixed.cmp(&shared), Ordering::Equal);
                assert_eq!(shared.partial_cmp(&fixed), Some(Ordering::Equal));
                assert_eq!(hashed_bytes(&fixed), hashed_bytes(&shared));
                assert_eq!(format!("{fixed:?}"), format!("{shared:?}"));
            }
        }
    }
}
