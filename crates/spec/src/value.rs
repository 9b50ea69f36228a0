//! Dynamic values used for states, invocation arguments and responses.

use std::fmt;

/// A dynamically typed value.
///
/// Object states, operation arguments and operation responses are all
/// represented as `Value`s so that [`crate::ObjectType`] can be implemented as
/// a trait object and histories can be stored uniformly regardless of the
/// object type they talk about.
///
/// The variants cover everything the paper's objects need: the unit response
/// of a `write`, integer counter values, booleans for compare&swap outcomes,
/// the distinguished bottom value `⊥` used by consensus and by announce
/// registers, symbolic labels, pairs and lists (used for compound object
/// states such as queue contents).
///
/// # Example
///
/// ```
/// use evlin_spec::Value;
///
/// let v = Value::list([Value::from(1i64), Value::Bottom]);
/// assert_eq!(format!("{v}"), "[1, ⊥]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// The unit value, used as the response of operations like `write`.
    #[default]
    Unit,
    /// The distinguished "bottom" value `⊥` (e.g. an undecided consensus
    /// object, or an empty announce slot).
    Bottom,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A symbolic label (used for process names in tests and for operation
    /// payloads that are easier to read as words).
    Sym(String),
    /// An ordered pair.
    Pair(Box<Value>, Box<Value>),
    /// A finite list.
    List(Vec<Value>),
}

impl Value {
    /// Builds a [`Value::List`] from anything iterable.
    ///
    /// ```
    /// use evlin_spec::Value;
    /// assert_eq!(Value::list([Value::Unit]), Value::List(vec![Value::Unit]));
    /// ```
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::List(items.into_iter().collect())
    }

    /// Builds a [`Value::Pair`].
    pub fn pair(a: Value, b: Value) -> Self {
        Value::Pair(Box::new(a), Box::new(b))
    }

    /// Builds a [`Value::Sym`] from a string-like argument.
    pub fn sym<S: Into<String>>(s: S) -> Self {
        Value::Sym(s.into())
    }

    /// Returns the integer payload if this value is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean payload if this value is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the list payload if this value is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the pair payload if this value is a [`Value::Pair`].
    pub fn as_pair(&self) -> Option<(&Value, &Value)> {
        match self {
            Value::Pair(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Returns `true` if this value is the bottom value `⊥`.
    pub fn is_bottom(&self) -> bool {
        matches!(self, Value::Bottom)
    }

    /// Returns `true` if this value is the unit value.
    pub(crate) fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::Int(i as i64)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Sym(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Sym(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bottom => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Sym(s) => write!(f, "{s}"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Value::from(5i64).as_int(), Some(5));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from("x"), Value::Sym("x".into()));
        assert_eq!(Value::from(7usize).as_int(), Some(7));
        assert_eq!(Value::from(7u64).as_int(), Some(7));
        assert_eq!(Value::from(-3i32).as_int(), Some(-3));
    }

    #[test]
    fn accessors_reject_wrong_variant() {
        assert_eq!(Value::Unit.as_int(), None);
        assert_eq!(Value::from(1i64).as_bool(), None);
        assert_eq!(Value::Bool(false).as_list(), None);
        assert_eq!(Value::Unit.as_pair(), None);
    }

    #[test]
    fn bottom_and_unit_predicates() {
        assert!(Value::Bottom.is_bottom());
        assert!(!Value::Unit.is_bottom());
        assert!(Value::Unit.is_unit());
        assert!(!Value::Bottom.is_unit());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(format!("{}", Value::Unit), "()");
        assert_eq!(format!("{}", Value::Bottom), "⊥");
        assert_eq!(format!("{}", Value::from(42i64)), "42");
        assert_eq!(
            format!("{}", Value::pair(Value::from(1i64), Value::from(2i64))),
            "(1, 2)"
        );
        assert_eq!(
            format!("{}", Value::list([Value::from(1i64), Value::Bottom])),
            "[1, ⊥]"
        );
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = vec![
            Value::from(3i64),
            Value::Unit,
            Value::Bottom,
            Value::from(1i64),
        ];
        vs.sort();
        // Just checks sorting doesn't panic and is deterministic.
        let again = {
            let mut v2 = vs.clone();
            v2.sort();
            v2
        };
        assert_eq!(vs, again);
    }

    #[test]
    fn default_is_unit() {
        assert_eq!(Value::default(), Value::Unit);
    }
}
