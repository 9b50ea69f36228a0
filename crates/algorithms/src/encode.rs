//! Encoding invocations as [`Value`]s so they can be stored in announce
//! registers (Figure 1 needs processes to write the operations they are about
//! to perform into shared memory).

use evlin_spec::{Invocation, Value};

/// Encodes an invocation as a value: a pair of the method name and the
/// argument list.
pub(crate) fn encode_invocation(invocation: &Invocation) -> Value {
    Value::pair(
        Value::sym(invocation.method()),
        Value::List(invocation.args().to_vec()),
    )
}

/// Decodes a value produced by [`encode_invocation`].
///
/// Returns `None` if the value does not have the expected shape.
pub(crate) fn decode_invocation(value: &Value) -> Option<Invocation> {
    let (method, args) = value.as_pair()?;
    let method = match method {
        Value::Sym(s) => s.clone(),
        _ => return None,
    };
    let args = args.as_list()?.to_vec();
    Some(Invocation::new(method, args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_spec::{FetchIncrement, Register};

    #[test]
    fn round_trips() {
        for inv in [
            FetchIncrement::fetch_inc(),
            Register::write(Value::from(3i64)),
            Invocation::binary("cas", Value::from(0i64), Value::from(1i64)),
        ] {
            let encoded = encode_invocation(&inv);
            assert_eq!(decode_invocation(&encoded), Some(inv));
        }
    }

    #[test]
    fn rejects_malformed_values() {
        assert_eq!(decode_invocation(&Value::Unit), None);
        assert_eq!(
            decode_invocation(&Value::pair(Value::from(3i64), Value::list([]))),
            None
        );
        assert_eq!(
            decode_invocation(&Value::pair(Value::sym("read"), Value::Unit)),
            None
        );
    }
}
