//! The set of shared objects a history refers to.

use crate::ObjectId;
use evlin_spec::{ObjectType, Value};
use std::fmt;
use std::sync::Arc;

/// The finite collection of shared objects (type + chosen initial state) that
/// a history talks about.
///
/// Legality of sequential histories (and hence every consistency condition)
/// is defined relative to each object's sequential specification and initial
/// state; an `ObjectUniverse` bundles those so checkers can be called with a
/// history and a universe.
///
/// Note that the paper's Proposition 9 (locality of eventual linearizability)
/// requires the number of objects to be finite — which an `ObjectUniverse`
/// always is.  The counterexample with infinitely many registers is explored
/// in experiment E3 by sweeping the universe size.
#[derive(Clone, Default)]
pub struct ObjectUniverse {
    objects: Vec<(Arc<dyn ObjectType>, Value)>,
}

impl ObjectUniverse {
    /// Creates an empty universe.
    pub fn new() -> Self {
        ObjectUniverse {
            objects: Vec::new(),
        }
    }

    /// Adds an object of the given type, initialized to the type's first
    /// initial state, and returns its identifier.
    pub fn add_object<T: ObjectType + 'static>(&mut self, ty: T) -> ObjectId {
        let q0 = ty
            .initial_states()
            .into_iter()
            .next()
            .expect("object types must have at least one initial state");
        self.add_object_with_state(ty, q0)
    }

    /// Adds an object with an explicitly chosen initial state.
    pub fn add_object_with_state<T: ObjectType + 'static>(
        &mut self,
        ty: T,
        initial: Value,
    ) -> ObjectId {
        let id = ObjectId(self.objects.len());
        self.objects.push((Arc::new(ty), initial));
        id
    }

    /// Adds an already shared object type with an explicit initial state.
    pub fn add_shared(&mut self, ty: Arc<dyn ObjectType>, initial: Value) -> ObjectId {
        let id = ObjectId(self.objects.len());
        self.objects.push((ty, initial));
        id
    }

    /// The number of objects in the universe.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the universe contains no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The type of object `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an object of this universe.
    pub fn object_type(&self, id: ObjectId) -> &Arc<dyn ObjectType> {
        &self.objects[id.index()].0
    }

    /// The initial state of object `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an object of this universe.
    pub fn initial_state(&self, id: ObjectId) -> &Value {
        &self.objects[id.index()].1
    }

    /// Iterates over `(id, type, initial state)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &Arc<dyn ObjectType>, &Value)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, (ty, q0))| (ObjectId(i), ty, q0))
    }

    /// All object identifiers of the universe.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        (0..self.objects.len()).map(ObjectId).collect()
    }
}

impl fmt::Debug for ObjectUniverse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut dbg = f.debug_list();
        for (id, ty, q0) in self.iter() {
            dbg.entry(&format_args!("{id}: {} (init {q0})", ty.name()));
        }
        dbg.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_spec::{FetchIncrement, Register};

    #[test]
    fn add_and_query_objects() {
        let mut u = ObjectUniverse::new();
        assert!(u.is_empty());
        let r = u.add_object(Register::new(Value::from(0i64)));
        let f = u.add_object_with_state(FetchIncrement::new(), Value::from(5i64));
        assert_eq!(u.len(), 2);
        assert_eq!(r, ObjectId(0));
        assert_eq!(f, ObjectId(1));
        assert_eq!(u.object_type(r).name(), "register");
        assert_eq!(u.initial_state(f), &Value::from(5i64));
        assert_eq!(u.object_ids(), vec![ObjectId(0), ObjectId(1)]);
    }

    #[test]
    fn add_shared_reuses_arc() {
        let ty: Arc<dyn ObjectType> = Arc::new(Register::new(Value::from(0i64)));
        let mut u = ObjectUniverse::new();
        let a = u.add_shared(ty.clone(), Value::from(0i64));
        let b = u.add_shared(ty, Value::from(1i64));
        assert_ne!(a, b);
        assert_eq!(u.initial_state(b), &Value::from(1i64));
    }

    #[test]
    fn debug_output_mentions_types() {
        let mut u = ObjectUniverse::new();
        u.add_object(Register::new(Value::from(0i64)));
        let text = format!("{u:?}");
        assert!(text.contains("register"));
    }
}
