//! Symbol tables: atom and functor interning.
//!
//! On the real KCM the symbol tables live in the static data zone and are
//! managed by the language subsystem; the simulator keeps them host-side
//! (only their *indices* circulate in tagged words), which changes nothing
//! observable — a word's value part is an opaque table index either way.

use std::collections::HashMap;
use std::sync::Arc;

/// An interned atom (index into the atom table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(u32);

impl AtomId {
    /// Builds an id from a raw table index.
    #[inline]
    pub const fn new(index: usize) -> AtomId {
        AtomId(index as u32)
    }

    /// The table index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned functor: a (name, arity) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctorId(u32);

impl FunctorId {
    /// Builds an id from a raw table index.
    #[inline]
    pub const fn new(index: usize) -> FunctorId {
        FunctorId(index as u32)
    }

    /// The table index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// One layer of a [`SymbolTable`]: the atoms and functors interned into
/// it, with ids continuing from the layer below. Opaque; exposed so that
/// holders of tables can tell (with [`Arc::ptr_eq`] on
/// [`SymbolTable::base_layer`]) whether two tables share their base.
#[derive(Debug, Clone, Default)]
pub struct SymbolLayer {
    atoms: Vec<String>,
    atom_index: HashMap<String, AtomId>,
    functors: Vec<(AtomId, u8)>,
    functor_index: HashMap<(AtomId, u8), FunctorId>,
}

impl SymbolLayer {
    fn is_empty(&self) -> bool {
        self.atoms.is_empty() && self.functors.is_empty()
    }

    /// Appends the layer directly above this one; its ids already
    /// continue this layer's, so every id is kept.
    fn absorb(&mut self, top: SymbolLayer) {
        self.atoms.extend(top.atoms);
        self.atom_index.extend(top.atom_index);
        self.functors.extend(top.functors);
        self.functor_index.extend(top.functor_index);
    }
}

/// Interning table for atoms and functors.
///
/// A table is two layers: a frozen base behind an [`Arc`] and a small
/// owned top. Ids are dense and stable: the base's ids come first, then
/// the top's. Interning a new symbol adds it to the top, lookups read
/// both layers, and [`SymbolTable::freeze`] merges the top into the base
/// keeping every id. Cloning copies only the top, so a query's private
/// table costs what the query interns, not what the program did.
///
/// # Examples
///
/// ```
/// use kcm_arch::SymbolTable;
/// let mut syms = SymbolTable::new();
/// let foo = syms.atom("foo");
/// assert_eq!(syms.atom("foo"), foo);
/// let f2 = syms.functor("f", 2);
/// assert_eq!(syms.functor_name(f2), "f");
/// assert_eq!(syms.functor_arity(f2), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    base: Arc<SymbolLayer>,
    top: SymbolLayer,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Merges the top layer into the base, keeping every id. A base this
    /// table owns alone takes the top in place; an empty base is replaced
    /// by the top (a move); a shared base is copied first.
    pub fn freeze(&mut self) {
        if self.top.is_empty() {
            return;
        }
        let top = std::mem::take(&mut self.top);
        if self.base.is_empty() {
            self.base = Arc::new(top);
        } else {
            Arc::make_mut(&mut self.base).absorb(top);
        }
    }

    /// The frozen base layer, shared by every clone of this table.
    pub fn base_layer(&self) -> &Arc<SymbolLayer> {
        &self.base
    }

    /// Number of symbols (atoms plus functors) in the top layer — what
    /// this table holds above its shared base.
    pub fn top_len(&self) -> usize {
        self.top.atoms.len() + self.top.functors.len()
    }

    /// Interns an atom, returning its stable id.
    pub fn atom(&mut self, name: &str) -> AtomId {
        if let Some(id) = self.find_atom(name) {
            return id;
        }
        let id = AtomId::new(self.atom_count());
        self.top.atoms.push(name.to_owned());
        self.top.atom_index.insert(name.to_owned(), id);
        id
    }

    /// Looks up an atom without interning it.
    pub fn find_atom(&self, name: &str) -> Option<AtomId> {
        self.base
            .atom_index
            .get(name)
            .or_else(|| self.top.atom_index.get(name))
            .copied()
    }

    /// The print name of an atom.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this table.
    pub fn atom_name(&self, id: AtomId) -> &str {
        let split = self.base.atoms.len();
        match id.index().checked_sub(split) {
            None => &self.base.atoms[id.index()],
            Some(i) => &self.top.atoms[i],
        }
    }

    /// Interns a functor (name/arity pair).
    pub fn functor(&mut self, name: &str, arity: u8) -> FunctorId {
        let atom = self.atom(name);
        self.functor_of(atom, arity)
    }

    /// Interns a functor from an already-interned atom.
    pub fn functor_of(&mut self, atom: AtomId, arity: u8) -> FunctorId {
        let key = (atom, arity);
        if let Some(&id) = self
            .base
            .functor_index
            .get(&key)
            .or_else(|| self.top.functor_index.get(&key))
        {
            return id;
        }
        let id = FunctorId::new(self.functor_count());
        self.top.functors.push(key);
        self.top.functor_index.insert(key, id);
        id
    }

    /// The (name atom, arity) pair of a functor.
    fn functor_key(&self, id: FunctorId) -> (AtomId, u8) {
        let split = self.base.functors.len();
        match id.index().checked_sub(split) {
            None => self.base.functors[id.index()],
            Some(i) => self.top.functors[i],
        }
    }

    /// The functor's name atom.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this table.
    pub fn functor_atom(&self, id: FunctorId) -> AtomId {
        self.functor_key(id).0
    }

    /// The functor's print name.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this table.
    pub fn functor_name(&self, id: FunctorId) -> &str {
        self.atom_name(self.functor_atom(id))
    }

    /// The functor's arity.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this table.
    pub fn functor_arity(&self, id: FunctorId) -> u8 {
        self.functor_key(id).1
    }

    /// Number of interned atoms.
    pub fn atom_count(&self) -> usize {
        self.base.atoms.len() + self.top.atoms.len()
    }

    /// Number of interned functors.
    pub fn functor_count(&self) -> usize {
        self.base.functors.len() + self.top.functors.len()
    }

    /// The atom spellings in id order, both layers (snapshot writer).
    pub(crate) fn raw_atoms(&self) -> impl Iterator<Item = &str> {
        self.base
            .atoms
            .iter()
            .chain(&self.top.atoms)
            .map(String::as_str)
    }

    /// The functor (atom, arity) pairs in id order, both layers
    /// (snapshot writer).
    pub(crate) fn raw_functors(&self) -> impl Iterator<Item = &(AtomId, u8)> {
        self.base.functors.iter().chain(&self.top.functors)
    }

    /// Rebuilds a frozen table from snapshot-restored raw parts,
    /// reconstructing the intern indices.
    pub(crate) fn from_raw(atoms: Vec<String>, functors: Vec<(AtomId, u8)>) -> SymbolTable {
        let atom_index = atoms
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), AtomId::new(i)))
            .collect();
        let functor_index = functors
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, FunctorId::new(i)))
            .collect();
        SymbolTable {
            base: Arc::new(SymbolLayer {
                atoms,
                atom_index,
                functors,
                functor_index,
            }),
            top: SymbolLayer::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_are_interned_once() {
        let mut t = SymbolTable::new();
        let a = t.atom("hello");
        let b = t.atom("hello");
        let c = t.atom("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.atom_count(), 2);
        assert_eq!(t.atom_name(a), "hello");
    }

    #[test]
    fn functors_distinguish_arity() {
        let mut t = SymbolTable::new();
        let f1 = t.functor("f", 1);
        let f2 = t.functor("f", 2);
        assert_ne!(f1, f2);
        assert_eq!(t.functor_name(f1), "f");
        assert_eq!(t.functor_arity(f2), 2);
        assert_eq!(t.functor_atom(f1), t.functor_atom(f2));
    }

    #[test]
    fn layers_keep_ids_across_clone_and_freeze() {
        let mut base = SymbolTable::new();
        let a = base.atom("a");
        let fa = base.functor("f", 1);
        base.freeze();
        assert_eq!(base.top_len(), 0);
        let mut q = base.clone();
        assert!(Arc::ptr_eq(q.base_layer(), base.base_layer()));
        assert_eq!(q.atom("a"), a, "base atoms resolve through the top");
        let b = q.atom("b");
        let gb = q.functor("g", 2);
        assert_eq!(b.index(), 2, "top ids continue the base's (a, f)");
        assert_eq!(q.top_len(), 3);
        assert_eq!(base.find_atom("b"), None, "the base is untouched");
        let mut frozen = q.clone();
        frozen.freeze();
        assert_eq!(frozen.top_len(), 0);
        for t in [&q, &frozen] {
            assert_eq!(t.atom_name(b), "b");
            assert_eq!(t.functor_name(fa), "f");
            assert_eq!(t.functor_name(gb), "g");
            assert_eq!(t.functor_arity(gb), 2);
            assert_eq!(t.atom_count(), 4);
        }
        assert_eq!(base.atom_count(), 2);
    }

    #[test]
    fn find_atom_does_not_intern() {
        let mut t = SymbolTable::new();
        assert_eq!(t.find_atom("x"), None);
        let id = t.atom("x");
        assert_eq!(t.find_atom("x"), Some(id));
    }
}
