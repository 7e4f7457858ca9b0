//! The linked code image and its in-place mutation operations.
//!
//! [`CodeImage`] holds both representations of loaded code: the encoded
//! 64-bit words (what the code cache and the size accounting see) and the
//! decoded instructions at their word addresses (what both execution
//! tiers dispatch on). The compiler's linker builds images through the
//! builder methods ([`CodeImage::new`], [`CodeImage::place`],
//! [`CodeImage::emit`]); the snapshot module
//! ([`crate::snapshot`]) serializes and restores them; and the
//! incremental-update entry points ([`CodeImage::assert_fact_clause`],
//! [`CodeImage::retract_fact_clause`]) patch fact predicates without a
//! recompile — B-Prolog-style index maintenance over the switch tables.
//!
//! The image lives in `kcm-arch` rather than the compiler crate so that
//! snapshots and patching — pure image-structure concerns — need no
//! compiler dependency; the compiler re-exports these types under its
//! old paths.

use crate::addr::{CodeAddr, VAddr};
use crate::isa::Instr;
use crate::swindex::SwitchIndex;
use crate::symbol::SymbolTable;
use crate::word::Word;
use crate::zone::Zone;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A predicate identifier: name and arity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId {
    /// Predicate name.
    pub name: String,
    /// Predicate arity.
    pub arity: u8,
}

impl std::fmt::Display for PredId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

/// Target-machine compilation options. KCM's defaults enable everything;
/// the baseline machine models compile with their own settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Compile arithmetic natively onto the ALU/FPU (§4's "integer
    /// arithmetic" mode). Off for machines whose arithmetic goes through
    /// the escape mechanism (PLM) or a generic evaluator (Quintus).
    pub inline_arith: bool,
    /// Emit the `neck` instruction marking KCM's deferred-choice-point
    /// boundary (§3.1.5). Off for standard-WAM machines, which create
    /// choice points eagerly at `try`.
    pub deferred_choice_points: bool,
    /// Place ground compound literals in the static data area and refer
    /// to them with one constant-load — how KCM keeps a statically known
    /// list out of the code stream (§4.1 discusses the code-space
    /// trade-off against PLM's cdr-coding, which encodes such lists *in*
    /// the code at one instruction per cell).
    pub static_ground_literals: bool,
    /// Depth-2 fact indexing: for wide all-fact predicates whose clauses
    /// carry constant first *and* second arguments, emit a second-level
    /// switch on the second argument under each first-argument bucket
    /// (B-Prolog matching-tree shape), collapsing try/retry/trust chains
    /// for `fact(K1, K2)` point lookups.
    pub depth2_facts: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            inline_arith: true,
            deferred_choice_points: true,
            static_ground_literals: true,
            depth2_facts: true,
        }
    }
}

impl CompileOptions {
    /// The KCM configuration (same as [`Default`]).
    pub fn kcm() -> CompileOptions {
        CompileOptions::default()
    }

    /// A standard-WAM configuration: eager choice points, escape-based
    /// arithmetic.
    pub fn standard_wam() -> CompileOptions {
        CompileOptions {
            inline_arith: false,
            deferred_choice_points: false,
            static_ground_literals: false,
            depth2_facts: false,
        }
    }
}

/// Static code size of one predicate (a Table 1 row contribution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredSize {
    /// The predicate.
    pub id: PredId,
    /// Number of instructions.
    pub instrs: usize,
    /// Number of 64-bit code words (≥ instrs; switches are multi-word).
    pub words: usize,
    /// Whether this is a compiler-generated auxiliary.
    pub auxiliary: bool,
    /// First code word of the predicate.
    pub start: u32,
    /// One past the last code word of the predicate.
    pub end: u32,
}

/// Address of the global fail stub.
pub const FAIL_STUB: CodeAddr = CodeAddr::new(0);
/// Address of the halt-success stub (initial continuation of a query).
pub const HALT_STUB: CodeAddr = CodeAddr::new(1);
/// Address of the unknown-predicate stub (fails, with a link warning).
pub const UNKNOWN_STUB: CodeAddr = CodeAddr::new(2);
/// Entry of the `$call/1` meta-call trampoline: an escape that dispatches
/// the goal term in A1 (execute-style for user predicates, inline for
/// built-ins) followed by a `proceed` for the inline case.
pub const CALL_STUB: CodeAddr = CodeAddr::new(4);
/// First address available for program code.
pub const CODE_BASE: u32 = 8;
/// Switch tables with at least this many entries get a link-time hash
/// index; below it a linear scan is at worst as many probes as the hash
/// path would charge, so the side table buys nothing.
pub const HASH_INDEX_MIN_ENTRIES: usize = 8;
/// Base of the ground-literal area in the static data zone (leaving the
/// low words for system use).
pub const STATIC_DATA_BASE: VAddr = VAddr::new(Zone::Static.base().value() + 0x100);

/// Why an in-place image mutation could not be applied. The caller is
/// expected to fall back to recompiling the predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The predicate's compiled shape does not support in-place patching
    /// (not a pure constant-keyed fact predicate, or an unexpected code
    /// layout). The message names the first shape check that failed.
    Unsupported(String),
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::Unsupported(why) => {
                write!(f, "shape does not support in-place update: {why}")
            }
        }
    }
}

impl std::error::Error for PatchError {}

fn unsup(why: impl Into<String>) -> PatchError {
    PatchError::Unsupported(why.into())
}

/// Power-of-two instruction granularity of lazy snapshot decoding: 2^15
/// instructions per chunk keeps a chunk's decode under a millisecond
/// while a million-fact image still amortizes the per-chunk bookkeeping
/// over ~150 chunks.
pub(crate) const LAZY_CHUNK_SHIFT: u32 = 15;

/// Lazily decoded instruction storage restored from a snapshot: the
/// encoded word stream plus the word offset of each chunk's first
/// instruction, with each chunk's decoded instructions materialized on
/// first touch. The snapshot loader scan-validates the entire stream
/// ([`Instr::scan`]) before constructing this, so chunk decoding is
/// infallible — an image restored from hostile bytes can never panic
/// later, it is rejected at load.
#[derive(Debug)]
pub(crate) struct LazyCode {
    stream: Vec<u64>,
    /// Word offset of chunk `c`'s first instruction; chunk `c` covers
    /// instruction indices `c << SHIFT .. min((c + 1) << SHIFT, count)`.
    chunk_offsets: Vec<usize>,
    chunks: Vec<OnceLock<Box<[Instr]>>>,
    count: usize,
}

impl LazyCode {
    /// Lazy storage over a scan-validated stream. `chunk_offsets[c]` must
    /// be the word offset of instruction `c << LAZY_CHUNK_SHIFT`.
    pub(crate) fn new(stream: Vec<u64>, chunk_offsets: Vec<usize>, count: usize) -> LazyCode {
        debug_assert_eq!(chunk_offsets.len(), count.div_ceil(1 << LAZY_CHUNK_SHIFT));
        let chunks = (0..chunk_offsets.len()).map(|_| OnceLock::new()).collect();
        LazyCode {
            stream,
            chunk_offsets,
            chunks,
            count,
        }
    }

    /// Rebuilds the encoded words image — the stream scattered to its
    /// addresses, stub sites (< [`CODE_BASE`]) and padding gaps zero.
    /// This is the deferred load path of a snapshot whose words section
    /// was omitted; out-of-bounds sites (possible only in hostile bytes)
    /// are skipped rather than trusted.
    pub(crate) fn scatter_words(&self, len: usize, addrs: &[u32]) -> Vec<u64> {
        let mut words = vec![0u64; len];
        let mut pos = 0usize;
        for &a in addrs.iter().take(self.count) {
            let used = Instr::scan(&self.stream[pos..]).expect("stream was scan-validated at load");
            let a = a as usize;
            if a >= CODE_BASE as usize {
                if let Some(site) = words.get_mut(a..a + used) {
                    site.copy_from_slice(&self.stream[pos..pos + used]);
                }
            }
            pos += used;
        }
        words
    }

    fn chunk(&self, c: usize) -> &[Instr] {
        self.chunks[c].get_or_init(|| {
            let start = c << LAZY_CHUNK_SHIFT;
            let n = ((c + 1) << LAZY_CHUNK_SHIFT).min(self.count) - start;
            let word_end = self
                .chunk_offsets
                .get(c + 1)
                .copied()
                .unwrap_or(self.stream.len());
            let mut out = Vec::with_capacity(n);
            let mut pos = self.chunk_offsets[c];
            for _ in 0..n {
                let (instr, used) = Instr::decode(&self.stream[pos..word_end])
                    .expect("stream was scan-validated at load");
                pos += used;
                out.push(instr);
            }
            out.into_boxed_slice()
        })
    }

    #[inline]
    fn get(&self, idx: usize) -> &Instr {
        assert!(idx < self.count, "instruction index out of range");
        &self.chunk(idx >> LAZY_CHUNK_SHIFT)[idx & ((1usize << LAZY_CHUNK_SHIFT) - 1)]
    }
}

/// Decoded-instruction storage behind a [`CodeLayer`]: a plain vector for
/// freshly linked code, or chunk-lazy decoding over a snapshot's encoded
/// stream — what lets a million-fact snapshot restore without paying to
/// decode five million instructions up front. Indexing reads through
/// either representation; any mutation (push, `IndexMut`) forces full
/// materialization first, so patched images behave exactly like linked
/// ones.
#[derive(Debug, Clone)]
pub(crate) enum CodeStore {
    Eager(Vec<Instr>),
    /// `Arc` so the words store of the same snapshot shares the stream.
    Lazy(Arc<LazyCode>),
}

impl CodeStore {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            CodeStore::Eager(v) => v.len(),
            CodeStore::Lazy(l) => l.count,
        }
    }

    pub(crate) fn iter(&self) -> Box<dyn Iterator<Item = &Instr> + '_> {
        match self {
            CodeStore::Eager(v) => Box::new(v.iter()),
            CodeStore::Lazy(l) => Box::new((0..l.chunks.len()).flat_map(|c| l.chunk(c).iter())),
        }
    }

    pub(crate) fn push(&mut self, instr: Instr) {
        self.force_mut().push(instr);
    }

    /// Full materialization for mutation: a lazy store becomes eager
    /// (decoding every untouched chunk) the first time the image is
    /// patched, after which reads and writes are plain vector accesses.
    fn force_mut(&mut self) -> &mut Vec<Instr> {
        if let CodeStore::Lazy(l) = self {
            let mut v = Vec::with_capacity(l.count);
            for c in 0..l.chunks.len() {
                v.extend_from_slice(l.chunk(c));
            }
            *self = CodeStore::Eager(v);
        }
        match self {
            CodeStore::Eager(v) => v,
            CodeStore::Lazy(_) => unreachable!("just forced eager"),
        }
    }
}

impl std::ops::Index<usize> for CodeStore {
    type Output = Instr;
    #[inline]
    fn index(&self, idx: usize) -> &Instr {
        match self {
            CodeStore::Eager(v) => &v[idx],
            CodeStore::Lazy(l) => l.get(idx),
        }
    }
}

impl std::ops::IndexMut<usize> for CodeStore {
    fn index_mut(&mut self, idx: usize) -> &mut Instr {
        &mut self.force_mut()[idx]
    }
}

/// Encoded-words storage behind a [`CodeLayer`]: a plain vector for
/// linked (and mutated) code, or a deferred rebuild from the lazy code
/// stream for snapshots whose words section was omitted. Execution never
/// reads the words image — only the linker, the snapshot writer, and
/// diagnostics do — so a restored image typically never pays for it.
#[derive(Debug, Clone)]
pub(crate) enum WordStore {
    Eager(Vec<u64>),
    Lazy {
        code: Arc<LazyCode>,
        len: usize,
        cache: OnceLock<Vec<u64>>,
    },
}

impl WordStore {
    pub(crate) fn lazy(code: Arc<LazyCode>, len: usize) -> WordStore {
        WordStore::Lazy {
            code,
            len,
            cache: OnceLock::new(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            WordStore::Eager(v) => v.len(),
            WordStore::Lazy { len, .. } => *len,
        }
    }
}

/// Tables derived from one layer's code, built on first use. A clone of
/// a layer — the copy-on-write of a shared base — starts with an empty
/// cache, and every mutation of a layer clears its cache, so a table is
/// never carried past the code it was derived from.
#[derive(Debug, Default)]
struct LayerCache {
    /// Per local stream index: the fall-through address (`addr + size`,
    /// low 32 bits) and its local stream index (high 32 bits), packed so
    /// the native hot loop pays one load per step. `u32::MAX` in the high
    /// half means the fall-through is not an instruction of this layer —
    /// the end of a base layer, where the layer above may continue — and
    /// the machine must take the checked lookup.
    resolved_next: OnceLock<Box<[u64]>>,
}

impl Clone for LayerCache {
    fn clone(&self) -> LayerCache {
        LayerCache::default()
    }
}

/// One layer of a [`CodeImage`]: a contiguous run of code words and
/// decoded instructions, with the entries, size records, warnings and
/// static literals that were linked into it.
///
/// A layer covers word addresses `word_base..word_base + words` and
/// global stream indices `index_base..index_base + instrs`; the frozen
/// base layer of an image starts at zero and the image's top layer starts
/// where the base ends. The type is opaque: it is exposed only so that
/// holders of images can tell (with [`Arc::ptr_eq`] on
/// [`CodeImage::base_layer`]) whether two images share their base.
#[derive(Debug, Clone)]
pub struct CodeLayer {
    word_base: u32,
    index_base: u32,
    instrs: CodeStore,
    /// Word address of each instruction in `instrs` (sorted).
    addrs: Vec<u32>,
    /// Dense map `addr - word_base` → local index into `instrs`
    /// (`u32::MAX` = not an instruction start). Dense because the
    /// machine consults it on every taken branch.
    addr_index: Vec<u32>,
    /// Link-time hash side table, parallel to `instrs`: wide
    /// `switch_on_constant` / `switch_on_structure` tables get an
    /// open-addressing index here so dispatch is O(1) instead of a
    /// linear scan.
    switch_index: Vec<Option<Arc<SwitchIndex>>>,
    /// Encoded words from `word_base` on.
    words: WordStore,
    entries: HashMap<(String, u8), CodeAddr>,
    sizes: Vec<PredSize>,
    warnings: Vec<String>,
    /// Static literals, placed after the layer below's.
    static_data: Vec<Word>,
    cache: LayerCache,
}

impl CodeLayer {
    /// An empty layer starting at word address `word_base` and global
    /// stream index `index_base`.
    fn empty(word_base: u32, index_base: u32) -> CodeLayer {
        CodeLayer {
            word_base,
            index_base,
            instrs: CodeStore::Eager(Vec::new()),
            addrs: Vec::new(),
            addr_index: Vec::new(),
            switch_index: Vec::new(),
            words: WordStore::Eager(Vec::new()),
            entries: HashMap::new(),
            sizes: Vec::new(),
            warnings: Vec::new(),
            static_data: Vec::new(),
            cache: LayerCache::default(),
        }
    }

    /// An empty layer continuing right after `below`.
    fn above(below: &CodeLayer) -> CodeLayer {
        CodeLayer::empty(
            below.len_words() as u32,
            below.index_base + below.instrs.len() as u32,
        )
    }

    fn is_empty(&self) -> bool {
        self.instrs.len() == 0
            && self.words.len() == 0
            && self.entries.is_empty()
            && self.sizes.is_empty()
            && self.warnings.is_empty()
            && self.static_data.is_empty()
    }

    /// One past the layer's last word address.
    #[inline]
    fn len_words(&self) -> usize {
        self.word_base as usize + self.words.len()
    }

    /// Local index of the instruction starting at `addr`, if it is one of
    /// this layer's.
    #[inline]
    fn local(&self, addr: CodeAddr) -> Option<usize> {
        let rel = addr.value().wrapping_sub(self.word_base) as usize;
        match self.addr_index.get(rel) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }

    #[inline]
    fn instr_at(&self, addr: CodeAddr) -> Option<&Instr> {
        self.local(addr).map(|i| &self.instrs[i])
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            WordStore::Eager(v) => v,
            WordStore::Lazy { code, len, cache } => {
                cache.get_or_init(|| code.scatter_words(*len, &self.addrs))
            }
        }
    }

    /// The words as a mutable vector, materializing a lazy store first
    /// (any mutation leaves the layer eager, like [`CodeStore`]).
    fn words_mut(&mut self) -> &mut Vec<u64> {
        if let WordStore::Lazy { code, len, cache } = &mut self.words {
            let v = cache
                .take()
                .unwrap_or_else(|| code.scatter_words(*len, &self.addrs));
            self.words = WordStore::Eager(v);
        }
        match &mut self.words {
            WordStore::Eager(v) => v,
            WordStore::Lazy { .. } => unreachable!("just forced eager"),
        }
    }

    /// The native tier's fall-through table (see [`LayerCache`]), built
    /// on first use.
    fn resolved_next(&self) -> &[u64] {
        self.cache.resolved_next.get_or_init(|| {
            self.instrs
                .iter()
                .zip(&self.addrs)
                .map(|(instr, &addr)| {
                    let next = addr + instr.size_words() as u32;
                    let next_idx = self
                        .local(CodeAddr::new(next))
                        .map_or(u32::MAX, |i| i as u32);
                    u64::from(next) | (u64::from(next_idx) << 32)
                })
                .collect()
        })
    }

    /// Records a decoded instruction at `addr` without touching the
    /// words. Builds the hash side table for wide switch tables.
    fn place(&mut self, addr: CodeAddr, instr: Instr) {
        debug_assert!(addr.value() >= self.word_base, "placed below the layer");
        let at = (addr.value() - self.word_base) as usize;
        if self.addr_index.len() <= at {
            self.addr_index.resize(at + 1, u32::MAX);
        }
        self.addr_index[at] = self.instrs.len() as u32;
        self.addrs.push(addr.value());
        let side = match &instr {
            Instr::SwitchOnConstant { table, .. } if table.len() >= HASH_INDEX_MIN_ENTRIES => {
                Some(Arc::new(SwitchIndex::for_constants(table)))
            }
            Instr::SwitchOnStructure { table, .. } if table.len() >= HASH_INDEX_MIN_ENTRIES => {
                Some(Arc::new(SwitchIndex::for_structures(table)))
            }
            _ => None,
        };
        self.switch_index.push(side);
        self.instrs.push(instr);
        self.cache = LayerCache::default();
    }

    /// Encodes `instr` at `addr` (the current end of the layer — layout
    /// is dense) and places it.
    fn emit(&mut self, addr: CodeAddr, instr: Instr) {
        let at = (addr.value() - self.word_base) as usize;
        let words = self.words_mut();
        if words.len() < at {
            words.resize(at, 0);
        }
        debug_assert_eq!(words.len(), at, "layout must be dense");
        instr.encode(words);
        self.place(addr, instr);
    }

    /// Appends the layer directly above this one, keeping every address,
    /// stream index and symbol reference it holds.
    fn absorb(&mut self, top: CodeLayer) {
        debug_assert_eq!(top.word_base as usize, self.len_words());
        debug_assert_eq!(top.index_base, self.index_base + self.instrs.len() as u32);
        let local_base = self.instrs.len() as u32;
        let words = self.words_mut();
        words.extend_from_slice(top.words());
        let rel_top = (top.word_base - self.word_base) as usize;
        self.addr_index.resize(rel_top, u32::MAX);
        self.addr_index.extend(top.addr_index.iter().map(|&i| {
            if i == u32::MAX {
                i
            } else {
                i + local_base
            }
        }));
        self.addrs.extend_from_slice(&top.addrs);
        self.switch_index.extend(top.switch_index);
        let instrs = self.instrs.force_mut();
        match top.instrs {
            CodeStore::Eager(v) => instrs.extend(v),
            lazy @ CodeStore::Lazy(_) => instrs.extend(lazy.iter().cloned()),
        }
        self.entries.extend(top.entries);
        self.sizes.extend(top.sizes);
        self.warnings.extend(top.warnings);
        self.static_data.extend(top.static_data);
        self.cache = LayerCache::default();
    }
}

/// A linked, loaded code image.
///
/// Holds both representations of the code: the encoded 64-bit words (what
/// the code cache and the size accounting see) and the decoded
/// instructions at their word addresses (what the simulator executes).
///
/// An image is two layers: a frozen base behind an [`Arc`] and a small
/// owned top. Linking appends to the top; [`CodeImage::freeze`] merges
/// the top into the base. Cloning copies only the top, so a query image
/// — the program's frozen image plus a `$query` predicate in its top —
/// costs what the query costs, not what the program does. Reads fall
/// through from top to base, and an entry in the top shadows the same
/// entry in the base. The in-place mutations ([`CodeImage::assert_fact_clause`]
/// and friends) freeze first and patch the base, copying it when it is
/// shared.
///
/// After an in-place table patch that *grows* a switch table
/// ([`CodeImage::assert_fact_clause`]), the encoded words at that switch's
/// site are stale — the decoded instruction (which both execution tiers
/// dispatch on) is authoritative, and table switches never fall through to
/// their sequential successor, so only the cycle tier's code-fetch
/// accounting at that site is approximate. All other patches re-encode
/// their (fixed-size) site in place.
#[derive(Debug, Clone)]
pub struct CodeImage {
    base: Arc<CodeLayer>,
    top: CodeLayer,
    query_vars: Vec<String>,
    aux_round: u32,
    options: CompileOptions,
    static_base: VAddr,
}

/// The native tier's dispatch view of one image: per layer, the decoded
/// instructions, the resolved fall-through table and the address index.
///
/// The hot loop runs inside one layer at a time, in that layer's local
/// stream indices, exactly as over a flat image; only when control
/// leaves the layer does it pick the next one ([`Dispatch::layer_of`]).
#[derive(Debug, Clone, Copy)]
pub struct Dispatch<'a> {
    layers: [DispatchLayer<'a>; 2],
    /// First word address of the top layer.
    split_words: u32,
}

/// One layer of a [`Dispatch`] view.
///
/// A fall-through entry packs the address execution reaches when the
/// instruction does not transfer control (low 32 bits) and that
/// address's local stream index in the same layer (high 32 bits;
/// `u32::MAX` when it is not an instruction of this layer — the end of
/// a base layer, which the layer above may continue — and the caller
/// must take the checked lookup).
#[derive(Debug, Clone, Copy)]
pub struct DispatchLayer<'a> {
    instrs: CodeView<'a>,
    next: &'a [u64],
    addr_index: &'a [u32],
    word_base: u32,
    index_base: u32,
}

/// A layer's decoded instructions, held inline in a [`DispatchLayer`] so
/// a fetch is one load away from the view.
#[derive(Debug, Clone, Copy)]
enum CodeView<'a> {
    Eager(&'a [Instr]),
    Lazy(&'a LazyCode),
}

impl<'a> CodeView<'a> {
    fn of(store: &'a CodeStore) -> CodeView<'a> {
        match store {
            CodeStore::Eager(v) => CodeView::Eager(v),
            CodeStore::Lazy(l) => CodeView::Lazy(l),
        }
    }
}

impl<'a> Dispatch<'a> {
    /// The layer holding word address `addr`.
    #[inline(always)]
    pub fn layer_of(&self, addr: CodeAddr) -> &DispatchLayer<'a> {
        &self.layers[usize::from(addr.value() >= self.split_words)]
    }
}

impl<'a> DispatchLayer<'a> {
    /// The local index of the instruction starting at `addr`, if it is
    /// one of this layer's.
    #[inline(always)]
    pub fn local(&self, addr: CodeAddr) -> Option<u32> {
        let rel = addr.value().wrapping_sub(self.word_base);
        match self.addr_index.get(rel as usize) {
            Some(&i) if i != u32::MAX => Some(i),
            _ => None,
        }
    }

    /// The instruction at local index `idx` and its packed fall-through
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline(always)]
    pub fn fetch(&self, idx: u32) -> (&'a Instr, u64) {
        let i = idx as usize;
        let instr = match self.instrs {
            CodeView::Eager(v) => &v[i],
            CodeView::Lazy(l) => l.get(i),
        };
        (instr, self.next[i])
    }

    /// The image-wide stream index of local index `idx`.
    #[inline(always)]
    pub fn global(&self, idx: u32) -> u32 {
        self.index_base + idx
    }
}

impl CodeImage {
    /// An empty image (no stubs, no code) compiled for `options`. The
    /// linker places the stub instructions and pads the stub words.
    pub fn new(options: CompileOptions) -> CodeImage {
        CodeImage {
            base: Arc::new(CodeLayer::empty(0, 0)),
            top: CodeLayer::empty(0, 0),
            query_vars: Vec::new(),
            aux_round: 0,
            options,
            static_base: STATIC_DATA_BASE,
        }
    }

    // ----------------------------------------------------------- layers

    /// Merges the top layer into the base, keeping every address, stream
    /// index and entry. A base this image owns alone takes the top in
    /// place; an empty base is replaced by the top (a move); a shared base
    /// is copied first. Afterwards the top is empty, so a clone of the
    /// image costs O(1).
    pub fn freeze(&mut self) {
        if self.top.is_empty() {
            return;
        }
        let top = std::mem::replace(&mut self.top, CodeLayer::empty(0, 0));
        if self.base.is_empty() && top.word_base == 0 {
            self.base = Arc::new(top);
        } else {
            Arc::make_mut(&mut self.base).absorb(top);
        }
        self.top = CodeLayer::above(&self.base);
    }

    /// The frozen base layer, shared by every clone of this image.
    pub fn base_layer(&self) -> &Arc<CodeLayer> {
        &self.base
    }

    /// Number of instructions in the top layer — what this image holds
    /// above its shared base (a query image: the query's own code).
    pub fn top_instrs(&self) -> usize {
        self.top.instrs.len()
    }

    /// Runs an in-place mutation on the flat image: freezes, takes sole
    /// ownership of the base (copying a shared one), drops its derived
    /// tables, and re-opens an empty top above the result.
    fn mutate<R>(&mut self, f: impl FnOnce(&mut CodeLayer) -> R) -> R {
        self.freeze();
        let base = Arc::make_mut(&mut self.base);
        base.cache = LayerCache::default();
        let r = f(base);
        self.top = CodeLayer::above(&self.base);
        r
    }

    /// The layer holding word address `addr`.
    #[inline]
    fn layer_of_addr(&self, addr: CodeAddr) -> &CodeLayer {
        if addr.value() < self.top.word_base {
            &self.base
        } else {
            &self.top
        }
    }

    // ------------------------------------------------------------ reads

    /// The entry address of a predicate, if linked.
    pub fn entry(&self, name: &str, arity: u8) -> Option<CodeAddr> {
        let key = (name.to_owned(), arity);
        self.top
            .entries
            .get(&key)
            .or_else(|| self.base.entries.get(&key))
            .copied()
    }

    /// Every linked entry point, unordered (a top-layer entry shadows the
    /// base's).
    pub fn entries(&self) -> impl Iterator<Item = (&str, u8, CodeAddr)> {
        let shadowed = |k: &(String, u8)| self.top.entries.contains_key(k);
        self.top
            .entries
            .iter()
            .chain(self.base.entries.iter().filter(move |(k, _)| !shadowed(k)))
            .map(|((name, arity), addr)| (name.as_str(), *arity, *addr))
    }

    /// The decoded instruction starting at `addr`, if any.
    #[inline]
    pub fn instr_at(&self, addr: CodeAddr) -> Option<&Instr> {
        self.layer_of_addr(addr).instr_at(addr)
    }

    /// Index into the decoded instruction stream of the instruction
    /// starting at `addr` (the dense address-index lookup behind
    /// [`CodeImage::instr_at`]).
    #[inline]
    pub fn index_of(&self, addr: CodeAddr) -> Option<u32> {
        let layer = self.layer_of_addr(addr);
        layer.local(addr).map(|i| layer.index_base + i as u32)
    }

    /// The instruction at stream index `idx` (obtained from
    /// [`CodeImage::index_of`] or [`CodeImage::addr_at_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn instr_at_index(&self, idx: u32) -> &Instr {
        let split = self.top.index_base;
        if idx < split {
            &self.base.instrs[idx as usize]
        } else {
            &self.top.instrs[(idx - split) as usize]
        }
    }

    /// The word address of the instruction at stream index `idx`, if any.
    /// Instructions are laid out in address order, so the sequential
    /// successor of index `i` is index `i + 1` — the machine's
    /// fall-through dispatch validates its hint with this.
    #[inline]
    pub fn addr_at_index(&self, idx: u32) -> Option<u32> {
        let split = self.top.index_base;
        if idx < split {
            self.base.addrs.get(idx as usize).copied()
        } else {
            self.top.addrs.get((idx - split) as usize).copied()
        }
    }

    /// Number of decoded instructions in the stream, both layers (valid
    /// stream indices are `0..num_instrs`).
    #[inline]
    pub fn num_instrs(&self) -> usize {
        self.top.index_base as usize + self.top.instrs.len()
    }

    /// The link-time hash index of the switch instruction at stream index
    /// `idx`, if one was built (only wide `switch_on_constant` /
    /// `switch_on_structure` tables get one).
    #[inline]
    pub fn switch_index(&self, idx: u32) -> Option<&SwitchIndex> {
        let split = self.top.index_base;
        let side = if idx < split {
            self.base.switch_index.get(idx as usize)
        } else {
            self.top.switch_index.get((idx - split) as usize)
        };
        side.and_then(|s| s.as_deref())
    }

    /// The native tier's dispatch view. Each layer's fall-through table
    /// is built on first use and cached in the layer, so every machine
    /// loaded with an image over the same base shares the base's table.
    pub fn dispatch<'a>(&'a self) -> Dispatch<'a> {
        // An address index never reaches past its layer's words, so the
        // loop resolves every address to the layer `index_of` does (only
        // a hostile snapshot places instructions past its words).
        let view = |layer: &'a CodeLayer| DispatchLayer {
            instrs: CodeView::of(&layer.instrs),
            next: layer.resolved_next(),
            addr_index: &layer.addr_index[..layer.addr_index.len().min(layer.words.len())],
            word_base: layer.word_base,
            index_base: layer.index_base,
        };
        Dispatch {
            layers: [view(&self.base), view(&self.top)],
            split_words: self.top.word_base,
        }
    }

    /// The encoded code words (loader image), both layers. An image
    /// restored from a snapshot materializes them on first access
    /// (execution dispatches on decoded instructions, never on these
    /// words).
    pub fn words(&self) -> Cow<'_, [u64]> {
        concat(self.base.words(), self.top.words())
    }

    /// Total code length in words.
    pub fn len_words(&self) -> usize {
        self.top.len_words()
    }

    /// Per-predicate static sizes, in layout order.
    pub fn sizes(&self) -> impl Iterator<Item = &PredSize> {
        self.base.sizes.iter().chain(&self.top.sizes)
    }

    /// Link warnings (calls to undefined predicates, resolved to a stub
    /// that fails).
    pub fn warnings(&self) -> impl Iterator<Item = &str> {
        self.base
            .warnings
            .iter()
            .chain(&self.top.warnings)
            .map(String::as_str)
    }

    /// For query images: the reported variable names, in A1..An order.
    pub fn query_vars(&self) -> &[String] {
        &self.query_vars
    }

    /// The `$query/0` entry of a query image.
    pub fn query_entry(&self) -> Option<CodeAddr> {
        self.entry("$query", 0)
    }

    /// The target options this image was compiled with.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The linker round counter used to freshen auxiliary-predicate names
    /// across incremental links into the same image.
    pub fn aux_round(&self) -> u32 {
        self.aux_round
    }

    /// The assembled static data area (ground literals, both layers) and
    /// its base address: the loader installs these words before running.
    pub fn static_data(&self) -> (VAddr, Cow<'_, [Word]>) {
        (
            self.static_base,
            concat(&self.base.static_data, &self.top.static_data),
        )
    }

    /// The static-data address the next ground literal linked into this
    /// image goes to: right after both layers' literals.
    pub fn static_end(&self) -> VAddr {
        let len = self.base.static_data.len() + self.top.static_data.len();
        self.static_base.offset(len as i64)
    }

    /// The decoded instructions of one predicate (by its size record).
    pub fn instructions_of(&self, size: &PredSize) -> Vec<Instr> {
        let mut out = Vec::new();
        let mut addr = size.start;
        while addr < size.end {
            match self.instr_at(CodeAddr::new(addr)) {
                Some(i) => {
                    out.push(i.clone());
                    addr += i.size_words() as u32;
                }
                None => addr += 1,
            }
        }
        out
    }

    /// Disassembles the whole image.
    pub fn disassemble(&self, symbols: &SymbolTable) -> String {
        use std::fmt::Write;
        let mut rev: HashMap<u32, (&str, u8)> = HashMap::new();
        for (name, arity, addr) in self.entries() {
            rev.insert(addr.value(), (name, arity));
        }
        let mut out = String::new();
        for layer in [&*self.base, &self.top] {
            for (instr, &addr) in layer.instrs.iter().zip(&layer.addrs) {
                if let Some((name, arity)) = rev.get(&addr) {
                    let _ = writeln!(out, "{name}/{arity}:");
                }
                let text = match instr {
                    Instr::GetStructure { f, a } => format!(
                        "get_structure {}/{}, {a}",
                        symbols.functor_name(*f),
                        symbols.functor_arity(*f)
                    ),
                    Instr::PutStructure { f, a } => format!(
                        "put_structure {}/{}, {a}",
                        symbols.functor_name(*f),
                        symbols.functor_arity(*f)
                    ),
                    other => other.to_string(),
                };
                let _ = writeln!(out, "  {addr:6}  {text}");
            }
        }
        out
    }

    // ---------------------------------------------------------- builder

    /// Records a decoded instruction at `addr` in the top layer without
    /// touching the words (the stub words, for example, stay zero).
    /// Builds the hash side table for wide switch tables.
    pub fn place(&mut self, addr: CodeAddr, instr: Instr) {
        self.top.place(addr, instr);
    }

    /// Encodes `instr` into the top layer's words at `addr` (which must
    /// be the current end of the image — layout is dense) and places it.
    ///
    /// # Panics
    ///
    /// Debug-asserts dense layout.
    pub fn emit(&mut self, addr: CodeAddr, instr: Instr) {
        self.top.emit(addr, instr);
    }

    /// Pads the image with zero words up to `len` words (stub area).
    pub fn pad_words_to(&mut self, len: usize) {
        if self.len_words() < len {
            let rel = len - self.top.word_base as usize;
            self.top.words_mut().resize(rel, 0);
        }
    }

    /// Registers (or replaces) a predicate entry point. The entry lands
    /// in the top layer, shadowing any base entry of the same predicate.
    pub fn set_entry(&mut self, name: String, arity: u8, addr: CodeAddr) {
        self.top.entries.insert((name, arity), addr);
    }

    /// Removes one entry, returning its old address.
    pub fn remove_entry(&mut self, name: &str, arity: u8) -> Option<CodeAddr> {
        self.mutate(|flat| flat.entries.remove(&(name.to_owned(), arity)))
    }

    /// Appends a predicate-size record.
    pub fn push_size(&mut self, size: PredSize) {
        self.top.sizes.push(size);
    }

    /// Appends a link warning.
    pub fn push_warning(&mut self, warning: String) {
        self.top.warnings.push(warning);
    }

    /// Sets the reported query-variable names (query images).
    pub fn set_query_vars(&mut self, vars: Vec<String>) {
        self.query_vars = vars;
    }

    /// Bumps and returns the auxiliary-naming round counter.
    pub fn bump_aux_round(&mut self) -> u32 {
        self.aux_round += 1;
        self.aux_round
    }

    /// Appends ground-literal words at [`CodeImage::static_end`].
    pub fn extend_static_data(&mut self, words: Vec<Word>) {
        self.top.static_data.extend(words);
    }

    // -------------------------------------------- incremental mutation

    /// Appends one already-compiled fact clause to a constant-keyed fact
    /// predicate and patches its dispatch structures in place: the
    /// variable chain always gains the clause at the end (source order),
    /// and the first-level — and, under a depth-2 bucket, second-level —
    /// constant switch tables gain or extend the clause's key.
    ///
    /// `entry` is the predicate's entry address, `key1`/`key2` the
    /// clause's first/second-argument constants (`key2` only consulted
    /// when the first-level bucket dispatches on A2), and `clause` the
    /// compiled clause code (straight-line, as compiled for a multi-clause
    /// chain).
    ///
    /// # Errors
    ///
    /// [`PatchError::Unsupported`] when the predicate's compiled shape
    /// doesn't qualify; the image's contents are unchanged in that case
    /// and the caller should recompile the predicate instead.
    pub fn assert_fact_clause(
        &mut self,
        entry: CodeAddr,
        key1: Word,
        key2: Option<Word>,
        clause: &[Instr],
    ) -> Result<(), PatchError> {
        self.mutate(|flat| flat.assert_fact_clause(entry, key1, key2, clause))
    }

    /// Tombstones the first clause of a constant-keyed fact predicate
    /// whose code matches `clause` exactly: its first instruction becomes
    /// `fail`, which every dispatch path (tables, chain blocks, the
    /// variable chain) reaches and backtracks through. Returns whether a
    /// clause was removed.
    ///
    /// # Errors
    ///
    /// [`PatchError::Unsupported`] when the predicate's compiled shape
    /// doesn't qualify (the caller should recompile instead).
    pub fn retract_fact_clause(
        &mut self,
        entry: CodeAddr,
        clause: &[Instr],
    ) -> Result<bool, PatchError> {
        self.mutate(|flat| flat.retract_fact_clause(entry, clause))
    }

    /// Repoints every `call`/`execute` site targeting `old` to `new`,
    /// re-encoding each (one-word) site, and returns how many were
    /// patched. This is how a predicate recompiled at the end of the
    /// image takes over from its previous code.
    pub fn retarget_calls(&mut self, old: CodeAddr, new: CodeAddr) -> usize {
        self.mutate(|flat| flat.retarget_calls(old, new))
    }
}

/// Both layers' slices as one: borrowed when either is empty.
fn concat<'a, T: Clone>(base: &'a [T], top: &'a [T]) -> Cow<'a, [T]> {
    match (base.is_empty(), top.is_empty()) {
        (_, true) => Cow::Borrowed(base),
        (true, false) => Cow::Borrowed(top),
        (false, false) => Cow::Owned([base, top].concat()),
    }
}

// The in-place patchers work on a flat layer: the image's base after
// `CodeImage::mutate` froze it (word and stream indices start at zero).
impl CodeLayer {
    /// Appends `instr` at the end of the layer, keeping the words
    /// image in sync, and returns its address.
    fn append_instr(&mut self, instr: Instr) -> CodeAddr {
        let addr = CodeAddr::new(self.len_words() as u32);
        self.emit(addr, instr);
        addr
    }

    /// Replaces the decoded instruction at `addr` and re-encodes the site
    /// in place when the footprint allows (same word count, fixed-size
    /// encoding). Table switches are left to their caller, which knows
    /// whether the site still fits.
    fn patch_instr(&mut self, addr: CodeAddr, instr: Instr) {
        let idx = self.local(addr).expect("patching a placed instruction");
        let old_words = self.instrs[idx].size_words();
        let new_words = instr.size_words();
        if old_words == new_words
            && !matches!(
                instr,
                Instr::SwitchOnConstant { .. } | Instr::SwitchOnStructure { .. }
            )
        {
            let mut enc = Vec::with_capacity(new_words);
            instr.encode(&mut enc);
            let at = addr.value() as usize;
            self.words_mut()[at..at + new_words].copy_from_slice(&enc);
        }
        self.instrs[idx] = instr;
    }

    /// Walks a `try_me_else` / `retry_me_else`* / `trust_me` chain from
    /// its head, returning the address of the final `trust_me` and the
    /// clause-code address after each choice instruction (in clause
    /// order). All three choice instructions are one word, so clause code
    /// starts at `choice_addr + 1`.
    fn walk_var_chain(&self, head: CodeAddr) -> Result<(CodeAddr, Vec<CodeAddr>), PatchError> {
        let mut clauses = Vec::new();
        let mut at = head;
        let Some(Instr::TryMeElse { alt }) = self.instr_at(at) else {
            return Err(unsup("variable chain does not start with try_me_else"));
        };
        clauses.push(at.offset(1));
        let mut next = *alt;
        for _ in 0..self.instrs.len() {
            at = next;
            match self.instr_at(at) {
                Some(Instr::RetryMeElse { alt }) => {
                    clauses.push(at.offset(1));
                    next = *alt;
                }
                Some(Instr::TrustMe) => {
                    clauses.push(at.offset(1));
                    return Ok((at, clauses));
                }
                _ => return Err(unsup("variable chain interrupted")),
            }
        }
        Err(unsup("variable chain does not terminate"))
    }

    /// Collects the clause targets of a `try` / `retry`* / `trust` block
    /// laid out contiguously at `head`.
    fn read_chain_block(&self, head: CodeAddr) -> Result<Vec<CodeAddr>, PatchError> {
        let mut targets = Vec::new();
        let Some(Instr::Try { clause }) = self.instr_at(head) else {
            return Err(unsup("chain block does not start with try"));
        };
        targets.push(*clause);
        let mut at = head.offset(1);
        loop {
            match self.instr_at(at) {
                Some(Instr::Retry { clause }) => {
                    targets.push(*clause);
                    at = at.offset(1);
                }
                Some(Instr::Trust { clause }) => {
                    targets.push(*clause);
                    return Ok(targets);
                }
                _ => return Err(unsup("chain block interrupted")),
            }
        }
    }

    /// Appends a fresh `try` / `retry`* / `trust` block over `targets`
    /// and returns its address. `targets` must have at least two entries.
    fn append_chain_block(&mut self, targets: &[CodeAddr]) -> CodeAddr {
        debug_assert!(targets.len() >= 2);
        let head = self.append_instr(Instr::Try { clause: targets[0] });
        for &t in &targets[1..targets.len() - 1] {
            self.append_instr(Instr::Retry { clause: t });
        }
        self.append_instr(Instr::Trust {
            clause: targets[targets.len() - 1],
        });
        head
    }

    /// Resolves the existing dispatch target `old` for a key that gains
    /// the new clause at `c_new`: a single clause label becomes a 2-entry
    /// block, an existing block is relocated and extended. Returns the
    /// replacement target.
    fn extended_target(&mut self, old: CodeAddr, c_new: CodeAddr) -> Result<CodeAddr, PatchError> {
        let mut targets = match self.instr_at(old) {
            Some(Instr::Try { .. }) => self.read_chain_block(old)?,
            Some(_) => vec![old],
            None => return Err(unsup("dispatch target is not an instruction")),
        };
        targets.push(c_new);
        Ok(self.append_chain_block(&targets))
    }

    /// Adds `(key, target)` to the constant switch at `table_addr`:
    /// patches an existing key's target or appends a new key, keeping the
    /// hash side table (and its probe-accounting ordinals) consistent.
    /// `existing` maps a present key's current target through
    /// [`CodeLayer::extended_target`]; an absent key dispatches straight
    /// to the new clause.
    fn upsert_constant_key(
        &mut self,
        table_addr: CodeAddr,
        key: Word,
        c_new: CodeAddr,
    ) -> Result<(), PatchError> {
        let idx = self
            .local(table_addr)
            .ok_or_else(|| unsup("constant table is not an instruction"))?;
        let (ordinal, old_target) = {
            let Instr::SwitchOnConstant { default, table, .. } = &self.instrs[idx] else {
                return Err(unsup("expected switch_on_constant"));
            };
            if default.is_some() {
                // A default means variable-headed clauses exist; the
                // predicate is not a pure fact base.
                return Err(unsup("constant table has a variable default"));
            }
            match self.switch_index[idx].as_deref() {
                Some(side) => match side.lookup(key.switch_key()) {
                    Some((t, ord)) => (Some(ord as usize), Some(t)),
                    None => (None, None),
                },
                None => match table.iter().position(|(k, _)| k.same_constant(key)) {
                    Some(ord) => (Some(ord), Some(table[ord].1)),
                    None => (None, None),
                },
            }
        };
        match (ordinal, old_target) {
            (Some(ord), Some(old)) => {
                let new_target = self.extended_target(old, c_new)?;
                let Instr::SwitchOnConstant { table, .. } = &mut self.instrs[idx] else {
                    unreachable!("checked above");
                };
                table[ord].1 = new_target;
                if let Some(side) = &mut self.switch_index[idx] {
                    Arc::make_mut(side).set_target(key.switch_key(), new_target);
                }
            }
            _ => {
                let Instr::SwitchOnConstant { table, .. } = &mut self.instrs[idx] else {
                    unreachable!("checked above");
                };
                table.push((key, c_new));
                let len = table.len();
                match &mut self.switch_index[idx] {
                    Some(side) => {
                        Arc::make_mut(side).push_key(key.switch_key(), c_new);
                    }
                    None if len >= HASH_INDEX_MIN_ENTRIES => {
                        // The table just crossed the side-table threshold:
                        // build the index exactly as a fresh link would.
                        self.switch_index[idx] = Some(Arc::new(SwitchIndex::for_constants(table)));
                    }
                    None => {}
                }
            }
        }
        Ok(())
    }

    /// [`CodeImage::assert_fact_clause`] on the flat layer. Every structure
    /// walk happens before the first write, so an unsupported shape
    /// leaves the layer untouched.
    fn assert_fact_clause(
        &mut self,
        entry: CodeAddr,
        key1: Word,
        key2: Option<Word>,
        clause: &[Instr],
    ) -> Result<(), PatchError> {
        if clause.is_empty() {
            return Err(unsup("empty clause code"));
        }
        let Some(Instr::SwitchOnTerm {
            arg,
            on_var,
            on_const,
            on_list,
            on_struct,
        }) = self.instr_at(entry)
        else {
            return Err(unsup("entry is not switch_on_term"));
        };
        if arg.index() != 0 {
            return Err(unsup("entry switch does not dispatch on A1"));
        }
        if on_list.is_some() || on_struct.is_some() {
            // List- or structure-keyed (or variable-headed) clauses exist:
            // not a pure constant fact base.
            return Err(unsup("predicate has non-constant clause keys"));
        }
        let Some(vchain) = *on_var else {
            return Err(unsup("entry switch has no variable chain"));
        };
        let Some(ctab) = *on_const else {
            return Err(unsup("entry switch has no constant dispatch"));
        };

        // Validate the whole patch plan before mutating: every structure
        // walk happens first, so an unsupported shape leaves the image
        // untouched.
        let (trust_at, _) = self.walk_var_chain(vchain)?;
        enum ConstPlan {
            /// `on_const` is the variable chain itself (single distinct
            /// key so far): extending the chain is the whole update.
            Chain,
            /// A first-level table, possibly through a depth-2 bucket.
            Table(CodeAddr),
        }
        let plan = if ctab == vchain {
            ConstPlan::Chain
        } else {
            match self.instr_at(ctab) {
                Some(Instr::SwitchOnConstant { .. }) => ConstPlan::Table(ctab),
                _ => return Err(unsup("constant dispatch is neither chain nor table")),
            }
        };
        // Resolve a depth-2 bucket for the key up front (still read-only).
        let mut depth2: Option<(CodeAddr, CodeAddr, CodeAddr, Vec<CodeAddr>)> = None;
        if let ConstPlan::Table(table_addr) = &plan {
            let idx = self
                .local(*table_addr)
                .ok_or_else(|| unsup("constant table is not an instruction"))?;
            let Instr::SwitchOnConstant { default, table, .. } = &self.instrs[idx] else {
                return Err(unsup("expected switch_on_constant"));
            };
            if default.is_some() {
                return Err(unsup("constant table has a variable default"));
            }
            let old_target = match self.switch_index[idx].as_deref() {
                Some(side) => side.lookup(key1.switch_key()).map(|(t, _)| t),
                None => table
                    .iter()
                    .find(|(k, _)| k.same_constant(key1))
                    .map(|(_, t)| *t),
            };
            if let Some(t) = old_target {
                if let Some(Instr::SwitchOnTerm {
                    arg,
                    on_var: Some(v2),
                    on_const: Some(c2),
                    on_list: None,
                    on_struct: None,
                }) = self.instr_at(t)
                {
                    if arg.index() != 1 {
                        return Err(unsup("bucket switch does not dispatch on A2"));
                    }
                    if key2.is_none() {
                        return Err(unsup("depth-2 bucket but no second-argument key"));
                    }
                    // The bucket's fallback chain is always a try block
                    // (depth-2 requires ≥ 2 candidates over ≥ 2 first
                    // keys, so it is never the full variable chain).
                    let bucket_targets = self.read_chain_block(*v2)?;
                    match self.instr_at(*c2) {
                        Some(Instr::SwitchOnConstant {
                            default: None,
                            arg: a2,
                            ..
                        }) if a2.index() == 1 => {}
                        _ => return Err(unsup("bucket constant table has unexpected shape")),
                    }
                    depth2 = Some((t, *v2, *c2, bucket_targets));
                } else if t == vchain {
                    // A key whose bucket is the entire variable chain:
                    // extending the chain covers it, but the chain label
                    // in the table would then miss the appended clause…
                    // it would not — the chain is extended in place (the
                    // trust_me is patched), so the label still reaches
                    // every clause. Nothing extra to do, handled below.
                }
            }
        }

        // --- mutate ---
        // 1. Extend the variable chain: patch its trust_me into a
        //    retry_me_else aimed at a fresh trust_me, then lay the clause.
        let new_trust = CodeAddr::new(self.len_words() as u32);
        self.patch_instr(trust_at, Instr::RetryMeElse { alt: new_trust });
        self.append_instr(Instr::TrustMe);
        let c_new = CodeAddr::new(self.len_words() as u32);
        for i in clause {
            self.append_instr(i.clone());
        }

        // 2. Patch the constant dispatch.
        match plan {
            ConstPlan::Chain => {}
            ConstPlan::Table(table_addr) => match depth2 {
                Some((bucket_at, _v2, c2, mut bucket_targets)) => {
                    // Depth-2 bucket: extend its fallback chain (a
                    // relocated block) and its A2 table.
                    bucket_targets.push(c_new);
                    let new_v2 = self.append_chain_block(&bucket_targets);
                    let Some(Instr::SwitchOnTerm {
                        arg,
                        on_const,
                        on_list,
                        on_struct,
                        ..
                    }) = self.instr_at(bucket_at).cloned()
                    else {
                        unreachable!("checked above");
                    };
                    self.patch_instr(
                        bucket_at,
                        Instr::SwitchOnTerm {
                            arg,
                            on_var: Some(new_v2),
                            on_const,
                            on_list,
                            on_struct,
                        },
                    );
                    let k2 = key2.expect("checked above");
                    self.upsert_constant_key(c2, k2, c_new)?;
                }
                None => {
                    let old = {
                        let idx = self.local(table_addr).expect("checked above");
                        let Instr::SwitchOnConstant { table, .. } = &self.instrs[idx] else {
                            unreachable!("checked above");
                        };
                        match self.switch_index[idx].as_deref() {
                            Some(side) => side.lookup(key1.switch_key()).map(|(t, _)| t),
                            None => table
                                .iter()
                                .find(|(k, _)| k.same_constant(key1))
                                .map(|(_, t)| *t),
                        }
                    };
                    if old == Some(vchain) {
                        // The key's bucket is the whole variable chain,
                        // which was just extended in place: done.
                    } else {
                        self.upsert_constant_key(table_addr, key1, c_new)?;
                    }
                }
            },
        }
        Ok(())
    }

    /// [`CodeImage::retract_fact_clause`] on the flat layer.
    fn retract_fact_clause(
        &mut self,
        entry: CodeAddr,
        clause: &[Instr],
    ) -> Result<bool, PatchError> {
        if clause.is_empty() {
            return Err(unsup("empty clause code"));
        }
        let Some(Instr::SwitchOnTerm {
            arg,
            on_var,
            on_list,
            on_struct,
            ..
        }) = self.instr_at(entry)
        else {
            return Err(unsup("entry is not switch_on_term"));
        };
        if arg.index() != 0 {
            return Err(unsup("entry switch does not dispatch on A1"));
        }
        if on_list.is_some() || on_struct.is_some() {
            return Err(unsup("predicate has non-constant clause keys"));
        }
        let Some(vchain) = *on_var else {
            return Err(unsup("entry switch has no variable chain"));
        };
        let (_, candidates) = self.walk_var_chain(vchain)?;
        for cand in candidates {
            if self.clause_code_matches(cand, clause) {
                self.patch_instr(cand, Instr::Fail);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// [`CodeImage::retarget_calls`] on the flat layer.
    fn retarget_calls(&mut self, old: CodeAddr, new: CodeAddr) -> usize {
        let mut patched = 0;
        for i in 0..self.instrs.len() {
            let replacement = match &self.instrs[i] {
                Instr::Call { addr, arity } if *addr == old => Instr::Call {
                    addr: new,
                    arity: *arity,
                },
                Instr::Execute { addr, arity } if *addr == old => Instr::Execute {
                    addr: new,
                    arity: *arity,
                },
                _ => continue,
            };
            let at = self.addrs[i] as usize;
            let mut enc = Vec::with_capacity(1);
            replacement.encode(&mut enc);
            // Stub-area sites keep zero words (they are never fetched
            // as encoded words); everything else re-encodes in place.
            if at + enc.len() <= self.len_words() && at >= CODE_BASE as usize {
                self.words_mut()[at..at + enc.len()].copy_from_slice(&enc);
            }
            self.instrs[i] = replacement;
            patched += 1;
        }
        patched
    }

    /// Whether the decoded instructions starting at `at` are exactly
    /// `clause` (instruction-for-instruction).
    fn clause_code_matches(&self, at: CodeAddr, clause: &[Instr]) -> bool {
        let mut addr = at;
        for want in clause {
            match self.instr_at(addr) {
                Some(got) if got == want => addr = addr.offset(got.size_words() as i64),
                _ => return false,
            }
        }
        true
    }
}

// ----------------------------------------------------- snapshot support

impl CodeImage {
    /// Deconstructed borrow of every field of a frozen image, for the
    /// snapshot writer (which freezes a copy of a layered image first).
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(
        &self,
    ) -> (
        &CodeStore,
        &[u32],
        &[Option<Arc<SwitchIndex>>],
        &[u64],
        &HashMap<(String, u8), CodeAddr>,
        &[PredSize],
        &[String],
        &[String],
        u32,
        &CompileOptions,
        &[Word],
        VAddr,
    ) {
        debug_assert!(self.top.is_empty(), "snapshot of an unfrozen image");
        let b = &*self.base;
        (
            &b.instrs,
            &b.addrs,
            &b.switch_index,
            b.words(),
            &b.entries,
            &b.sizes,
            &b.warnings,
            &self.query_vars,
            self.aux_round,
            &self.options,
            &b.static_data,
            self.static_base,
        )
    }

    /// Whether the image has code, entries or data above its base.
    pub(crate) fn is_layered(&self) -> bool {
        !self.top.is_empty()
    }

    /// Reassembles a frozen image from restored parts, rebuilding the
    /// dense address index (cheap and fully determined by `addrs`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        instrs: CodeStore,
        addrs: Vec<u32>,
        switch_index: Vec<Option<Arc<SwitchIndex>>>,
        words: WordStore,
        entries: HashMap<(String, u8), CodeAddr>,
        sizes: Vec<PredSize>,
        warnings: Vec<String>,
        query_vars: Vec<String>,
        aux_round: u32,
        options: CompileOptions,
        static_data: Vec<Word>,
        static_base: VAddr,
    ) -> CodeImage {
        // Addresses are ascending in every image this crate builds, so the
        // dense index fills in one sequential pass; arbitrary (hostile
        // snapshot) orderings fall back to a scatter.
        let sorted_prefix_index = || {
            let mut out = Vec::with_capacity(addrs.last().map_or(0, |&a| a as usize + 1));
            for (i, &a) in addrs.iter().enumerate() {
                if (a as usize) < out.len() {
                    return None;
                }
                out.resize(a as usize, u32::MAX);
                out.push(i as u32);
            }
            Some(out)
        };
        let addr_index = sorted_prefix_index().unwrap_or_else(|| {
            let top = addrs.iter().copied().max().map_or(0, |a| a as usize + 1);
            let mut out = vec![u32::MAX; top];
            for (i, &a) in addrs.iter().enumerate() {
                out[a as usize] = i as u32;
            }
            out
        });
        let base = CodeLayer {
            word_base: 0,
            index_base: 0,
            instrs,
            addrs,
            addr_index,
            switch_index,
            words,
            entries,
            sizes,
            warnings,
            static_data,
            cache: LayerCache::default(),
        };
        let top = CodeLayer::above(&base);
        CodeImage {
            base: Arc::new(base),
            top,
            query_vars,
            aux_round,
            options,
            static_base,
        }
    }
}
