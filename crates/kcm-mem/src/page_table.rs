//! Address translation (paper §3.2.5).
//!
//! "The address translation hardware is designed for speed and simplicity,
//! i.e. a simple RAM is used to hold the entire page table rather than
//! storing the page table in main memory and use an associative cache. [...]
//! The address translation is done using a RAM organised as 32K x 16 bit.
//! It contains one entry for each virtual page (16K virtual pages for code
//! and data each). Each entry consists of 5 status bits plus 11 bits
//! physical page number."

use crate::main_memory::{MainMemory, PhysAddr};
use crate::{MemFault, MemStats};
use kcm_arch::{CodeAddr, VAddr, PAGE_SIZE_WORDS};

/// Which of the two virtual address spaces an access targets (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// The data space.
    Data,
    /// The code space.
    Code,
}

/// One 16-bit page table entry: 11-bit physical page number + status bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry(u16);

const ST_VALID: u16 = 1 << 11;
const ST_DIRTY: u16 = 1 << 12;
const ST_REFERENCED: u16 = 1 << 13;

impl Entry {
    fn valid(self) -> bool {
        self.0 & ST_VALID != 0
    }

    fn phys_page(self) -> u16 {
        self.0 & 0x7FF
    }

    fn map(page: u16) -> Entry {
        Entry((page & 0x7FF) | ST_VALID)
    }
}

/// One host-side TLB slot: a virtual data page whose table entry is known
/// valid and referenced, with its physical page. `vp == u32::MAX` marks an
/// empty slot (no virtual page has that index).
#[derive(Debug, Clone, Copy)]
struct TlbSlot {
    vp: u32,
    page: u16,
}

const TLB_EMPTY: TlbSlot = TlbSlot {
    vp: u32::MAX,
    page: 0,
};

/// Direct-mapped host TLB size (power of two).
const TLB_SLOTS: usize = 64;

/// The translation RAM: the full page table for both spaces, held in the
/// machine (no TLB — "this design works because KCM is a single-task
/// machine that does not need to do context switches").
///
/// The *simulated* machine has no TLB, but the simulator keeps a small
/// host-side one: a direct-mapped `vp → physical page` cache consulted
/// before the table walk. It is filled only after an entry is valid and
/// referenced, so a hit skips nothing but idempotent work — simulated
/// state and fault counters are what the table walk alone would produce
/// (checked against a page-table model in this module's tests).
///
/// # Examples
///
/// ```
/// use kcm_mem::{Mmu, MemStats};
/// use kcm_mem::main_memory::MainMemory;
/// use kcm_arch::VAddr;
///
/// let mut mmu = Mmu::new();
/// let mut mem = MainMemory::new();
/// let mut stats = MemStats::default();
/// let p1 = mmu.translate_data(VAddr::new(5), &mut mem, &mut stats).unwrap();
/// let p2 = mmu.translate_data(VAddr::new(6), &mut mem, &mut stats).unwrap();
/// assert_eq!(p2.value(), p1.value() + 1); // same page, adjacent offsets
/// assert_eq!(stats.data_page_faults, 1);
/// ```
#[derive(Debug)]
pub struct Mmu {
    data_table: Vec<Entry>,
    code_table: Vec<Entry>,
    tlb: [TlbSlot; TLB_SLOTS],
}

impl Default for Mmu {
    fn default() -> Mmu {
        Mmu::new()
    }
}

impl Mmu {
    /// A fresh MMU with no page mapped.
    pub fn new() -> Mmu {
        Mmu {
            data_table: vec![Entry::default(); kcm_arch::addr::PAGES_PER_SPACE as usize],
            code_table: vec![Entry::default(); kcm_arch::addr::PAGES_PER_SPACE as usize],
            tlb: [TLB_EMPTY; TLB_SLOTS],
        }
    }

    /// Translates a data-space address, allocating a physical page on
    /// first touch (the host services the page fault, §2.1).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::OutOfPhysicalMemory`] if the board is full.
    #[inline]
    pub fn translate_data(
        &mut self,
        addr: VAddr,
        memory: &mut MainMemory,
        stats: &mut MemStats,
    ) -> Result<PhysAddr, MemFault> {
        let vp = addr.page().index();
        let slot = self.tlb[vp % TLB_SLOTS];
        if slot.vp == vp as u32 {
            // The slot was filled after the entry became valid and
            // referenced, so the table walk below would only redo
            // idempotent work.
            return Ok(PhysAddr::new(slot.page, addr.page_offset()));
        }
        let entry = &mut self.data_table[vp];
        if !entry.valid() {
            let page = memory
                .allocate_page()
                .ok_or(MemFault::OutOfPhysicalMemory)?;
            *entry = Entry::map(page);
            stats.data_page_faults += 1;
        }
        entry.0 |= ST_REFERENCED;
        let phys_page = entry.phys_page();
        self.tlb[vp % TLB_SLOTS] = TlbSlot {
            vp: vp as u32,
            page: phys_page,
        };
        Ok(PhysAddr::new(phys_page, addr.page_offset()))
    }

    /// Marks a data page dirty (the cache does this when writing back).
    pub fn mark_data_dirty(&mut self, addr: VAddr) {
        let vp = addr.page().index();
        self.data_table[vp].0 |= ST_DIRTY;
    }

    /// Translates a code-space address, counting a fault on first touch.
    /// The simulator stores code host-side, so translation here only
    /// models the fault/NRU bookkeeping.
    #[inline]
    pub fn translate_code(&mut self, addr: CodeAddr, stats: &mut MemStats) {
        let vp = addr.page().index();
        let entry = &mut self.code_table[vp];
        if !entry.valid() {
            *entry = Entry::map(0);
            stats.code_page_faults += 1;
        }
        entry.0 |= ST_REFERENCED;
    }

    /// Whether a data page is currently mapped.
    pub fn data_page_mapped(&self, addr: VAddr) -> bool {
        self.data_table[addr.page().index()].valid()
    }

    /// Number of mapped data pages.
    pub fn mapped_data_pages(&self) -> usize {
        self.data_table.iter().filter(|e| e.valid()).count()
    }

    /// Detaches a data page and re-attaches its physical frame to the code
    /// space (batch-compiled code hand-over, §3.2.1). Returns whether the
    /// page was mapped.
    pub fn move_data_page_to_code(&mut self, data_addr: VAddr, code_addr: CodeAddr) -> bool {
        let vp = data_addr.page().index();
        let entry = self.data_table[vp];
        if !entry.valid() {
            return false;
        }
        self.data_table[vp] = Entry::default();
        self.code_table[code_addr.page().index()] = entry;
        // The data mapping is gone: drop any host TLB entry for it.
        self.tlb[vp % TLB_SLOTS] = TLB_EMPTY;
        true
    }
}

/// Sanity check: page size constants agree between crates.
const _: () = assert!(PAGE_SIZE_WORDS == 1 << 14);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn same_page_translates_once() {
        let mut mmu = Mmu::new();
        let mut mem = MainMemory::new();
        let mut stats = MemStats::default();
        mmu.translate_data(VAddr::new(0), &mut mem, &mut stats)
            .unwrap();
        mmu.translate_data(VAddr::new(100), &mut mem, &mut stats)
            .unwrap();
        assert_eq!(stats.data_page_faults, 1);
        assert_eq!(mem.allocated_pages(), 1);
    }

    #[test]
    fn different_pages_allocate_separately() {
        let mut mmu = Mmu::new();
        let mut mem = MainMemory::new();
        let mut stats = MemStats::default();
        let a = mmu
            .translate_data(VAddr::new(0), &mut mem, &mut stats)
            .unwrap();
        let b = mmu
            .translate_data(VAddr::new(PAGE_SIZE_WORDS), &mut mem, &mut stats)
            .unwrap();
        assert_ne!(a.value() / PAGE_SIZE_WORDS, b.value() / PAGE_SIZE_WORDS);
        assert_eq!(stats.data_page_faults, 2);
    }

    #[test]
    fn translation_preserves_offset() {
        let mut mmu = Mmu::new();
        let mut mem = MainMemory::new();
        let mut stats = MemStats::default();
        let p = mmu
            .translate_data(VAddr::new(1234), &mut mem, &mut stats)
            .unwrap();
        assert_eq!(p.value() % PAGE_SIZE_WORDS, 1234);
    }

    #[test]
    fn code_faults_counted() {
        let mut mmu = Mmu::new();
        let mut stats = MemStats::default();
        mmu.translate_code(CodeAddr::new(0), &mut stats);
        mmu.translate_code(CodeAddr::new(1), &mut stats);
        assert_eq!(stats.code_page_faults, 1);
    }

    #[test]
    fn page_handover_unmaps_data_side() {
        let mut mmu = Mmu::new();
        let mut mem = MainMemory::new();
        let mut stats = MemStats::default();
        let va = VAddr::new(0);
        mmu.translate_data(va, &mut mem, &mut stats).unwrap();
        assert!(mmu.data_page_mapped(va));
        assert!(mmu.move_data_page_to_code(va, CodeAddr::new(0)));
        assert!(!mmu.data_page_mapped(va));
        // Moving an unmapped page reports false.
        assert!(!mmu.move_data_page_to_code(va, CodeAddr::new(0)));
    }

    /// The host TLB against a plain page-table model: a seeded trace of
    /// translations and code hand-overs over pages that share TLB slots
    /// (0, 64, 128 and 192 all map to slot 0) must see the physical
    /// address and fault count the model predicts at every step. The
    /// board hands out frames in order, so the model knows which frame a
    /// fault maps.
    #[test]
    fn host_tlb_matches_a_page_table_model() {
        const PAGES: [u32; 9] = [0, 1, 2, 3, 64, 65, 128, 129, 192];
        kcm_testkit::cases_seeded(0x7462_6c31, 64, |rng| {
            let mut mmu = Mmu::new();
            let mut mem = MainMemory::new();
            let mut stats = MemStats::default();
            let mut model: HashMap<u32, u16> = HashMap::new();
            let mut next_frame: u16 = 0;
            let mut faults = 0;
            for step in 0..400 {
                let vp = *rng.choose(&PAGES);
                if rng.chance(1, 8) {
                    let code = CodeAddr::new(rng.below(64) as u32 * PAGE_SIZE_WORDS);
                    let moved = mmu.move_data_page_to_code(VAddr::new(vp * PAGE_SIZE_WORDS), code);
                    assert_eq!(
                        moved,
                        model.remove(&vp).is_some(),
                        "step {step}: hand-over of {vp}"
                    );
                    continue;
                }
                let offset = rng.below(u64::from(PAGE_SIZE_WORDS)) as u32;
                let frame = *model.entry(vp).or_insert_with(|| {
                    faults += 1;
                    next_frame += 1;
                    next_frame - 1
                });
                let phys = mmu
                    .translate_data(
                        VAddr::new(vp * PAGE_SIZE_WORDS + offset),
                        &mut mem,
                        &mut stats,
                    )
                    .unwrap();
                assert_eq!(
                    phys.value(),
                    PhysAddr::new(frame, offset).value(),
                    "step {step}: page {vp}"
                );
                assert_eq!(stats.data_page_faults, faults, "step {step}: page {vp}");
            }
            assert_eq!(mmu.mapped_data_pages(), model.len());
        });
    }
}
