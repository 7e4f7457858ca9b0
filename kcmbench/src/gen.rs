//! The seeded generator: every fact base, key draw, case order and
//! open-loop schedule of every workload comes from here, and from the
//! run's `--seed` alone. Each purpose draws from its own named stream, so
//! adding draws to one stream leaves the others unchanged.

use kcm_serve::workload::ServeCase;
use kcm_serve::Request;
use std::time::Duration;

/// People in the `kb` tenant; each owns 1–3 items, so `owns/2` has about
/// 10⁵ facts.
pub const PERSONS: usize = 50_000;
/// Distinct items; every item has exactly one `price/2` fact.
pub const ITEMS: usize = 1_000;
/// Seeded `ingested/2` facts published with the `kb_ingest` tenant.
pub const INGESTED: usize = 1_000;
/// Tenant name of the big knowledge base.
pub const KB: &str = "kb";

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `name` of run seed `seed`.
    pub fn stream(seed: u64, name: &str) -> Rng {
        // FNV-1a of the stream name keeps streams independent of each other.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The generator's own tables of the `kb` tenant: the oracle for every
/// `kb` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kb {
    /// `owns[k]` lists the items person `pk` owns, in clause order.
    pub owns: Vec<Vec<u32>>,
    /// `price[m]` is the price of `itemm`.
    pub price: Vec<u32>,
    /// The seeded `ingested(J, itemM)` facts, in clause order.
    pub ingested: Vec<(u64, u32)>,
}

impl Kb {
    pub fn generate(seed: u64) -> Kb {
        let mut rng = Rng::stream(seed, "kb.facts");
        let owns = (0..PERSONS)
            .map(|_| {
                let n = 1 + rng.below(3);
                let mut items: Vec<u32> = Vec::with_capacity(n);
                while items.len() < n {
                    let m = rng.below(ITEMS) as u32;
                    if !items.contains(&m) {
                        items.push(m);
                    }
                }
                items
            })
            .collect();
        let price = (0..ITEMS).map(|_| 1 + rng.below(999) as u32).collect();
        let ingested = (0..INGESTED as u64)
            .map(|j| (j, rng.below(ITEMS) as u32))
            .collect();
        Kb {
            owns,
            price,
            ingested,
        }
    }

    pub fn owns_facts(&self) -> usize {
        self.owns.iter().map(Vec::len).sum()
    }

    /// Program source of the tenant; `with_ingested` adds the
    /// `ingested/2` predicate `kb_ingest` updates.
    pub fn source(&self, with_ingested: bool) -> String {
        let mut s = String::with_capacity(24 * (self.owns_facts() + ITEMS + INGESTED));
        for (k, items) in self.owns.iter().enumerate() {
            for m in items {
                s.push_str(&format!("owns(p{k}, item{m}).\n"));
            }
        }
        for (m, c) in self.price.iter().enumerate() {
            s.push_str(&format!("price(item{m}, {c}).\n"));
        }
        if with_ingested {
            for (j, m) in &self.ingested {
                s.push_str(&format!("ingested({j}, item{m}).\n"));
            }
        }
        s
    }
}

/// One `kb_lookup` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KbOp {
    /// `QUERY @kb owns(pK, X)`.
    Point(usize),
    /// `QUERY @kb owns(pK, X), price(X, C)`.
    Join(usize),
    /// `QUERY @kb owns(pK, X) CURSOR`, drained with `NEXT`.
    Cursor(usize),
}

impl KbOp {
    pub fn query(&self) -> String {
        match *self {
            KbOp::Point(k) | KbOp::Cursor(k) => format!("owns(p{k}, X)"),
            KbOp::Join(k) => format!("owns(p{k}, X), price(X, C)"),
        }
    }

    /// The request this op opens with.
    pub fn request(&self) -> Request {
        Request::Query {
            tenant: Some(KB.to_owned()),
            query: self.query(),
            enumerate_all: false,
            step_budget: None,
            cursor: matches!(self, KbOp::Cursor(_)),
        }
    }
}

/// The closed-loop `kb_lookup` stream of one connection: 7 of every 8
/// ops are queries (a seeded coin picks point or join), the 8th a cursor.
#[derive(Debug, Clone)]
pub struct KbLookupStream {
    rng: Rng,
    issued: u64,
}

impl KbLookupStream {
    pub fn new(seed: u64, conn: usize) -> KbLookupStream {
        KbLookupStream {
            rng: Rng::stream(seed, &format!("kb_lookup.conn{conn}")),
            issued: 0,
        }
    }
}

impl Iterator for KbLookupStream {
    type Item = KbOp;
    fn next(&mut self) -> Option<KbOp> {
        let k = self.rng.below(PERSONS);
        let coin = self.rng.next_u64() & 1 == 0;
        self.issued += 1;
        Some(if self.issued.is_multiple_of(8) {
            KbOp::Cursor(k)
        } else if coin {
            KbOp::Point(k)
        } else {
            KbOp::Join(k)
        })
    }
}

/// The `suite_serve` case order of one stream: back-to-back seeded
/// permutations of the standard cases, so every case appears equally
/// often.
#[derive(Debug, Clone)]
pub struct CaseStream {
    rng: Rng,
    cases: usize,
    round: Vec<usize>,
}

impl CaseStream {
    pub fn new(seed: u64, name: &str, cases: usize) -> CaseStream {
        CaseStream {
            rng: Rng::stream(seed, name),
            cases,
            round: Vec::new(),
        }
    }
}

impl Iterator for CaseStream {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.round.is_empty() {
            self.round = (0..self.cases).collect();
            for i in (1..self.cases).rev() {
                let j = self.rng.below(i + 1);
                self.round.swap(i, j);
            }
        }
        self.round.pop()
    }
}

/// The request of a standard serve case against its published tenant.
pub fn case_request(case: &ServeCase) -> Request {
    Request::Query {
        tenant: Some(case.name.to_owned()),
        query: case.query.to_owned(),
        enumerate_all: case.enumerate_all,
        step_budget: None,
        cursor: false,
    }
}

/// An open-loop schedule: op `i` is due at `i × period` plus a seeded
/// jitter of up to half a period, measured from the window start.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: Rng,
    period: Duration,
    issued: u32,
}

impl Schedule {
    pub fn new(seed: u64, name: &str, period: Duration) -> Schedule {
        Schedule {
            rng: Rng::stream(seed, name),
            period,
            issued: 0,
        }
    }
}

impl Iterator for Schedule {
    type Item = Duration;
    fn next(&mut self) -> Option<Duration> {
        let due = self.period * self.issued + self.period.mul_f64(0.5 * self.rng.unit());
        self.issued += 1;
        Some(due)
    }
}

/// One `kb_ingest` writer op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Update {
    Assert(String),
    Retract(String),
}

impl Update {
    pub fn request(&self) -> Request {
        match self {
            Update::Assert(clause) => Request::Assert {
                name: KB.to_owned(),
                clause: clause.clone(),
            },
            Update::Retract(clause) => Request::Retract {
                name: KB.to_owned(),
                clause: clause.clone(),
            },
        }
    }
}

/// The `kb_ingest` writer stream: `ASSERT @kb ingested(J, itemM)` with
/// fresh keys, except every 4th op, which retracts a seeded pick among
/// the earlier asserts still present. Also tracks the `ingested/2`
/// clauses the tenant must hold once the ops issued so far are applied.
#[derive(Debug, Clone)]
pub struct Writer {
    rng: Rng,
    issued: u64,
    /// Asserted and not yet retracted, in assert order.
    live: Vec<(u64, u32)>,
    initial: Vec<(u64, u32)>,
}

impl Writer {
    pub fn new(seed: u64, kb: &Kb) -> Writer {
        Writer {
            rng: Rng::stream(seed, "kb_ingest.writer"),
            issued: 0,
            live: Vec::new(),
            initial: kb.ingested.clone(),
        }
    }

    /// Every `ingested/2` fact, in clause order, after the ops issued.
    pub fn expected(&self) -> Vec<(u64, u32)> {
        self.initial.iter().chain(&self.live).copied().collect()
    }
}

pub fn ingested_clause(j: u64, m: u32) -> String {
    format!("ingested({j}, item{m})")
}

impl Iterator for Writer {
    type Item = Update;
    fn next(&mut self) -> Option<Update> {
        self.issued += 1;
        if self.issued.is_multiple_of(4) && !self.live.is_empty() {
            let (j, m) = self.live.remove(self.rng.below(self.live.len()));
            return Some(Update::Retract(ingested_clause(j, m)));
        }
        let j = INGESTED as u64 + self.issued;
        let m = self.rng.below(ITEMS) as u32;
        self.live.push((j, m));
        Some(Update::Assert(ingested_clause(j, m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole request stream a seed produces, as wire bytes.
    fn stream_bytes(seed: u64) -> Vec<u8> {
        let kb = Kb::generate(seed);
        let cases = kcm_serve::workload::standard();
        let mut out = kb.source(true).into_bytes();
        for conn in 0..2 {
            for op in KbLookupStream::new(seed, conn).take(200) {
                out.extend(op.request().encode());
            }
            for i in CaseStream::new(seed, &format!("suite_serve.conn{conn}"), cases.len()).take(64)
            {
                out.extend(case_request(&cases[i]).encode());
            }
        }
        for due in Schedule::new(seed, "kb_ingest.reader", Duration::from_millis(1)).take(100) {
            out.extend(due.as_nanos().to_le_bytes());
        }
        for u in Writer::new(seed, &kb).take(40) {
            out.extend(u.request().encode());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_request_stream() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
        assert_ne!(stream_bytes(7), stream_bytes(8));
    }

    #[test]
    fn kb_has_about_1e5_owns_facts_and_priced_items() {
        let kb = Kb::generate(1);
        let n = kb.owns_facts();
        assert!((90_000..=110_000).contains(&n), "{n}");
        assert!(kb.owns.iter().all(|v| (1..=3).contains(&v.len())));
        assert_eq!(kb.price.len(), ITEMS);
    }

    #[test]
    fn case_stream_rounds_are_permutations() {
        let mut s = CaseStream::new(3, "t", 8);
        for _ in 0..5 {
            let mut round: Vec<usize> = s.by_ref().take(8).collect();
            round.sort_unstable();
            assert_eq!(round, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn writer_expected_set_tracks_asserts_and_retracts() {
        let kb = Kb::generate(5);
        let mut w = Writer::new(5, &kb);
        let ops: Vec<Update> = w.by_ref().take(8).collect();
        let retracts = ops
            .iter()
            .filter(|u| matches!(u, Update::Retract(_)))
            .count();
        assert_eq!(retracts, 2);
        assert_eq!(w.expected().len(), INGESTED + 6 - 2);
    }
}
