//! Answer oracles. A mismatch fails the run: it is reported as an error,
//! never only counted.

use crate::gen::{Kb, KbOp};
use kcm_system::Outcome;

/// Byte equality of a reply body against its oracle.
pub fn same_body(what: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "oracle mismatch on {what}: expected {expected:?}, got {got:?}"
        ))
    }
}

/// The body a first-solution `kb` query must produce, derived from the
/// generator's tables: the first item the person owns (and its price for
/// a join). Each goal of the query is one inference; the native tier
/// reports no cycles.
pub fn kb_body(kb: &Kb, op: KbOp) -> String {
    let (k, line, goals) = match op {
        KbOp::Point(k) | KbOp::Cursor(k) => (k, format!("X=item{}", kb.owns[k][0]), 1),
        KbOp::Join(k) => {
            let m = kb.owns[k][0];
            (k, format!("X=item{m},C={}", kb.price[m as usize]), 2)
        }
    };
    debug_assert!(k < kb.owns.len());
    format!("success=true solutions=1 inferences={goals} cycles=0\n{line}\noutput=\"\"\n")
}

/// The answer lines a drained `owns(pK, X)` cursor must stream.
pub fn kb_cursor_lines(kb: &Kb, k: usize) -> Vec<String> {
    kb.owns[k].iter().map(|m| format!("X=item{m}")).collect()
}

/// Splits a `NEXT` reply body into its answer lines and `done` flag.
pub fn parse_batch(body: &str) -> Result<(Vec<String>, bool), String> {
    let mut lines = body.lines();
    let head = lines.next().ok_or("empty NEXT body")?;
    let field = |key: &str| {
        head.split(' ')
            .find_map(|f| f.strip_prefix(key))
            .ok_or_else(|| format!("NEXT head without {key}: {head:?}"))
    };
    let answers: usize = field("answers=")?
        .parse()
        .map_err(|_| format!("bad answers= in {head:?}"))?;
    let done = field("done=")? == "true";
    let lines: Vec<String> = lines.take(answers).map(str::to_owned).collect();
    if lines.len() != answers {
        return Err(format!("NEXT promised {answers} answers: {body:?}"));
    }
    Ok((lines, done))
}

/// `J=<j>,I=item<m>` lines of an `ingested(J, I)` drain.
pub fn ingested_lines(facts: &[(u64, u32)]) -> Vec<String> {
    facts
        .iter()
        .map(|(j, m)| format!("J={j},I=item{m}"))
        .collect()
}

/// What must repeat exactly on every cycle-tier run of a suite program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub success: bool,
    pub solutions: usize,
    pub cycles: u64,
    pub inferences: u64,
    pub output: String,
}

impl Fingerprint {
    pub fn of(o: &Outcome) -> Fingerprint {
        Fingerprint {
            success: o.success,
            solutions: o.solutions.len(),
            cycles: o.stats.cycles,
            inferences: o.stats.inferences,
            output: o.output.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_serve::workload::{direct_body, standard};
    use kcm_system::Tier;

    #[test]
    fn tampered_reply_body_is_rejected() {
        let case = standard()[0];
        let good = direct_body(&case, Tier::Native);
        assert!(same_body(case.name, &good, &good).is_ok());
        let tampered = good.replacen("success=true", "success=false", 1);
        assert!(same_body(case.name, &good, &tampered).is_err());
        let mut one_byte = good.clone().into_bytes();
        let last = one_byte.len() - 2;
        one_byte[last] ^= 1;
        let one_byte = String::from_utf8(one_byte).expect("ascii");
        assert!(same_body(case.name, &good, &one_byte).is_err());
    }

    #[test]
    fn kb_oracle_reads_the_generator_tables() {
        let kb = Kb {
            owns: vec![vec![4, 2], vec![7]],
            price: (0..10).collect(),
            ingested: vec![],
        };
        assert_eq!(
            kb_body(&kb, KbOp::Join(0)),
            "success=true solutions=1 inferences=2 cycles=0\nX=item4,C=4\noutput=\"\"\n"
        );
        assert_eq!(kb_cursor_lines(&kb, 0), vec!["X=item4", "X=item2"]);
    }

    #[test]
    fn batches_parse_and_short_batches_are_rejected() {
        let body = "cursor=3 answers=2 done=false inferences=1 cycles=0\nX=a\nX=b\noutput=\"\"\n";
        assert_eq!(
            parse_batch(body).expect("parse"),
            (vec!["X=a".to_owned(), "X=b".to_owned()], false)
        );
        assert!(parse_batch("cursor=3 answers=1 done=true inferences=1 cycles=0\n").is_err());
    }
}
