//! Operation records and the answer checker.
//!
//! Every operation is logged with the database generation its response
//! was stamped with. After the timed window the acknowledged mutations are
//! replayed on the reference [`Edb`] in generation order, and each answer
//! is compared with the reference answer at its own generation. Nothing
//! here runs inside a timed interval.

use std::collections::HashMap;

use crate::model::{Edb, Mutation, Query, Tuples};
use crate::rng::mix;

/// An order-independent fingerprint of an answer relation: its size and
/// the wrapping sum of its tuples' hashes. Dropping, adding or changing a
/// tuple changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub count: usize,
    pub hash: u64,
}

impl Answer {
    pub fn of<S: AsRef<str>>(
        tuples: impl IntoIterator<Item = impl IntoIterator<Item = S>>,
    ) -> Self {
        let mut answer = Answer { count: 0, hash: 0 };
        for tuple in tuples {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for value in tuple {
                for &b in value.as_ref().as_bytes().iter().chain(&[0xFF]) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
                }
            }
            answer.count += 1;
            answer.hash = answer.hash.wrapping_add(mix(h));
        }
        answer
    }
}

/// What one operation returned.
#[derive(Debug, Clone)]
pub enum Outcome {
    Query {
        query: Query,
        answer: Answer,
        strategy: String,
        /// The answer tuples themselves, kept only by the self-test so it
        /// can perturb them.
        raw: Option<Tuples>,
    },
    Mutate {
        mutation: Mutation,
        inserted: usize,
        retracted: usize,
    },
    /// An error response (or a response the client could not read).
    Failed {
        is_query: bool,
        message: String,
    },
}

/// One logged operation.
#[derive(Debug, Clone)]
pub struct Record {
    /// Unique per run: the request id spans carry.
    pub id: u64,
    pub program: usize,
    /// The database generation the response was stamped with.
    pub generation: u64,
    /// Client-observed latency.
    pub latency_ns: u64,
    /// The engine's own `elapsed_us` from the response (0 in-process).
    pub elapsed_us: u64,
    /// The request line as sent (empty in-process).
    pub request: String,
    pub outcome: Outcome,
}

impl Record {
    pub fn is_query(&self) -> bool {
        match &self.outcome {
            Outcome::Query { .. } => true,
            Outcome::Mutate { .. } => false,
            Outcome::Failed { is_query, .. } => *is_query,
        }
    }

    fn effective(&self) -> bool {
        matches!(self.outcome, Outcome::Mutate { inserted, retracted, .. } if inserted + retracted > 0)
    }
}

/// The replay order: by generation; at one generation the effective
/// mutation that produced it comes first, then ineffective mutations
/// (which left it unchanged), then the reads stamped with it.
pub fn replay_order(records: &[Record]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| {
        let r = &records[i];
        let class = if r.effective() {
            0
        } else if matches!(r.outcome, Outcome::Mutate { .. }) {
            1
        } else {
            2
        };
        (r.program, r.generation, class, r.id)
    });
    order
}

/// The checker's verdict.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations that returned an error.
    pub errors: usize,
    /// Operations whose answer or acknowledgement disagreed with the
    /// reference.
    pub mismatches: usize,
    /// The first few mismatches, described.
    pub examples: Vec<String>,
    /// Every operation that failed, by record id.
    pub failed_ids: Vec<u64>,
}

impl Verdict {
    fn mismatch(&mut self, id: u64, what: String) {
        self.failed_ids.push(id);
        self.mismatches += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }
}

/// Checks `records` against the reference. `initial[p]` is program `p`'s
/// EDB at `start_generation[p]`, the generation set-up ended at.
pub fn check(records: &[Record], initial: &[Edb], start_generation: &[u64]) -> Verdict {
    let mut verdict = Verdict::default();
    let mut models: Vec<Edb> = initial.to_vec();
    let mut at: Vec<u64> = start_generation.to_vec();
    let mut cache: HashMap<(usize, Query), Answer> = HashMap::new();
    for i in replay_order(records) {
        let r = &records[i];
        let p = r.program;
        if r.generation < start_generation[p] {
            verdict.mismatch(
                r.id,
                format!("op {} stamped generation {} before set-up", r.id, r.generation),
            );
            continue;
        }
        match &r.outcome {
            Outcome::Failed { message, .. } => {
                verdict.errors += 1;
                verdict.failed_ids.push(r.id);
                if verdict.examples.len() < 5 {
                    verdict.examples.push(format!("op {} failed: {message}", r.id));
                }
            }
            Outcome::Mutate { mutation, inserted, retracted } => {
                let effective = models[p].apply(mutation);
                if effective != (*inserted, *retracted) {
                    verdict.mismatch(
                        r.id,
                        format!(
                        "op {}: acknowledged (inserted, retracted) = ({inserted}, {retracted}), \
                         reference {effective:?}",
                        r.id
                    ),
                    );
                }
                if inserted + retracted > 0 {
                    at[p] = r.generation;
                    cache.clear();
                }
            }
            Outcome::Query { query, answer, .. } => {
                if r.generation != at[p] {
                    // No acknowledged mutation produced this generation:
                    // the read saw a state the reference never had.
                    verdict.mismatch(
                        r.id,
                        format!(
                            "op {}: `{}` stamped generation {} but the acknowledged mutations \
                         reach generation {} there",
                            r.id,
                            query.text(),
                            r.generation,
                            at[p]
                        ),
                    );
                    continue;
                }
                let expected = *cache
                    .entry((p, query.clone()))
                    .or_insert_with(|| Answer::of(query.reference(&mut models[p])));
                if expected != *answer {
                    verdict.mismatch(
                        r.id,
                        format!(
                            "op {}: `{}` at generation {} returned {} tuples, reference has {}{}",
                            r.id,
                            query.text(),
                            r.generation,
                            answer.count,
                            expected.count,
                            if expected.count == answer.count { " (different tuples)" } else { "" }
                        ),
                    );
                }
            }
        }
    }
    verdict
}
