//! The checker's self-test: every workload runs at a tiny size (traced,
//! so the layer probe runs too), its answers pass the check, and the
//! checker rejects an answer with one tuple dropped, one with a tuple
//! added, and one checked at the wrong generation, so the checks cannot
//! pass vacuously.

use std::path::PathBuf;

use sepra_perfbench::check::{check, Answer, Outcome, Record};
use sepra_perfbench::execute;
use sepra_perfbench::model::{Inputs, Kind, Scale};

fn run(kind: Kind) -> (Vec<Record>, sepra_perfbench::Execution) {
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".perfbench").join(format!(
        "test-{}-{}",
        kind.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).unwrap();
    let ex = execute(kind, Scale::Tiny, 7, 0.4, true, true, &work).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
    let records = ex.windows.iter().flat_map(|(r, _)| r.iter().cloned()).collect();
    (records, ex)
}

/// Replaces record `i`'s answer tuples and fingerprint.
fn with_answer(
    records: &[Record],
    i: usize,
    edit: impl FnOnce(&mut Vec<Vec<String>>),
) -> Vec<Record> {
    let mut out = records.to_vec();
    if let Outcome::Query { answer, raw: Some(raw), .. } = &mut out[i].outcome {
        edit(raw);
        *answer = Answer::of(raw.iter());
    } else {
        panic!("record {i} is not a query with kept answers");
    }
    out
}

fn self_test(kind: Kind) {
    let (records, ex) = run(kind);
    let rejects = |records: &[Record]| check(records, &ex.initial, &ex.start_generation).mismatches;
    assert!(records.iter().any(|r| !r.is_query()), "{kind:?} ran no mutation");
    let clean = check(&records, &ex.initial, &ex.start_generation);
    assert_eq!((clean.errors, clean.mismatches), (0, 0), "{:?}", clean.examples);

    let answered =
        |r: &Record| matches!(&r.outcome, Outcome::Query { raw: Some(raw), .. } if !raw.is_empty());
    let i = records.iter().position(answered).expect("a query with answers");

    let dropped = with_answer(&records, i, |raw| {
        raw.pop();
    });
    assert_eq!(rejects(&dropped), 1, "{kind:?}: a dropped tuple passed the check");

    let added = with_answer(&records, i, |raw| {
        let mut extra = raw[0].clone();
        extra[0].push_str("_extra");
        raw.push(extra);
    });
    assert_eq!(rejects(&added), 1, "{kind:?}: an added tuple passed the check");

    // Two reads of one query whose answers differ: checking the first at
    // the second's generation must fail.
    let reads: Vec<(usize, &Record)> =
        records.iter().enumerate().filter(|(_, r)| r.is_query()).collect();
    let pair = reads.iter().find_map(|&(a, ra)| {
        reads.iter().find_map(|&(b, rb)| match (&ra.outcome, &rb.outcome) {
            (
                Outcome::Query { query: qa, answer: aa, .. },
                Outcome::Query { query: qb, answer: ab, .. },
            ) if ra.program == rb.program
                && qa == qb
                && aa != ab
                && ra.generation != rb.generation =>
            {
                Some((a, b))
            }
            _ => None,
        })
    });
    let (a, b) = pair.expect("a query read at two generations with different answers");
    let mut moved = records.clone();
    moved[a].generation = records[b].generation;
    assert_eq!(rejects(&moved), 1, "{kind:?}: an answer checked at the wrong generation passed");

    // The traced run produced per-layer figures.
    assert!(ex.layers.0.iter().any(|(n, v, _)| n == "eval.seminaive_ms.t1" && *v > 0.0));
}

#[test]
fn a_seed_always_gives_the_same_inputs() {
    for kind in [Kind::ServeSelective, Kind::ServeWriteHeavy, Kind::SessionFixpoint] {
        let generated = || {
            let inputs = Inputs::generate(kind, Scale::Full, 5);
            let texts: Vec<String> = inputs.programs.iter().map(|p| p.text()).collect();
            let mut client = inputs.client(0);
            let ops: Vec<String> =
                (0..3).flat_map(|_| client.round()).map(|op| format!("{op:?}")).collect();
            (texts, ops)
        };
        assert_eq!(generated(), generated(), "{kind:?}");
    }
}

#[test]
fn serve_selective_checker_rejects_wrong_answers() {
    self_test(Kind::ServeSelective);
}

#[test]
fn serve_write_heavy_checker_rejects_wrong_answers() {
    self_test(Kind::ServeWriteHeavy);
}

#[test]
fn session_fixpoint_checker_rejects_wrong_answers() {
    self_test(Kind::SessionFixpoint);
}
