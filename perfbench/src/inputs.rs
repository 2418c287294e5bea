//! The generated inputs: the two fixed CLI instances and the seeded
//! request schedule of the service workload.

use absolver::core::{parser, AbProblem, VarKind};
use absolver::linear::CmpOp;
use absolver::nonlinear::Expr;
use absolver::num::Rational;
use absolver_testkit::{Rng, Xoshiro256pp};

/// The paper's car-steering controller (Table 1).
pub fn steering_text() -> String {
    parser::write(&absolver::model::steering_problem())
}

/// Threshold-reach with m = 60: 34 Boolean models, each refuted by one
/// minimised linear conflict.
pub fn threshold_text() -> String {
    parser::write(&absolver_bench::workloads::threshold_problem(60))
}

/// Closed-loop client slots of the service workload.
pub const SLOTS: usize = 4;
/// Arithmetic variables per service problem.
const M: usize = 14;
/// Statically-unsat bodies per family; repeats reach the analysis tier.
const UNSAT_BODIES: usize = 3;
/// At most this many free atoms are pinned per clause variant.
const MAX_PINS: usize = 4;

/// What a service request does to the daemon's warm state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A new clause variant of the slot's current family.
    Variant,
    /// A byte-identical resubmission of a body sent in this family visit.
    Resubmit,
    /// A body the interval dataflow refutes before any solving.
    StaticUnsat,
    /// The first variant of a family never seen before.
    NewFamily,
    /// A new variant of a family this slot left earlier.
    Return,
}

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request id on the wire; unique in the schedule.
    pub id: u64,
    /// The declaration family; no family appears in two slots.
    pub family: u32,
    /// How the request was drawn.
    pub kind: Kind,
    /// The problem body.
    pub text: String,
    /// The verdict the daemon must answer.
    pub expect: &'static str,
}

/// The `solve` frame the daemon receives for `request`: the body and its
/// id, and nothing else.
pub fn solve_frame(request: &Request) -> String {
    format!("solve id={}\n{}.\n", request.id, request.text)
}

/// Coupling of family `g`: `x_a² + k·x_b² ≤ 1 + k`, which every point of
/// `{-1, 0, 1}²` satisfies. Family 0 is `x0² + x1² ≤ 2`, the coupling of
/// the `service_load` bench; each family gets its own terms, so new
/// families grow the daemon's term arena.
fn family_coupling(g: u32) -> (usize, usize, i64) {
    let g = g as usize;
    let a = g % M;
    let b = (a + 1 + (g / M) % (M - 1)) % M;
    (a, b, 1 + (g / (M * (M - 1))) as i64)
}

/// A member of family `g`: `service_load`'s 14-variable threshold
/// skeleton with the family coupling, each free atom in `pins` required
/// true or false, and, for a statically-unsat body, a required
/// `x_c + x_d ≥ 3` that the forced bounds `x ≤ 1` refute.
fn family_text(g: u32, pins: &[(usize, bool)], unsat_pair: Option<(usize, usize)>) -> String {
    let mut b = AbProblem::builder();
    let vars: Vec<usize> = (0..M)
        .map(|i| b.arith_var(&format!("x{i}"), VarKind::Int))
        .collect();
    let mut frees = Vec::new();
    for &v in &vars {
        frees.push(b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(1)));
        let lo = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(-1));
        b.require(lo.positive());
        let hi = b.atom(Expr::var(v), CmpOp::Le, Rational::from_int(1));
        b.require(hi.positive());
    }
    let sum = vars.iter().fold(Expr::int(0), |acc, &v| acc + Expr::var(v));
    let target = (M * 55).div_ceil(100) as i64;
    let u = b.atom(sum, CmpOp::Ge, Rational::from_int(target));
    b.require(u.positive());
    let (xa, xb, k) = family_coupling(g);
    let square_b = Expr::var(vars[xb]) * Expr::var(vars[xb]);
    let square_b = if k == 1 {
        square_b
    } else {
        Expr::int(k) * square_b
    };
    let coupling = b.atom(
        Expr::var(vars[xa]) * Expr::var(vars[xa]) + square_b,
        CmpOp::Le,
        Rational::from_int(1 + k),
    );
    b.require(coupling.positive());
    for &(i, value) in pins {
        b.require(if value {
            frees[i].positive()
        } else {
            frees[i].negative()
        });
    }
    if let Some((c, d)) = unsat_pair {
        let over = b.atom(
            Expr::var(vars[c]) + Expr::var(vars[d]),
            CmpOp::Ge,
            Rational::from_int(3),
        );
        b.require(over.positive());
    }
    parser::write(&b.build())
}

/// A clause variant of family `g`: one to [`MAX_PINS`] free atoms pinned
/// to a random polarity. With at most four atoms pinned false, ten
/// variables can still reach the sum threshold, so every variant is sat.
fn variant(rng: &mut Xoshiro256pp, family: u32) -> String {
    let mut atoms: Vec<usize> = (0..M).collect();
    let count = rng.gen_range(1..=MAX_PINS);
    for i in 0..count {
        let j = rng.gen_range(i..M);
        atoms.swap(i, j);
    }
    let mut pins: Vec<(usize, bool)> = atoms[..count]
        .iter()
        .map(|&i| (i, rng.gen_range(0..2u32) == 1))
        .collect();
    pins.sort_unstable();
    family_text(family, &pins, None)
}

/// The request sequence of every slot: `per_slot` requests each, drawn
/// from `seed`. Each slot opens its own families (`slot + SLOTS·j`), so
/// with one request in flight per slot no two in-flight requests share a
/// family. Per request the draw is: a new clause variant (77%), a
/// byte-identical resubmission (10%), a statically-unsat body (5%), a
/// switch to a new family (5%) or a return to a family the slot left
/// (3%).
pub fn schedule(seed: u64, per_slot: usize) -> Vec<Vec<Request>> {
    (0..SLOTS)
        .map(|slot| {
            let mut rng = Xoshiro256pp::seed_from_u64(
                seed ^ (slot as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let fresh_family = |opened: &mut u32| {
                *opened += 1;
                slot as u32 + SLOTS as u32 * (*opened - 1)
            };
            let mut opened = 0;
            let mut family = fresh_family(&mut opened);
            let mut retired: Vec<u32> = Vec::new();
            let mut visit: Vec<String> = Vec::new();
            let mut requests = Vec::with_capacity(per_slot);
            for i in 0..per_slot {
                let draw = rng.gen_range(0..100u32);
                let mut kind = match draw {
                    _ if i == 0 => Kind::Variant,
                    0..=76 => Kind::Variant,
                    77..=86 => Kind::Resubmit,
                    87..=91 => Kind::StaticUnsat,
                    92..=96 => Kind::NewFamily,
                    _ => Kind::Return,
                };
                if kind == Kind::Return && retired.is_empty() {
                    kind = Kind::NewFamily;
                }
                let (text, expect) = match kind {
                    Kind::Variant => (variant(&mut rng, family), "sat"),
                    Kind::Resubmit => (visit[rng.gen_range(0..visit.len())].clone(), "sat"),
                    Kind::StaticUnsat => {
                        let j = rng.gen_range(0..UNSAT_BODIES);
                        (
                            family_text(family, &[], Some((j, M - 1 - j))),
                            "static-unsat",
                        )
                    }
                    Kind::NewFamily | Kind::Return => {
                        let next = if kind == Kind::NewFamily {
                            fresh_family(&mut opened)
                        } else {
                            retired.remove(rng.gen_range(0..retired.len()))
                        };
                        retired.push(family);
                        family = next;
                        visit.clear();
                        (variant(&mut rng, family), "sat")
                    }
                };
                if expect == "sat" && kind != Kind::Resubmit {
                    visit.push(text.clone());
                }
                requests.push(Request {
                    id: (i * SLOTS + slot) as u64,
                    family,
                    kind,
                    text,
                    expect,
                });
            }
            requests
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use absolver::service::protocol::ClientFrame;
    use absolver::service::RequestDecoder;
    use std::collections::HashMap;

    fn rendered(schedule: &[Vec<Request>]) -> String {
        schedule.iter().flatten().map(solve_frame).collect()
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_schedule() {
        let a = schedule(7, 60);
        let b = schedule(7, 60);
        assert_eq!(a, b);
        assert_eq!(rendered(&a), rendered(&b));
        assert_ne!(rendered(&a), rendered(&schedule(8, 60)));
    }

    #[test]
    fn no_family_is_shared_between_slots() {
        let mut owner: HashMap<u32, usize> = HashMap::new();
        for (slot, requests) in schedule(3, 400).iter().enumerate() {
            for r in requests {
                assert_eq!(
                    *owner.entry(r.family).or_insert(slot),
                    slot,
                    "family {}",
                    r.family
                );
            }
        }
        assert!(owner.len() > 2 * SLOTS, "families switch: {}", owner.len());
    }

    #[test]
    fn the_daemon_receives_exactly_the_generated_bodies() {
        let schedule = schedule(11, 40);
        let mut decoder = RequestDecoder::new();
        let requests: Vec<&Request> = schedule.iter().flatten().collect();
        let mut frames = Vec::new();
        for line in rendered(&schedule).lines() {
            if let Some(frame) = decoder.push_line(line) {
                frames.push(frame.expect("well-formed frame"));
            }
        }
        assert_eq!(frames.len(), requests.len());
        for (frame, request) in frames.iter().zip(requests) {
            let ClientFrame::Solve(solve) = frame else {
                panic!("only solve frames: {frame:?}");
            };
            assert_eq!(solve.id, request.id);
            assert_eq!(solve.text, request.text);
            assert_eq!(solve.timeout_ms, None);
        }
    }

    #[test]
    fn draws_follow_the_mix_and_keep_their_verdicts() {
        let schedule = schedule(5, 1000);
        let all: Vec<&Request> = schedule.iter().flatten().collect();
        let share = |k: Kind| all.iter().filter(|r| r.kind == k).count() as f64 / all.len() as f64;
        assert!((0.73..0.81).contains(&share(Kind::Variant)));
        assert!((0.08..0.12).contains(&share(Kind::Resubmit)));
        assert!((0.035..0.065).contains(&share(Kind::StaticUnsat)));
        assert!((0.035..0.065).contains(&share(Kind::NewFamily)));
        assert!((0.015..0.045).contains(&share(Kind::Return)));
        let ids: std::collections::HashSet<u64> = all.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), all.len());
        for r in &all {
            let problem: AbProblem = r.text.parse().expect("generated bodies parse");
            let refuted = !matches!(
                absolver::analyze::dataflow(&problem, 16).verdict,
                absolver::analyze::DataflowVerdict::Converged
            );
            assert_eq!(refuted, r.expect == "static-unsat", "request {}", r.id);
        }
    }

    #[test]
    fn family_zero_is_the_service_load_coupling() {
        assert_eq!(family_coupling(0), (0, 1, 1));
        let distinct: std::collections::HashSet<_> = (0..400).map(family_coupling).collect();
        assert_eq!(distinct.len(), 400);
        assert!((0..400).map(family_coupling).all(|(a, b, _)| a != b));
    }
}
