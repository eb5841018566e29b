//! Model test for the lint's flat polynomials.
//!
//! `Poly` keeps its terms in a sorted, shared list of inline monomials.
//! This test runs seeded random operation sequences on it and, side by side,
//! on a reference that keeps the terms in a `BTreeMap<Vec<AtomId>, i64>`,
//! the representation the flat one replaced. Every result must match the
//! reference: term order, `render` text, `eval_range`, `as_const`,
//! `as_single_atom`, `has_lane`, whether `mul` rejects a product as
//! oversized, and the atoms `shr_poly`/`rem_poly` intern. Equal
//! polynomials must hash alike, whether they were built, grown past or
//! shrunk back under some size, or copied before an edit.
//!
//! Negation wraps in both, as the map representation did in release
//! builds.

use rmt_ir::analysis::lint::expr::{
    rem_poly, shr_poly, AtomId, AtomKind, Atoms, Monomial, Poly, BIG,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

const MAX_DEGREE: usize = 4;
const MAX_TERMS: usize = 24;

/// The reference: the map representation, operation for operation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Model {
    terms: BTreeMap<Vec<AtomId>, i64>,
    k: i64,
}

impl Model {
    fn constant(k: i64) -> Self {
        Model {
            terms: BTreeMap::new(),
            k,
        }
    }

    fn atom(a: AtomId) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(vec![a], 1);
        Model { terms, k: 0 }
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.k)
    }

    fn as_single_atom(&self) -> Option<AtomId> {
        if self.k != 0 || self.terms.len() != 1 {
            return None;
        }
        let (m, &c) = self.terms.iter().next().unwrap();
        (c == 1 && m.len() == 1).then(|| m[0])
    }

    fn oversized(&self) -> bool {
        self.terms.len() > MAX_TERMS || self.terms.keys().any(|m| m.len() > MAX_DEGREE)
    }

    fn acc(&mut self, m: &[AtomId], c: i64) {
        let e = self.terms.entry(m.to_vec()).or_insert(0);
        *e = e.saturating_add(c);
        if *e == 0 {
            self.terms.remove(m);
        }
    }

    fn add(&self, o: &Model) -> Model {
        let mut r = self.clone();
        r.k = r.k.saturating_add(o.k);
        for (m, &c) in &o.terms {
            r.acc(m, c);
        }
        r
    }

    fn neg(&self) -> Model {
        let mut r = self.clone();
        r.k = r.k.wrapping_neg();
        for c in r.terms.values_mut() {
            *c = c.wrapping_neg();
        }
        r
    }

    fn sub(&self, o: &Model) -> Model {
        self.add(&o.neg())
    }

    fn scale(&self, s: i64) -> Model {
        if s == 0 {
            return Model::constant(0);
        }
        let mut r = self.clone();
        r.k = r.k.saturating_mul(s);
        for c in r.terms.values_mut() {
            *c = c.saturating_mul(s);
        }
        r
    }

    fn mul(&self, o: &Model) -> Option<Model> {
        let mut r = Model::constant(self.k.saturating_mul(o.k));
        for (m, c) in &self.terms {
            if o.k != 0 {
                r.acc(m, c.saturating_mul(o.k));
            }
        }
        for (m, c) in &o.terms {
            if self.k != 0 {
                r.acc(m, c.saturating_mul(self.k));
            }
        }
        for (ma, ca) in &self.terms {
            for (mb, cb) in &o.terms {
                let mut m = ma.clone();
                m.extend_from_slice(mb);
                m.sort_unstable();
                r.acc(&m, ca.saturating_mul(*cb));
            }
        }
        (!r.oversized()).then_some(r)
    }

    fn has_lane(&self, atoms: &Atoms) -> bool {
        self.terms
            .keys()
            .any(|m| m.iter().any(|&a| atoms.info(a).lane))
    }

    fn split_lane(&self, atoms: &Atoms) -> (Model, Model) {
        let mut lane = Model::constant(0);
        let mut unif = Model::constant(self.k);
        for (m, c) in &self.terms {
            let target = if m.iter().any(|&a| atoms.info(a).lane) {
                &mut lane
            } else {
                &mut unif
            };
            target.terms.insert(m.clone(), *c);
        }
        (lane, unif)
    }

    fn eval_range(&self, atoms: &Atoms) -> (i128, i128) {
        let mut lo = self.k as i128;
        let mut hi = self.k as i128;
        for (m, &c) in &self.terms {
            let (mut mlo, mut mhi) = (1i128, 1i128);
            for &a in m {
                let i = atoms.info(a);
                let cands = [
                    mlo.saturating_mul(i.lo),
                    mlo.saturating_mul(i.hi),
                    mhi.saturating_mul(i.lo),
                    mhi.saturating_mul(i.hi),
                ];
                mlo = *cands.iter().min().unwrap();
                mhi = *cands.iter().max().unwrap();
            }
            let c = c as i128;
            let cands = [mlo.saturating_mul(c), mhi.saturating_mul(c)];
            lo = lo.saturating_add(*cands.iter().min().unwrap());
            hi = hi.saturating_add(*cands.iter().max().unwrap());
        }
        (lo, hi)
    }

    fn render(&self, atoms: &Atoms) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (m, c) in &self.terms {
            if !s.is_empty() {
                s.push_str(" + ");
            }
            if *c != 1 || m.is_empty() {
                let _ = write!(s, "{c}");
                if !m.is_empty() {
                    s.push('*');
                }
            }
            let names: Vec<String> = m.iter().map(|&a| render_atom(atoms, a)).collect();
            s.push_str(&names.join("*"));
        }
        if self.k != 0 || s.is_empty() {
            if !s.is_empty() {
                let _ = write!(s, " + {}", self.k);
            } else {
                let _ = write!(s, "{}", self.k);
            }
        }
        s
    }

    /// The flat polynomial with the same terms, for interning.
    fn to_poly(&self) -> Poly {
        let mut p = Poly::constant(self.k);
        for (m, &c) in &self.terms {
            let mut mono = Monomial::ONE;
            for &a in m {
                mono.push(a);
            }
            p.add_term(mono, c);
        }
        p
    }
}

fn render_atom(atoms: &Atoms, a: AtomId) -> String {
    match &atoms.info(a).kind {
        AtomKind::Quot { arg, shift } => format!("({} >> {shift})", arg.render(atoms)),
        AtomKind::Rem { arg, shift } => {
            format!("({} & {})", arg.render(atoms), (1u64 << shift) - 1)
        }
        AtomKind::Opaque { id } => format!("unk{id}"),
        other => panic!("the sequences intern no {other:?}"),
    }
}

fn model_shr(atoms: &mut Atoms, p: &Model, shift: u8) -> Model {
    let d = 1i64 << shift;
    if let Some(k) = p.as_const() {
        if k >= 0 {
            return Model::constant(k >> shift);
        }
    }
    if p.k >= 0 && p.k % d == 0 && p.terms.values().all(|&c| c >= 0 && c % d == 0) {
        let mut r = p.clone();
        r.k /= d;
        for c in r.terms.values_mut() {
            *c /= d;
        }
        return r;
    }
    let (plo, phi) = p.eval_range(atoms);
    let lo = if plo <= 0 { 0 } else { plo >> shift };
    let hi = if phi >= BIG { BIG } else { phi >> shift };
    let lane = p.has_lane(atoms);
    if lo == hi {
        return Model::constant(lo as i64);
    }
    let arg = p.to_poly();
    Model::atom(atoms.intern(AtomKind::Quot { arg, shift }, lane, lo, hi))
}

fn model_rem(atoms: &mut Atoms, p: &Model, shift: u8) -> Model {
    let d = 1i64 << shift;
    if let Some(k) = p.as_const() {
        if k >= 0 {
            return Model::constant(k & (d - 1));
        }
    }
    let (plo, phi) = p.eval_range(atoms);
    if plo >= 0 && phi < d as i128 {
        return p.clone();
    }
    let lane = p.has_lane(atoms);
    let arg = p.to_poly();
    Model::atom(atoms.intern(AtomKind::Rem { arg, shift }, lane, 0, (d - 1) as i128))
}

/// xorshift64*: a small seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A coefficient: mostly small, sometimes near the `i64` limits so
    /// the saturating paths run.
    fn coeff(&mut self) -> i64 {
        match self.below(10) {
            0 => i64::MAX / (1 + self.below(3) as i64),
            1 => i64::MIN / (1 + self.below(3) as i64),
            _ => self.below(17) as i64 - 8,
        }
    }
}

fn hash_of(p: &Poly) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// The flat side's atom table and the model's, grown by the same calls.
struct Tables {
    flat: Atoms,
    model: Atoms,
}

impl Tables {
    fn fresh_opaque(&mut self, lane: bool, lo: i128, hi: i128) -> AtomId {
        let a = self.flat.fresh_opaque(lane, lo, hi);
        assert_eq!(self.model.fresh_opaque(lane, lo, hi), a);
        a
    }

    /// Asserts that both tables hold the same atoms.
    fn check(&self, what: &str) {
        assert_eq!(
            self.flat.len(),
            self.model.len(),
            "{what}: atoms interned apart"
        );
        for id in (0..self.flat.len() as u32).map(AtomId) {
            let (f, m) = (self.flat.info(id), self.model.info(id));
            assert_eq!(
                (&f.kind, f.lane, f.lo, f.hi),
                (&m.kind, m.lane, m.lo, m.hi),
                "{what}: atom {id:?}"
            );
        }
    }
}

/// Asserts that `p` and `m` agree on everything observable.
fn check(p: &Poly, m: &Model, t: &Tables, what: &str) {
    let flat: Vec<(Vec<AtomId>, i64)> = p.terms().iter().map(|(t, c)| (t.to_vec(), *c)).collect();
    let map: Vec<(Vec<AtomId>, i64)> = m.terms.iter().map(|(t, c)| (t.clone(), *c)).collect();
    assert_eq!(flat, map, "{what}: terms");
    assert_eq!(p.k, m.k, "{what}: constant");
    assert_eq!(p.render(&t.flat), m.render(&t.model), "{what}: render");
    assert_eq!(
        p.eval_range(&t.flat),
        m.eval_range(&t.model),
        "{what}: eval_range"
    );
    assert_eq!(p.as_const(), m.as_const(), "{what}: as_const");
    assert_eq!(
        p.as_single_atom(),
        m.as_single_atom(),
        "{what}: as_single_atom"
    );
    assert_eq!(
        p.has_lane(&t.flat),
        m.has_lane(&t.model),
        "{what}: has_lane"
    );
    assert_eq!(*p, m.to_poly(), "{what}: rebuilt from the model");
}

/// One seeded sequence of `steps` operations over a pool of operands.
fn run_sequence(seed: u64, steps: usize) {
    let mut rng = Rng(seed | 1);
    let mut t = Tables {
        flat: Atoms::new(),
        model: Atoms::new(),
    };
    let mut pool: Vec<(Poly, Model)> = vec![(Poly::constant(0), Model::constant(0))];
    for i in 0..6u32 {
        let lane = i % 2 == 0;
        let hi = [1, 63, 255, BIG][rng.below(4)];
        let lo = if rng.below(3) == 0 { -hi } else { 0 };
        let a = t.fresh_opaque(lane, lo, hi);
        pool.push((Poly::atom(a), Model::atom(a)));
        let k = rng.coeff();
        pool.push((Poly::constant(k), Model::constant(k)));
    }
    for step in 0..steps {
        let (pa, ma) = pool[rng.below(pool.len())].clone();
        let (pb, mb) = pool[rng.below(pool.len())].clone();
        let what = format!("seed {seed} step {step}");
        let (p, m) = match rng.below(8) {
            0 => (pa.add(&pb), ma.add(&mb)),
            1 => (pa.sub(&pb), ma.sub(&mb)),
            2 => (pa.neg(), ma.neg()),
            3 => {
                let s = rng.coeff();
                (pa.scale(s), ma.scale(s))
            }
            4 => match (pa.mul(&pb), ma.mul(&mb)) {
                (Some(p), Some(m)) => (p, m),
                (None, None) => continue,
                (p, m) => panic!("{what}: mul verdicts differ: {p:?} vs {m:?}"),
            },
            5 => {
                let (pl, pu) = pa.split_lane(&t.flat);
                let (ml, mu) = ma.split_lane(&t.model);
                check(&pu, &mu, &t, &format!("{what} (uniform part)"));
                (pl, ml)
            }
            6 => {
                let shift = rng.below(4) as u8;
                let p = shr_poly(&mut t.flat, &pa, shift);
                (p, model_shr(&mut t.model, &ma, shift))
            }
            _ => {
                let shift = rng.below(4) as u8;
                let p = rem_poly(&mut t.flat, &pa, shift);
                (p, model_rem(&mut t.model, &ma, shift))
            }
        };
        t.check(&what);
        check(&p, &m, &t, &what);
        // Equality and hashing agree with the model's equality.
        for (q, n) in &pool {
            assert_eq!(p == *q, m == *n, "{what}: equality");
            if p == *q {
                assert_eq!(
                    hash_of(&p),
                    hash_of(q),
                    "{what}: equal polynomials hash apart"
                );
            }
        }
        if pool.len() < 48 {
            pool.push((p, m));
        } else {
            let i = rng.below(pool.len());
            pool[i] = (p, m);
        }
    }
}

#[test]
fn flat_polynomials_match_the_map_model() {
    for seed in 1..=64u64 {
        run_sequence(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15), 400);
    }
}

#[test]
fn products_up_to_the_slot_count_are_formed_then_rejected() {
    // Two degree-4 monomials multiply into a degree-8 one: it fits the
    // inline slots and is rejected as oversized, as the map did.
    let mut atoms = Atoms::new();
    let a: Vec<AtomId> = (0..4).map(|_| atoms.fresh_opaque(false, 0, 3)).collect();
    let square = |x: &Poly, y: &Poly| x.mul(y).expect("degree stays within the cap");
    let ab = square(&Poly::atom(a[0]), &Poly::atom(a[1]));
    let cd = square(&Poly::atom(a[2]), &Poly::atom(a[3]));
    let quartic = square(&ab, &cd);
    assert_eq!(quartic.terms()[0].0.len(), 4);
    assert!(quartic.mul(&quartic).is_none());
    // A cancelled product term leaves nothing to reject.
    let diff = quartic.sub(&quartic);
    assert_eq!(diff.as_const(), Some(0));
    assert_eq!(quartic.mul(&diff).map(|p| p.as_const()), Some(Some(0)));
}

#[test]
fn saturating_partial_products_sum_in_term_order() {
    // In (X·a + Y·b + Z·ab)·(U·a + V·b + W) the monomial ab collects
    // Z·W, then X·V, then Y·U. With Z·W and X·V saturating at i64::MAX
    // and Y·U = −i64::MAX, that order leaves 0 (no ab term); summed in
    // any other order it leaves i64::MAX.
    let mut t = Tables {
        flat: Atoms::new(),
        model: Atoms::new(),
    };
    let (a, b) = (t.fresh_opaque(false, 0, 3), t.fresh_opaque(false, 0, 3));
    let (big, neg) = (i64::MAX, -i64::MAX);
    let flat_ab = Poly::atom(a).mul(&Poly::atom(b)).unwrap();
    let model_ab = Model::atom(a).mul(&Model::atom(b)).unwrap();
    let p = Poly::atom(a)
        .scale(big)
        .add(&Poly::atom(b).scale(neg))
        .add(&flat_ab.scale(big));
    let m = Model::atom(a)
        .scale(big)
        .add(&Model::atom(b).scale(neg))
        .add(&model_ab.scale(big));
    let q = Poly::atom(a)
        .add(&Poly::atom(b).scale(2))
        .add(&Poly::constant(2));
    let n = Model::atom(a)
        .add(&Model::atom(b).scale(2))
        .add(&Model::constant(2));
    let (pq, mn) = (p.mul(&q).unwrap(), m.mul(&n).unwrap());
    check(&pq, &mn, &t, "saturating product");
    assert!(!pq
        .terms()
        .iter()
        .any(|(t, _)| t.len() == 2 && t[0] == a && t[1] == b));
}

/// Asserts that two routes to the same polynomial are indistinguishable:
/// equal, hashed alike, rendered alike.
fn same(p: &Poly, q: &Poly, t: &Tables, what: &str) {
    assert_eq!(p, q, "{what}: equality");
    assert_eq!(hash_of(p), hash_of(q), "{what}: hash");
    assert_eq!(p.render(&t.flat), q.render(&t.flat), "{what}: render");
}

#[test]
fn growing_and_shrinking_across_storage_forms() {
    // A polynomial grows one term at a time from a constant to eight
    // terms, past any number of terms kept without sharing, and shrinks
    // back in another order. At every size the term edits, arithmetic
    // on fresh operands and a rebuild from the model must agree, and a
    // clone taken before each edit must keep its terms.
    let mut t = Tables {
        flat: Atoms::new(),
        model: Atoms::new(),
    };
    let atoms: Vec<AtomId> = (0..8).map(|i| t.fresh_opaque(i % 2 == 0, -4, 15)).collect();
    let (mut p, mut m) = (Poly::constant(3), Model::constant(3));
    let mut sum = Poly::constant(3);
    for (i, &a) in atoms.iter().enumerate() {
        let c = i as i64 - 3;
        let c = if c == 0 { 1 } else { c };
        let (before, before_m) = (p.clone(), m.clone());
        p.add_term(Monomial::of(a), c);
        m.acc(&[a], c);
        sum = sum.add(&Poly::atom(a).scale(c));
        let what = format!("grown to {} terms", i + 1);
        check(&p, &m, &t, &what);
        check(&before, &before_m, &t, &format!("{what}: earlier clone"));
        same(&p, &sum, &t, &format!("{what}: by arithmetic"));
        same(&p, &m.to_poly(), &t, &format!("{what}: rebuilt"));
        // Whole-polynomial edits of a clone leave the original alone.
        let q = p.clone();
        check(&q.neg(), &m.neg(), &t, &format!("{what}: negated"));
        check(&q.scale(-2), &m.scale(-2), &t, &format!("{what}: scaled"));
        check(&p, &m, &t, &format!("{what}: after editing a clone"));
    }
    // Odd atoms first, then even ones, so the list shrinks from inside.
    let order = atoms
        .iter()
        .skip(1)
        .step_by(2)
        .chain(atoms.iter().step_by(2));
    for (n, &a) in order.enumerate() {
        let before = p.clone();
        let c = p.remove_term(&Monomial::of(a)).expect("term present");
        assert_eq!(m.terms.remove(&[a][..]), Some(c));
        sum = sum.sub(&Poly::atom(a).scale(c));
        let what = format!("shrunk to {} terms", atoms.len() - n - 1);
        check(&p, &m, &t, &what);
        same(&p, &sum, &t, &format!("{what}: by arithmetic"));
        same(&p, &m.to_poly(), &t, &format!("{what}: rebuilt"));
        assert_eq!(before.terms().len(), p.terms().len() + 1, "{what}: clone");
    }
    same(&p, &Poly::constant(3), &t, "back to the constant");
    // Cancellation shrinks too: x + y + z - (x + y + z) is the constant 0.
    let xyz = (0..3).fold(Poly::constant(0), |acc, i| acc.add(&Poly::atom(atoms[i])));
    same(&xyz.sub(&xyz), &Poly::constant(0), &t, "cancelled");
    same(
        &xyz.add(&xyz.neg()),
        &Poly::default(),
        &t,
        "cancelled by negation",
    );
}
